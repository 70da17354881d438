"""Command-line front end.

Subcommands: ns-search, qfunc, universality, params, qudit-theta,
cat-diagnose. All numeric output is fixed to 12 significant digits so a rerun
with the same configuration is byte-identical. Plots are delegated to
generated gnuplot scripts; every figure is reproducible from the CSV alone.

Exit codes: 0 success, 2 no solution, 3 invalid configuration,
4 numerical guard abort.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import atomfield, labparams, phasespace, search
from .fock import CutoffTooSmallError, coherent_state, default_cutoff
from .universality import TruncationGuardError, residual_scaling

EXIT_OK = 0
EXIT_NO_SOLUTION = 2
EXIT_INVALID_CONFIG = 3
EXIT_GUARD_ABORT = 4


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 by default, which collides with "no solution".
    def error(self, message):
        self.exit(EXIT_INVALID_CONFIG, f"{self.prog}: error: {message}\n")

    # Values such as '-10:10:41' start with '-' but are arguments, not flags.
    def _parse_optional(self, arg_string):
        if len(arg_string) > 1 and arg_string[0] == "-" and arg_string[1].isdigit():
            return None
        return super()._parse_optional(arg_string)


def fmt(x) -> str:
    return f"{float(x):.12g}"


def jround(x):
    """Round to the 12-significant-digit output contract."""
    return float(fmt(x))


def parse_range(text):
    lo, hi = (float(v) for v in text.split(":"))
    return (lo, hi)


def parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be x0:x1:n, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def parse_freq(text) -> float:
    """Angular frequency in rad/s. Accepts plain numbers plus the common
    '2pi*' prefix and Hz/kHz/MHz/GHz suffixes, e.g. '2pi*4.5MHz'."""
    s = str(text).strip().lower().replace(" ", "")
    factor = 1.0
    for prefix in ("2pi*", "2pi×", "2*pi*"):
        if s.startswith(prefix):
            factor = 2.0 * math.pi
            s = s[len(prefix) :]
            break
    scale = 1.0
    for suffix, mult in (("ghz", 1e9), ("mhz", 1e6), ("khz", 1e3), ("hz", 1.0)):
        if s.endswith(suffix):
            scale = mult
            s = s[: -len(suffix)]
            break
    try:
        return factor * scale * float(s)
    except ValueError as exc:
        raise ConfigError(f"cannot parse frequency {text!r}") from exc


def load_config(path):
    """Flat key = value file; '#' starts a comment."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def resolve(args, config, key, convert, default):
    """Precedence: explicit flag > config file > built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in config:
        return convert(config[key])
    return default


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def print_result(result, as_json, text_lines):
    """Print a command's result record as JSON, or as the given text lines."""
    if as_json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------- ns-search


def cmd_ns_search(args, config):
    out_dir = Path(resolve(args, config, "out", str, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.two_atom:
        r1 = resolve(args, config, "tau1_range", parse_range, (1.0, 60.0))
        r2 = resolve(args, config, "tau2_range", parse_range, (1.0, 250.0))
        step = resolve(args, config, "step", float, 0.05)
        merit = resolve(args, config, "target_merit", float, 1e-6)
        sols = search.two_atom_search(r1, r2, target_merit=merit, step=step)
        stem, tau_names, letter = "two_atom", ("tau1", "tau2"), "B"
    else:
        max_tau = resolve(args, config, "max_tau", float, 250.0)
        sols = search.ns_tau_candidates(max_tau)
        stem, tau_names, letter = "table1", ("tau",), "A"
    header = [*tau_names, *(f"{letter}{k}" for k in range(3)), "merit"]
    rows = [[fmt(v) for v in (*s.taus, *s.amplitudes, s.merit)] for s in sols]
    write_csv(out_dir / f"{stem}.csv", header, rows)
    if resolve(args, config, "format", str, "csv") == "json":
        records = [
            {
                **{name: jround(t) for name, t in zip(tau_names, s.taus)},
                "amplitudes": [jround(a) for a in s.amplitudes],
                "merit": jround(s.merit),
            }
            for s in sols
        ]
        write_json(out_dir / f"{stem}.json", {"solutions": records})
    if not sols:
        print("no solutions in the requested range", file=sys.stderr)
        return EXIT_NO_SOLUTION
    print(f"wrote {len(sols)} solution(s) to {out_dir}")
    return EXIT_OK


# -------------------------------------------------------------------- qfunc


GNUPLOT_TEMPLATE = """\
# Heatmap of the Q-function grid; run: gnuplot {name}.gp
set datafile separator comma
set view map
set size ratio -1
set xlabel "x"
set ylabel "p"
set title "{title}"
splot "{name}.csv" skip 1 using 1:2:3 with points pt 5 ps 0.5 palette notitle
pause -1
"""


def cmd_qfunc(args, config):
    out_dir = Path(resolve(args, config, "out", str, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    alpha = resolve(args, config, "alpha", complex, 10.0)
    theta = resolve(args, config, "theta", float, 10.0 * math.pi)
    cutoff = resolve(args, config, "cutoff", int, None) or default_cutoff(alpha)
    x0, x1, n = resolve(args, config, "grid", parse_grid, (-15.0, 15.0, 301))
    convention = resolve(args, config, "convention", str, "paper-unnormalized")

    state = atomfield.apply_upsilon(coherent_state(alpha, cutoff), theta).raw
    grid = phasespace.q_function(
        state, x_range=(x0, x1), p_range=(x0, x1), resolution=n, convention=convention
    )
    x, p = grid.axes()
    rows = []
    for i in range(n):
        for j in range(n):
            rows.append([fmt(x[j]), fmt(p[i]), fmt(grid.values[i, j])])
    write_csv(out_dir / "qgrid.csv", ["x", "p", "Q"], rows)
    write_json(
        out_dir / "qgrid.json",
        {
            "alpha": [jround(complex(alpha).real), jround(complex(alpha).imag)],
            "theta": jround(theta),
            "cutoff": cutoff,
            "convention": convention,
            "x_range": [jround(x0), jround(x1)],
            "p_range": [jround(x0), jround(x1)],
            "resolution": n,
            "values_row_major": [jround(v) for v in grid.values.ravel()],
        },
    )
    (out_dir / "qgrid.gp").write_text(
        GNUPLOT_TEMPLATE.format(
            name="qgrid", title=f"Q function, alpha={alpha}, theta={fmt(theta)}"
        )
    )
    diag = phasespace.cat_diagnostics(state, alpha)
    write_json(out_dir / "lobes.json", _diag_to_json(diag))
    print(f"wrote qgrid.csv, qgrid.json, qgrid.gp, lobes.json to {out_dir}")
    return EXIT_OK


def _diag_to_json(diag):
    out = {
        "lobe_angles": [jround(a) for a in diag["lobe_angles"]],
        "lobe_q_values": [jround(v) for v in diag["lobe_q_values"]],
        "degenerate": diag["degenerate"],
        "lobe_separation": None
        if diag["lobe_separation"] is None
        else jround(diag["lobe_separation"]),
        "best_cat_fidelity": None
        if diag["best_cat_fidelity"] is None
        else jround(diag["best_cat_fidelity"]),
    }
    if "cat_gamma" in diag:
        out["cat_gamma"] = [jround(diag["cat_gamma"].real), jround(diag["cat_gamma"].imag)]
        out["cat_xi"] = jround(diag["cat_xi"])
    if "single_lobe_angle" in diag:
        out["single_lobe_angle"] = jround(diag["single_lobe_angle"])
    return out


def cmd_cat_diagnose(args, config):
    alpha = resolve(args, config, "alpha", complex, 10.0)
    theta = resolve(args, config, "theta", float, 10.0 * math.pi)
    cutoff = resolve(args, config, "cutoff", int, None) or default_cutoff(alpha)
    cond = atomfield.apply_upsilon(coherent_state(alpha, cutoff), theta)
    diag = _diag_to_json(phasespace.cat_diagnostics(cond.raw, alpha))
    diag["success_probability"] = jround(cond.probability)
    diag["alpha"] = [jround(complex(alpha).real), jround(complex(alpha).imag)]
    diag["theta"] = jround(theta)
    diag["cutoff"] = cutoff
    print_result(diag, True, ())
    out = resolve(args, config, "out", str, None)
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "cat.json", diag)
    return EXIT_OK


# ------------------------------------------------------------- universality


def cmd_universality(args, config):
    out_dir = Path(resolve(args, config, "out", str, "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    alphas_text = resolve(args, config, "alphas", str, "4,6,8,12,16")
    alphas = [float(v) for v in alphas_text.split(",") if v.strip()]
    k = resolve(args, config, "subspace", int, 3)
    include_cubic = not args.drop_cubic
    comps, exponent = residual_scaling(alphas, subspace_dim=k, include_cubic=include_cubic)
    write_csv(
        out_dir / "scaling.csv",
        ["alpha", "residual"],
        [[fmt(abs(c.alpha)), fmt(c.residual_norm)] for c in comps],
    )
    write_json(
        out_dir / "summary.json",
        {
            "alphas": [jround(abs(c.alpha)) for c in comps],
            "residuals": [jround(c.residual_norm) for c in comps],
            "subspace_dim": k,
            "include_cubic": include_cubic,
            "exponent": None if exponent is None else jround(exponent),
        },
    )
    shown = "null" if exponent is None else fmt(exponent)
    print(f"fitted exponent: {shown}; wrote scaling.csv, summary.json to {out_dir}")
    return EXIT_OK


# ------------------------------------------------------------------- params


def cmd_params(args, config):
    g = resolve(args, config, "g", parse_freq, None)
    omega = resolve(args, config, "omega", parse_freq, None)
    delta = resolve(args, config, "delta", parse_freq, None)
    if g is None or omega is None or delta is None:
        raise ConfigError("params requires --g, --omega and --delta")
    params = labparams.RamanParams(g=g, omega=omega, delta=delta)
    kap = labparams.kappa(params)
    result = {
        "kappa_rad_per_s": jround(kap),
        "kappa_over_2pi_hz": jround(kap / (2.0 * math.pi)),
    }
    lines = [f"kappa = {fmt(kap)} rad/s = 2pi x {fmt(kap / (2 * math.pi))} Hz"]
    tau = resolve(args, config, "tau", float, None)
    if tau is not None:
        result["tau"] = jround(tau)
        result["interaction_time_s"] = jround(labparams.interaction_time(tau, kap))
        lines.append(f"t(tau={fmt(tau)}) = {fmt(result['interaction_time_s'])} s")
    print_result(result, resolve(args, config, "format", str, "text") == "json", lines)
    return EXIT_OK


# -------------------------------------------------------------- qudit-theta


def cmd_qudit_theta(args, config):
    n_max = resolve(args, config, "n_max", int, 2)
    tolerance = resolve(args, config, "tolerance", float, 0.01)
    pattern = search.sign_pattern(n_max)
    met = True
    try:
        theta, worst = search.qudit_theta_search(pattern, tolerance)
    except search.NoThetaFoundError as exc:
        # Report the best angle found anyway: the target column of the table
        # is still meaningful, and the worst_error field records the miss.
        if exc.best_theta is None:
            raise
        met = False
        theta, worst = exc.best_theta, exc.best_error
        print(f"no solution: {exc}", file=sys.stderr)
    table = [
        {
            "n": int(n),
            "cos": jround(math.cos(theta * math.sqrt(n))),
            "target": int(pattern.signs[n]),
        }
        for n in range(n_max + 1)
    ]
    result = {
        "theta": jround(theta),
        "worst_error": jround(worst),
        "tolerance": tolerance,
        "table": table,
    }
    lines = [f"theta = {fmt(theta)}  worst error = {fmt(worst)}"] + [
        f"  n={row['n']:3d}  cos = {fmt(row['cos']):>18s}  target = {row['target']:+d}"
        for row in table
    ]
    print_result(result, resolve(args, config, "format", str, "text") == "json", lines)
    return EXIT_OK if met else EXIT_NO_SOLUTION


# --------------------------------------------------------------------- main


def build_parser():
    parser = _Parser(prog="nlcavity", description=__doc__)
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ns-search", help="interaction-time search for the sign gate")
    p.add_argument("--max-tau", dest="max_tau", type=float)
    p.add_argument("--two-atom", dest="two_atom", action="store_true")
    p.add_argument("--tau1-range", dest="tau1_range", type=parse_range)
    p.add_argument("--tau2-range", dest="tau2_range", type=parse_range)
    p.add_argument("--step", type=float)
    p.add_argument("--target-merit", dest="target_merit", type=float)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(func=cmd_ns_search)

    p = sub.add_parser("qfunc", help="Q-function grid for a conditional state")
    p.add_argument("--alpha", type=complex)
    p.add_argument("--theta", type=float)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--grid", type=parse_grid, help="x0:x1:n, applied to both axes")
    p.add_argument("--convention", choices=phasespace.CONVENTIONS)
    p.add_argument("--out")
    p.set_defaults(func=cmd_qfunc)

    p = sub.add_parser("cat-diagnose", help="lobe angles and best cat fit")
    p.add_argument("--alpha", type=complex)
    p.add_argument("--theta", type=float)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_cat_diagnose)

    p = sub.add_parser("universality", help="generator-series residual scaling")
    p.add_argument("--alphas", help="comma-separated displacement magnitudes")
    p.add_argument("--subspace", type=int)
    p.add_argument("--drop-cubic", dest="drop_cubic", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_universality)

    p = sub.add_parser("params", help="effective coupling and lab time")
    p.add_argument("--g", type=parse_freq)
    p.add_argument("--omega", type=parse_freq)
    p.add_argument("--delta", type=parse_freq)
    p.add_argument("--tau", type=float)
    p.add_argument("--format", choices=("text", "json"))
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("qudit-theta", help="sign-shift angle search")
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--format", choices=("text", "json"))
    p.set_defaults(func=cmd_qudit_theta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config) if args.config else {}
        return args.func(args, config)
    except SystemExit as exc:  # argparse error path
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (CutoffTooSmallError, TruncationGuardError) as exc:
        print(f"numerical guard abort: {exc}", file=sys.stderr)
        return EXIT_GUARD_ABORT
    except search.NoThetaFoundError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
