"""Command-line front end.

Subcommands: ns-search, qfunc, universality, params, qudit-theta,
cat-diagnose. Each command builds one result record of unrounded numbers,
arrays and complex values; one emitter writes it as JSON, CSV or text and owns
the rounding to 12 significant digits, so a rerun with the same configuration
is byte-identical. Plots are delegated to generated gnuplot scripts; every
figure is reproducible from the CSV alone.

Exit codes: 0 success, 2 no solution, 3 invalid configuration,
4 numerical guard abort.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

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

    # argparse checks choices only on given values; a default set from a
    # config file must pass the same check, in the command that uses it.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for action in self._actions:
            value = getattr(namespace, action.dest, None)
            if action.choices is not None and value not in action.choices:
                allowed = ", ".join(map(repr, action.choices))
                self.error(
                    f"argument {'/'.join(action.option_strings)}: invalid choice: "
                    f"{value!r} (choose from {allowed})"
                )
        return namespace, extras


def fmt(x) -> str:
    return f"{float(x):.12g}"


class Formatted(list):
    """Numbers already formatted by fmt, kept as those strings; write_json
    writes each as the float it denotes, so each is formatted only once."""


# write_json joins the floats of a Formatted list this many at a time.
FLOAT_CHUNK = 4096


def jround(x):
    """Round to the 12-significant-digit output contract."""
    return float(fmt(x))


def rounded(value):
    """A result record as JSON data under the 12-significant-digit contract.

    Floats (numpy floats included) are rounded, a complex becomes [re, im],
    arrays and tuples become lists; ints, bools, strings, None and Formatted
    lists pass."""
    if isinstance(value, float):
        return jround(value)
    if isinstance(value, complex):
        return [jround(value.real), jround(value.imag)]
    if isinstance(value, dict):
        return {key: rounded(v) for key, v in value.items()}
    if isinstance(value, Formatted):
        return value
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [rounded(v) for v in value]
    return value


def finite(value, text):
    """value, parsed from text, unless it has an infinite or NaN part."""
    if not np.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# Option types for real and complex numbers; argparse names them in its errors.
def real(text):
    return finite(float(text), text)


def complex_number(text):
    return finite(complex(text), text)


def parse_range(text):
    lo, hi = (real(v) for v in text.split(":"))
    return (lo, hi)


def parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be x0:x1:n, got {text!r}")
    return real(parts[0]), real(parts[1]), int(parts[2])


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
        return finite(factor * scale * float(s), text)
    except ValueError as exc:
        raise ConfigError(f"cannot parse frequency {text!r}") from exc


def load_config(path):
    """Flat key = value file; '#' starts a comment."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def write_csv(path, header, rows, formatted=False):
    """Write the header, then rows of numbers, each cell formatted by fmt;
    `formatted` rows hold fmt's strings already and are written as given."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows if formatted else ([fmt(v) for v in row] for row in rows))


def _json_floats(texts, sep):
    """A list of fmt strings, each respelled in place where json writes its
    float differently, joined by sep."""
    values = np.fromiter(map(float, texts), float, len(texts))
    magnitude = np.abs(values)
    # repr(float(text)) differs from text for integral values below 1e16
    # ("3" is 3.0, "1e+12" is 1000000000000.0) and can differ for subnormal
    # floats (checked from 1e-300 down), and json spells inf and nan its way.
    respell = (
        ((values == np.trunc(values)) & (magnitude < 1e16))
        | (magnitude < 1e-300)
        | ~np.isfinite(values)
    )
    for i in np.flatnonzero(respell):
        texts[i] = json.dumps(float(texts[i]))
    return sep.join(texts)


def _json_chunks(data, indent="\n"):
    """The text of json.dumps(data, indent=2, sort_keys=True), in pieces.

    data is a rounded record. Its Formatted lists, which may sit in dicts but
    not in lists, are joined FLOAT_CHUNK floats at a time; json writes the
    rest, re-indented to its depth."""
    inner = indent + "  "
    if isinstance(data, Formatted) and data:
        yield "[" + inner
        for start in range(0, len(data), FLOAT_CHUNK):
            yield ("," + inner if start else "") + _json_floats(
                data[start : start + FLOAT_CHUNK], "," + inner
            )
        yield indent + "]"
    elif isinstance(data, dict) and data:
        for k, (key, value) in enumerate(sorted(data.items())):
            yield ("," if k else "{") + inner + json.dumps(key) + ": "
            yield from _json_chunks(value, inner)
        yield indent + "}"
    else:
        yield json.dumps(data, indent=2, sort_keys=True).replace("\n", indent)


def write_json(path, record):
    """Write rounded(record) as json.dump(..., indent=2, sort_keys=True) does,
    plus a final newline."""
    with open(path, "w") as fh:
        fh.writelines(_json_chunks(rounded(record)))
        fh.write("\n")


def print_result(result, as_json, text_lines):
    """Print a command's result record as JSON, or as the given text lines."""
    if as_json:
        print("".join(_json_chunks(rounded(result))))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------- ns-search


def cmd_ns_search(args):
    args.out.mkdir(parents=True, exist_ok=True)
    if args.two_atom:
        sols = search.two_atom_search(
            args.tau1_range, args.tau2_range, target_merit=args.target_merit, step=args.step
        )
        stem, tau_names, letter = "two_atom", ("tau1", "tau2"), "B"
    else:
        sols = search.ns_tau_candidates(args.max_tau)
        stem, tau_names, letter = "table1", ("tau",), "A"
    header = [*tau_names, *(f"{letter}{k}" for k in range(3)), "merit"]
    write_csv(args.out / f"{stem}.csv", header, [(*s.taus, *s.amplitudes, s.merit) for s in sols])
    if args.format == "json":
        records = [
            {**dict(zip(tau_names, s.taus)), "amplitudes": s.amplitudes, "merit": s.merit}
            for s in sols
        ]
        write_json(args.out / f"{stem}.json", {"solutions": records})
    if not sols:
        print("no solutions in the requested range", file=sys.stderr)
        return EXIT_NO_SOLUTION
    print(f"wrote {len(sols)} solution(s) to {args.out}")
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


def _conditional(args):
    """The cutoff and the state after one conditional step on |alpha>."""
    cutoff = default_cutoff(args.alpha) if args.cutoff is None else args.cutoff
    return cutoff, atomfield.apply_upsilon(coherent_state(args.alpha, cutoff), args.theta)


def cmd_qfunc(args):
    args.out.mkdir(parents=True, exist_ok=True)
    cutoff, cond = _conditional(args)
    x0, x1, n = args.grid
    grid = phasespace.q_function(
        cond.raw, x_range=(x0, x1), p_range=(x0, x1), resolution=n, convention=args.convention
    )
    # Each axis value and each Q value is formatted once, for CSV and JSON.
    x, p = ([fmt(v) for v in axis.tolist()] for axis in grid.axes())
    values = Formatted(fmt(v) for v in grid.values.ravel().tolist())
    rows = zip(x * n, (pi for pi in p for _ in x), values)
    write_csv(args.out / "qgrid.csv", ["x", "p", "Q"], rows, formatted=True)
    write_json(
        args.out / "qgrid.json",
        {
            "alpha": complex(args.alpha),
            "theta": args.theta,
            "cutoff": cutoff,
            "convention": args.convention,
            "x_range": (x0, x1),
            "p_range": (x0, x1),
            "resolution": n,
            "values_row_major": values,
        },
    )
    (args.out / "qgrid.gp").write_text(
        GNUPLOT_TEMPLATE.format(
            name="qgrid", title=f"Q function, alpha={args.alpha}, theta={fmt(args.theta)}"
        )
    )
    write_json(args.out / "lobes.json", phasespace.cat_diagnostics(cond.raw, args.alpha))
    print(f"wrote qgrid.csv, qgrid.json, qgrid.gp, lobes.json to {args.out}")
    return EXIT_OK


def cmd_cat_diagnose(args):
    cutoff, cond = _conditional(args)
    diag = phasespace.cat_diagnostics(cond.raw, args.alpha)
    diag.update(
        success_probability=cond.probability,
        alpha=complex(args.alpha),
        theta=args.theta,
        cutoff=cutoff,
    )
    print_result(diag, True, ())
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        write_json(args.out / "cat.json", diag)
    return EXIT_OK


# ------------------------------------------------------------- universality


def cmd_universality(args):
    alphas = [real(v) for v in args.alphas.split(",") if v.strip()]
    include_cubic = not args.drop_cubic
    comps, exponent = residual_scaling(
        alphas, subspace_dim=args.subspace, include_cubic=include_cubic
    )
    args.out.mkdir(parents=True, exist_ok=True)
    magnitudes = [abs(c.alpha) for c in comps]
    residuals = [c.residual_norm for c in comps]
    write_csv(args.out / "scaling.csv", ["alpha", "residual"], zip(magnitudes, residuals))
    write_json(
        args.out / "summary.json",
        {
            "alphas": magnitudes,
            "residuals": residuals,
            "subspace_dim": args.subspace,
            "include_cubic": include_cubic,
            "exponent": exponent,
        },
    )
    shown = "null" if exponent is None else fmt(exponent)
    print(f"fitted exponent: {shown}; wrote scaling.csv, summary.json to {args.out}")
    return EXIT_OK


# ------------------------------------------------------------------- params


def cmd_params(args):
    if args.g is None or args.omega is None or args.delta is None:
        raise ConfigError("params requires --g, --omega and --delta")
    kap = labparams.kappa(labparams.RamanParams(g=args.g, omega=args.omega, delta=args.delta))
    result = {"kappa_rad_per_s": kap, "kappa_over_2pi_hz": kap / (2.0 * math.pi)}
    lines = [f"kappa = {fmt(kap)} rad/s = 2pi x {fmt(kap / (2 * math.pi))} Hz"]
    if args.tau is not None:
        t = labparams.interaction_time(args.tau, kap)
        result.update(tau=args.tau, interaction_time_s=t)
        lines.append(f"t(tau={fmt(args.tau)}) = {fmt(t)} s")
    print_result(result, args.format == "json", lines)
    return EXIT_OK


# -------------------------------------------------------------- qudit-theta


def cmd_qudit_theta(args):
    pattern = search.sign_pattern(args.n_max)
    met = True
    try:
        theta, worst = search.qudit_theta_search(pattern, args.tolerance)
    except search.NoThetaFoundError as exc:
        # Report the best angle found anyway: the target column of the table
        # is still meaningful, and the worst_error field records the miss.
        met = False
        theta, worst = exc.best_theta, exc.best_error
        print(f"no solution: {exc}", file=sys.stderr)
    factors = atomfield.upsilon_factors(theta, args.n_max).tolist()
    table = [
        {"n": n, "cos": cos, "target": int(target)}
        for n, (cos, target) in enumerate(zip(factors, pattern.signs))
    ]
    result = {"theta": theta, "worst_error": worst, "tolerance": args.tolerance, "table": table}
    lines = [f"theta = {fmt(theta)}  worst error = {fmt(worst)}"] + [
        f"  n={row['n']:3d}  cos = {fmt(row['cos']):>18s}  target = {row['target']:+d}"
        for row in table
    ]
    print_result(result, args.format == "json", lines)
    return EXIT_OK if met else EXIT_NO_SOLUTION


# --------------------------------------------------------------------- main


def build_parser(config=None):
    """The CLI parser. `config` (key -> string) sets the subcommands'
    defaults; argparse converts them with each option's own type."""
    parser = _Parser(prog="nlcavity", description=__doc__)
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ns-search", help="interaction-time search for the sign gate")
    p.add_argument("--max-tau", dest="max_tau", type=real, default=250.0)
    p.add_argument("--two-atom", dest="two_atom", action="store_true")
    p.add_argument("--tau1-range", dest="tau1_range", type=parse_range, default=(1.0, 60.0))
    p.add_argument("--tau2-range", dest="tau2_range", type=parse_range, default=(1.0, 250.0))
    p.add_argument("--step", type=real, default=0.05)
    p.add_argument("--target-merit", dest="target_merit", type=real, default=1e-6)
    p.add_argument("--out", type=Path, default=".")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_ns_search)

    p = sub.add_parser("qfunc", help="Q-function grid for a conditional state")
    p.add_argument("--alpha", type=complex_number, default=10.0)
    p.add_argument("--theta", type=real, default=10.0 * math.pi)
    p.add_argument("--cutoff", type=int)
    p.add_argument(
        "--grid",
        type=parse_grid,
        default=(-15.0, 15.0, 301),
        help="x0:x1:n, applied to both axes",
    )
    p.add_argument("--convention", choices=phasespace.CONVENTIONS, default="paper-unnormalized")
    p.add_argument("--out", type=Path, default=".")
    p.set_defaults(func=cmd_qfunc)

    p = sub.add_parser("cat-diagnose", help="lobe angles and best cat fit")
    p.add_argument("--alpha", type=complex_number, default=10.0)
    p.add_argument("--theta", type=real, default=10.0 * math.pi)
    p.add_argument("--cutoff", type=int)
    p.add_argument("--out", type=Path)
    p.set_defaults(func=cmd_cat_diagnose)

    p = sub.add_parser("universality", help="generator-series residual scaling")
    p.add_argument(
        "--alphas", default="4,6,8,12,16", help="comma-separated displacement magnitudes"
    )
    p.add_argument("--subspace", type=int, default=3)
    p.add_argument("--drop-cubic", dest="drop_cubic", action="store_true")
    p.add_argument("--out", type=Path, default=".")
    p.set_defaults(func=cmd_universality)

    p = sub.add_parser("params", help="effective coupling and lab time")
    p.add_argument("--g", type=parse_freq)
    p.add_argument("--omega", type=parse_freq)
    p.add_argument("--delta", type=parse_freq)
    p.add_argument("--tau", type=real)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("qudit-theta", help="sign-shift angle search")
    p.add_argument("--n-max", dest="n_max", type=int, default=2)
    p.add_argument("--tolerance", type=real, default=0.01)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_qudit_theta)

    config = config or {}
    for p in sub.choices.values():
        # Value-taking options only: an on/off flag would store the truthy
        # string "false", and internal dests such as `func` are not options.
        options = [a.dest for a in p._actions if a.nargs != 0]
        p.set_defaults(**{key: config[key] for key in options if key in config})
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            args = build_parser(load_config(args.config)).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse error path
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except (CutoffTooSmallError, TruncationGuardError) as exc:
        print(f"numerical guard abort: {exc}", file=sys.stderr)
        return EXIT_GUARD_ABORT
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG


if __name__ == "__main__":
    sys.exit(main())
