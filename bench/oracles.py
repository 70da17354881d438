"""Per-operation correctness checks, computed without importing nlcavity.

Each check takes an operation record written by bench/worker.py and returns
a list of problems; an empty list means the operation is correct.

Expected non-failures (not counted as errors):
  - qudit-theta exit 2, when the error recomputed at the reported theta
    exceeds the tolerance (the theta family was exhausted);
  - the far-field UserWarning "grid reaches |beta|^2 = ... > cutoff/2" that
    phasespace.q_function raises for every default qfunc grid and for the
    wide large-field grids.
Any other warning, stderr output, exit code or exception is a failure.

    python3 bench/oracles.py MANIFEST PART PARTS

checks every PARTS-th record of a worker manifest, starting at PART, and
prints [[index, problems], ...] as JSON; bench/run.py runs one such process
per core.
"""

import cmath
import csv
import json
import math
import random
import sys
from pathlib import Path

import jsonschema
import numpy as np

LEAKAGE_LIMIT = 1e-6  # truncation a coherent state may lose (README contract)
LOBE_STEP = 0.005  # angular resolution of the lobe search on |beta| = |alpha|
EXPONENT_BAND = (-3.5, -2.5)  # universality: residual falls off like |alpha|^-3
SAMPLED_POINTS = 12  # Q grid points checked per operation, plus the maximum
NS_SIGNS = (1.0, 1.0, -1.0)

FAR_FIELD = ("UserWarning", "grid reaches |beta|^2")


def close(got, want, rtol=1e-9, atol=0.0):
    return abs(got - want) <= atol + rtol * abs(want)


# ------------------------------------------------------------ field states


class ConditionalState:
    """cos(theta sqrt(n)) applied to the coherent state |alpha>, truncated at
    the cutoff and renormalized there, with every amplitude kept in log
    form: log|c_n| = -|alpha|^2/2 + n log|alpha| - lgamma(n+1)/2."""

    def __init__(self, alpha, theta, cutoff):
        r = abs(alpha)
        self.cutoff = cutoff
        self.log_fact = [math.lgamma(n + 1) for n in range(cutoff + 1)]
        self.log_mag = [-r * r / 2 + n * math.log(r) - lf / 2
                        for n, lf in enumerate(self.log_fact)]
        self.kept = math.fsum(math.exp(2 * lm) for lm in self.log_mag)
        self.cos = [math.cos(theta * math.sqrt(n)) for n in range(cutoff + 1)]
        self.arg = cmath.phase(alpha)

    def leakage(self):
        return max(0.0, 1.0 - self.kept)

    def success_probability(self):
        return math.fsum(math.exp(2 * lm) * c * c
                         for lm, c in zip(self.log_mag, self.cos)) / self.kept

    def q(self, beta):
        """(|<beta|psi>|^2, (sum_n |term_n|)^2) by a direct sum over n."""
        b = abs(beta)
        if b == 0.0:
            amp = math.exp(self.log_mag[0]) * self.cos[0]
            return amp * amp / self.kept, amp * amp / self.kept
        log_b, arg_b = math.log(b), cmath.phase(beta)
        re = im = scale = 0.0
        for n, (lm, lf, c) in enumerate(zip(self.log_mag, self.log_fact, self.cos)):
            mag = math.exp(lm - b * b / 2 + n * log_b - lf / 2) * c
            phase = n * (self.arg - arg_b)
            re += mag * math.cos(phase)
            im += mag * math.sin(phase)
            scale += abs(mag)
        return (re * re + im * im) / self.kept, scale * scale / self.kept

    def normalized_amps(self):
        n = np.arange(self.cutoff + 1)
        amps = np.exp(np.array(self.log_mag) + 1j * n * self.arg) * np.array(self.cos)
        return amps / np.linalg.norm(amps)

    def cat_fidelity(self, gamma, xi):
        """|<psi|cat>|^2 with cat = |gamma> + e^{i xi}|-gamma>, both truncated
        at the cutoff and the sum normalized."""
        n = np.arange(self.cutoff + 1)
        half_lf = np.array(self.log_fact) / 2

        def coherent(g):
            return np.exp(-abs(g) ** 2 / 2 + n * cmath.log(g) - half_lf)

        cat = coherent(gamma) + cmath.exp(1j * xi) * coherent(-gamma)
        cat /= np.linalg.norm(cat)
        return abs(np.vdot(self.normalized_amps(), cat)) ** 2


# Far out on the wide grids Q underflows into subnormal doubles, which carry
# only a few significant bits; there only closeness to zero is checked.
SUBNORMAL_FLOOR = 1e-300


def q_matches(state, beta, got):
    want, scale = state.q(beta)
    return close(got, want, rtol=1e-8, atol=1e-12 * scale + SUBNORMAL_FLOOR)


def check_grid(state, values, resolution, half_width, op_id):
    """Q at sampled grid points and at the grid maximum."""
    problems = []
    if len(values) != resolution * resolution:
        return [f"grid has {len(values)} values, expected {resolution ** 2}"]
    rng = random.Random(op_id)
    picks = rng.sample(range(len(values)), SAMPLED_POINTS)
    picks.append(max(range(len(values)), key=values.__getitem__))
    step = 2 * half_width / (resolution - 1)
    for k in picks:
        p, x = divmod(k, resolution)
        beta = complex(-half_width + x * step, -half_width + p * step)
        if not q_matches(state, beta, values[k]):
            problems.append(f"Q({beta:.4f}) = {values[k]!r}, direct sum gives {state.q(beta)[0]!r}")
    return problems


def check_lobes(state, radius, diag):
    """Lobes are local maxima of Q on |beta| = |alpha|; the cat fit's
    fidelity is recomputed from the reported gamma and xi."""
    problems = []
    angles, qs = diag["lobe_angles"], diag["lobe_q_values"]
    if not angles or len(angles) != len(qs):
        return [f"lobes {angles} with Q values {qs}"]
    for phi, q in zip(angles, qs):
        beta = cmath.rect(radius, phi)
        if not q_matches(state, beta, q):
            problems.append(f"lobe Q at phi={phi!r} is {q!r}, direct sum gives {state.q(beta)[0]!r}")
        for side in (-LOBE_STEP, LOBE_STEP):
            if state.q(cmath.rect(radius, phi + side))[0] > state.q(beta)[0] * (1 + 1e-9):
                problems.append(f"lobe at phi={phi!r} is not a local maximum")
    if diag["degenerate"] != (len(angles) < 2):
        problems.append(f"degenerate={diag['degenerate']} with {len(angles)} lobes")
    if len(angles) >= 2:
        (phi1, _), (phi2, _) = sorted(zip(angles, qs), key=lambda t: -t[1])[:2]
        sep = abs(cmath.rect(radius, phi1) - cmath.rect(radius, phi2))
        if not close(diag["lobe_separation"], sep, atol=1e-9):
            problems.append(f"lobe separation {diag['lobe_separation']!r}, expected {sep!r}")
        fid = state.cat_fidelity(complex(*diag["cat_gamma"]), diag["cat_xi"])
        if not close(diag["best_cat_fidelity"], fid, atol=1e-8):
            problems.append(f"cat fidelity {diag['best_cat_fidelity']!r}, recomputed {fid!r}")
    return problems


def check_cutoff(state):
    if state.leakage() > LEAKAGE_LIMIT:
        return [f"cutoff {state.cutoff} loses {state.leakage():.2e} of the coherent state"]
    return []


# ---------------------------------------------------------------- outputs


def _json(path, schemas, schema, problems):
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{Path(path).name}: {exc}")
        return None
    problems.extend(f"{Path(path).name}: {e.message}" for e in schemas[schema].iter_errors(data))
    return data


def _stdout_json(step, schemas, schema, problems):
    try:
        data = json.loads(step["stdout"])
    except ValueError as exc:
        problems.append(f"{step['argv'][0]} stdout is not JSON: {exc}")
        return None
    problems.extend(f"{step['argv'][0]} stdout: {e.message}"
                    for e in schemas[schema].iter_errors(data))
    return data


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _exits(record, *codes):
    got = [step["exit"] for step in record["steps"]]
    return [] if got == list(codes) else [f"exit codes {got}, expected {list(codes)}"]


def check_figure(record, schemas):
    spec, out = record["spec"], Path(record["out_dir"])
    problems = _exits(record, 0, 0)
    if problems:
        return problems
    alpha = complex(*spec["alpha"])
    grid = _json(out / "qgrid.json", schemas, "qgrid", problems)
    lobes = _json(out / "lobes.json", schemas, "lobes", problems)
    cat = _stdout_json(record["steps"][1], schemas, "lobes", problems)
    if problems:
        return problems
    if not (close(grid["alpha"][0], alpha.real, atol=1e-11)
            and close(grid["alpha"][1], alpha.imag, atol=1e-11)
            and close(grid["theta"], spec["theta"])):
        problems.append(f"qgrid.json echoes alpha={grid['alpha']} theta={grid['theta']}")
    state = ConditionalState(alpha, spec["theta"], grid["cutoff"])
    problems += check_cutoff(state)
    values = grid["values_row_major"]
    n = grid["resolution"]
    problems += check_grid(state, values, n, 15.0, record["id"])
    rows = _csv_rows(out / "qgrid.csv")
    if rows[0] != ["x", "p", "Q"] or len(rows) != n * n + 1:
        problems.append("qgrid.csv header or row count is wrong")
    else:
        step = 30.0 / (n - 1)
        for k in random.Random(record["id"] + "csv").sample(range(n * n), SAMPLED_POINTS):
            p, x = divmod(k, n)
            xs, ps, qs = (float(v) for v in rows[k + 1])
            if not (close(xs, -15 + x * step, atol=1e-11) and close(ps, -15 + p * step, atol=1e-11)
                    and qs == values[k]):
                problems.append(f"qgrid.csv row {k + 1} {rows[k + 1]} disagrees with qgrid.json")
    problems += check_lobes(state, abs(alpha), lobes)
    if {k: cat[k] for k in lobes} != lobes:
        problems.append("cat-diagnose and qfunc report different lobes")
    if not close(cat["success_probability"], state.success_probability(), rtol=1e-10):
        problems.append(f"success probability {cat['success_probability']!r}, "
                        f"direct sum gives {state.success_probability()!r}")
    if cat["cutoff"] != grid["cutoff"]:
        problems.append("cat-diagnose and qfunc use different cutoffs")
    return problems


def _solution_rows(rows, header, solutions, fields):
    if not rows or rows[0] != header or len(rows) != len(solutions) + 1:
        return ["CSV header or row count disagrees with the JSON"]
    problems = []
    for row, sol in zip(rows[1:], solutions):
        if [float(v) for v in row] != fields(sol):
            problems.append(f"CSV row {row} disagrees with the JSON {sol}")
    return problems


def check_ns_search(record, schemas):
    spec, out = record["spec"], Path(record["out_dir"])
    problems = _exits(record, 0, 0)
    table = None if problems else _json(out / "table1.json", schemas, "table1", problems)
    if problems:
        return problems
    sols = table["solutions"]
    if not sols:
        return ["no single-atom solution"]
    for sol in sols:
        tau = sol["tau"]
        amps = [1.0, math.cos(tau), math.cos(math.sqrt(2) * tau)]
        merit = max(abs(1 - amps[1]), abs(1 + amps[2]))
        slack = 1e-11 * tau
        if not 0 < tau <= spec["max_tau"]:
            problems.append(f"tau {tau} outside (0, {spec['max_tau']}]")
        if not all(close(a, b, atol=1e-10 + slack) for a, b in zip(sol["amplitudes"], amps)):
            problems.append(f"amplitudes {sol['amplitudes']} at tau {tau}, expected {amps}")
        if not close(sol["merit"], merit, atol=1e-10 + slack):
            problems.append(f"merit {sol['merit']} at tau {tau}, expected {merit}")
    if [s["merit"] for s in sols] != sorted(s["merit"] for s in sols):
        problems.append("solutions are not sorted by merit")
    problems += _solution_rows(_csv_rows(out / "table1.csv"), ["tau", "A0", "A1", "A2", "merit"],
                               sols, lambda s: [s["tau"], *s["amplitudes"], s["merit"]])
    return problems + check_params(record["steps"][1], schemas, sols[0]["tau"])


TWO_ATOM_TARGET_MERIT = 1e-6  # ns-search --two-atom default
TWO_ATOM_MIN_MAGNITUDE = 0.5


def check_two_atom(record, schemas):
    spec, out = record["spec"], Path(record["out_dir"])
    problems = _exits(record, 0, 0, 0)
    found = None if problems else _json(out / "two_atom.json", schemas, "two_atom", problems)
    if problems:
        return problems
    sols = found["solutions"]
    if not sols:
        return ["no two-atom solution"]
    (lo1, hi1), (lo2, hi2) = spec["window"]
    for sol in sols:
        t1, t2 = sol["tau1"], sol["tau2"]
        b = [math.cos(t1 * math.sqrt(n)) * math.cos(t2 * math.sqrt(n + 1)) for n in range(3)]
        mags = [abs(v) for v in b]
        slack = 1e-11 * (t1 + 2 * t2)  # taus are printed to 12 digits
        sign = math.copysign(1.0, b[0])
        if max(mags) - min(mags) > TWO_ATOM_TARGET_MERIT + slack:
            problems.append(f"|B_n| = {mags} at ({t1}, {t2}) are not equal")
        if not (b[1] * sign > 0 and b[2] * sign < 0):
            problems.append(f"B_n = {b} at ({t1}, {t2}) lacks the sign pattern")
        if min(mags) < TWO_ATOM_MIN_MAGNITUDE:
            problems.append(f"|B_n| = {mags} at ({t1}, {t2}) below {TWO_ATOM_MIN_MAGNITUDE}")
        if not (lo1 <= t1 <= hi1 and lo2 <= t2 <= hi2):
            problems.append(f"({t1}, {t2}) outside the window {spec['window']}")
        if not all(close(a, v, atol=1e-10 + slack) for a, v in zip(sol["amplitudes"], b)):
            problems.append(f"amplitudes {sol['amplitudes']} at ({t1}, {t2}), expected {b}")
        merit = max(abs(v - sign * s) for v, s in zip(b, NS_SIGNS))
        if not close(sol["merit"], merit, atol=1e-10 + slack):
            problems.append(f"merit {sol['merit']} at ({t1}, {t2}), expected {merit}")
    problems += _solution_rows(
        _csv_rows(out / "two_atom.csv"), ["tau1", "tau2", "B0", "B1", "B2", "merit"], sols,
        lambda s: [s["tau1"], s["tau2"], *s["amplitudes"], s["merit"]])
    return (problems + check_params(record["steps"][1], schemas, sols[0]["tau1"])
            + check_params(record["steps"][2], schemas, sols[0]["tau2"]))


def _angular(text):
    """'2pi*<f>MHz' as written by the workload generator, in rad/s."""
    if not (text.startswith("2pi*") and text.endswith("MHz")):
        raise ValueError(f"unexpected frequency argument {text!r}")
    return 2 * math.pi * float(text[4:-3]) * 1e6


def check_params(step, schemas, tau):
    """params converting the time a search step found."""
    if step["exit"] != 0:
        return [f"params exit code {step['exit']}, expected 0"]
    problems = []
    got = _stdout_json(step, schemas, "params", problems)
    if problems:
        return problems
    argv = step["argv"]
    g, omega, delta = (_angular(argv[argv.index(flag) + 1])
                       for flag in ("--g", "--omega", "--delta"))
    kappa = omega * g / (2 * delta)
    want = {"kappa_rad_per_s": kappa, "kappa_over_2pi_hz": kappa / (2 * math.pi),
            "tau": tau, "interaction_time_s": tau / kappa}
    for key, value in want.items():
        if key not in got or not close(got[key], value, rtol=1e-11):
            problems.append(f"params {key} = {got.get(key)!r}, expected {value!r}")
    return problems


def sign_pattern(n_max):
    """s_n = -1 exactly at n = 2(2m+1)^2, else +1."""
    flips = set()
    m = 0
    while 2 * (2 * m + 1) ** 2 <= n_max:
        flips.add(2 * (2 * m + 1) ** 2)
        m += 1
    return [-1 if n in flips else 1 for n in range(n_max + 1)]


def check_qudit(record, schemas):
    spec = record["spec"]
    step = record["steps"][0]
    if step["exit"] not in (0, 2):
        return [f"exit code {step['exit']}, expected 0 or 2"]
    problems = []
    got = _stdout_json(step, schemas, "qudit_theta", problems)
    if problems:
        return problems
    n_max, tol = spec["n_max"], spec["tolerance"]
    signs = sign_pattern(n_max)
    theta = got["theta"]
    cos = [math.cos(theta * math.sqrt(n)) for n in range(n_max + 1)]
    err = max(abs(c - s) for c, s in zip(cos, signs))
    slack = 5e-12 * theta * math.sqrt(n_max) + 1e-11  # theta is printed to 12 digits
    if [row["n"] for row in got["table"]] != list(range(n_max + 1)):
        problems.append("table does not list n = 0..n_max")
    elif [row["target"] for row in got["table"]] != signs:
        problems.append(f"targets {[r['target'] for r in got['table']]}, expected {signs}")
    elif not all(close(row["cos"], c, atol=slack) for row, c in zip(got["table"], cos)):
        problems.append(f"table cos values disagree with cos(theta sqrt(n)) at theta={theta!r}")
    if not close(got["worst_error"], err, atol=slack):
        problems.append(f"worst_error {got['worst_error']!r}, recomputed {err!r}")
    if got["tolerance"] != tol:
        problems.append(f"tolerance echoed as {got['tolerance']!r}")
    if step["exit"] == 0 and err > tol + slack:
        problems.append(f"exit 0 but error {err!r} at theta={theta!r} exceeds {tol}")
    if step["exit"] == 2:
        if err <= tol - slack:
            problems.append(f"exit 2 but error {err!r} at theta={theta!r} meets {tol}")
        if "no solution" not in step["stderr"]:
            problems.append("exit 2 without a 'no solution' message")
    return problems


def check_residual(record, schemas):
    result, alphas = record["result"], record["spec"]["alphas"]
    res = result["residuals"]
    problems = []
    if len(res) != len(alphas):
        return [f"{len(res)} residuals for {len(alphas)} alphas"]
    if not all(a > b > 0 for a, b in zip(res, res[1:])):
        problems.append(f"residuals {res} do not fall with |alpha| {alphas}")
    exponent = result["exponent"]
    if exponent is None or not EXPONENT_BAND[0] <= exponent <= EXPONENT_BAND[1]:
        problems.append(f"exponent {exponent} outside {EXPONENT_BAND}")
    return problems


def check_joint(record, schemas):
    spec, result = record["spec"], record["result"]
    want = [math.cos(spec["tau"] * math.sqrt(n)) for n in range(spec["cutoff"] + 1)]
    if result["cutoff"] != spec["cutoff"] or len(result["diag_re"]) != len(want):
        return [f"block has cutoff {result['cutoff']}, expected {spec['cutoff']}"]
    bad = [n for n, (re, im, w) in enumerate(zip(result["diag_re"], result["diag_im"], want))
           if not (close(re, w, atol=1e-9) and abs(im) <= 1e-9)]
    return [f"g->g diagonal differs from cos(tau sqrt(n)) at n={bad[:5]}"] if bad else []


def check_phase(record, schemas):
    spec, result = record["spec"], record["result"]
    alpha = complex(*spec["alpha"])
    state = ConditionalState(alpha, spec["theta"], result["cutoff"])
    return (check_cutoff(state)
            + check_grid(state, result["values"], spec["resolution"], spec["half_width"],
                         record["id"])
            + check_lobes(state, abs(alpha), result["diag"]))


CHECKS = {"figure": check_figure, "ns-search": check_ns_search, "two-atom": check_two_atom,
          "qudit": check_qudit, "residual": check_residual,
          "joint": check_joint, "phase": check_phase}

# Kinds whose runs call q_function and so raise the far-field warning.
FAR_FIELD_KINDS = ("figure", "phase")


def check(record, schemas):
    """Every problem with one operation record."""
    if record["error"]:
        return [record["error"].strip().splitlines()[-1]]
    problems = []
    for category, message, filename in record["warnings"]:
        expected = (record["kind"] in FAR_FIELD_KINDS and category == FAR_FIELD[0]
                    and message.startswith(FAR_FIELD[1]))
        if not expected:
            problems.append(f"unexpected {category} from {Path(filename).name}: {message}")
    for step in record["steps"]:
        if step["stderr"] and not (record["kind"] == "qudit" and step["exit"] == 2):
            problems.append(f"{step['argv'][0]} wrote to stderr: {step['stderr'].strip()}")
    return problems + CHECKS[record["kind"]](record, schemas)


def _tree(path):
    root = Path(path)
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def same_output(first, again):
    """Byte-identical rerun: same files, bytes, exit codes and stdout (with
    the output directory's name taken out), or the same library result."""
    if "result" in first:
        return json.dumps(first["result"], sort_keys=True) == json.dumps(
            again.get("result"), sort_keys=True)

    def seen(record):
        return [(s["exit"], s["stdout"].replace(record["out_dir"], "{out}"), s["stderr"])
                for s in record["steps"]]

    return seen(first) == seen(again) and _tree(first["out_dir"]) == _tree(again["out_dir"])


def load_schemas(schema_dir):
    """Validators for docs/schemas/*.schema.json, by the name before the
    first dot."""
    schemas = {}
    for path in sorted(Path(schema_dir).glob("*.schema.json")):
        schema = json.loads(path.read_text())
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        schemas[path.name.split(".")[0]] = cls(schema)
    return schemas


def main(manifest_path, part, parts):
    schemas = load_schemas(Path(__file__).resolve().parent.parent / "docs" / "schemas")
    records = json.loads(Path(manifest_path).read_text())["records"]
    print(json.dumps([[i, check(records[i], schemas)]
                      for i in range(int(part), len(records), int(parts))]))


if __name__ == "__main__":
    main(*sys.argv[1:])
