"""Benchmark client: one fresh process per workload run.

It times its own set-up (imports plus first-call start-up), then runs the
workload's operations as a closed loop with one client until the time is
up, reruns one operation of each kind for the byte-identical check, and
writes everything the harness checks into <workdir>/manifest.json. It checks
nothing itself; bench/run.py starts it, with ./src on PYTHONPATH:

    python3 bench/worker.py --workdir DIR --workload NAME --seed N
        --seconds S --trace 0|1
    python3 bench/worker.py --setup-only
"""

import argparse
import io
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Set-up is timed from here: importing the program and warming it up is the
# work this script measures before anything else, so it runs at import.
_t0 = time.perf_counter()
import numpy as np  # noqa: E402

import nlcavity  # noqa: E402
from nlcavity import (  # noqa: E402
    atomfield, cli, fock, labparams, phasespace, search, universality)


def warm_up():
    """First calls into each layer: argparse, LAPACK eigh, polyfit, the
    overlap kernel and both scipy optimizers. The overlap kernel is warmed at
    a size that starts BLAS's threads: warmed at a tiny size, the first
    full-size qfunc of a run still took about a second longer."""
    with redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cli.main(["params", "--g", "2pi*4MHz", "--omega", "2pi*30MHz",
                  "--delta", "2pi*40MHz", "--tau", "6.5", "--format", "json"])
        universality.residual_scaling([4.0, 5.0])
        atomfield.conditional_block(atomfield.joint_evolution(1.0, 60), "g", "g")
        cond = atomfield.apply_upsilon(fock.coherent_state(9.0, 200), math.pi)
        phasespace.q_function(cond.raw, (-3.0, 3.0), (-3.0, 3.0), 40)
        phasespace.cat_diagnostics(cond.raw, 9.0)
        search.two_atom_search((1.0, 2.0), (1.0, 2.0))
        search.ns_tau_candidates(10.0)
        search.qudit_theta_search(search.sign_pattern(2), 0.01)


warm_up()
SETUP_S = time.perf_counter() - _t0

MODULES = {"nlcavity": nlcavity, "cli": cli, "fock": fock, "atomfield": atomfield,
           "search": search, "phasespace": phasespace, "universality": universality,
           "labparams": labparams}


# ------------------------------------------------------------ operations


def _run_residual(spec):
    return universality.residual_scaling(spec["alphas"])


def _run_joint(spec):
    joint = atomfield.joint_evolution(spec["tau"], spec["cutoff"])
    return atomfield.conditional_block(joint, atomfield.GROUND, atomfield.GROUND)


def _run_phase(spec):
    alpha = complex(*spec["alpha"])
    cutoff = fock.default_cutoff(alpha)
    cond = atomfield.apply_upsilon(fock.coherent_state(alpha, cutoff), spec["theta"])
    half = spec["half_width"]
    grid = phasespace.q_function(cond.raw, (-half, half), (-half, half), spec["resolution"])
    return cutoff, grid, phasespace.cat_diagnostics(cond.raw, alpha)


LIBRARY = {"residual": _run_residual, "joint": _run_joint, "phase": _run_phase}


def _pair(z):
    return [float(z.real), float(z.imag)]


def _summarize(kind, result):
    """JSON form of a library result, made outside the timed region."""
    if kind == "residual":
        comps, exponent = result
        return {"residuals": [c.residual_norm for c in comps],
                "cutoffs": [c.cutoff for c in comps], "exponent": exponent}
    if kind == "joint":
        diag = np.diag(result.matrix)
        return {"cutoff": result.cutoff, "diag_re": diag.real.tolist(),
                "diag_im": diag.imag.tolist()}
    cutoff, grid, diag = result
    diag = {k: _pair(v) if isinstance(v, complex) else v for k, v in diag.items()}
    return {"cutoff": cutoff, "values": grid.values.ravel().tolist(), "diag": diag}


def _resolve_argv(argv, out_dir, tau_from):
    """Fill in the output directory and, for params, the time found by the
    search step before it."""
    argv = [str(out_dir) if a == "{out}" else a for a in argv]
    if tau_from:
        fname, key = tau_from
        path = out_dir / fname
        solutions = json.loads(path.read_text())["solutions"] if path.exists() else []
        if not solutions:
            raise LookupError(f"no time in {fname} to convert")
        argv += ["--tau", repr(solutions[0][key])]
    return argv


def execute(op, pass_name, out_dir):
    """Run one operation; only the program's own calls are timed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {"id": op["id"], "kind": op["kind"], "pass": pass_name, "spec": op,
              "out_dir": str(out_dir), "steps": [], "warnings": [], "error": None,
              "seconds": 0.0}
    library = op["kind"] in LIBRARY
    result = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if library:
                start = time.perf_counter()
                result = LIBRARY[op["kind"]](op)
                record["seconds"] = time.perf_counter() - start
            else:
                taus = op.get("tau_from") or [None] * len(op["steps"])
                for argv, tau_from in zip(op["steps"], taus):
                    argv = _resolve_argv(argv, out_dir, tau_from)
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        start = time.perf_counter()
                        code = cli.main(argv)
                        record["seconds"] += time.perf_counter() - start
                    record["steps"].append({"argv": argv, "exit": code,
                                            "stdout": out.getvalue(), "stderr": err.getvalue()})
        except LookupError as exc:
            record["error"], record["seconds"] = str(exc), None
        except Exception:
            record["error"], record["seconds"] = traceback.format_exc(), None
    record["warnings"] = [[w.category.__name__, str(w.message), w.filename] for w in caught]
    if library and record["error"] is None:
        record["result"] = _summarize(op["kind"], result)
    return record


# ------------------------------------------------------------ environment


def _openblas_threads():
    """Thread count of each OpenBLAS loaded in this process (numpy and scipy
    ship their own), read through its C API."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[Path(path).name] = int(fn())
                break
    return threads


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ------------------------------------------------------------------ main


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args()

    src = ROOT / "src"
    if Path(nlcavity.__file__).resolve().parent != (src / "nlcavity").resolve():
        sys.exit(f"nlcavity was imported from {nlcavity.__file__}, not from {src}")
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S}))
        return

    import tracing
    import workloads

    tracer = tracing.Tracer(MODULES) if args.trace else None
    passes = ("plain", "traced") if args.trace else ("plain",)
    records = []
    ops = workloads.operations(args.workload, args.seed)
    start = time.perf_counter()
    round_ = None
    for i, op in enumerate(ops):
        if op["round"] != round_ and time.perf_counter() - start >= args.seconds:
            break
        round_ = op["round"]
        # Alternate which pass goes first so neither gets the warmer caches.
        for pass_name in passes if i % 2 == 0 else passes[::-1]:
            if pass_name == "traced":
                tracer.op = op["id"]
                tracer.install()
            try:
                record = execute(op, pass_name,
                                 args.workdir / "ops" / f"{pass_name}-{op['id']}")
            finally:
                if pass_name == "traced":
                    tracer.uninstall()
            records.append(record)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    reruns = []
    seen = set()
    for record in records:
        if record["pass"] != "plain" or record["error"] or record["kind"] in seen:
            continue
        seen.add(record["kind"])
        op = dict(record["spec"], id="rerun-" + record["id"])
        if op["kind"] not in LIBRARY:
            # Same arguments as the first run, only in a fresh directory.
            op["tau_from"] = None
            op["steps"] = [["{out}" if a == record["out_dir"] else a for a in step["argv"]]
                           for step in record["steps"]]
        rerun = execute(op, "plain", args.workdir / "ops" / op["id"])
        rerun["of"] = record["id"]
        reruns.append(rerun)

    if tracer is not None:
        tracer.dump(args.workdir / "trace.json")
    manifest = {"setup_s": SETUP_S, "peak_rss_kb": peak_rss_kb,
                "environment": environment(), "records": records, "reruns": reruns}
    (args.workdir / "manifest.json").write_text(json.dumps(manifest))


if __name__ == "__main__":
    main()
