"""nlcavity benchmark harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from (or for) a source checkout: the program is imported from ./src.
The harness starts fresh client processes (bench/worker.py): a few that only
set up, for the set-up time, and one that runs the workload as a closed loop
with one client for S seconds. It then checks every operation against the
oracles in bench/oracles.py, which do not import nlcavity, and prints two
JSON lines: the run's environment and details, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 they are its per-layer ones, from the same operations run once
with the tracer of bench/tracing.py and once without. The error rate is
failed / attempted.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

SETUP_PROBES = 2  # set-up-only processes; the workload's own set-up makes one more
PROCESS_TIMEOUT_S = 150

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def fail(message):
    print(f"bench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def git_commit(root):
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def check_all(manifest_path, count):
    """Oracle problems of every record. Validating a 90k-value qgrid.json
    against its schema takes most of a second, so one checker process runs
    per core."""
    parts = max(1, min(count, len(os.sched_getaffinity(0))))
    procs = [subprocess.Popen([sys.executable, str(ORACLES), str(manifest_path), str(k),
                               str(parts)], cwd=ROOT, stdout=subprocess.PIPE, text=True)
             for k in range(parts)]
    problems = [None] * count
    try:
        for proc in procs:
            out, _ = proc.communicate(timeout=PROCESS_TIMEOUT_S)
            if proc.returncode != 0:
                fail(f"oracle checker exited {proc.returncode}")
            for i, found in json.loads(out):
                problems[i] = found
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    return problems


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # BLAS may use every core this process may run on, and no more.
    nproc = len(os.sched_getaffinity(0))
    threads = env.get("OPENBLAS_NUM_THREADS", "")
    if not threads.isdigit() or not 0 < int(threads) <= nproc:
        env["OPENBLAS_NUM_THREADS"] = str(nproc)
    return env


def run_worker(args, env):
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        fail(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def quantile(values, q):
    """Linear-interpolation quantile, as numpy's default."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nlcavity" / "__init__.py").is_file():
        fail(f"no nlcavity sources under {ROOT / 'src'}")
    if not (ROOT / "docs" / "schemas").is_dir():
        fail(f"no output schemas under {ROOT / 'docs' / 'schemas'}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", tracing.PER_LAYER)):
        theirs = [(m["name"], m["unit"]) for m in declared[key]]
        if sorted(theirs) != sorted(ours):
            fail(f"BENCHMARK.json {key} {theirs} differs from the metrics measured {ours}")
    oracles.load_schemas(ROOT / "docs" / "schemas")  # fail before the run if one is invalid

    env = worker_env()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups = [json.loads(run_worker(["--setup-only"], env))["setup_s"]
                  for _ in range(SETUP_PROBES)]
        run_worker(["--workdir", str(workdir), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", repr(args.seconds),
                    "--trace", str(args.trace)], env)
        manifest = json.loads((workdir / "manifest.json").read_text())
        setups.append(manifest["setup_s"])
        records = manifest["records"]

        failures = {}
        for record, problems in zip(records, check_all(workdir / "manifest.json", len(records))):
            if problems:
                failures[record["pass"] + "-" + record["id"]] = problems
        for rerun in manifest["reruns"]:
            first = next(r for r in records if r["pass"] == "plain" and r["id"] == rerun["of"])
            if rerun["error"] or not oracles.same_output(first, rerun):
                failures.setdefault("plain-" + rerun["of"], []).append(
                    "rerun output differs from the first run")

        environment = manifest["environment"]
        threads = environment["blas_threads"]
        if not threads or max(threads.values()) > environment["nproc"]:
            fail(f"BLAS threads {threads} not within nproc {environment['nproc']}")
        plain = [r for r in records if r["pass"] == "plain" and r["seconds"] is not None]
        latencies = sorted(r["seconds"] for r in plain)
        if args.trace:
            traced = {r["id"]: r for r in records if r["pass"] == "traced"}
            pairs = [(traced[r["id"]], r) for r in plain
                     if traced.get(r["id"], {}).get("seconds") is not None]
            overhead = sum(t["seconds"] - p["seconds"] for t, p in pairs)
            written = sum(
                sum(f.stat().st_size for f in Path(t["out_dir"]).rglob("*") if f.is_file())
                + sum(len(s["stdout"].encode()) for s in t["steps"])
                for t, _ in pairs)
            trace = json.loads((workdir / "trace.json").read_text())
            values = tracing.layer_metrics(trace, len(pairs), overhead, written)
            units = dict(tracing.PER_LAYER)
        else:
            values = {
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_s": quantile(latencies, 0.5),
                "op_p90_s": quantile(latencies, 0.9),
                "peak_rss_mb": manifest["peak_rss_kb"] / 1024.0,
                "setup_s": statistics.median(setups),
            }
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = len(records)
    by_kind = {}
    for r in plain:
        by_kind.setdefault(r["kind"], []).append(r["seconds"])
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_commit": git_commit(ROOT),
        "environment": environment,
        "samples": len(latencies),
        "samples_above_p90": sum(1 for v in latencies if v > quantile(latencies, 0.9)),
        "error_rate": len(failures) / attempted,
        "median_s_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "setup_samples_s": setups,
        "failures": failures,
    }
    print(json.dumps(details))
    for op, problems in failures.items():
        print(f"FAILED {op}: {'; '.join(problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))


if __name__ == "__main__":
    main()
