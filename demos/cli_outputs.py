"""Drive the command-line interface and inspect its reproducible outputs.

Every subcommand writes deterministic CSV/JSON (12 significant digits,
sorted keys), so reruns are byte-identical and outputs diff cleanly in
version control. The qfunc command also emits a ready-to-run gnuplot
script for the Q-function heatmap.

Run:  python3 demos/cli_outputs.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

out = Path(tempfile.mkdtemp(prefix="nlcavity_demo_"))


def run(*args):
    """Run one CLI command; fail on a nonzero exit or anything on stderr."""
    r = subprocess.run(
        [sys.executable, "-m", "nlcavity.cli", *args],
        capture_output=True, text=True, check=True,
    )
    if r.stderr:
        raise RuntimeError(f"nlcavity {' '.join(args)} wrote to stderr:\n{r.stderr}")
    return r


print(f"writing outputs under {out}\n")

r = run("ns-search", "--max-tau", "250", "--out", str(out), "--format", "json")
print("$ nlcavity ns-search --max-tau 250 --format json")
print(" ", r.stdout.strip())
print((out / "table1.csv").read_text().strip().replace("\n", "\n  "))

print()
r = run("qfunc", "--alpha", "6", "--theta", "18.8495559215", "--grid=-10:10:81",
        "--out", str(out))
print("$ nlcavity qfunc --alpha 6 --theta 6pi --grid=-10:10:81")
print(" ", r.stdout.strip())
lobes = json.loads((out / "lobes.json").read_text())
print(f"  lobe angles: {lobes['lobe_angles']}")
print(f"  gnuplot script: {out / 'qgrid.gp'}")

print()
r = run("params", "--g", "2pi*4.5MHz", "--omega", "2pi*30MHz", "--delta", "2pi*40MHz",
        "--tau", "6.5064")
print("$ nlcavity params --g 2pi*4.5MHz --omega 2pi*30MHz --delta 2pi*40MHz --tau 6.5064")
print("  " + r.stdout.strip().replace("\n", "\n  "))

print()
r = run("qudit-theta", "--n-max", "2", "--tolerance", "0.01")
print("$ nlcavity qudit-theta --n-max 2 --tolerance 0.01")
print("  " + r.stdout.strip().replace("\n", "\n  "))

# Reruns are byte-identical.
first = (out / "table1.csv").read_bytes()
run("ns-search", "--max-tau", "250", "--out", str(out), "--format", "json")
print()
print(f"rerun byte-identical: {(out / 'table1.csv').read_bytes() == first}")
