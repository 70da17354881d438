"""Golden CLI outputs: every file a command writes, its stdout (with the
output directory shown as {out}) and its exit code, compared byte for byte
with the fixtures under tests/golden/<case>/.

The fixtures pin the current behaviour so that refactors can prove they
change nothing. Regenerate them only for an intended output change, naming
the cases that change (no name regenerates every case):

    PYTHONPATH=src python tests/test_golden.py [CASE ...]
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from nlcavity.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RAMAN = ["--g", "2pi*4.5MHz", "--omega", "2pi*30MHz", "--delta", "2pi*40MHz"]

CASES = {
    "ns_search_json": ["ns-search", "--out", "{out}", "--format", "json"],
    "ns_search_csv": ["ns-search", "--max-tau", "1000", "--out", "{out}"],
    "ns_search_none": ["ns-search", "--max-tau", "1", "--out", "{out}"],
    "two_atom_narrow": [
        "ns-search", "--two-atom", "--tau1-range", "35:40", "--tau2-range", "195:200",
        "--out", "{out}", "--format", "json",
    ],
    "two_atom_default": ["ns-search", "--two-atom", "--out", "{out}", "--format", "json"],
    "two_atom_wide": [
        "ns-search", "--two-atom", "--tau1-range", "20:45", "--tau2-range", "100:200",
        "--out", "{out}", "--format", "json",
    ],
    "qfunc_alpha10": [
        "qfunc", "--alpha", "10", "--theta", "31.4159265359", "--grid", "-15:15:61",
        "--out", "{out}",
    ],
    "qfunc_normalized": [
        "qfunc", "--alpha", "3+2j", "--convention", "normalized", "--cutoff", "60",
        "--grid", "-6:6:41", "--out", "{out}",
    ],
    "cat_diagnose_out": ["cat-diagnose", "--alpha", "10", "--out", "{out}"],
    "cat_diagnose_stdout": ["cat-diagnose", "--alpha", "3", "--theta", "0"],
    "universality": ["universality", "--out", "{out}"],
    "params_json": ["params", *RAMAN, "--tau", "6.5064", "--format", "json"],
    "params_text": ["params", *RAMAN, "--tau", "6.5064"],
    "params_text_no_tau": ["params", *RAMAN, "--format", "text"],
    "qudit_theta_json": ["qudit-theta", "--n-max", "2", "--format", "json"],
    "qudit_theta_exhausted": ["qudit-theta", "--n-max", "20", "--tolerance", "0.2"],
}


def run_case(argv, workdir):
    """Run the CLI in workdir; return ({relative path: bytes}, stdout, code)."""
    workdir = Path(workdir)
    out = str(workdir)
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([arg.replace("{out}", out) for arg in argv])
    finally:
        os.chdir(cwd)
    files = {
        path.relative_to(workdir).as_posix(): path.read_bytes()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }
    return files, stdout.getvalue().replace(out, "{out}"), code


def load_golden(case):
    root = GOLDEN / case
    files_dir = root / "files"
    files = {}
    if files_dir.is_dir():
        files = {
            path.relative_to(files_dir).as_posix(): path.read_bytes()
            for path in sorted(files_dir.rglob("*"))
            if path.is_file()
        }
    stdout = (root / "stdout.txt").read_text()
    code = int((root / "exit_code.txt").read_text())
    return files, stdout, code


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    files, stdout, code = run_case(CASES[case], tmp_path)
    want_files, want_stdout, want_code = load_golden(case)
    assert code == want_code
    assert stdout == want_stdout
    assert sorted(files) == sorted(want_files)
    for name, data in want_files.items():
        assert files[name] == data, f"{case}/{name} differs from the golden copy"


def regenerate(cases=()):
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s) {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    for case in sorted(cases or CASES):
        with tempfile.TemporaryDirectory() as tmp:
            files, stdout, code = run_case(CASES[case], tmp)
        root = GOLDEN / case
        shutil.rmtree(root, ignore_errors=True)
        (root / "files").mkdir(parents=True)
        for name, data in files.items():
            (root / "files" / name).parent.mkdir(parents=True, exist_ok=True)
            (root / "files" / name).write_bytes(data)
        (root / "stdout.txt").write_text(stdout)
        (root / "exit_code.txt").write_text(f"{code}\n")
        print(f"{case}: exit {code}, {len(files)} file(s)", file=sys.stderr)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
