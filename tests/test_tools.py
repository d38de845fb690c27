"""Smoke tests of the report-identity and timing tools, each run as a command from the repo root.

``tools/report_digests.py`` and ``tools/report_moves.py`` are how a refactor
shows that its reports are byte-identical to the parent's;
``tools/class_times.py`` times each request class beside its optimizer work.
All three build the benchmark's pools from ``bench/workloads.py`` and only
read ``bench/``; the spec files they write go to temporary directories.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tool(*argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_report_digests_prints_the_help_and_every_request():
    lines = run_tool("tools/report_digests.py", "--seeds", "1", "--workloads", "shots-qubit")
    help_lines = [line for line in lines if line.startswith("help ")]
    requests = [line.split() for line in lines if not line.startswith("help ")]
    assert len(help_lines) == 8 and len(requests) == 50
    # workload seed class exit sha256(stdout) sha256(stderr) sha256(results) sha256(text)
    assert all(len(r) == 8 and r[:2] == ["shots-qubit", "1"] for r in requests)


def test_report_moves_finds_no_move_between_two_runs_of_one_checkout():
    # two fresh worker processes on the same checkout and seeds give byte-identical reports
    lines = run_tool("tools/report_moves.py", ".", ".", "--seeds", "1", "--workloads", "shots-qubit")
    assert lines
    for line in lines:
        workload, _, requests, count, changed, moved = line.split()
        assert (workload, requests, changed, moved) == ("shots-qubit", "requests", "stdout_changed", "0")
        assert int(count) >= 1


def test_class_times_prints_each_class_with_its_start_sweeps():
    lines = run_tool("tools/class_times.py", "--workloads", "sep-qutrit", "--seeds", "1", "--repeats", "1")
    rows = [line.split() for line in lines]
    # workload class requests median_ms median_start_sweeps median_sweeps; every sep-qutrit class runs the optimizer
    assert len(rows) == 5 and all(len(r) == 6 and r[0] == "sep-qutrit" for r in rows)
    assert all(int(r[2]) >= 1 and float(r[3]) > 0 and float(r[4]) > 0 for r in rows)
    # a batched sweep climbs at least one start, so no request has more sweeps than start-sweeps
    assert all(float(r[4]) >= float(r[5]) >= 1 for r in rows)
