"""The benchmark's request pools, one request per class, checked by the benchmark's own oracle.

Each workload of ``bench/workloads.py`` is built at two seeds with
``tiny=True`` and every request run once through ``chandet.cli.main`` in
process; ``bench/oracle.check`` then judges its exit code and stdout, as
``bench/run.py`` does. The classes in ``KNOWN_DEFECTS`` are skipped. A
change of report that the benchmark would count as incorrect fails here.
Only the spec files are written, to a temporary directory; ``bench/`` is
only read.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from oracle import OracleError, check  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, build_pool  # noqa: E402

from chandet.cli import main  # noqa: E402


@pytest.mark.parametrize("seed", [1, 101])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pool_passes_the_oracle(tmp_path, capsys, workload, seed):
    failures = []
    for req in build_pool(workload, seed, str(tmp_path), tiny=True):
        if req.cls in KNOWN_DEFECTS:
            continue
        try:
            code = main(req.argv)
        except SystemExit as exc:  # a refusal by the argument parser
            code = exc.code
        out, err = capsys.readouterr()
        try:
            check(req.expect, code, out)
        except OracleError as exc:
            failures.append(f"{req.cls} {' '.join(req.argv)}: {exc} (stderr {err!r})")
    assert not failures
