"""Digest of every report the benchmark's request pools produce.

    python3 tools/report_digests.py --seeds 101 102 103 > digests.txt

Builds each pool with ``bench/workloads.build_pool`` and runs every request
once through ``chandet.cli.main`` in-process, BLAS at one thread, with the
program imported from this checkout's ``src/``. Spec files are written to a
temporary directory that is the working directory of the run, so the paths in
the argv, and so any message that names them, read the same in every
checkout. Prints one line per command, the digest of its ``--help`` text, so
that a change of the options shows beside any change of the reports:

    help command exit sha256(stdout) sha256(stderr)

and then one line per request:

    workload seed class exit sha256(stdout) sha256(stderr) sha256(results) sha256(text)

The results column digests ``json.dumps(json.loads(stdout)["results"])``, or
is ``-`` when stdout is not a JSON report. The last column digests the stdout
of the same request run again with ``--format text``, its ``elapsed_seconds``
line dropped. A refactor that keeps every report leaves this output
unchanged; compare a run on the parent commit with a run on the change by
``diff``. A change of report format that leaves the results as they are moves
only the stdout columns. Nothing under ``bench/`` is changed.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# argparse wraps help text to the terminal's width
os.environ["COLUMNS"] = "80"

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from chandet import cli  # noqa: E402
from workloads import WORKLOADS, build_pool  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _results_sha(stdout: str) -> str:
    """The sha256 of the results of a JSON report, ``-`` for any other stdout."""
    try:
        results = json.loads(stdout)["results"]
    except (ValueError, TypeError, KeyError):
        return "-"
    return _sha(json.dumps(results))


@contextlib.contextmanager
def pool(workload: str, seed: int):
    """The requests of the pool of ``workload`` at ``seed``, run from the temporary directory of their specs."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            yield build_pool(workload, seed, ".")
        finally:
            os.chdir(cwd)


def run(argv: list) -> tuple:
    """Exit code (or the name of an uncaught error), stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is an outcome too
            code = type(exc).__name__
    return code, out.getvalue(), err.getvalue()


def _text_sha(argv: list) -> str:
    """The sha256 of the ``--format text`` stdout of ``argv``, its timing line dropped."""
    _, out, _ = run(argv + ["--format", "text"])
    return _sha("".join(line for line in out.splitlines(True) if not line.startswith("elapsed_seconds: ")))


def help_lines():
    """One line per command: the digests of what ``chandet <command> --help`` prints."""
    for command in cli.COMMANDS:
        code, out, err = run([command, "--help"])
        yield f"help {command} {code} {_sha(out)} {_sha(err)}"


def digest_lines(workload: str, seed: int):
    """One line per request of the pool of ``workload`` at ``seed``, in pool order."""
    with pool(workload, seed) as requests:
        for req in requests:
            code, out, err = run(req.argv)
            text = _text_sha(req.argv)
            yield f"{workload} {seed} {req.cls} {code} {_sha(out)} {_sha(err)} {_results_sha(out)} {text}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = p.parse_args(argv)
    for line in help_lines():
        print(line, flush=True)
    for workload in args.workloads:
        for seed in args.seeds:
            for line in digest_lines(workload, seed):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
