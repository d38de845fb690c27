"""In-process times of the largest admitted requests through ``chandet.cli.main``.

    python3 tools/large_dims.py --repeats 3

Times six requests, each as the best of ``--repeats`` calls, five at D = 36
and one at the optimizer's start limit:

- ``detect-npt`` on a Haar unitary on [6, 6];
- ``detect-npt`` on the SWAP gate on [6, 6], whose lambda_- is 630-fold
  degenerate, so the ``eigh`` path is run;
- ``detect-eb`` on depolarizing p = 0.1 on [36];
- ``detect-sep`` and ``detect-sru`` on the same Haar unitary on [6, 6];
- ``detect-sep --starts 8246`` on a Haar unitary on [3, 3], the most starts
  ``detect.MAX_START_WORK`` admits there.

Each request is then called once more under ``tracemalloc``, outside the
timed calls, for the peak of the memory it traces (numpy's arrays included,
LAPACK's workspace not). BLAS runs at one thread, the program is imported
from this checkout's ``src/``, and the spec files are written to a temporary
directory. Every call must exit 0. Prints one line per request:

    command spec dims [options] best_s peak_mb

To compare two commits, run the script in a checkout of each. Nothing under
``bench/`` is changed.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import numpy as np  # noqa: E402

from chandet import cli  # noqa: E402
from chandet.qmath import haar_unitary  # noqa: E402

HAAR_SEED = 36


def specs() -> dict:
    """The four channel specs the requests read, by file name."""
    haar = haar_unitary(36, HAAR_SEED)
    swap = np.eye(36).reshape(6, 6, 6, 6).transpose(1, 0, 2, 3).reshape(36, 36)
    gates = (
        ("haar66.json", [6, 6], haar),
        ("swap66.json", [6, 6], swap),
        ("haar33.json", [3, 3], haar_unitary(9, HAAR_SEED)),
    )
    return {
        name: {"dims": dims, "kind": "named", "name": "unitary", "params": {"matrix": pairs(u)}}
        for name, dims, u in gates
    } | {"dep36.json": {"dims": [36], "kind": "named", "name": "depolarizing", "params": {"p": 0.1}}}


def pairs(u: np.ndarray) -> list:
    """The [re, im] nest of a complex matrix, as a spec writes it."""
    return np.asarray(u, dtype=complex).view(float).reshape(*u.shape, 2).tolist()


REQUESTS = [
    ("detect-npt", "haar66.json", "[6, 6]", []),
    ("detect-npt", "swap66.json", "[6, 6]", []),
    ("detect-eb", "dep36.json", "[36]", []),
    ("detect-sep", "haar66.json", "[6, 6]", []),
    ("detect-sru", "haar66.json", "[6, 6]", []),
    ("detect-sep", "haar33.json", "[3, 3]", ["--starts", "8246"]),
]


def seconds(argv: list) -> float:
    """Wall seconds of one in-process CLI call, which must exit 0."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return elapsed


def peak_mb(argv: list) -> float:
    """The traced peak, in MB, of one more in-process CLI call."""
    tracemalloc.start()
    try:
        seconds(argv)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=3, help="calls per request; the best is printed")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        for name, spec in specs().items():
            Path(workdir, name).write_text(json.dumps(spec))
        for command, name, dims, options in REQUESTS:
            argv = [command, "--channel", str(Path(workdir, name)), *options]
            best = min(seconds(argv) for _ in range(args.repeats))
            label = " ".join([command, Path(name).stem, dims, *options])
            print(f"{label} {best:.3f} {peak_mb(argv):.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
