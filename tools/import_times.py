"""Fresh-interpreter import times of ``chandet.cli`` in two source trees, compared.

    python3 tools/import_times.py PARENT CHANGE --repeats 40

PARENT and CHANGE are the roots of two checkouts. Each round times one
``python -c "import chandet.cli"`` in each tree, the way ``bench/run.py``
samples ``setup_s``: this interpreter, this environment with BLAS at one
thread and ``PYTHONPATH=<tree>/src``, the tree as working directory, output
discarded, and no timeout (with one, subprocess polls the child and
quantizes the time). The trees alternate, and which one goes first swaps
every round. One untimed import per tree comes first, as in the bench.

Prints, per tree, whether it has a ``src/chandet/__pycache__`` (without one,
and with ``PYTHONDONTWRITEBYTECODE`` set, every import compiles the package
from source), the median and quartiles of its times, how many rounds it was
the faster, and whether its median lies inside the other tree's quartiles.
Nothing under ``bench/`` is changed.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def import_once(tree: Path, env: dict) -> float:
    """Wall seconds of one fresh interpreter importing ``chandet.cli`` from ``tree``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import chandet.cli"],
        env=dict(env, PYTHONPATH=str(tree / "src")), cwd=tree, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--repeats", type=int, default=40, help="rounds, each timing both trees once")
    args = p.parse_args(argv)
    if args.repeats < 2:
        p.error("--repeats must be at least 2 for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, tree in trees.items():
        if not (tree / "src" / "chandet" / "cli.py").is_file():
            p.error(f"{name}: no src/chandet/cli.py under {tree}")
    # the environment bench/run.py gives its children
    env = dict(os.environ, **{var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    for tree in trees.values():
        import_once(tree, env)
    times = {name: [] for name in trees}
    wins = dict.fromkeys(trees, 0)
    for r in range(args.repeats):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        got = {name: import_once(trees[name], env) for name in order}
        for name, seconds in got.items():
            times[name].append(seconds)
        wins[min(got, key=got.get)] += 1
    quartiles = {name: statistics.quantiles(t, n=4) for name, t in times.items()}
    print(f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}, {args.repeats} rounds")
    for name, other in (("parent", "change"), ("change", "parent")):
        q1, med, q3 = quartiles[name]
        lo, hi = quartiles[other][0], quartiles[other][2]
        cache = "yes" if (trees[name] / "src" / "chandet" / "__pycache__").is_dir() else "no"
        print(
            f"{name}: __pycache__ {cache}, median {med:.4f} s, quartiles {q1:.4f}-{q3:.4f} s, "
            f"faster in {wins[name]} of {args.repeats} rounds, "
            f"median inside the {other}'s quartiles: {'yes' if lo <= med <= hi else 'no'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
