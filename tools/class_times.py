"""Median in-process latency of each request class of the benchmark's pools.

    python3 tools/class_times.py --workloads shots-qubit --seeds 101 --repeats 5

Builds each pool as ``tools/report_digests.py`` does, with
``bench/workloads.build_pool``, and runs it through ``chandet.cli.main``
in-process, BLAS at one thread, with the program imported from this
checkout's ``src/``: one untimed pass, then ``--repeats`` timed passes.
Prints one line per request class:

    workload class requests median_ms

As in ``bench/run.py``, the yardstick of ``bench/yardstick.py`` runs before
every call, outside the timed region, and each timed call is scaled by its
``scales`` factor, so the times read as milliseconds at the yardstick's
reference speed and a slow stretch of a shared host moves them less. The
median runs over every timed call of every request of the class, across all
seeds. To compare two commits, run the script in a checkout of each.
Nothing under ``bench/`` is changed.
"""

import argparse
import statistics
import sys
import time

from report_digests import WORKLOADS, pool, run
from yardstick import WARMUP, scales, yardstick  # on the path report_digests sets


def class_times(workload: str, seeds: list, repeats: int) -> dict:
    """Scaled seconds of every timed call, per request class, in pool order of first appearance."""
    calls, yard = [], []  # (class, seconds) of each timed call, the yardstick's seconds before it
    for _ in range(WARMUP):
        yardstick()
    for seed in seeds:
        with pool(workload, seed) as requests:
            for timed in [False] + [True] * repeats:
                for req in requests:
                    start = time.perf_counter()
                    yardstick()
                    middle = time.perf_counter()
                    run(req.argv)
                    if timed:
                        calls.append((req.cls, time.perf_counter() - middle))
                        yard.append(middle - start)
    times = {}
    for (cls, seconds), factor in zip(calls, scales(yard)):
        times.setdefault(cls, []).append(seconds * factor)
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[101])
    p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    for workload in args.workloads:
        for cls, seconds in class_times(workload, args.seeds, args.repeats).items():
            print(f"{workload} {cls} {len(seconds) // args.repeats} {1e3 * statistics.median(seconds):.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
