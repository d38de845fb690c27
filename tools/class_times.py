"""Median in-process latency of each request class of the benchmark's pools.

    python3 tools/class_times.py --workloads shots-qubit --seeds 101 --repeats 5

Builds each pool as ``tools/report_digests.py`` does, with
``bench/workloads.build_pool``, and runs it through ``chandet.cli.main``
in-process, BLAS at one thread, with the program imported from this
checkout's ``src/``: one untimed pass, then ``--repeats`` timed passes.
Prints one line per request class:

    workload class requests median_ms median_start_sweeps median_sweeps

As in ``bench/run.py``, the yardstick of ``bench/yardstick.py`` runs before
every call, outside the timed region, and each timed call is scaled by its
``scales`` factor, so the times read as milliseconds at the yardstick's
reference speed and a slow stretch of a shared host moves them less. The
median runs over every timed call of every request of the class, across all
seeds. The last two columns are medians over the class's requests: of the
optimizer's start-sweeps (each start counted once for every sweep it climbs,
from ``detect._alternating_ascent``'s ``record``) and of its batched sweeps
(the length of ``record``, each one sweep of every live start at once); both
are 0 for a class that does not run it. An optimizer run costs about a fixed
time per batched sweep plus a time per start-sweep. Both counts are taken in
the untimed pass, so they cost the timed calls nothing. A timing change whose
counts did not move is the code's, not the draw's. To compare two commits,
run the script in a checkout of each. Nothing under ``bench/`` is changed.
"""

import argparse
import statistics
import sys
import time
from unittest import mock

import numpy as np
from report_digests import WORKLOADS, pool, run
from yardstick import WARMUP, scales, yardstick  # on the path report_digests sets

from chandet import detect


def class_times(workload: str, seeds: list, repeats: int) -> tuple:
    """Scaled seconds of every timed call, and start-sweeps and batched sweeps of every request, per class."""
    calls, yard = [], []  # (class, seconds) of each timed call, the yardstick's seconds before it
    sweeps, batches = {}, {}  # start-sweeps and batched sweeps of each request, per class
    rows = []  # the sweeps recorded in the current request
    climb = detect._alternating_ascent

    def recorded(u, da, db, ub0):
        return climb(u, da, db, ub0, record=rows)

    for _ in range(WARMUP):
        yardstick()
    for seed in seeds:
        with pool(workload, seed) as requests:
            for timed in [False] + [True] * repeats:
                for req in requests:
                    start = time.perf_counter()
                    yardstick()
                    middle = time.perf_counter()
                    if timed:
                        run(req.argv)
                        calls.append((req.cls, time.perf_counter() - middle))
                        yard.append(middle - start)
                    else:
                        rows.clear()
                        with mock.patch.object(detect, "_alternating_ascent", recorded):
                            run(req.argv)
                        sweeps.setdefault(req.cls, []).append(sum(int(np.count_nonzero(~np.isnan(r))) for r in rows))
                        batches.setdefault(req.cls, []).append(len(rows))
    times = {}
    for (cls, seconds), factor in zip(calls, scales(yard)):
        times.setdefault(cls, []).append(seconds * factor)
    return times, sweeps, batches


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[101])
    p.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    p.add_argument("--repeats", type=int, default=3)
    args = p.parse_args(argv)
    for workload in args.workloads:
        times, sweeps, batches = class_times(workload, args.seeds, args.repeats)
        for cls, seconds in times.items():
            median_ms = 1e3 * statistics.median(seconds)
            counts = f"{statistics.median(sweeps[cls]):g} {statistics.median(batches[cls]):g}"
            print(f"{workload} {cls} {len(sweeps[cls])} {median_ms:.2f} {counts}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
