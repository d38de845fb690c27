"""How far every report field moves between two checkouts, over the benchmark's request pools.

    python3 tools/report_moves.py PARENT CHANGE --seeds 101 102 103

PARENT and CHANGE are checkout roots. Each is run in a fresh interpreter that
imports ``chandet`` from that checkout's ``src/`` and runs every request of
the pools once, as ``tools/report_digests.py`` does; both runs take their
pools from this checkout's ``bench/workloads.py``, so they see the same
requests. The reports are compared request by request. Per workload, request
class and JSON field path (list indices written ``[]``), it prints

    workload class requests N stdout_changed M
    workload class PATH max_abs_delta X changed K   a float field; K floats print differently
    workload class PATH differs K                   any other field: exit, stderr, a verdict, a type

A field that never moved is not printed. Nothing under ``bench/`` is changed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402

# One checkout's worker: argv is the checkout, the workloads and the seeds.
WORKER = "import sys, report_moves; report_moves.dump(sys.argv[1], sys.argv[2].split(), sys.argv[3].split())"
# each worker runs BLAS at one thread, as report_digests.py does
WORKER_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "tools")}
WORKER_ENV.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))


def dump(checkout: str, workloads: list, seeds: list) -> None:
    """Print one JSON line per request, in pool order: its workload, seed, class, exit, stdout and stderr."""
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    import chandet.cli  # noqa: F401  the checkout's program, before report_digests puts this checkout's first

    from report_digests import pool, run

    for workload in workloads:
        for seed in map(int, seeds):
            with pool(workload, seed) as requests:
                for req in requests:
                    code, out, err = run(req.argv)
                    record = {"workload": workload, "seed": seed, "cls": req.cls, "exit": code}
                    print(json.dumps({**record, "stdout": out, "stderr": err}), flush=True)


def moves(a, b, path: str, floats: dict, others: dict) -> None:
    """Record the moves of report ``a`` against ``b`` at ``path``.

    ``floats[path]`` is [largest |a - b|, count of floats whose text differs],
    so a zero that changes sign counts; ``others[path]`` counts every other
    difference.
    """
    if type(a) is float and type(b) is float:
        entry = floats.setdefault(path, [0.0, 0])
        entry[0] = max(entry[0], abs(a - b))
        entry[1] += repr(a) != repr(b)
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            moves(a[key], b[key], f"{path}.{key}" if path else key, floats, others)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            moves(x, y, path + "[]", floats, others)
    elif type(a) is not type(b) or a != b:
        others[path] = others.get(path, 0) + 1


def compare(parent, change) -> dict:
    """Per (workload, class): the request count, the changed-stdout count and the moves of every field."""
    classes = {}
    for line_a, line_b in zip(parent, change, strict=True):
        a, b = json.loads(line_a), json.loads(line_b)
        assert (a["workload"], a["seed"], a["cls"]) == (b["workload"], b["seed"], b["cls"]), "pools differ"
        entry = classes.setdefault((a["workload"], a["cls"]), {"requests": 0, "changed": 0, "floats": {}, "others": {}})
        entry["requests"] += 1
        entry["changed"] += a["stdout"] != b["stdout"]
        found = entry["floats"], entry["others"]
        moves(a["exit"], b["exit"], "exit", *found)
        moves(a["stderr"], b["stderr"], "stderr", *found)
        try:
            reports = json.loads(a["stdout"]), json.loads(b["stdout"])
        except ValueError:
            moves(a["stdout"], b["stdout"], "stdout", *found)
        else:
            moves(*reports, "", *found)
    return classes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", metavar="PARENT")
    p.add_argument("change", metavar="CHANGE")
    p.add_argument("--seeds", type=int, nargs="+", default=[101, 102, 103])
    p.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    args = p.parse_args(argv)
    tail = [" ".join(args.workloads), " ".join(map(str, args.seeds))]
    workers = [
        subprocess.Popen([sys.executable, "-c", WORKER, c, *tail], stdout=subprocess.PIPE, text=True, env=WORKER_ENV)
        for c in (args.parent, args.change)
    ]
    classes = compare(*(w.stdout for w in workers))
    if any(w.wait() for w in workers):
        print("report_moves: a worker failed", file=sys.stderr)
        return 1
    for (workload, cls), entry in classes.items():
        print(f"{workload} {cls} requests {entry['requests']} stdout_changed {entry['changed']}")
        for path, (delta, changed) in entry["floats"].items():
            if changed:
                print(f"{workload} {cls} {path} max_abs_delta {delta:.3g} changed {changed}")
        for path, count in entry["others"].items():
            print(f"{workload} {cls} {path} differs {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
