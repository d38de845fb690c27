"""Alternated benchmark runs of two checkouts, compared metric by metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload npt-channels --seed 101 --seconds 10 --pairs 10 \
        [--out BENCH_<label>.json]

PARENT and CHANGE are the roots of two checkouts. Each pair runs
``python3 bench/run.py --workload W --seed S --seconds T`` once in each
checkout, that checkout as working directory and this interpreter, and which
checkout goes first swaps every pair. The last line a run prints is its
result object, the line before it its info object.

Per end-to-end metric of this checkout's ``BENCHMARK.json`` it prints both
sides' median and quartiles, how many pairs the change won (its value better
than the parent's in the metric's direction), and whether the change's
median is worse than the parent's by more than the metric's ``bound``, read
as a fraction of the parent's median. Every run whose result says
``"correct": false`` is named. With ``--out FILE`` the same comparison is
also written to FILE as JSON: per metric both sides' run values, median and
quartiles, the pairs won and the bound verdict, and per side the info fields
``SIDE_FIELDS`` of its first run. Exits 1 when a run was not correct or a
median is past its bound, else 0. Nothing under ``bench/`` is changed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the fields of a run's info object that say what ran where
SIDE_FIELDS = ("python", "numpy", "blas", "blas_threads", "nproc", "git_commit", "source_sha256")


def run_once(tree: Path, args) -> tuple[dict, dict]:
    """The info and result objects of one ``bench/run.py`` run in ``tree``."""
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    done = subprocess.run([sys.executable, "bench/run.py", *argv], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pairs: bench/run.py in {tree} exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", type=Path, default=None, help="also write the comparison to this JSON file")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 for quartiles")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            p.error(f"{name}: no bench/run.py under {tree}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    values = {name: {m["name"]: [] for m in metrics} for name in trees}
    sides = {}
    failed = []
    for k in range(args.pairs):
        for name in list(trees) if k % 2 == 0 else list(trees)[::-1]:
            info, result = run_once(trees[name], args)
            sides.setdefault(name, {f: info[f] for f in SIDE_FIELDS})
            if not result["correct"]:
                failed.append(f"pair {k + 1} {name}")
            for m in metrics:
                values[name][m["name"]].append(result["metrics"][m["name"]]["value"])

    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s runs, {args.pairs} alternated pairs")
    past_bound = False
    compared = {}
    for m in metrics:
        sign = 1.0 if m["better"] == "lower" else -1.0
        parent, change = values["parent"][m["name"]], values["change"][m["name"]]
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (statistics.quantiles(v, n=4) for v in (parent, change))
        won = sum(sign * (c - a) < 0 for a, c in zip(parent, change))
        worse = sign * (cmed - pmed) > m["bound"] * abs(pmed)
        past_bound |= worse
        compared[m["name"]] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": {"median": pmed, "quartiles": [pq1, pq3], "values": parent},
            "change": {"median": cmed, "quartiles": [cq1, cq3], "values": change},
            "change_won": won,
            "worse_past_bound": worse,
        }
        print(
            f"{m['name']}: parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}], change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] "
            f"{m['unit']}, change won {won} of {args.pairs}, worse than the parent by more than "
            f"{m['bound']:g}: {'yes' if worse else 'no'}"
        )
    for run in failed:
        print(f"not correct: {run}")
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "sides": sides,
            "metrics": compared,
            "not_correct": failed,
        }
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 1 if failed or past_bound else 0


if __name__ == "__main__":
    sys.exit(main())
