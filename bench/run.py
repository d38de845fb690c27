"""Closed-loop benchmark of the chandet CLI.

    python3 bench/run.py --workload sep-qutrit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing). One client sends requests back to back:
each request is one in-process call of ``chandet.cli.main(argv)`` on a spec
file generated from ``--seed``. Stdout is captured, the exit code and JSON
are checked against the independent oracle in ``oracle.py``, and the last
line printed is the result object. ``--trace 0`` reports the end-to-end
metrics, with timings scaled to the reference speed of ``yardstick.py``;
``--trace 1`` reports the per-layer metrics of ``tracing.py``.
Working files live under ``.bench_work/`` in the checkout.
"""

import os
import sys

# Fix the BLAS thread count before numpy loads, so every run uses the same.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

from oracle import OracleError, check
from tracing import Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, build_pool
from yardstick import REF_MS, WARMUP, scales, yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REQUESTS = 100  # so that at least ten latencies lie beyond the 90th percentile
MAX_SECONDS = 120.0  # stop measuring here whatever MIN_REQUESTS says, to end within 180 s
SETUP_REPEATS = 9  # fresh-interpreter imports per run, one after each pass
# End-to-end timings, reported at the yardstick's reference speed; the info
# line carries them unscaled as well.
TIMINGS = ("requests_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_request", "setup_s")


def source_hash(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def setup_once():
    """Wall time of a fresh interpreter importing chandet.cli.

    No timeout: with one, subprocess polls the child at up to 50 ms intervals,
    which would quantize the measurement.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import chandet.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


class Outcome:
    __slots__ = ("ok", "error", "digest")

    def __init__(self, ok, error, digest):
        self.ok, self.error, self.digest = ok, error, digest


def call_main(cli, argv):
    """One request: returns (exit code or exception name, stdout, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    cpu0 = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an uncaught program error is a failed request
        code = type(exc).__name__
    wall = time.perf_counter() - start
    return code, out.getvalue(), wall, time.process_time() - cpu0


class Client:
    """Closed-loop client replaying the pool in a fresh shuffled order each pass."""

    def __init__(self, cli, pool, seed):
        self.cli = cli
        self.pool = pool
        self.order = random.Random(seed)
        self.outcomes = {}  # rid -> Outcome of its first execution
        self.errors = []  # oracle or determinism failures outside known defects
        self.defects = {}  # known-defect class -> its first failure
        self.records = []  # (rid, ok, wall s, cpu s)
        self.yard = []  # yardstick seconds just before each record
        self.passes = []  # (first, end) indices into records

    def send(self, req):
        start = time.perf_counter()
        yardstick()
        self.yard.append(time.perf_counter() - start)
        code, stdout, wall, cpu = call_main(self.cli, req.argv)
        digest = hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()
        first = self.outcomes.get(req.rid)
        if first is None:
            try:
                check(req.expect, code, stdout)
                first = Outcome(True, None, digest)
            except (OracleError, KeyError, TypeError, ValueError) as exc:
                first = Outcome(False, f"{req.cls}#{req.rid}: {type(exc).__name__}: {exc}"[:300], digest)
                if req.cls in KNOWN_DEFECTS:
                    self.defects.setdefault(req.cls, first.error)
                else:
                    self.errors.append(first.error)
            self.outcomes[req.rid] = first
            ok = first.ok
        else:
            ok = first.ok and digest == first.digest
            if digest != first.digest:
                self.errors.append(f"{req.cls}#{req.rid}: output changed on repeat")
        self.records.append((req.rid, ok, wall, cpu))

    def run_pass(self):
        """Send every pool request once, in a fresh shuffled order."""
        queue = list(range(len(self.pool)))
        self.order.shuffle(queue)
        first = len(self.records)
        for i in queue:
            self.send(self.pool[i])
        self.passes.append((first, len(self.records)))

    def run(self, seconds, min_requests, between_passes):
        """Whole passes until ``seconds`` of measuring and ``min_requests`` are reached."""
        start = time.perf_counter()
        spent_between = 0.0
        while True:
            self.run_pass()
            elapsed = time.perf_counter() - start - spent_between
            if (elapsed >= seconds and len(self.records) >= min_requests) or elapsed >= MAX_SECONDS:
                return
            t0 = time.perf_counter()
            between_passes()
            spent_between += time.perf_counter() - t0

    def digest(self):
        h = hashlib.sha256()
        for req in self.pool:
            h.update(f"{req.rid}:{self.outcomes[req.rid].digest}\n".encode())
        return h.hexdigest()


def compare_digests(path, client):
    """Per-request stdout digests must match any earlier run of the same code and seed."""
    now = {str(rid): o.digest for rid, o in client.outcomes.items()}
    before = json.loads(path.read_text()) if path.exists() else {}
    changed = sorted((k for k in now.keys() & before.keys() if now[k] != before[k]), key=int)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**before, **now}, sort_keys=True))
    return [f"request #{rid}: stdout differs from an earlier run of this code and seed" for rid in changed]


def end_to_end(client, setup_s, scale):
    """Latency percentiles over all requests; rates as the median over passes.

    Every pass sends the same requests, so per-pass rates differ only by the
    machine's noise, and their median shrugs off a slow stretch of the run.
    Each request's wall and CPU time is multiplied by its entry in ``scale``
    (all ones for raw times).
    """
    records = client.records
    ok = sum(1 for r in records if r[1])
    wall = [r[2] * f for r, f in zip(records, scale)]
    cpu_s = [r[3] * f for r, f in zip(records, scale)]
    lat_ms = [1e3 * w for w in wall]
    rate, cpu = [], []
    for first, end in client.passes:
        rate.append(sum(1 for r in records[first:end] if r[1]) / sum(wall[first:end]))
        cpu.append(1e3 * sum(cpu_s[first:end]) / (end - first))
    return {
        "requests_per_s": (statistics.median(rate), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "cpu_ms_per_request": (statistics.median(cpu), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ok / len(records), "ratio"),
    }


def layer_unit(name):
    if name.endswith("ms"):
        return "ms"
    if name.endswith(("share", "frac")):
        return "ratio"
    return "count"


def class_summary(pool, records):
    by_cls = {}
    cls_of = {req.rid: req.cls for req in pool}
    for rid, ok, wall, _ in records:
        entry = by_cls.setdefault(cls_of[rid], {"attempted": 0, "failed": 0, "ms": []})
        entry["attempted"] += 1
        entry["failed"] += 0 if ok else 1
        entry["ms"].append(1e3 * wall)
    for entry in by_cls.values():
        entry["p50_ms"] = round(statistics.median(entry.pop("ms")), 3)
    return by_cls


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="one request per class (self-test)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "chandet" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'chandet'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import chandet.cli as cli

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pool = build_pool(args.workload, args.seed, str(workdir), tiny=args.tiny)
        client = Client(cli, pool, args.seed)
        for _ in range(WARMUP):
            yardstick()
        min_requests = len(pool) if args.tiny else MIN_REQUESTS
        if args.trace:
            tracer = Tracer()
            start = time.perf_counter()
            client.run_pass()  # untraced reference for the tracing overhead
            tracer.install()
            try:
                client.run(args.seconds - (time.perf_counter() - start), min_requests, lambda: None)
            finally:
                tracer.uninstall()
        else:
            setup_once()  # the first import writes the bytecode cache
            setup_s = []

            def sample_setup():
                if len(setup_s) < SETUP_REPEATS:
                    setup_s.append(setup_once())

            client.run(args.seconds, min_requests, sample_setup)
            while len(setup_s) < SETUP_REPEATS:
                sample_setup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    code_id = source_hash(SRC / "chandet", Path(__file__).parent)[:16]
    key = f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}-{code_id}.json"
    errors = client.errors + compare_digests(WORK / "digests" / key, client)
    records = client.records
    if args.trace:
        untraced = records[: len(pool)]
        traced = records[len(pool):]
        first_traced = {}
        for rid, _, wall, _ in traced:
            first_traced.setdefault(rid, wall)
        overhead = sum(first_traced.values()) / sum(r[2] for r in untraced) - 1.0
        metrics = {k: (v, layer_unit(k)) for k, v in tracer.metrics(len(traced), overhead).items()}
    else:
        # Set-up samples are spread over the run, so they take the run's factor.
        run_scale = REF_MS / (1e3 * statistics.median(client.yard))
        metrics = end_to_end(client, [s * run_scale for s in setup_s], scales(client.yard))
        raw = end_to_end(client, setup_s, [1.0] * len(records))
    failed = sum(1 for r in records if not r[1])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "stdout_digest": client.digest(),
        "requests": len(records),
        "passes": len(client.passes),
        "pass_ms": [round(1e3 * sum(r[2] for r in records[a:b]), 1) for a, b in client.passes],
        "pool": len(pool),
        "failed_frac": failed / len(records),
        "yardstick_ms": 1e3 * statistics.median(client.yard),
        "raw_timings": None if args.trace else {k: raw[k][0] for k in TIMINGS},
        "known_defect_failures": client.defects,
        "classes": class_summary(pool, records),
        "error_count": len(errors),
        "errors": errors[:10],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_hash(SRC / "chandet"),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
