"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Runs every workload at a tiny size (one request per class), untraced and
   traced, and checks that the result line carries exactly the metrics that
   BENCHMARK.json names, with their units.
2. Feeds the oracle deliberately corrupted program outputs (a flipped
   verdict, a perturbed alpha, a perturbed Choi entry, a NaN, a shifted
   estimate, a wrong exit code) and checks that each one is flagged.
3. Checks that the benchmark refuses to run, without printing a result, in a
   directory holding only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run  # first: it fixes the BLAS thread count before numpy loads
from oracle import OracleError, check
from workloads import KNOWN_DEFECTS, build_pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_work" / f"selftest-{os.getpid()}"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_metrics(spec):
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--tiny")
            if proc.returncode != 0:
                failures.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{workload} trace={trace}: metrics {sorted(got.items() ^ want.items())} differ")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{workload} trace={trace}: correct={result['correct']}")
    return failures


def program_outputs():
    """(request, exit code, stdout) for a tiny pool of every workload."""
    sys.path.insert(0, str(ROOT / "src"))
    import chandet.cli as cli

    out = []
    for workload in ("sep-qutrit", "npt-channels", "shots-qubit"):
        workdir = WORKDIR / workload
        workdir.mkdir(parents=True)
        for req in build_pool(workload, 1, str(workdir), tiny=True):
            code, stdout, _, _ = run.call_main(cli, req.argv)
            out.append((req, code, stdout))
    return out


def corrupted(req, code, stdout):
    """Yield (description, code, stdout) variants that the oracle must reject."""
    if "exit" in req.expect:
        yield "exit 0 for a malformed spec", 0, '{"results": {}}\n'
        return
    report = json.loads(stdout)
    res = report["results"]

    def dump(edit):
        copy = json.loads(stdout)
        edit(copy["results"])
        return json.dumps(copy, indent=2) + "\n"

    yield "NaN in the report", code, stdout.replace('"results": {', '"nan": NaN, "results": {', 1)
    yield "exit code 3 for a valid request", 3, ""
    if "verdict" in res:
        flipped = {"not_separable": "undetected", "not_sru": "undetected", "undetected": "not_sru",
                   "npt_detected": "not_detected", "not_entanglement_breaking": "undetected"}
        if res["verdict"] in flipped:
            yield "flipped verdict", code, dump(lambda r: r.update(verdict=flipped[r["verdict"]]))
    if "alpha_sru" in res:
        def lower_alpha(r):
            r["alpha_sru"] -= 1e-6
            r["alpha_sru_sq"] = r["alpha_sru"] ** 2
        yield "alpha_sru below the reference optimum", code, dump(lower_alpha)
    if "matrix" in res:
        yield "perturbed Choi entry", code, dump(lambda r: r["matrix"][0][0].__setitem__(0, r["matrix"][0][0][0] + 1e-6))
    if "lambda_minus" in res:
        yield "perturbed lambda_minus", code, dump(lambda r: r.update(lambda_minus=r["lambda_minus"] + 1e-6))
    est = res.get("estimate")
    if est and est["std_error"] > 0:
        def shift(r):
            r["estimate"]["value"] += 10 * r["estimate"]["std_error"]
        yield "estimate 10 standard errors off", code, dump(shift)
    if "exact" in res:
        yield "perturbed exact value", code, dump(lambda r: r.update(exact=r["exact"] + 1e-6))
    if "terms" in res:
        yield "perturbed Pauli coefficient", code, dump(
            lambda r: r["terms"][0].update(coefficient=r["terms"][0]["coefficient"] + 1e-6))


def check_oracle_bites():
    failures, caught = [], 0
    for req, code, stdout in program_outputs():
        try:
            check(req.expect, code, stdout)
        except OracleError as exc:
            if req.cls in KNOWN_DEFECTS:
                continue  # the genuine output already fails
            failures.append(f"{req.cls}: genuine output rejected: {exc}")
            continue
        for what, bad_code, bad_stdout in corrupted(req, code, stdout):
            try:
                check(req.expect, bad_code, bad_stdout)
                failures.append(f"{req.cls}: oracle accepted {what}")
            except OracleError:
                caught += 1
    print(f"oracle flagged {caught} corrupted outputs")
    return failures


def check_refuses_without_program():
    bare = WORKDIR / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench("--workload", "npt-channels", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"ran without the program: exit {proc.returncode}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORKDIR.mkdir(parents=True)
    try:
        failures = check_metrics(spec) + check_oracle_bites() + check_refuses_without_program()
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
