"""Command-line front end: channel-spec files in, machine-readable reports out.

Channel specs are JSON with complex entries encoded as [re, im] pairs:

    {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": 0.25}}
    {"dims": [2], "kind": "kraus", "kraus": [[[[1,0],[0,0]],[[0,0],[1,0]]]]}

Reports go to stdout (JSON or text), diagnostics to stderr. Exit codes:
0 = pipeline ran (the verdict is data, not an exit code), 2 = input error,
3 = numerical validation failure.
"""

import argparse
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    UNITARY_ATOL,
    Channel,
    ChoiMatrix,
    ValidationError,
    make_named_channel,
    _check_unitary,
)
from .detect import (
    VERDICT_MARGIN,
    Witness,
    _sru_witness_from_schmidt,
    alpha_sru_optimize,
    choi_vector,
    classify_violation,
    eb_witness,
    evaluate_witness,
    operator_schmidt,
    robustness_bounds,
    stabilizer_witness,
)
from .measure import ShotEstimate, estimate_witness, group_settings, pauli_decompose
from .pptdetect import NEGATIVITY_ATOL, detect_npt

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

# Largest prod(dims) a spec may declare. Each channel holds one D^4-entry
# complex array, its Choi matrix, 27 MB at D = 36.
MAX_CHANNEL_DIM = 36
# Largest --starts. The optimizer holds a few (starts, d, d) arrays at once.
MAX_STARTS = 10_000

CNOT_STABILIZER_GENERATORS = ("XXXI", "IXIX", "ZIZI", "ZZIZ")


class SpecError(ValueError):
    """Malformed input: file, schema, or command/dims mismatch."""


@dataclass
class Report:
    pipeline: str
    channel_spec: dict
    options: dict
    results: dict
    elapsed_seconds: float = 0.0


# ---------------------------------------------------------------------------
# channel-spec parsing


def _number(obj, where: str) -> float:
    """A finite JSON number; booleans and numeric strings are rejected."""
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SpecError(f"{where} must be a number")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SpecError(f"{where} must be a finite number")
    return value


def _number_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SpecError(f"{where} must be a list of numbers")
    return [_number(x, f"{where}[{i}]") for i, x in enumerate(obj)]


def _complex_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SpecError(f"{where} must be a non-empty nested list of [re, im] pairs")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SpecError(f"{where}[{i}] must be a non-empty list")
        entries = []
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpecError(f"{where}[{i}][{j}] must be an [re, im] pair of numbers")
            entries.append(complex(*(_number(x, f"{where}[{i}][{j}]") for x in pair)))
        rows.append(entries)
    if any(len(r) != len(rows[0]) for r in rows):
        raise SpecError(f"{where} rows have unequal lengths")
    return np.array(rows, dtype=complex)


def _matrix_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SpecError(f"{where} must be a list of matrices")
    return [_complex_matrix(m, f"{where}[{i}]") for i, m in enumerate(obj)]


def matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


# Parser of each named-channel parameter, by parameter name; other keys are ignored.
_PARAM_PARSERS = {
    "p": _number,
    "d": _number,
    "probs": _number_list,
    "matrix": _complex_matrix,
    "sigma": _complex_matrix,
    "unitaries": _matrix_list,
    "a_unitaries": _matrix_list,
    "b_unitaries": _matrix_list,
}


def parse_channel_spec(spec: dict, require_tp: bool = True) -> Channel:
    """Validate a parsed channel-spec dict and construct the channel.

    Schema violations raise :class:`SpecError` naming the offending field;
    failed CP/TP/unitarity checks raise :class:`~chandet.channels.ValidationError`.
    """
    if not isinstance(spec, dict):
        raise SpecError("channel spec must be a JSON object")
    dims = spec.get("dims")
    if (
        not isinstance(dims, list)
        or not dims
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise SpecError("dims must be a non-empty list of positive integers")
    if math.prod(dims) > MAX_CHANNEL_DIM:
        raise SpecError(
            f"dims {dims} span dimension {math.prod(dims)}, above the limit {MAX_CHANNEL_DIM}"
        )
    kind = spec.get("kind")
    if kind == "named":
        name = spec.get("name")
        if not isinstance(name, str):
            raise SpecError("name must be a string for kind=named")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise SpecError("params must be an object")
        params = {
            key: _PARAM_PARSERS[key](val, f"params.{key}") if key in _PARAM_PARSERS else val
            for key, val in params.items()
        }
        try:
            channel = make_named_channel(name, params, dims)
        except ValidationError:
            raise
        except (ValueError, KeyError) as exc:
            raise SpecError(str(exc)) from exc
    elif kind == "kraus":
        ops = spec.get("kraus")
        if not isinstance(ops, list) or not ops:
            raise SpecError("kraus must be a non-empty list of matrices")
        mats = [_complex_matrix(m, f"kraus[{i}]") for i, m in enumerate(ops)]
        try:
            channel = Channel(mats, dims, require_tp=require_tp)
        except ValidationError:
            raise
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
    else:
        raise SpecError("kind must be 'named' or 'kraus'")
    return channel


def _read_spec_file(path: str) -> dict:
    def reject_constant(token):
        raise SpecError(f"invalid JSON in {path}: non-finite number {token}")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject_constant)
    except FileNotFoundError as exc:
        raise SpecError(f"channel spec file not found: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SpecError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise SpecError(f"cannot read channel spec {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# pipelines


@dataclass
class PipelineOptions:
    seed: int = 0
    shots: int | None = None
    starts: int = 50
    witness: str | None = None
    target_spec: dict | None = None

    def echo(self) -> dict:
        return {
            "seed": self.seed,
            "shots": self.shots,
            "starts": self.starts,
            "witness": self.witness,
            "target": self.target_spec,
        }


def _single_operator(ch: Channel, what: str) -> np.ndarray:
    if len(ch.kraus) != 1:
        raise SpecError(f"{what} needs a single-Kraus channel, got {len(ch.kraus)} operators")
    return ch.kraus[0]


def _single_unitary(ch: Channel, what: str) -> np.ndarray:
    return _check_unitary(_single_operator(ch, what), f"{what} operator")


def _require_dims(ch: Channel, allowed, command: str) -> None:
    if ch.dims not in allowed:
        opts = " or ".join(str(list(a)) for a in allowed)
        raise SpecError(f"{command} needs channel dims {opts}, got {list(ch.dims)}")


def _target_gate(channel: Channel, opts: PipelineOptions, command: str) -> np.ndarray:
    """Reference unitary for witness construction, defaulting to the channel itself."""
    if opts.target_spec is None:
        return _single_unitary(channel, command)
    target = parse_channel_spec(opts.target_spec, require_tp=False)
    if target.dims != channel.dims:
        raise SpecError(
            f"target dims {list(target.dims)} do not match channel dims {list(channel.dims)}"
        )
    return _single_unitary(target, f"{command} target")


def _sru_witness(channel: Channel, opts: PipelineOptions, command: str):
    """SRU witness of the reference gate; returns ``(witness, Schmidt data, alpha_source)``.

    The gate is decomposed once. For two qubits the KAK form makes the leading
    Schmidt term a product unitary, so alpha_SRU = sigma_1 exactly; other dims
    run the optimizer.
    """
    u = _target_gate(channel, opts, command)
    sd = operator_schmidt(u, *channel.dims)
    if sd.dims == (2, 2):
        # rounding can put sigma_1 of a product gate a few ulp above 1
        alpha_sq, source = min(float(sd.sigmas[0] ** 2), 1.0), "sigma_1"
    else:
        val, _, _ = alpha_sru_optimize(u, sd.dims, starts=opts.starts, seed=opts.seed)
        alpha_sq, source = val**2, "optimizer"
    return _sru_witness_from_schmidt(u, sd, alpha_sq), sd, source


def _stabilizer_witness(channel: Channel, opts: PipelineOptions) -> Witness:
    """CNOT stabilizer witness, if its minimum -1 is reached on the reference gate's Choi state.

    That happens exactly when the generators stabilize the state, i.e. when the
    gate is a CNOT up to a global phase.
    """
    u = _target_gate(channel, opts, "the stabilizer witness")
    w = stabilizer_witness(CNOT_STABILIZER_GENERATORS)
    ket = choi_vector(u, channel.dims)
    value = float(np.real(ket.conj() @ w.operator @ ket))
    if not abs(value + 1.0) <= UNITARY_ATOL:
        raise SpecError(
            "the stabilizer witness needs a CNOT reference gate: its expectation on the "
            f"gate's Choi state is {value:.6g}, not -1"
        )
    return w


def _estimate_payload(state: ChoiMatrix, w: Witness, opts: PipelineOptions) -> dict | None:
    if not opts.shots:
        return None
    return _estimate_fields(estimate_witness(state, w, opts.shots, opts.seed))


def _estimate_fields(est: ShotEstimate) -> dict:
    return {
        "value": est.value,
        "std_error": est.std_error,
        "shots_per_setting": est.shots_per_setting,
        "seed": est.seed,
    }


def _run_choi(channel: Channel, opts: PipelineOptions) -> dict:
    choi = channel.choi
    eigs = np.linalg.eigvalsh(choi.matrix)
    return {
        "source_dims": list(choi.source_dims),
        "choi_dims": list(choi.dims),
        "trace": float(np.trace(choi.matrix).real),
        "eigenvalues": [float(x) for x in eigs],
        "matrix": matrix_to_pairs(choi.matrix),
    }


def _run_schmidt(channel: Channel, opts: PipelineOptions) -> dict:
    if len(channel.dims) != 2:
        raise SpecError(f"schmidt needs a bipartite channel, got dims {list(channel.dims)}")
    op = _single_operator(channel, "schmidt")
    sd = operator_schmidt(op, channel.dims[0], channel.dims[1])
    return {
        "sigmas": [float(s) for s in sd.sigmas],
        "rank": sd.rank,
        "sum_sigma_sq": float(np.sum(sd.sigmas**2)),
        "alpha_s": float(sd.sigmas[0]),
        "a_factors": [matrix_to_pairs(a) for a in sd.a_factors],
        "b_factors": [matrix_to_pairs(b) for b in sd.b_factors],
    }


def _witness_terms_payload(w: Witness) -> dict:
    terms = pauli_decompose(w.operator)
    settings = group_settings(terms)
    return {
        "terms": [{"string": t.string, "coefficient": t.coefficient} for t in terms],
        "settings": [
            {"bases": s.bases, "covered_terms": list(s.covered_terms)} for s in settings
        ],
        "setting_count": len(settings),
    }


def _build_witness(channel: Channel, kind: str, opts: PipelineOptions):
    """Witness of the requested kind plus a payload describing its provenance."""
    if kind == "eb":
        _require_dims(channel, [(2,)], "the eb witness")
        return eb_witness(), {"witness": "eb"}
    if kind == "sru":
        _require_dims(channel, [(2, 2)], "witness decomposition")
        w, _, source = _sru_witness(channel, opts, "witness construction")
        return w, {
            "witness": "sru",
            "alpha_sru_sq": w.alpha_sru_sq,
            "alpha_s_sq": w.alpha_s_sq,
            "alpha_source": source,
        }
    if kind == "stabilizer":
        _require_dims(channel, [(2, 2)], "the stabilizer witness")
        w = _stabilizer_witness(channel, opts)
        return w, {"witness": "stabilizer", "generators": list(CNOT_STABILIZER_GENERATORS)}
    raise SpecError(f"unknown witness kind {kind!r}")


def _run_decompose_witness(channel: Channel, opts: PipelineOptions) -> dict:
    kind = opts.witness or ("eb" if channel.dims == (2,) else "sru")
    w, payload = _build_witness(channel, kind, opts)
    payload.update(_witness_terms_payload(w))
    return payload


def _run_detect_eb(channel: Channel, opts: PipelineOptions) -> dict:
    _require_dims(channel, [(2,)], "detect-eb")
    w = eb_witness()
    value = evaluate_witness(w, channel)
    bounds = robustness_bounds(value, w)
    results = {
        "expectation": value,
        "threshold": 0.0,
        "verdict": "not_entanglement_breaking" if value < -VERDICT_MARGIN else "undetected",
        "bounds": {
            "c": bounds.c,
            "w_max": bounds.w_max,
            "robustness_lb": bounds.robustness_lb,
            "mu_c_lb": bounds.mu_c_lb,
        },
    }
    est = _estimate_payload(channel.choi, w, opts)
    if est is not None:
        results["estimate"] = est
    return results


def _run_detect_sru(channel: Channel, opts: PipelineOptions, with_schmidt: bool = False) -> dict:
    _require_dims(channel, [(2, 2), (3, 3)], "detect-sru")
    w, sd, source = _sru_witness(channel, opts, "detect-sru")
    value = evaluate_witness(w, channel)
    verdict = classify_violation(value, w)
    results = {
        "alpha_sru": float(np.sqrt(w.alpha_sru_sq)),
        "alpha_sru_sq": w.alpha_sru_sq,
        "alpha_s": float(np.sqrt(w.alpha_s_sq)),
        "alpha_s_sq": w.alpha_s_sq,
        "alpha_source": source,
        "expectation": value,
        "thresholds": {
            "not_sru": 0.0,
            "not_separable": w.alpha_sru_sq - w.alpha_s_sq,
        },
        "verdict": verdict.value,
    }
    if with_schmidt:
        results["sigmas"] = [float(s) for s in sd.sigmas]
        results["rank"] = sd.rank
    if opts.shots:
        if channel.dims != (2, 2):
            raise SpecError("shot simulation is available only for qubit systems")
        results["estimate"] = _estimate_payload(channel.choi, w, opts)
    return results


def _run_detect_npt(channel: Channel, opts: PipelineOptions) -> dict:
    if len(channel.dims) != 2 or channel.dims[0] != channel.dims[1]:
        raise SpecError(f"detect-npt needs channel dims [d, d], got {list(channel.dims)}")
    report = detect_npt(channel)
    results = {
        "lambda_minus": report.lambda_minus,
        "noise_p": report.noise_p,
        "unital": report.unital,
        "threshold": report.threshold,
        "expectation": report.expectation,
        "term_transpose": report.term_transpose,
        "term_noise_mt": report.term_noise_mt,
        "term_noise_m": report.term_noise_m,
        "degenerate": report.degenerate,
        "verdict": report.verdict,
        "note": report.note,
    }
    if opts.shots:
        if channel.dims != (2, 2):
            raise SpecError("shot simulation is available only for qubit systems")
        # a PPT channel has no witness, hence nothing to estimate
        w = report.witness
        results["estimate"] = None if w is None else _estimate_payload(report.composite, w, opts)
    return results


def _run_simulate(channel: Channel, opts: PipelineOptions) -> dict:
    sim_opts = replace(opts, shots=opts.shots or 100_000)
    kind = opts.witness or ("eb" if channel.dims == (2,) else "sru")
    if kind == "ppt":
        _require_dims(channel, [(2, 2)], "simulate --witness ppt")
        report = detect_npt(channel)
        if report.witness is None:
            raise SpecError(
                f"the ppt witness needs an NPT channel; this one has lambda_minus >= "
                f"-{NEGATIVITY_ATOL:g}, so no witness exists"
            )
        w, measured = report.witness, report.composite
        payload = {"witness": "ppt"}
    else:
        w, payload = _build_witness(channel, kind, sim_opts)
        measured = channel.choi
        if any(d != 2 for d in channel.dims):
            raise SpecError("shot simulation is available only for qubit systems")
    exact = float(np.real(np.trace(w.operator @ measured.matrix)))
    est = estimate_witness(measured, w, sim_opts.shots, sim_opts.seed)
    payload.update(exact=exact, estimate=_estimate_fields(est), setting_count=est.setting_count)
    return payload


@dataclass(frozen=True)
class _Command:
    """How one subcommand parses its channel, which options it takes and what it runs."""

    run: Callable[[Channel, PipelineOptions], dict]
    require_tp: bool
    witnesses: tuple[str, ...] = ()
    takes_target: bool = False


_WITNESSES = ("eb", "sru", "stabilizer")

_COMMANDS = {
    "choi": _Command(_run_choi, require_tp=False),
    "schmidt": _Command(_run_schmidt, require_tp=False),
    "decompose-witness": _Command(
        _run_decompose_witness, require_tp=False, witnesses=_WITNESSES, takes_target=True
    ),
    "detect-eb": _Command(_run_detect_eb, require_tp=True),
    "detect-sru": _Command(_run_detect_sru, require_tp=True, takes_target=True),
    "detect-sep": _Command(
        lambda ch, opts: _run_detect_sru(ch, opts, with_schmidt=True),
        require_tp=False,
        takes_target=True,
    ),
    "detect-npt": _Command(_run_detect_npt, require_tp=True),
    "simulate": _Command(
        _run_simulate, require_tp=True, witnesses=_WITNESSES + ("ppt",), takes_target=True
    ),
}

COMMANDS = tuple(_COMMANDS)


def run_pipeline(command: str, channel: Channel, options: PipelineOptions) -> Report:
    if command not in _COMMANDS:
        raise SpecError(f"unknown command {command!r}")
    start = time.perf_counter()
    results = _COMMANDS[command].run(channel, options)
    elapsed = time.perf_counter() - start
    return Report(
        pipeline=command,
        channel_spec={},
        options=options.echo(),
        results=results,
        elapsed_seconds=elapsed,
    )


# ---------------------------------------------------------------------------
# rendering


def report_payload(report: Report) -> dict:
    """JSON-stable payload; timing is deliberately excluded so identical
    inputs render byte-identical reports."""
    return {
        "pipeline": report.pipeline,
        "inputs": {"channel": report.channel_spec, "options": report.options},
        "results": report.results,
    }


def render_report(report: Report, fmt: str = "json") -> str:
    """Render a report; a non-finite number in a JSON report is a numerical failure."""
    if fmt == "json":
        try:
            return json.dumps(report_payload(report), indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ValidationError(f"report holds a non-finite number: {exc}") from exc
    if fmt != "text":
        raise SpecError(f"unknown format {fmt!r}")

    def show(val):
        return val if isinstance(val, str) else json.dumps(val)

    lines = [f"pipeline: {report.pipeline}"]
    lines.append(f"channel: {json.dumps(report.channel_spec)}")
    for key, val in report.options.items():
        if val is not None:
            lines.append(f"{key}: {show(val)}")
    lines.append("results:")
    for key, val in report.results.items():
        if isinstance(val, dict):
            lines.append(f"  {key}:")
            for k2, v2 in val.items():
                lines.append(f"    {k2}: {show(v2)}")
        else:
            lines.append(f"  {key}: {show(val)}")
    lines.append(f"elapsed_seconds: {report.elapsed_seconds:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chandet",
        description="Detect properties of quantum channels via Choi-state witnesses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--channel", required=True, help="path to a channel-spec JSON file")
        p.add_argument("--shots", type=int, default=None, help="shots per measurement setting")
        p.add_argument("--seed", type=int, default=0, help="base RNG seed")
        p.add_argument("--starts", type=int, default=50, help="multistart count for the overlap optimizer")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if cmd.takes_target:
            p.add_argument("--target", default=None, help="spec file of the reference unitary gate")
        if cmd.witnesses:
            p.add_argument("--witness", choices=cmd.witnesses, default=None)
    return parser


def _options_from_args(args) -> PipelineOptions:
    if args.shots is not None and args.shots < 0:
        raise SpecError("--shots must be non-negative")
    if args.seed < 0:
        raise SpecError("--seed must be non-negative")
    if args.starts < 1:
        raise SpecError("--starts must be >= 1")
    if args.starts > MAX_STARTS:
        raise SpecError(f"--starts {args.starts} is above the limit {MAX_STARTS}")
    target_spec = None
    if getattr(args, "target", None):
        target_spec = _read_spec_file(args.target)
    return PipelineOptions(
        seed=args.seed,
        shots=args.shots,
        starts=args.starts,
        witness=getattr(args, "witness", None),
        target_spec=target_spec,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _read_spec_file(args.channel)
        channel = parse_channel_spec(spec, require_tp=_COMMANDS[args.command].require_tp)
        options = _options_from_args(args)
        report = run_pipeline(args.command, channel, options)
        report.channel_spec = spec
        text = render_report(report, args.format)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
