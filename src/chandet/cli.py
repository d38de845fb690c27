"""Command-line front end: channel-spec files in, machine-readable reports out.

Channel specs are JSON with complex entries encoded as [re, im] pairs:

    {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": 0.25}}
    {"dims": [2], "kind": "kraus", "kraus": [[[[1,0],[0,0]],[[0,0],[1,0]]]]}

The spec schema is one table, ``NAMED_SPECS``: a name maps to the parser of
each param its channel takes, the params it needs, its constructor from dims
and those params, and the dims of the channel it builds, which are checked
against the spec's before the build. Any other key under ``params`` is an
input error.

Each command takes exactly the options it reads: ``--channel`` and
``--format`` everywhere, and the pipeline options its ``_Command.options``
names, each a flag of ``_OPTIONS``: ``--seed`` and ``--shots`` where it
samples (the detect commands and simulate), ``--starts`` where it runs the
optimizer (detect-sru and detect-sep; simulate and decompose-witness measure
qubit pairs only, where alpha_SRU = sigma_1), ``--witness`` where it can
build more than one witness and ``--target`` where it can build one from a
reference gate. The parser refuses any other option, and any abbreviation,
with exit 2. ``inputs.options`` echoes exactly the command's pipeline
options.

A request runs in one order: the options are checked, then the channel is
built, then the command runs. A request that samples (simulate, or a detect
command with --shots > 0) builds its channel with ``require_tp``: the Choi
matrix of a non-TP map is no state to sample, and ``Channel``'s one check
refuses it with exit 3. Every witness command takes one path through
``_run``: the kind is chosen, the measurement rule (``measure._require_measurable``)
is applied, ``_witness`` builds the witness with its Choi state and facts,
and the command's builder makes the results. Every witness but eb, and
``schmidt``, takes a channel on two systems [d_A, d_B] with d_A, d_B >= 2,
the one two-party rule (``qmath._require_bipartite``); refusals name the
command that was run.

A report echoes its input specs under ``inputs`` by one rule, ``_echo``:
every scalar field as it is, and each matrix or list of matrices (a kraus
spec's ``kraus``, a param parsed by ``_complex_matrix`` or ``_matrix_list``) as
its shape and the sha256 of its [re, im] nest's little-endian float64 bytes.
Both formats write every value but a dict through one writer, ``_line``, as
json's own encoder writes it on one line: a JSON report indents its dicts two
spaces a level, a text report has one line per field. A report's arrays reach
it as the library holds them; it alone writes a complex one as [re, im] pairs,
and a square one whose upper triangle is the conjugate of its lower one, bit
for bit, with one repr per conjugate pair (``_hermitian_text``).

Work that no request changes is done once per process, on first use, and
nothing is built at import: ``main`` keeps one argument parser, the writer
one encoder, and ``detect.stabilizer_witness`` its one witness. Nothing that
depends on a request's spec, matrices, target, seed or start count is kept. A
list of matrices is converted in one array check, as one matrix is
(``_complex_array``).

Reports go to stdout (JSON or text), diagnostics to stderr. Exit codes:
0 = pipeline ran (the verdict is data, not an exit code), 2 = input error,
3 = numerical validation failure; a non-finite number in a report is a
numerical failure in either format.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii

import numpy as np

from .channels import (
    ALPHA_ORDER_ATOL,
    ATOL,
    Channel,
    ChoiMatrix,
    ValidationError,
    cnot_channel,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    random_unitary_channel,
    sru_channel,
    unitary_channel,
    z3_channel,
    _check_unitary,
)
from .detect import (
    CNOT_STABILIZER_GENERATORS,
    Witness,
    alpha_sru_optimize,
    build_sru_witness,
    decide,
    eb_witness,
    evaluate_witness,
    operator_schmidt,
    robustness_bounds,
    stabilizer_witness,
)
from .measure import MAX_SHOTS, estimate_witness, group_settings, pauli_decompose, _require_measurable
from .pptdetect import detect_npt
from .qmath import _as_real, _require_bipartite

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

# Largest prod(dims) a spec may declare. Each channel holds one D^4-entry
# complex array, its Choi matrix, 27 MB at D = 36.
MAX_CHANNEL_DIM = 36
# Shots per setting of simulate when --shots is not given.
_SIMULATE_SHOTS = 100_000


class SpecError(ValueError):
    """Malformed input: file, schema, or command/dims mismatch."""


# ---------------------------------------------------------------------------
# channel-spec parsing


def _number(obj, where: str) -> float:
    """A finite JSON number, taken as the library takes a real (``qmath._as_real``): no bool, no numeric string."""
    try:
        return _as_real(obj, where)
    except (TypeError, ValueError) as exc:
        raise SpecError(str(exc)) from exc


def _number_list(obj, where: str) -> list:
    if not isinstance(obj, list):
        raise SpecError(f"{where} must be a list of numbers")
    return [_number(x, f"{where}[{i}]") for i, x in enumerate(obj)]


def _uniform(obj):
    """``(shape, leaves in row-major order)`` of a nest of lists of ints and floats, or None.

    The lists must be non-empty and of one shape; a leaf at the top gives the shape [].
    """
    shape, items = [], [obj]
    # items is never empty, so neither is types
    while (types := set(map(type, items))) and all(issubclass(t, list) for t in types):
        lengths = set(map(len, items))
        if len(lengths) != 1 or 0 in lengths:
            return None
        shape.append(lengths.pop())
        items = list(chain.from_iterable(items))
    return (shape, items) if all(issubclass(t, (int, float)) and t is not bool for t in types) else None


def _complex_array(obj, ndim: int) -> np.ndarray | None:
    """``obj`` as an ``ndim``-dimensional complex array if it is a uniform nest of finite [re, im] pairs, else None."""
    found = _uniform(obj)
    if found is None or len(found[0]) != ndim + 1 or found[0][-1] != 2:
        return None
    try:
        pairs = np.array(found[1], dtype=float)
    except OverflowError:
        return None  # an int beyond the float range: the walk names it
    if not np.isfinite(pairs).all():
        return None
    # the [re, im] pairs are the complex entries' memory layout, signed zeros included
    return pairs.view(complex).reshape(found[0][:-1])


def _complex_matrix(obj, where: str) -> np.ndarray:
    m = _complex_array(obj, 2)
    if m is not None:
        return m
    # any other input is refused: entry by entry, naming the first fault
    if not isinstance(obj, list) or not obj:
        raise SpecError(f"{where} must be a non-empty nested list of [re, im] pairs")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SpecError(f"{where}[{i}] must be a non-empty list")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpecError(f"{where}[{i}][{j}] must be an [re, im] pair of numbers")
            for x in pair:
                _number(x, f"{where}[{i}][{j}]")
    raise SpecError(f"{where} rows have unequal lengths")


def _matrix_list(obj, where: str) -> np.ndarray | list:
    """The matrices of ``obj``: one ``(K, rows, cols)`` array, or a list of them when their shapes differ.

    A list whose every matrix would pass ``_complex_matrix``'s array check is
    converted at once; any other input goes matrix by matrix, naming the first fault.
    """
    mats = _complex_array(obj, 3)
    if mats is not None:
        return mats
    if not isinstance(obj, list):
        raise SpecError(f"{where} must be a list of matrices")
    return [_complex_matrix(m, f"{where}[{i}]") for i, m in enumerate(obj)]


def _pairs(m: np.ndarray) -> np.ndarray:
    """The float64 [re, im] array of complex ``m``, shape ``m.shape + (2,)``: a view when ``m`` is contiguous."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2)


@dataclass(frozen=True)
class _Named:
    """Schema of one named channel; ``build`` gets the spec's dims and the parsed params as keywords."""

    takes: dict[str, Callable]  # the parser of each param the channel takes
    needs: tuple[str, ...]  # the params it cannot do without
    build: Callable[..., Channel]
    dims: Callable[[list], tuple] = tuple  # the dims of the channel ``build`` makes on the spec's dims


_UNITARIES = {"probs": _number_list, "unitaries": _matrix_list}
_LOCAL_UNITARIES = {"probs": _number_list, "a_unitaries": _matrix_list, "b_unitaries": _matrix_list}

# The spec schema: every name a named spec may give.
NAMED_SPECS = {
    "identity": _Named({}, (), identity_channel),
    "depolarizing": _Named(
        {"p": _number}, ("p",), lambda dims, p: depolarizing_channel(p, dims[0]), lambda dims: (dims[0],)
    ),
    "fully_depolarizing": _Named({"sigma": _complex_matrix}, (), fully_depolarizing_channel),
    "unitary": _Named(
        {"matrix": _complex_matrix}, ("matrix",), lambda dims, matrix: unitary_channel(matrix, dims)
    ),
    "cnot": _Named({}, (), lambda dims: cnot_channel(), lambda dims: (2, 2)),
    "z3": _Named({}, (), lambda dims: z3_channel(), lambda dims: (3, 3)),
    "random_unitary": _Named(_UNITARIES, tuple(_UNITARIES), random_unitary_channel),
    "sru": _Named(_LOCAL_UNITARIES, tuple(_LOCAL_UNITARIES), sru_channel),
}


def _named_matrix(pairs: np.ndarray) -> dict:
    """The shape of a float64 [re, im] nest and the sha256 of its little-endian bytes in row-major order."""
    pairs = np.ascontiguousarray(pairs, dtype="<f8")
    return {"shape": list(pairs.shape), "sha256": hashlib.sha256(pairs).hexdigest()}


def _echo(spec: dict, kraus: np.ndarray | None = None) -> dict:
    """Parsed ``spec`` as a report states it: each matrix or matrix list named by :func:`_named_matrix`.

    The digest equals ``hashlib.sha256(np.asarray(value, dtype="<f8").tobytes())``.
    ``kraus``, the Kraus array of the spec's channel, holds the parsed values of
    ``spec["kraus"]``, so that nest is not converted a second time.
    """
    echo = dict(spec)
    if spec["kind"] == "kraus":
        pairs = spec["kraus"] if kraus is None else _pairs(kraus)
        echo["kraus"] = _named_matrix(pairs)
    elif "params" in spec:
        takes = NAMED_SPECS[spec["name"]].takes
        echo["params"] = {
            key: _named_matrix(val) if takes[key] in (_complex_matrix, _matrix_list) else val
            for key, val in spec["params"].items()
        }
    return echo


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
        if name not in NAMED_SPECS:
            raise SpecError(f"unknown channel name {name!r}; known: {', '.join(NAMED_SPECS)}")
        schema = NAMED_SPECS[name]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise SpecError("params must be an object")
        for key in params:
            if key not in schema.takes:
                raise SpecError(f"{name} channel takes no params.{key}")
        params = {key: schema.takes[key](val, f"params.{key}") for key, val in params.items()}
        for key in schema.needs:
            if key not in params:
                raise SpecError(f"{name} channel needs params.{key}")
        # before the build, which can take seconds at dimension 36
        if schema.dims(dims) != tuple(dims):
            raise SpecError(f"dims {dims} do not match {name} dims {schema.dims(dims)}")
        build, args = schema.build, {"dims": dims, **params}
    elif kind == "kraus":
        if "params" in spec:
            raise SpecError("a kraus spec takes no params")
        ops = spec.get("kraus")
        if not isinstance(ops, list) or not ops:
            raise SpecError("kraus must be a non-empty list of matrices")
        build, args = Channel, {"kraus": _matrix_list(ops, "kraus"), "dims": dims, "require_tp": require_tp}
    else:
        raise SpecError("kind must be 'named' or 'kraus'")
    try:
        return build(**args)
    except ValidationError:
        raise
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def _read_spec_file(path: str) -> dict:
    def reject_constant(token):
        raise SpecError(f"invalid JSON in {path}: non-finite number {token}")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject_constant)
    except FileNotFoundError as exc:
        raise SpecError(f"channel spec file not found: {path}") from exc
    except SpecError:  # reject_constant's, already worded
        raise
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError or UnicodeDecodeError, an integer past sys.get_int_max_str_digits(),
        # or nesting past the recursion limit
        raise SpecError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise SpecError(f"cannot read channel spec {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# pipelines


def _single_operator(ch: Channel, what: str) -> np.ndarray:
    if len(ch.kraus) != 1:
        raise SpecError(f"{what} needs a single-Kraus channel, got {len(ch.kraus)} operators")
    return ch.kraus[0]


def _target_gate(channel: Channel, opts: argparse.Namespace, command: str) -> tuple[Channel, np.ndarray]:
    """The reference gate for witness construction, defaulting to the channel itself, and its unitary."""
    gate, what = channel, command
    if opts.target is not None:
        gate, what = parse_channel_spec(opts.target, require_tp=False), f"{command} target"
        if gate.dims != channel.dims:
            raise SpecError(
                f"{what} dims {list(gate.dims)} do not match channel dims {list(channel.dims)}"
            )
    return gate, _check_unitary(_single_operator(gate, what), f"{what} operator")


def _witness(kind: str, channel: Channel, opts: argparse.Namespace, command: str, measured: bool) -> tuple:
    """The ``kind`` witness, the Choi state it is measured on, and the facts the report states.

    The facts are ``(Schmidt data, alpha_S^2, alpha source)`` for sru, the ``NptReport``
    for ppt and None otherwise. The ppt witness is None on a PPT channel,
    which has none, and when the command is not ``measured``: the exact
    numbers come from the report's vector, and only the Pauli layer reads the
    dense matrix. Every kind but eb needs a bipartite channel. Refusals name
    ``command``.
    """
    if kind == "eb":
        try:
            return eb_witness(channel.dims), channel.choi, None
        except ValueError as exc:
            raise SpecError(f"{command}: {exc}") from exc
    _require_bipartite(channel.dims, command, SpecError)
    if kind == "ppt":
        report = detect_npt(channel)
        return report.witness if measured else None, report.composite, report
    gate, u = _target_gate(channel, opts, command)
    if kind == "stabilizer":
        # the minimum -1 is reached on the gate's Choi state exactly when the
        # generators stabilize it, i.e. when the gate is a CNOT up to a global phase
        w = stabilizer_witness()
        value = evaluate_witness(w, gate.choi)
        if not abs(value + 1.0) <= ATOL:
            raise SpecError(
                f"{command} needs a CNOT reference gate: its expectation on the "
                f"gate's Choi state is {value:.6g}, not -1"
            )
        return w, channel.choi, None
    # The gate is decomposed once. For two qubits the KAK form makes the leading
    # Schmidt term a product unitary, so alpha_SRU = sigma_1 exactly; other dims
    # run the optimizer.
    sd = operator_schmidt(u, *channel.dims)
    alpha_s_sq = float(sd.sigmas[0] ** 2)
    if sd.dims == (2, 2):
        # rounding can put sigma_1 of a product gate a few ulp above 1
        alpha_sq, source = min(alpha_s_sq, 1.0), "sigma_1"
    else:
        try:  # u and the dims passed their checks, so only the work bound on --starts can refuse
            val, _, _ = alpha_sru_optimize(u, sd.dims, starts=opts.starts, seed=opts.seed)
        except ValueError as exc:
            raise SpecError(f"{command}: {exc}") from exc
        alpha_sq, source = val**2, "optimizer"
        # product unitaries are single product Kraus operators, so alpha_SRU^2 <= alpha_S^2
        if alpha_sq > alpha_s_sq + ALPHA_ORDER_ATOL:
            raise ValidationError(f"{command}: alpha_SRU^2 = {alpha_sq!r} exceeds alpha_S^2 = {alpha_s_sq!r}")
    return build_sru_witness(u, sd.dims, alpha_sq), channel.choi, (sd, alpha_s_sq, source)


def _estimate(state: ChoiMatrix, w: Witness, shots: int, seed: int) -> tuple[dict, int]:
    """The one shot-estimate path: report fields of the estimate of Tr[w state] and its setting count."""
    est = estimate_witness(state, w, shots, seed)
    return {
        "value": est.value,
        "std_error": est.std_error,
        "shots_per_setting": est.shots_per_setting,
        "seed": est.seed,
    }, est.setting_count


def _run_choi(channel: Channel, opts: argparse.Namespace) -> dict:
    choi = channel.choi
    return {
        "source_dims": list(choi.source_dims),
        "choi_dims": list(choi.dims),
        "trace": float(np.trace(choi.matrix).real),
        "eigenvalues": np.linalg.eigvalsh(choi.matrix),
        "matrix": choi.matrix,
    }


def _run_schmidt(channel: Channel, opts: argparse.Namespace) -> dict:
    _require_bipartite(channel.dims, "schmidt", SpecError)
    try:  # the operator is finite and of the channel's dims, so only one with no Schmidt terms is refused
        sd = operator_schmidt(_single_operator(channel, "schmidt"), *channel.dims)
    except ValueError as exc:
        raise SpecError(f"schmidt: {exc}") from exc
    return {
        "sigmas": sd.sigmas,
        "rank": sd.rank,
        "sum_sigma_sq": float(np.sum(sd.sigmas**2)),
        "alpha_s": float(sd.sigmas[0]),
        "a_factors": sd.a_factors,
        "b_factors": sd.b_factors,
    }


def _witness_fields(w: Witness, facts) -> dict:
    """The fields that name simulate's or decompose-witness's witness."""
    if w.kind == "sru":
        return {"witness": "sru", "alpha_sru_sq": w.alpha_sq, "alpha_s_sq": facts[1], "alpha_source": facts[2]}
    if w.kind == "stabilizer":
        return {"witness": "stabilizer", "generators": list(CNOT_STABILIZER_GENERATORS)}
    return {"witness": w.kind}


def _decompose_results(w: Witness, state: ChoiMatrix, facts, opts: argparse.Namespace) -> dict:
    """The terms of ``pauli_decompose`` and the settings of ``group_settings`` that cover them."""
    terms = pauli_decompose(w.operator)  # ``_run`` has applied the measurement rule: every site is a qubit
    settings = group_settings(terms)
    return {
        **_witness_fields(w, facts),
        "terms": [{"string": t.string, "coefficient": t.coefficient} for t in terms],
        "settings": [{"bases": s.bases, "covered_terms": list(s.covered_terms)} for s in settings],
        "setting_count": len(settings),
    }


def _simulate_results(w: Witness | None, state: ChoiMatrix, facts, opts: argparse.Namespace) -> dict:
    if w is None:
        raise SpecError(
            f"simulate --witness ppt needs an NPT channel; this one has lambda_minus >= "
            f"-{ATOL:g}, so no witness exists"
        )
    exact = evaluate_witness(w, state)
    estimate, setting_count = _estimate(state, w, opts.shots, opts.seed)
    return {**_witness_fields(w, facts), "exact": exact, "estimate": estimate, "setting_count": setting_count}


def _eb_results(w: Witness, state: ChoiMatrix, facts, opts: argparse.Namespace) -> dict:
    value = evaluate_witness(w, state)
    return {
        "expectation": value,
        "threshold": 0.0,
        "verdict": decide(w.kind, value, {"not_entanglement_breaking": 0.0}),
        "bounds": asdict(robustness_bounds(value, w)),
    }


def _sru_results(w: Witness, state: ChoiMatrix, facts, opts: argparse.Namespace) -> dict:
    """The SRU results of ``w`` on the Choi state ``state``, by the alpha_S^2 and alpha source in ``facts``.

    A separable map has fidelity at most alpha_S^2 Tr C with the gate, so its
    expectation is at least (alpha_SRU^2 - alpha_S^2) Tr C: the not_separable
    threshold scales with the Choi trace, which is 1 for a channel.
    """
    _, alpha_s_sq, source = facts
    value = evaluate_witness(w, state)
    trace = float(np.trace(state.matrix).real)
    thresholds = {"not_sru": 0.0, "not_separable": (w.alpha_sq - alpha_s_sq) * trace}
    return {
        "alpha_sru": float(np.sqrt(w.alpha_sq)),
        "alpha_sru_sq": w.alpha_sq,
        "alpha_s": float(np.sqrt(alpha_s_sq)),
        "alpha_s_sq": alpha_s_sq,
        "alpha_source": source,
        "expectation": value,
        "thresholds": thresholds,
        "verdict": decide(w.kind, value, thresholds),
    }


def _sep_results(w: Witness, state: ChoiMatrix, facts, opts: argparse.Namespace) -> dict:
    sd = facts[0]
    return {**_sru_results(w, state, facts, opts), "sigmas": sd.sigmas, "rank": sd.rank}


def _npt_results(w: Witness | None, state: ChoiMatrix, report, opts: argparse.Namespace) -> dict:
    """Every field of the ``NptReport``, in its order, but the witness's vector and its state."""
    return {
        f.name: getattr(report, f.name)
        for f in fields(report)
        if f.name not in ("vector", "composite")
    }


@dataclass(frozen=True)
class _Command:
    """How one subcommand parses its channel, which options it takes and what it runs.

    ``witnesses`` are the kinds of witness the command can build, one for a
    detect command. A witness command's ``run`` maps the witness, its state,
    the facts and the options to results; every other ``run`` takes the
    channel and options. ``options`` are the pipeline options the command
    takes, in ``_OPTIONS``'s order: its flags and its report's echo.
    """

    run: Callable[..., dict]
    require_tp: bool
    witnesses: tuple[str, ...] = ()
    options: tuple[str, ...] = ()


_WITNESSES = ("eb", "sru", "stabilizer")
# The kinds built from a reference gate, the only ones --target serves.
_GATE_WITNESSES = {"sru", "stabilizer"}

_COMMANDS = {
    "choi": _Command(_run_choi, require_tp=False),
    "schmidt": _Command(_run_schmidt, require_tp=False),
    "decompose-witness": _Command(
        _decompose_results, require_tp=False, witnesses=_WITNESSES, options=("witness", "target")
    ),
    "detect-eb": _Command(_eb_results, require_tp=True, witnesses=("eb",), options=("seed", "shots")),
    "detect-sru": _Command(
        _sru_results, require_tp=True, witnesses=("sru",), options=("seed", "shots", "starts", "target")
    ),
    "detect-sep": _Command(
        _sep_results, require_tp=False, witnesses=("sru",), options=("seed", "shots", "starts", "target")
    ),
    "detect-npt": _Command(_npt_results, require_tp=True, witnesses=("ppt",), options=("seed", "shots")),
    "simulate": _Command(
        _simulate_results,
        require_tp=True,
        witnesses=_WITNESSES + ("ppt",),
        options=("seed", "shots", "witness", "target"),
    ),
}

COMMANDS = tuple(_COMMANDS)


def _run(command: str, channel: Channel, opts: argparse.Namespace) -> dict:
    """Results of ``command`` on ``channel``.

    The kind is a detect command's one kind, else --witness, else eb on [2]
    and sru on other dims. Before any work, --target with an eb or ppt
    witness is refused, and so is a Choi state that measurement does not
    serve: simulate and decompose-witness always measure, a detect command
    with --shots > 0. A detect command's results then gain the estimate; a
    PPT channel has no NPT witness, hence None.
    """
    cmd = _COMMANDS[command]
    if not cmd.witnesses:
        return cmd.run(channel, opts)
    detect = len(cmd.witnesses) == 1
    kind = cmd.witnesses[0] if detect else opts.witness or ("eb" if channel.dims == (2,) else "sru")
    label = command if detect else f"{command} --witness {kind}"
    if opts.target is not None and kind not in _GATE_WITNESSES:
        raise SpecError(f"{label} takes no --target: the {kind} witness has no reference gate")
    measured = not detect or bool(opts.shots)
    if measured:
        what = f"{command} --shots" if detect else command
        _require_measurable(channel.choi.dims, f"{what}: the Choi state", SpecError)
    w, state, facts = _witness(kind, channel, opts, label, measured)
    results = cmd.run(w, state, facts, opts)
    if detect and opts.shots:
        results["estimate"] = None if w is None else _estimate(state, w, opts.shots, opts.seed)[0]
    return results


# ---------------------------------------------------------------------------
# rendering


def _listed(o) -> list:
    """The encoder's ``default``: an ndarray's ``tolist()``, a complex one's as its [re, im] pairs; else TypeError."""
    if isinstance(o, np.ndarray) and o.dtype.kind == "c":
        o = _pairs(o)
    return np.ndarray.tolist(o)


def _hermitian_text(m: np.ndarray) -> str | None:
    """json's text of the [re, im] pairs of ``m``, a finite square complex128 matrix that mirrors itself; else None.

    ``m`` mirrors itself when its strict upper triangle is the conjugate of its
    strict lower one, bit for bit, signed zeros included. Then repr runs on the
    lower triangle and the diagonal only; an upper entry takes its mirror's
    real string and, with the sign flipped, its imaginary one.
    """
    if not (m.dtype == complex and m.ndim == 2 and len(m) == m.shape[1] > 0 and np.isfinite(m).all()):
        return None
    n = len(m)
    upper = np.triu_indices(n, 1)
    mirror = upper[::-1]
    if not np.array_equal(m[upper].view(np.uint64), np.conjugate(m[mirror]).view(np.uint64)):
        return None
    strings = np.empty((n, n, 2), dtype=object)
    lower = np.tril_indices(n)
    strings[lower] = np.array(list(map(float.__repr__, m[lower].view(float).tolist())), dtype=object).reshape(-1, 2)
    strings[upper] = strings[mirror]
    strings[upper + (1,)] = [s[1:] if s[0] == "-" else "-" + s for s in strings[upper + (1,)]]
    # the separators of an (n, n, 2) nest: within a pair, between pairs, between rows
    row = [", ", "], ["] * (n - 1) + [", ", "]], [["]
    parts = [""] * (4 * n * n - 1)
    parts[::2] = strings.ravel().tolist()
    parts[1::2] = (row * n)[:-1]
    return "[[[" + "".join(parts) + "]]]"


@functools.cache
def _encoder() -> Callable[[object], str]:
    """json's one-line writer, ``allow_nan=False``, an ndarray by :func:`_listed`; built on first use and kept.

    Its C encoder where the interpreter has one, kept with no circular-reference
    memo, which a raised error would leave holding stale ids.
    """
    if c_make_encoder is None:
        return json.JSONEncoder(allow_nan=False, default=_listed).encode
    encode = c_make_encoder(None, _listed, encode_basestring_ascii, None, ": ", ", ", False, False, False)
    return lambda o: "".join(encode(o, 0))


def _line(o) -> str:
    """The text of ``json.dumps(o, allow_nan=False)``, an ndarray by :func:`_listed`, raising its errors.

    An ndarray goes first to :func:`_hermitian_text`. A non-finite float is
    refused by a ValueError that names it, as json's Python encoder names it.
    """
    if isinstance(o, np.ndarray) and (text := _hermitian_text(o)) is not None:
        return text
    try:
        return _encoder()(o)
    except ValueError:
        # the C encoder names no value; json's Python encoder raises again, naming the first non-finite float
        "".join(json.JSONEncoder(allow_nan=False, default=_listed).iterencode(o))
        raise


def _indented(o, pad: str, out: list) -> None:
    """Append to ``out`` the text of ``o``: a non-empty dict one key a line at ``pad`` + 2 spaces, else one _line."""
    if not isinstance(o, dict) or not o:
        out.append(_line(o))
        return
    inner = pad + "  "
    sep = "{" + inner
    for key, val in o.items():
        out.append(sep + encode_basestring_ascii(key) + ": ")
        _indented(val, inner, out)
        sep = "," + inner
    out.append(pad + "}")


def render_report(payload: dict, fmt: str = "json", elapsed: float = 0.0) -> str:
    """Render a report payload; a non-finite number in it is a numerical failure in either format.

    Timing appears only in text mode, so identical inputs render byte-identical JSON.
    """
    if fmt not in ("json", "text"):
        raise SpecError(f"unknown format {fmt!r}")

    def show(val):
        return val if isinstance(val, str) else _line(val)

    try:
        if fmt == "json":
            out = []
            _indented(payload, "\n", out)
            out.append("\n")
            return "".join(out)
        lines = [f"pipeline: {payload['pipeline']}"]
        lines.append(f"channel: {show(payload['inputs']['channel'])}")
        for key, val in payload["inputs"]["options"].items():
            if val is not None:
                lines.append(f"{key}: {show(val)}")
        lines.append("results:")
        for key, val in payload["results"].items():
            if isinstance(val, dict):
                lines.append(f"  {key}:")
                for k2, v2 in val.items():
                    lines.append(f"    {k2}: {show(v2)}")
            else:
                lines.append(f"  {key}: {show(val)}")
    except ValueError as exc:
        raise ValidationError(f"report holds a non-finite number: {exc}") from exc
    lines.append(f"elapsed_seconds: {elapsed:.6f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


# The pipeline options, in the order a report echoes them: each one's default and the keywords of
# its flag. --witness takes its choices from the command's witnesses.
_OPTIONS = {
    "seed": (
        0,
        {"type": int, "help": "seed of the shot counts and, on detect-sru and detect-sep, of the optimizer's starts"},
    ),
    "shots": (None, {"type": int, "help": "shots per measurement setting"}),
    "starts": (50, {"type": int, "help": "multistart count for the overlap optimizer"}),
    "witness": (None, {}),
    "target": (None, {"help": "spec file of the reference unitary gate"}),
}


def build_parser() -> argparse.ArgumentParser:
    """A fresh argument parser of every command; each takes exactly the options it reads, by their full names.

    Every command's namespace holds each pipeline option, one the command
    does not take at its ``_OPTIONS`` default.
    """
    parser = argparse.ArgumentParser(
        prog="chandet",
        description="Detect properties of quantum channels via Choi-state witnesses.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {name: default for name, (default, _) in _OPTIONS.items()}
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--channel", required=True, help="path to a channel-spec JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        for option in cmd.options:
            flag = {"choices": cmd.witnesses} if option == "witness" else _OPTIONS[option][1]
            p.add_argument(f"--{option}", **flag)
        p.set_defaults(**defaults)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on first use and kept for every later ``main``."""
    return build_parser()


def _read_options(args: argparse.Namespace) -> None:
    """Check ``args``' pipeline options, give simulate its default --shots, and replace --target by the spec it names."""
    if args.shots is not None and args.shots < 0:
        raise SpecError("--shots must be non-negative")
    if args.shots is not None and args.shots > MAX_SHOTS:
        raise SpecError(f"--shots {args.shots} is above the limit {MAX_SHOTS}")
    if args.seed < 0:
        raise SpecError("--seed must be non-negative")
    if args.starts < 1:
        raise SpecError("--starts must be >= 1")
    if args.command == "simulate" and args.shots == 0:
        raise SpecError(
            "simulate needs at least 1 shot per setting; omit --shots for the default of "
            f"{_SIMULATE_SHOTS}"
        )
    if args.command == "simulate" and args.shots is None:
        args.shots = _SIMULATE_SHOTS
    args.target = _read_spec_file(args.target) if args.target is not None else None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    cmd = _COMMANDS[args.command]
    try:
        _read_options(args)
        spec = _read_spec_file(args.channel)
        channel = parse_channel_spec(spec, require_tp=cmd.require_tp or bool(args.shots))
        start = time.perf_counter()
        results = _run(args.command, channel, args)
        elapsed = time.perf_counter() - start
        echoed = {name: getattr(args, name) for name in cmd.options}
        if args.target is not None:
            echoed["target"] = _echo(args.target)
        payload = {
            "pipeline": args.command,
            "inputs": {"channel": _echo(spec, channel.kraus), "options": echoed},
            "results": results,
        }
        text = render_report(payload, args.format, elapsed)
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
