"""Witness construction and evaluation for channel-separability detection.

Covers the operator Schmidt decomposition of bipartite gates, the maximal
overlap of a gate's Choi state with product-unitary Choi states (found by
multistart alternating polar ascent), witness operators built from those
overlaps, and the robustness bounds extracted from a measured expectation.
The EB and SRU witnesses are one family alpha^2 Id - P_U (eigenvalues alpha^2
and alpha^2 - 1), P_U the projector onto a unitary's Choi state: SRU takes the
target gate, EB takes U = Id_D and alpha^2 = 1/D in every dimension. The third
witness is the two-setting stabilizer witness of the CNOT Choi state (Toth and
Guehne, PRL 94, 060501), measured with the settings XXXX and ZZZZ. Each
witness has exactly one builder here.

Every detect command reaches its verdict the same way: ``VERDICTS`` lists each
witness kind's verdicts, strongest claim first, and ``decide`` returns the
first whose threshold the expectation lies below, by
:func:`~chandet.channels.below_threshold`, or the kind's default.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ATOL, DUPLICATE_TOL, SWEEP_TOL, TRAIL_TOL, WITNESS_HERM_ATOL, ZERO_CUTOFF
from .channels import ChoiMatrix, ValidationError, below_threshold, _check_hermitian, _check_unitary, _frozen
from .qmath import pauli_string, _as_dims, _as_int, _as_seed, _haar_stack, _require_bipartite

MAX_SWEEPS = 500
# Most starts * (d_A^3 + d_B^3 + D^2) (D = d_A d_B; a sweep's two SVDs and its product) of one optimizer
# run: 8 246 starts on [3, 3], 644 on [6, 6], 156 on [2, 18].
MAX_START_WORK = 156 * (2**3 + 18**3 + 36**2)

# Stabilizer generators of the CNOT Choi state, qubits ordered (A_out, B_out, A_in, B_in).
CNOT_STABILIZER_GENERATORS = ("XXXI", "IXIX", "ZIZI", "ZZIZ")

# Each witness kind's verdicts, strongest claim first, and its verdict when none fires.
VERDICTS = {
    "eb": (("not_entanglement_breaking",), "undetected"),
    "sru": (("not_separable", "not_sru"), "undetected"),
    "ppt": (("npt_detected",), "not_detected"),
}


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Operator Schmidt data: O = sum_i sigmas[i] * kron(a_factors[i], b_factors[i]).

    ``sigmas``, ``a_factors`` and ``b_factors`` are read-only: a ``(rank,)``
    vector and ``(rank, dA, dA)`` and ``(rank, dB, dB)`` stacks. Factors are normalized to Tr[A_i^dag A_j] =
    dA * delta_ij (same with dB for B), which for a unitary input forces
    sum(sigmas**2) == 1.
    """

    sigmas: np.ndarray
    a_factors: np.ndarray
    b_factors: np.ndarray
    rank: int
    dims: tuple[int, int]


@dataclass(frozen=True, eq=False)
class Witness:
    """Hermitian detection operator on a Choi space.

    ``alpha_sq`` is the alpha^2 of a fidelity witness alpha^2 Id - P_U, its
    largest eigenvalue; for an SRU witness it is the squared overlap of the
    target gate's Choi state with the product-unitary set. The witness holds
    only what defines its operator; the gate's alpha_S^2 = sigma_1^2 is read
    off its Schmidt data. Every witness the package builds holds a read-only
    ``operator``.
    """

    operator: np.ndarray
    kind: str
    dims: tuple[int, ...]
    alpha_sq: float | None = None

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        side = math.prod(self.dims)
        if op.shape != (side, side):
            raise ValueError(f"witness shape {op.shape} does not match dims {self.dims}")
        _check_hermitian(op, WITNESS_HERM_ATOL, "witness")


@dataclass(frozen=True)
class BoundReport:
    """Lower bounds extracted from a measured witness expectation c."""

    c: float
    w_max: float
    robustness_lb: float
    mu_c_lb: float


def operator_schmidt(o: np.ndarray, da: int, db: int) -> SchmidtDecomposition:
    """Schmidt decomposition of an operator on a (da x db)-dimensional product space.

    The operator is realigned into a da^2 x db^2 matrix (row index pairs the A
    indices, column index pairs the B indices) and decomposed by SVD. Phases
    are fixed so each A factor's first entry above ``ZERO_CUTOFF`` (row-major)
    is real and positive, with the compensating phase pushed onto the B
    factor; a factor with no such entry keeps phase 1. Dims are taken as
    ``qmath._as_dims`` takes them; a non-finite entry is refused before the SVD.
    """
    o = np.asarray(o, dtype=complex)
    da, db = _as_dims((da, db))
    if o.shape != (da * db, da * db):
        raise ValueError(f"operator shape {o.shape} does not match dims ({da}, {db})")
    if not np.isfinite(o).all():
        raise ValueError("operator has a non-finite entry")
    realigned = o.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, sv, vh = np.linalg.svd(realigned)
    sigmas = _frozen(sv / np.sqrt(da * db))
    rank = int(np.sum(sigmas > ZERO_CUTOFF))
    rank = max(rank, 1)
    a = np.sqrt(da) * u[:, :rank].T.reshape(rank, da, da)
    b = np.sqrt(db) * vh[:rank].reshape(rank, db, db)
    flat = a.reshape(rank, -1)
    big = np.abs(flat) > ZERO_CUTOFF
    lead = np.where(big.any(axis=1), flat[np.arange(rank), big.argmax(axis=1)], 1.0)
    # hypot is the scalar abs bit for bit; a vectorized complex abs can differ by an ulp
    phase = (lead / np.hypot(lead.real, lead.imag))[:, None, None]
    return SchmidtDecomposition(
        sigmas=sigmas[:rank],
        a_factors=_frozen(a / phase),
        b_factors=_frozen(b * phase),
        rank=rank,
        dims=(da, db),
    )


def _alternating_ascent(u, da, db, ub0, record=None):
    """Alternating polar ascent from every start in ``ub0`` (shape (starts, db, db)) at once.

    Each half-step is an exact coordinate maximization: fixing ub, the overlap
    is |Tr[ua^dag F]| with F = Tr_B[(I kron ub^dag) u], maximized by the polar
    unitary of F at the value ||F||_1; likewise for ua with G = Tr_A[(ua^dag
    kron I) u]. Each start's objective is therefore non-decreasing sweep to
    sweep. A start stops after its first gain below clip(gap / 10, ``SWEEP_TOL``,
    ``TRAIL_TOL``), its gap the best value of any start so far less its own:
    the leader climbs to ``SWEEP_TOL``; a start trailing it stops once it gains
    less than ``TRAIL_TOL`` and a tenth of its gap, too little to close it.
    A start also stops as a duplicate once |Tr[ub^dag ub']| / d_B >= 1 -
    ``DUPLICATE_TOL``, ub' the live start's just above it in the order of value
    plus last gain (on a tie the lower index is above): a sweep commutes with a
    global phase of ub, so the two climb one hill, and only the upper one climbs
    on. The gain ranks a fast climb above a slow climb of the same hill that it
    is about to pass, and a fast climb stops nearer the hill's top. The test is
    one sort and one row-wise product over the live starts per sweep.

    Both partial traces are linear in the conjugated local unitary, so the gate
    is rearranged once into the matrices taking vec(conj ub) to vec F and
    vec(conj ua) to vec G: a half-step is one matrix product over the live
    starts and one batched SVD. Only live starts are carried; each start's
    value, ua and ub are written back once, when it stops or at ``MAX_SWEEPS``.
    Returns per-start values, ua and ub; ``record`` gets each sweep's values
    (NaN: stopped).
    """
    u4 = u.reshape(da, db, da, db)
    to_f = u4.transpose(1, 3, 0, 2).reshape(db * db, da * da)
    to_g = u4.transpose(0, 2, 1, 3).reshape(da * da, db * db)
    n = ub0.shape[0]
    val = np.empty(n)
    ua = np.empty((n, da, da), dtype=complex)
    ub = np.empty((n, db, db), dtype=complex)
    # the live starts: their indices, last values and current unitaries; the best value of any start so far
    live, prev, ub_live, best = np.arange(n), np.full(n, -1.0), np.array(ub0, dtype=complex), -1.0
    for _ in range(MAX_SWEEPS):
        w, _, vh = np.linalg.svd((ub_live.conj().reshape(-1, db * db) @ to_f).reshape(-1, da, da))
        ua_live = w @ vh
        w, s, vh = np.linalg.svd((ua_live.conj().reshape(-1, da * da) @ to_g).reshape(-1, db, db))
        ub_live = w @ vh
        cur = s.sum(axis=1) / (da * db)
        if record is not None:
            row = np.full(n, np.nan)
            row[live] = cur
            record.append(row)
        best = max(best, cur.max())
        gain = cur - prev
        going = gain >= np.clip((best - cur) / 10, SWEEP_TOL, TRAIL_TOL)
        # each start beside the live start just above it in the order of cur + gain, a tie's lower index above
        order = np.argsort(-(cur + gain), kind="stable")
        overlap = np.einsum("kij,kij->k", ub_live[order[1:]].conj(), ub_live[order[:-1]])
        going[order[1:][np.abs(overlap) >= (1 - DUPLICATE_TOL) * db]] = False
        if not going.all():
            stop = ~going
            val[live[stop]], ua[live[stop]], ub[live[stop]] = cur[stop], ua_live[stop], ub_live[stop]
            live, cur, ua_live, ub_live = live[going], cur[going], ua_live[going], ub_live[going]
        prev = cur
        if not live.size:
            break
    # the starts still climbing at MAX_SWEEPS keep their last sweep
    val[live], ua[live], ub[live] = prev, ua_live, ub_live
    return val, ua, ub


def alpha_sru_optimize(u: np.ndarray, dims, starts: int = 50, seed: int = 0):
    """Maximal overlap of a unitary's Choi state with product-unitary Choi states.

    Climbs from ``starts`` Haar-random initial points, the first ``starts``
    d_B x d_B Haar unitaries of ``default_rng(seed)``, all in one batched
    ascent, and keeps the first best; a run's starts are the first of every
    longer run's at that seed. The leading start climbs until a sweep gains
    less than ``SWEEP_TOL``; the trailing ones, and a start within
    ``DUPLICATE_TOL`` of the start ranked just above it, stop earlier (see
    ``_alternating_ascent``). Returns ``(alpha_sru, ua, ub)``; refuses
    ``starts * (d_A^3 + d_B^3 + D^2) > MAX_START_WORK`` first, and a
    ``starts`` or ``seed`` that is no integer (a seed may be a whole float) with
    TypeError.
    """
    dims = _require_bipartite(dims, "SRU detection")
    da, db = dims
    u = _check_unitary(u, "target unitary")
    if u.shape[0] != da * db:
        raise ValueError(f"unitary side {u.shape[0]} does not match dims {dims}")
    limit = MAX_START_WORK // (da**3 + db**3 + (da * db) ** 2)
    starts, seed = _as_int(starts, "starts"), _as_seed(seed)
    if not 1 <= starts <= limit:
        raise ValueError(f"starts must be >= 1 and at most {limit} on dims {list(dims)}, got {starts}")
    val, ua, ub = _alternating_ascent(u, da, db, _haar_stack(db, np.random.default_rng(seed), starts))
    best = int(np.argmax(val))
    # an overlap of unit vectors is at most 1; product gates reach it up to rounding
    return min(float(val[best]), 1.0), ua[best], ub[best]


def _fidelity_witness(u: np.ndarray, alpha_sq: float, kind: str, dims) -> Witness:
    """alpha_sq * Id - P_U, P_U = outer(vec U, conj vec U) / D rounding each entry once."""
    alpha_sq = float(alpha_sq)
    if not 0.0 < alpha_sq <= 1.0:
        raise ValueError(f"alpha_sq={alpha_sq!r} outside (0, 1]")
    vec = np.asarray(u, dtype=complex).reshape(-1)
    op = alpha_sq * np.eye(vec.size) - np.outer(vec, vec.conj()) / len(u)
    return Witness(_frozen(op), kind, dims + dims, alpha_sq=alpha_sq)


def build_sru_witness(u: np.ndarray, dims, alpha_sq: float) -> Witness:
    """Detection operator alpha_sq * Id - |U><U| on the doubled subsystem space.

    ``alpha_sq`` is the squared product-unitary overlap for the gate. The
    operator depends on the gate and ``alpha_sq`` alone; the separable-map
    threshold also needs the gate's alpha_S^2, its leading operator Schmidt
    coefficient squared (``operator_schmidt``).
    """
    dims = _require_bipartite(dims, "SRU detection")
    u = _check_unitary(u, "target unitary")
    return _fidelity_witness(u, alpha_sq, "sru", dims)


def eb_witness(dims=(2,)) -> Witness:
    """Id/D - |Phi><Phi|: separable (EB) Choi states have fidelity <= 1/D with |Phi>; needs D >= 2."""
    dims = _as_dims(dims)
    d = math.prod(dims)
    if d < 2:  # the witness would be 0
        raise ValueError(f"the eb witness needs prod(dims) >= 2, got dims {list(dims)}")
    return _fidelity_witness(np.eye(d), 1.0 / d, "eb", dims)


@functools.cache
def stabilizer_witness() -> Witness:
    """Two-setting witness 3*Id - 2*(P1 P2 + P3 P4) of the CNOT Choi state, built on the first call and kept.

    P_i = (Id + g_i)/2 for the i-th of ``CNOT_STABILIZER_GENERATORS``, four
    commuting, independent generators of the stabilizer of that state. Every
    call returns the one witness; its operator is read-only.
    """
    eye = np.eye(16)
    p = [(eye + pauli_string(g)) / 2 for g in CNOT_STABILIZER_GENERATORS]
    return Witness(_frozen(3 * eye - 2 * (p[0] @ p[1] + p[2] @ p[3])), "stabilizer", (2, 2, 2, 2))


def evaluate_witness(w: Witness, choi: ChoiMatrix) -> float:
    """Exact witness expectation Tr[W * choi] on the measured Choi state."""
    if w.dims != choi.dims:
        raise ValueError(f"witness dims {w.dims} do not match Choi dims {choi.dims}")
    val = complex(np.einsum("ij,ji->", w.operator, choi.matrix))
    if abs(val.imag) > ATOL:
        raise ValidationError(f"witness expectation has imaginary part {val.imag:.3e}")
    return float(val.real)


def decide(kind: str, value: float, thresholds: dict[str, float]) -> str:
    """The verdict of the expectation ``value`` of a ``kind`` witness, by its row of ``VERDICTS``.

    ``thresholds`` maps each of the kind's verdicts, and nothing else, to its
    threshold. The first verdict, strongest first, whose threshold ``value``
    lies below by :func:`~chandet.channels.below_threshold` is returned, else
    the kind's default. A non-finite value or threshold is refused: no verdict
    rests on NaN.
    """
    if kind not in VERDICTS:
        raise ValueError(f"no verdicts for witness kind {kind!r}")
    tiers, default = VERDICTS[kind]
    if set(thresholds) != set(tiers):
        raise ValueError(f"the {kind} verdicts need thresholds for {list(tiers)}, got {list(thresholds)}")
    if not all(map(math.isfinite, (value, *thresholds.values()))):
        raise ValueError(f"a {kind} verdict needs finite numbers, got {value!r} and thresholds {thresholds}")
    return next((v for v in tiers if below_threshold(value, thresholds[v])), default)


def robustness_bounds(c: float, w: Witness) -> BoundReport:
    """Generalized-robustness and critical-mixing lower bounds from expectation c.

    R >= |c| / w_max for c below zero by the verdict's test (else 0),
    and the minimal EB-mixing weight obeys mu_c >= 1 - 1/(1 + R); w_max is a fidelity witness's alpha^2.
    A non-finite c is refused.
    """
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"robustness bounds need a finite expectation, got {c!r}")
    if w.alpha_sq is None:
        raise ValueError(f"the {w.kind} witness is not of the form alpha^2 Id - P_U; bounds undefined")
    w_max = w.alpha_sq
    if below_threshold(c, 0.0):
        r = abs(c) / w_max
    else:
        r = 0.0
    return BoundReport(c=c, w_max=w_max, robustness_lb=r, mu_c_lb=1.0 - 1.0 / (1.0 + r))
