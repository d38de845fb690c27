"""Quantum channels as one Kraus array with a cached Choi matrix, the tolerance table and the threshold test.

Choi matrices follow the trace-normalized state convention
``C = (M kron Id)[|alpha><alpha|]`` with subsystem order (outputs..., ancillas...),
so a trace-preserving channel has ``Tr[C] = 1`` and the partial trace of C over
the output subsystems equals ``Id / prod(dims)``.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qmath import PAULI, dag, kron, _as_dims, _as_real

# Tolerance table: every tolerance of the package. No small float literal appears
# outside it (tests/test_tolerances.py checks). Each verdict is a sign test
# against a threshold, so these values are part of the method.
#
# ATOL: rounding in exact equalities (TP, unital and unitary deficits, sums to 1,
# sigma >= 0, imaginary parts, Pauli-expanded Hermiticity, the NPT cross-check);
# lambda_- is negative below -ATOL, eigenvalues within ATOL of it are degenerate,
# and its eigenvector's residual max|m x - lambda_- x| is at most ATOL.
ATOL = 1e-10
STATE_ATOL = 1e-9  # a state handed to the shot simulator: Hermitian, trace 1, PSD
WITNESS_HERM_ATOL = 1e-12  # Hermiticity of a witness operator
ALPHA_ORDER_ATOL = 1e-9  # how far the CLI lets an optimizer's alpha_SRU^2 exceed the gate's sigma_1^2
# a magnitude at or below it is zero: Schmidt rank and phase, Pauli coefficients, probabilities
ZERO_CUTOFF = 1e-12
SIGMA_RANK_CUTOFF = 1e-14  # an eigenvalue of sigma at or below it adds no Kraus operator
SWEEP_TOL = 1e-12  # an optimizer start stops after a sweep that gains less
TRAIL_TOL = 1e-6  # a start trailing the best stops after a sweep that gains less and under a tenth of its gap
# a start stops when |Tr[ub^dag ub']| / d_B of its ub and the ub' of the live start ranked just above it is at least 1 - this
DUPLICATE_TOL = 1e-3
# an expectation must lie this far below a threshold for a verdict; rounding alone gives none
VERDICT_MARGIN = 1e-12


def below_threshold(value: float, threshold: float) -> bool:
    """``value`` lies more than ``VERDICT_MARGIN`` below ``threshold``: the test of ``detect.decide``'s verdicts."""
    return value < threshold - VERDICT_MARGIN


class ValidationError(ValueError):
    """A numerical validation (TP, CP, unitarity, hermiticity) failed outside tolerance."""


def _check_hermitian(m: np.ndarray, atol: float, what: str) -> None:
    """Raise :class:`ValidationError` unless max|m - m^dag| <= atol (NaN fails)."""
    dev = float(np.max(np.abs(m - dag(m))))
    if not dev <= atol:
        raise ValidationError(f"{what} is not Hermitian within {atol:g} (deviation {dev:.3e})")


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """Choi state of a channel: matrix over the doubled subsystem list (outputs, ancillas)."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    source_dims: tuple[int, ...]


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only in place: a fresh array that nothing else holds, so no copy is needed."""
    a.setflags(write=False)
    return a


# the tile of _mirror_lower, and the strict upper triangle of one
_MIRROR_TILE = 64
_TILE_UPPER = np.triu(np.ones((_MIRROR_TILE, _MIRROR_TILE), dtype=bool), 1)


def _mirror_lower(m: np.ndarray) -> np.ndarray:
    """Square complex ``m`` made exactly Hermitian in place: its strict lower triangle conjugated into the upper one.

    The lower triangle and the real diagonal are kept; the diagonal's imaginary
    parts become +0.0. Each row block of the upper triangle is written from the
    column block below it, which does not overlap it, so the only temporary is
    numpy's copy of one diagonal tile.
    """
    n = len(m)
    for i in range(0, n, _MIRROR_TILE):
        j = min(i + _MIRROR_TILE, n)
        block = m[i:j, i:j]
        np.conjugate(block.T, out=block, where=_TILE_UPPER[: j - i, : j - i])
        np.conjugate(m[j:, i:j].T, out=m[i:j, j:])
    np.fill_diagonal(m.imag, 0.0)
    return m


def _kraus_array(kraus, dims: tuple[int, ...], dim: int) -> np.ndarray:
    """The operators of ``kraus`` checked and stacked into one fresh ``(K, D, D)`` array.

    The list of operators dies with this call, so operators that only the
    iterable held are freed once they are stacked.
    """
    ops = [np.asarray(a, dtype=complex) for a in kraus]
    if not ops:
        raise ValueError("a channel needs at least one Kraus operator")
    if all(a.shape == (dim, dim) for a in ops):
        stack = np.array(ops)
        if np.isfinite(stack).all():
            return stack
    for i, a in enumerate(ops):  # name the first faulty operator in index order
        if a.shape != (dim, dim):
            raise ValueError(f"kraus[{i}] has shape {a.shape}, expected {(dim, dim)} for dims {dims}")
        if not np.isfinite(a).all():
            raise ValueError(f"kraus[{i}] has a non-finite entry")


class Channel:
    """Completely positive map on ``prod(dims)`` dimensions, stored as one Kraus array.

    ``kraus`` is a read-only ``(K, D, D)`` array, D = prod(dims): ``len``,
    iteration, indexing and slicing give its operators. The Choi matrix is one
    product of the stacked vectorized operators with their conjugates, computed
    eagerly at construction and frozen, so instances are safe to share across
    threads. It is exactly Hermitian: the computed lower triangle, the one
    ``eigh`` and ``eigvalsh`` read, is kept, its conjugate is written into the
    upper triangle, and the diagonal's imaginary parts are +0.0. Set
    ``require_tp=False`` for maps that are intentionally not trace preserving
    (separable-map analysis allows them).
    """

    def __init__(self, kraus, dims, require_tp: bool = True):
        self.dims = _as_dims(dims)
        self.dim = math.prod(self.dims)
        self.kraus = _frozen(_kraus_array(kraus, self.dims, self.dim))
        self.require_tp = bool(require_tp)
        if self.require_tp:
            deficit = self.tp_deficit()
            if not deficit <= ATOL:
                raise ValidationError(
                    f"Kraus operators are not trace preserving: max|sum A^dag A - I| = {deficit:.6g}"
                )
        # row k is vec A_k, row-major: vecs[k, i*D + m] = A_k[i, m]
        vecs = self.kraus.reshape(len(self.kraus), -1)
        # huge finite entries overflow to inf/nan here; the finiteness check
        # turns that into a ValidationError, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            choi = vecs.T @ vecs.conj()
            choi /= self.dim
        self.choi = ChoiMatrix(_frozen(_mirror_lower(choi)), self.dims + self.dims, self.dims)
        if not np.isfinite(self.choi.matrix).all():
            raise ValidationError("Kraus entries overflow: the Choi matrix is not finite")

    def tp_deficit(self) -> float:
        """max|sum_k A_k^dag A_k - I|, inf or NaN when the sum overflows (numpy does not warn)."""
        rows = self.kraus.reshape(-1, self.dim)  # the operators stacked row-wise
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max(np.abs(rows.conj().T @ rows - np.eye(self.dim))))

    def __repr__(self):
        return f"Channel(dims={self.dims}, kraus_count={len(self.kraus)}, require_tp={self.require_tp})"


def _check_unitary(u: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``u`` as a complex array: ValueError unless square, ValidationError unless unitary within ATOL (NaN fails)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} is not square: shape {u.shape}")
    dev = float(np.max(np.abs(dag(u) @ u - np.eye(u.shape[0]))))
    if not dev <= ATOL:
        raise ValidationError(f"{name} is not unitary: max|U^dag U - I| = {dev:.6g}")
    return u


def _check_probabilities(probs, name: str = "probabilities") -> np.ndarray:
    """``probs`` as finite reals (``qmath._as_real``) summing to 1, none below -ZERO_CUTOFF, clipped at 0."""
    if np.ndim(probs) != 1 or len(probs) == 0:
        raise ValueError(f"{name} must be a non-empty 1D sequence")
    # entry by entry, first: a NaN would pass both tests below, and a bool or a string would be converted
    p = np.array([_as_real(x, f"{name}[{i}]") for i, x in enumerate(probs)])
    if np.any(p < -ZERO_CUTOFF):
        raise ValueError(f"{name} contains a negative entry")
    if abs(float(p.sum()) - 1.0) > ATOL:
        raise ValueError(f"{name} sum to {float(p.sum())!r}, expected 1")
    return np.clip(p, 0.0, None)


def identity_channel(dims) -> Channel:
    dims = _as_dims(dims)
    return Channel([np.eye(math.prod(dims))], dims)


def unitary_channel(u: np.ndarray, dims=None) -> Channel:
    u = _check_unitary(u, "unitary")
    if dims is None:
        dims = (u.shape[0],)
    return Channel([u], dims)


def _weyl_operators(d: int):
    """X^a Z^b for a, b in 0..d-1, not both 0, one at a time: omega^(b j) at row (j + a) mod d, column j."""
    j = np.arange(d)
    roots = np.exp(2j * np.pi * j / d)
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            op = np.zeros((d, d), dtype=complex)
            op[(j + a) % d, j] = roots[b * j % d]
            yield op


def depolarizing_channel(p: float, d: int = 2) -> Channel:
    """Depolarizing channel with total error weight p.

    For qubits the Kraus set is {sqrt(1-p) I, sqrt(p/3) X, sqrt(p/3) Y, sqrt(p/3) Z};
    for d > 2 the Pauli set is replaced by the d^2 - 1 Weyl operators. A
    one-dimensional system has no error operator to carry p, so d < 2 is refused,
    and so is a d that is no integer (2.9, 2.0, "3", True), which is not truncated.
    The operators are scaled as they are generated, so no list of them is held
    beside the Kraus array.
    """
    p = _as_real(p, "depolarizing weight p")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing weight p={p!r} outside [0, 1]")
    (d,) = _as_dims((d,))
    if d < 2:
        raise ValueError(f"the depolarizing channel needs dimension d >= 2, got {d}")
    errs = (PAULI[ch] for ch in "XYZ") if d == 2 else _weyl_operators(d)
    weighted = itertools.chain([(1.0 - p, np.eye(d, dtype=complex))], ((p / (d * d - 1), e) for e in errs))
    return Channel((np.sqrt(wt) * op for wt, op in weighted if wt > 0.0), (d,))


def fully_depolarizing_channel(dims, sigma: np.ndarray | None = None) -> Channel:
    """Constant map rho -> Tr[rho] * sigma (default sigma = Id/dim)."""
    dims = _as_dims(dims)
    d = math.prod(dims)
    if sigma is None:
        sigma = np.eye(d, dtype=complex) / d
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (d, d):
        raise ValueError(f"sigma shape {sigma.shape} does not match dims {dims}")
    _check_hermitian(sigma, ATOL, "sigma")
    w, v = np.linalg.eigh((sigma + dag(sigma)) / 2)
    if w[0] < -ATOL or abs(float(w.sum()) - 1.0) > ATOL:
        raise ValidationError("sigma is not a density matrix (PSD, trace 1)")
    keep = w > SIGMA_RANK_CUTOFF
    cols = np.sqrt(w[keep]) * v[:, keep]  # column i is sqrt(lambda_i) v_i
    # operator (i, j), at index i * d + j, is zero but for column i of ``cols`` as its column j
    kraus = np.zeros((cols.shape[1], d, d, d), dtype=complex)
    kraus[:, np.arange(d), :, np.arange(d)] = cols.T
    return Channel(kraus.reshape(-1, d, d), dims)


def cnot_channel() -> Channel:
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = np.array([[0, 1], [1, 0]])
    return Channel([u], (2, 2))


def z3_channel() -> Channel:
    u = np.diag([1.0] * 8 + [-1.0]).astype(complex)
    return Channel([u], (3, 3))


def random_unitary_channel(probs, unitaries, dims=None) -> Channel:
    """Convex mixture of unitary conjugations, Kraus operators sqrt(p_k) U_k."""
    p = _check_probabilities(probs)
    us = [_check_unitary(u, f"unitaries[{k}]") for k, u in enumerate(unitaries)]
    if len(us) != p.size:
        raise ValueError(f"{p.size} probabilities but {len(us)} unitaries")
    dims = _as_dims((us[0].shape[0],) if dims is None else dims)
    shape = (math.prod(dims),) * 2
    for k, u in enumerate(us):
        if u.shape != shape:
            raise ValueError(f"unitaries[{k}] has shape {u.shape}, expected {shape} for dims {dims}")
    return Channel([np.sqrt(pk) * u for pk, u in zip(p, us)], dims)


def sru_channel(probs, a_unitaries, b_unitaries, dims=None) -> Channel:
    """Separable random unitary: mixture of product conjugations (V_k kron W_k)."""
    p = _check_probabilities(probs)
    va = [_check_unitary(u, f"a_unitaries[{k}]") for k, u in enumerate(a_unitaries)]
    wb = [_check_unitary(u, f"b_unitaries[{k}]") for k, u in enumerate(b_unitaries)]
    if not (len(va) == len(wb) == p.size):
        raise ValueError("probabilities and unitary lists have mismatched lengths")
    if dims is None:
        dims = (va[0].shape[0], wb[0].shape[0])
    dims = _as_dims(dims)
    # each pair: a 1 x 1 V_k beside a D x D W_k has the right kron shape but is no local unitary
    if len(dims) != 2 or any((v.shape[0], w.shape[0]) != dims for v, w in zip(va, wb)):
        raise ValueError(f"local unitary shapes do not match dims {dims}")
    return Channel([np.sqrt(pk) * kron(v, w) for pk, v, w in zip(p, va, wb)], dims)
