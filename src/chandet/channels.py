"""Quantum channels in Kraus form with a cached Choi matrix.

Conventions used throughout:

* the superoperator, reshuffled from the Choi matrix on demand, acts on
  column-stacked matrices, so ``vec(A rho B) = (B^T kron A) vec(rho)`` and a
  Kraus operator ``A`` contributes ``conj(A) kron A`` to it;
* Choi matrices follow the trace-normalized state convention
  ``C = (M kron Id)[|alpha><alpha|]`` with subsystem order (outputs..., ancillas...),
  so a trace-preserving channel has ``Tr[C] = 1`` and the partial trace of C over
  the output subsystems equals ``Id / prod(dims)``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .qmath import dag, kron, _as_dims

TP_ATOL = 1e-10
UNITAL_ATOL = 1e-10
CP_ATOL = 1e-10
CHOI_PSD_ATOL = 1e-9
KRAUS_RANK_CUTOFF = 1e-10
UNITARY_ATOL = 1e-10


class ValidationError(ValueError):
    """A numerical validation (TP, CP, unitarity, hermiticity) failed outside tolerance."""


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi state of a channel: matrix over the doubled subsystem list (outputs, ancillas)."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    source_dims: tuple[int, ...]


@dataclass(frozen=True)
class ChannelFlags:
    cp: bool
    tp: bool
    unital: bool


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=complex)
    a.setflags(write=False)
    return a


def kraus_to_choi_matrix(kraus, dim: int) -> np.ndarray:
    c = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in kraus:
        w = np.asarray(a).reshape(-1)  # row-major: w[i*dim + m] = A[i, m]
        c += np.outer(w, w.conj())
    return c / dim


def superoperator_to_choi(s: np.ndarray, source_dims) -> ChoiMatrix:
    """Reshuffle a superoperator into the trace-normalized Choi matrix."""
    source_dims = _as_dims(source_dims)
    d = math.prod(source_dims)
    s = np.asarray(s, dtype=complex)
    if s.shape != (d * d, d * d):
        raise ValueError(f"superoperator shape {s.shape} does not match dims {source_dims}")
    c = s.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d) / d
    return ChoiMatrix(_frozen(c), source_dims + source_dims, source_dims)


def choi_to_superoperator(c: ChoiMatrix) -> np.ndarray:
    d = math.prod(c.source_dims)
    return c.matrix.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d) * d


class Channel:
    """Completely positive map on ``prod(dims)`` dimensions, stored in Kraus form.

    The Choi matrix is computed eagerly at construction and frozen, so
    instances are safe to share across threads; ``superoperator`` is derived
    from it on each access. Set ``require_tp=False`` for maps that are
    intentionally not trace preserving (separable-map analysis allows them).
    """

    def __init__(self, kraus, dims, require_tp: bool = True):
        self.dims = _as_dims(dims)
        self.dim = math.prod(self.dims)
        ops = [np.asarray(a, dtype=complex) for a in kraus]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for i, a in enumerate(ops):
            if a.shape != (self.dim, self.dim):
                raise ValueError(
                    f"kraus[{i}] has shape {a.shape}, expected {(self.dim, self.dim)} for dims {self.dims}"
                )
            if not np.isfinite(a).all():
                raise ValueError(f"kraus[{i}] has a non-finite entry")
        self.kraus = tuple(_frozen(a) for a in ops)
        self.require_tp = bool(require_tp)
        # huge finite entries overflow to inf/nan here; the TP and finiteness
        # checks turn that into a ValidationError, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            if self.require_tp:
                deficit = float(np.max(np.abs(self.tp_deficit())))
                if not deficit <= TP_ATOL:
                    raise ValidationError(
                        f"Kraus operators are not trace preserving: max|sum A^dag A - I| = {deficit:.6g}"
                    )
            self.choi = ChoiMatrix(
                _frozen(kraus_to_choi_matrix(self.kraus, self.dim)),
                self.dims + self.dims,
                self.dims,
            )
        if not np.isfinite(self.choi.matrix).all():
            raise ValidationError("Kraus entries overflow: the Choi matrix is not finite")

    @property
    def superoperator(self) -> np.ndarray:
        return choi_to_superoperator(self.choi)

    def tp_deficit(self) -> np.ndarray:
        return sum(dag(a) @ a for a in self.kraus) - np.eye(self.dim)

    def unital_deficit(self) -> np.ndarray:
        return sum(a @ dag(a) for a in self.kraus) - np.eye(self.dim)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return sum(a @ rho @ dag(a) for a in self.kraus)

    def __repr__(self):
        return f"Channel(dims={self.dims}, kraus_count={len(self.kraus)}, require_tp={self.require_tp})"


def kraus_from_choi(c: ChoiMatrix, require_tp: bool = False) -> Channel:
    """Extract a Kraus decomposition from a positive semidefinite Choi matrix.

    Eigenpairs with eigenvalue above ``KRAUS_RANK_CUTOFF`` are kept; each
    eigenvector is reshaped to a matrix and scaled by sqrt(eigenvalue * dim).
    """
    mat = np.asarray(c.matrix, dtype=complex)
    w, v = np.linalg.eigh((mat + dag(mat)) / 2)
    if w[0] < -CHOI_PSD_ATOL:
        raise ValidationError(
            f"Choi matrix is not positive semidefinite: min eigenvalue {w[0]:.6g}"
        )
    d = math.prod(c.source_dims)
    kraus = [
        np.sqrt(lam * d) * v[:, k].reshape(d, d)
        for k, lam in enumerate(w)
        if lam > KRAUS_RANK_CUTOFF
    ]
    if not kraus:
        raise ValidationError("Choi matrix is numerically zero; no Kraus operators extracted")
    return Channel(kraus, c.source_dims, require_tp=require_tp)


def classify(ch: Channel) -> ChannelFlags:
    """CP / TP / unital flags at the module tolerances."""
    tp = float(np.max(np.abs(ch.tp_deficit()))) <= TP_ATOL
    unital = float(np.max(np.abs(ch.unital_deficit()))) <= UNITAL_ATOL
    cp = float(np.linalg.eigvalsh(ch.choi.matrix)[0]) >= -CP_ATOL
    return ChannelFlags(cp=cp, tp=tp, unital=unital)


def _check_unitary(u: np.ndarray, name: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} is not square: shape {u.shape}")
    dev = float(np.max(np.abs(dag(u) @ u - np.eye(u.shape[0]))))
    if dev > UNITARY_ATOL:
        raise ValidationError(f"{name} is not unitary: max|U^dag U - I| = {dev:.6g}")
    return u


def _check_probabilities(probs, name: str = "probabilities") -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a non-empty 1D sequence")
    if np.any(p < -1e-12):
        raise ValueError(f"{name} contains a negative entry")
    if abs(float(p.sum()) - 1.0) > 1e-10:
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
    """Shift/clock products X^a Z^b for a, b in 0..d-1, excluding the identity."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    ops = []
    for a in range(d):
        for b in range(d):
            if a == 0 and b == 0:
                continue
            ops.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return ops


def depolarizing_channel(p: float, d: int = 2) -> Channel:
    """Depolarizing channel with total error weight p.

    For qubits the Kraus set is {sqrt(1-p) I, sqrt(p/3) X, sqrt(p/3) Y, sqrt(p/3) Z};
    for d > 2 the Pauli set is replaced by the d^2 - 1 Weyl operators.
    """
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing weight p={p!r} outside [0, 1]")
    d = int(d)
    if d == 2:
        from .qmath import PAULI

        errs = [PAULI["X"], PAULI["Y"], PAULI["Z"]]
    else:
        errs = _weyl_operators(d)
    weighted = [(1.0 - p, np.eye(d, dtype=complex))]
    weighted += [(p / len(errs), e) for e in errs]
    kraus = [np.sqrt(wt) * op for wt, op in weighted if wt > 0.0]
    return Channel(kraus, (d,))


def fully_depolarizing_channel(dims, sigma: np.ndarray | None = None) -> Channel:
    """Constant map rho -> Tr[rho] * sigma (default sigma = Id/dim)."""
    dims = _as_dims(dims)
    d = math.prod(dims)
    if sigma is None:
        sigma = np.eye(d, dtype=complex) / d
    sigma = np.asarray(sigma, dtype=complex)
    if sigma.shape != (d, d):
        raise ValueError(f"sigma shape {sigma.shape} does not match dims {dims}")
    w, v = np.linalg.eigh((sigma + dag(sigma)) / 2)
    if w[0] < -1e-10 or abs(float(w.sum()) - 1.0) > 1e-10:
        raise ValidationError("sigma is not a density matrix (PSD, trace 1)")
    kraus = []
    for i, lam in enumerate(w):
        if lam <= 1e-14:
            continue
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[:, j] = np.sqrt(lam) * v[:, i]
            kraus.append(k)
    return Channel(kraus, dims)


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
    if dims is None:
        dims = (us[0].shape[0],)
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
    if len(dims) != 2 or (va[0].shape[0], wb[0].shape[0]) != dims:
        raise ValueError(f"local unitary shapes do not match dims {dims}")
    return Channel([np.sqrt(pk) * kron(v, w) for pk, v, w in zip(p, va, wb)], dims)


NAMED_CHANNELS = (
    "identity",
    "depolarizing",
    "fully_depolarizing",
    "unitary",
    "cnot",
    "z3",
    "random_unitary",
    "sru",
)


def make_named_channel(name: str, params: dict | None = None, dims=None) -> Channel:
    """Construct one of the named channels used across the detection pipelines.

    ``params`` carries the per-channel arguments (probabilities, matrices);
    matrices must already be complex ndarrays.
    """
    params = dict(params or {})
    if name == "identity":
        return identity_channel(dims if dims is not None else (2,))
    if name == "depolarizing":
        if "p" not in params:
            raise ValueError("depolarizing channel needs params.p")
        d = int(params.get("d", dims[0] if dims else 2))
        if dims is not None and _as_dims(dims) != (d,):
            raise ValueError(f"dims {dims} do not match depolarizing dimension {d}")
        return depolarizing_channel(params["p"], d)
    if name == "fully_depolarizing":
        return fully_depolarizing_channel(dims if dims is not None else (2,), params.get("sigma"))
    if name == "unitary":
        if "matrix" not in params:
            raise ValueError("unitary channel needs params.matrix")
        return unitary_channel(params["matrix"], dims)
    if name == "cnot":
        ch = cnot_channel()
    elif name == "z3":
        ch = z3_channel()
    elif name == "random_unitary":
        for key in ("probs", "unitaries"):
            if key not in params:
                raise ValueError(f"random_unitary channel needs params.{key}")
        return random_unitary_channel(params["probs"], params["unitaries"], dims)
    elif name == "sru":
        for key in ("probs", "a_unitaries", "b_unitaries"):
            if key not in params:
                raise ValueError(f"sru channel needs params.{key}")
        return sru_channel(params["probs"], params["a_unitaries"], params["b_unitaries"], dims)
    else:
        raise ValueError(f"unknown channel name {name!r}; known: {', '.join(NAMED_CHANNELS)}")
    if dims is not None and _as_dims(dims) != ch.dims:
        raise ValueError(f"dims {dims} do not match {name} dims {ch.dims}")
    return ch
