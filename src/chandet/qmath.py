"""Dense complex linear algebra over multi-subsystem Hilbert spaces.

Operators are plain complex ndarrays; the subsystem structure is carried
separately as a sequence of dimensions whose product equals the side length.
All functions are pure and never mutate their inputs.
"""

import math
import numbers
import operator
from functools import reduce

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, left to right."""
    if not ops:
        raise ValueError("kron needs at least one operator")
    return reduce(np.kron, ops)


def pauli_string(letters: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``pauli_string("XZI")``."""
    try:
        mats = [PAULI[ch] for ch in letters]
    except KeyError as exc:
        raise ValueError(f"unknown Pauli letter {exc.args[0]!r} in {letters!r}") from exc
    return kron(*mats)


def _as_int(n, what: str) -> int:
    """``n`` taken by ``operator.index``, else TypeError naming ``what``.

    So 2.7, 2.0 and "3" are refused, not truncated, and an integer of any type
    (``np.int64``) is taken; a bool is refused.
    """
    if isinstance(n, (bool, np.bool_)):
        raise TypeError(f"{what} must be an integer, got {n!r}")
    try:
        return operator.index(n)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {n!r}") from None


def _as_real(x, what: str) -> float:
    """``x`` as a finite float: a real of any type (``np.float64``, ``np.int64``) is taken.

    A bool, a string or any other non-real is refused with TypeError naming
    ``what``, NaN and ±inf (an int past the float range too) with ValueError.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{what} must be a number")
    try:
        value = float(x)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number")
    return value


def _as_seed(seed) -> int:
    """A seed taken as :func:`_as_int` takes it, or a float that ``is_integer()``, as an int."""
    if isinstance(seed, float) and seed.is_integer():
        return int(seed)
    return _as_int(seed, "seed")


def _as_dims(dims) -> tuple[int, ...]:
    """``dims`` as a non-empty tuple of ints >= 1, else ValueError; each entry is taken by :func:`_as_int`."""
    try:
        out = tuple(_as_int(d, "a dimension") for d in dims)
    except TypeError:
        out = ()
    if not out or any(d < 1 for d in out):
        raise ValueError(f"invalid subsystem dimensions {dims!r}")
    return out


def _require_bipartite(dims, what: str, error=ValueError) -> tuple[int, int]:
    """``dims`` as (d_A, d_B): two factors of at least 2 each, else ``error`` naming ``what``.

    A factor of 1 has no partial transpose to reveal and no nonlocal gate to decompose.
    """
    dims = _as_dims(dims)
    if len(dims) != 2 or min(dims) < 2:
        raise error(f"{what} needs dims [d_A, d_B] with d_A, d_B >= 2, got {list(dims)}")
    return dims


def _check_square(m: np.ndarray, dims: tuple[int, ...]) -> None:
    side = math.prod(dims)
    if m.shape != (side, side):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims} (side {side})")


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in ``keep``.

    ``keep`` is a set of subsystem indices; the kept subsystems stay in their
    original relative order, so the result acts on ``[dims[k] for k in sorted(keep)]``.
    """
    dims = _as_dims(dims)
    m = np.asarray(m, dtype=complex)
    _check_square(m, dims)
    n = len(dims)
    keep = sorted({_as_int(k, "a subsystem index") for k in (keep if np.iterable(keep) else [keep])})
    if keep and (keep[0] < 0 or keep[-1] >= n):
        raise IndexError(f"keep indices {keep} out of range for {n} subsystems")
    t = m.reshape(dims + dims)
    for ax in sorted((i for i in range(n) if i not in keep), reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
    side = math.prod(dims[k] for k in keep) if keep else 1
    return t.reshape(side, side)


def partial_transpose(m: np.ndarray, dims, subsystems) -> np.ndarray:
    """Transpose the listed subsystems in place of the composite operator."""
    dims = _as_dims(dims)
    m = np.asarray(m, dtype=complex)
    _check_square(m, dims)
    n = len(dims)
    subs = sorted({_as_int(s, "a subsystem index") for s in (subsystems if np.iterable(subsystems) else [subsystems])})
    if subs and (subs[0] < 0 or subs[-1] >= n):
        raise IndexError(f"subsystem indices {subs} out of range for {n} subsystems")
    t = m.reshape(dims + dims)
    axes = list(range(2 * n))
    for s in subs:
        axes[s], axes[n + s] = axes[n + s], axes[s]
    return t.transpose(axes).reshape(m.shape)


def haar_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Gaussian matrix.

    The diagonal of R is phase-corrected so the distribution is exactly Haar,
    not merely unitary. Deterministic for a fixed integer seed; a Generator
    ``seed`` is drawn from in place (``default_rng`` returns it as it is).
    """
    d = _as_int(d, "the dimension")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return _haar_stack(d, np.random.default_rng(seed), 1)[0]


def _haar_stack(d: int, rng, count: int) -> np.ndarray:
    """The next ``count`` d x d Haar unitaries of the Generator ``rng``, stacked; one batched QR for all.

    One Gaussian draw of shape (count, 2, d, d) takes each matrix's real then
    its imaginary part, in the order successive ``haar_unitary(d, rng)`` calls
    take them, so matrix k is bitwise the k-th of those draws and the first n
    of ``count`` are the whole of a draw of n.
    """
    g = rng.standard_normal((count, 2, d, d))
    a = g[:, 0] + 1j * g[:, 1]
    a /= np.sqrt(2)
    q, r = np.linalg.qr(a)
    ph = np.diagonal(r, axis1=-2, axis2=-1).copy()
    ph /= np.abs(ph)
    return q * ph[:, None, :]
