"""Finite-shot simulation of the local-measurement detection schemes.

A qubit witness is expanded in the Pauli basis, the non-identity strings are
grouped into product measurement settings (strings sharing a setting are
estimated from the same shots), and outcomes are sampled from the exact Born
distribution of the Choi state being measured. :func:`estimate_witness` is the
one sampler: setting k draws its counts from the stream ``[seed, k]``, and one
pass over ``[setting, outcome]`` arrays turns all the counts into the
estimate. One sign table serves every term; each setting's terms are padded
to the widest setting with a zero term, and every sum runs left to right, so
each outcome value and each setting's moments are bitwise those of a loop
over settings, outcomes and terms.

No step builds a dense 2^n x 2^n product per string or per setting: every
coefficient is read off one gather of the operator (a Pauli string has one
nonzero entry per row), grouping compares strings packed two bits per qubit,
and one einsum gives the Born probabilities of every setting. Each number is
bitwise the one the dense ``Tr[P W]`` and per-setting ``kron`` basis give, so
the sampling streams and estimates are those of the dense path. Both entry
points first apply the layer's one limit, :func:`_require_measurable`: at
most ``MAX_QUBITS`` qubits, the Choi states of channels on [2] or [2, 2].
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import ATOL, STATE_ATOL, ZERO_CUTOFF, ChoiMatrix, ValidationError, _check_hermitian
from .detect import Witness

# Most qubits of a measured operator: its Pauli tables hold 4^n x 2^n entries, 4 MB at n = 4.
MAX_QUBITS = 4
# Most shots per setting: each setting's counts are drawn as one int64 multinomial.
MAX_SHOTS = int(np.iinfo(np.int64).max)

_LETTERS = "IXYZ"  # a letter's index is its 2-bit code; I is 0
_CODE = {ch: k for k, ch in enumerate(_LETTERS)}
# Row r of the one-qubit Pauli with code c holds its nonzero entry _PHASE[c, r]
# at column r ^ _FLIP[c].
_FLIP = np.array([0, 1, 1, 0])
_PHASE = np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]], dtype=complex)

# single-qubit eigenbases of X, Y and Z, indexed by a letter's byte minus ord("X"),
# columns ordered (+1 eigenvector, -1 eigenvector)
_EIGENBASES = np.stack(
    [
        np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
        np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
        np.eye(2, dtype=complex),
    ]
)


@dataclass(frozen=True)
class PauliTerm:
    string: str
    coefficient: float


@dataclass(frozen=True)
class MeasurementSetting:
    """One product basis (letters from XYZ per qubit) and the terms it estimates."""

    bases: str
    covered_terms: tuple[int, ...]


@dataclass(frozen=True)
class ShotEstimate:
    """Estimated witness value from ``shots_per_setting`` shots on each of ``setting_count`` settings."""

    value: float
    std_error: float
    shots_per_setting: int
    seed: int
    setting_count: int


def _require_measurable(dims: tuple[int, ...], what: str, error=ValueError) -> int:
    """The qubit count of ``dims``, at most ``MAX_QUBITS``, else ``error`` naming ``what``."""
    if len(dims) > MAX_QUBITS or any(d != 2 for d in dims):
        raise error(f"{what} needs dims of at most {MAX_QUBITS} qubits, got {list(dims)}")
    return len(dims)


def _pauli_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero entries of all 4^n Pauli strings, in ``itertools.product("IXYZ", repeat=n)`` order.

    Row i of string s holds its one nonzero entry ``phases[s, i]`` at column
    ``cols[s, i]``. The tables grow one qubit at a time, leftmost qubit most
    significant, as ``qmath.kron`` orders a product.
    """
    cols = np.zeros((1, 1), dtype=np.intp)
    phases = np.ones((1, 1), dtype=complex)
    flips = np.arange(2) ^ _FLIP[:, None]  # [letter, bit]
    for _ in range(n):
        # [string, row] x [letter, bit] -> [string, letter, row, bit]
        shape = (4 * cols.shape[0], 2 * cols.shape[1])
        cols = (2 * cols[:, None, :, None] + flips[None, :, None, :]).reshape(shape)
        phases = (phases[:, None, :, None] * _PHASE[None, :, None, :]).reshape(shape)
    return cols, phases


def _string_of(index: int, n: int) -> str:
    return "".join(_LETTERS[(index >> 2 * (n - 1 - q)) & 3] for q in range(n))


def pauli_decompose(w: np.ndarray, tol: float = ZERO_CUTOFF) -> list[PauliTerm]:
    """Expand a Hermitian qubit operator as sum of real Pauli-string coefficients.

    Coefficients are Tr[P W] / 2^n for n <= ``MAX_QUBITS``; strings with |coefficient| <= tol
    are dropped. The trace sums the 2^n products P[i, j] W[j, i] with P[i, j] != 0 in
    the order ``np.trace(P @ W)`` does, so each coefficient is bitwise the dense one.
    """
    w = np.asarray(w, dtype=complex)
    side = w.shape[0] if w.ndim == 2 and w.shape[0] == w.shape[1] else 0
    if side < 2 or side & (side - 1):
        raise ValueError(f"operator shape {w.shape} is not a square power of 2")
    n = _require_measurable((2,) * (side.bit_length() - 1), "the operator")
    _check_hermitian(w, ATOL, "operator")
    cols, phases = _pauli_tables(n)
    coeffs = (phases * w[cols, np.arange(side)]).sum(axis=-1) / side
    names = ["".join(p) for p in itertools.product(_LETTERS, repeat=n)]  # the tables' string order
    bad = np.flatnonzero(np.abs(coeffs.imag) > ZERO_CUTOFF)
    if bad.size:
        s = bad[0]
        raise ValueError(f"coefficient of {names[s]} has imaginary part {coeffs[s].imag:.3e}")
    kept = np.flatnonzero(np.abs(coeffs.real) > tol)
    return [PauliTerm(names[s], c) for s, c in zip(kept.tolist(), coeffs.real[kept].tolist())]


def _pack(string: str) -> tuple[int, int]:
    """``(code, mask)``: two bits per qubit, leftmost most significant; mask is 0b11 off identity."""
    code = mask = 0
    for ch in string:
        try:
            c = _CODE[ch]
        except KeyError:
            raise ValueError(f"unknown Pauli letter {ch!r} in {string!r}") from None
        code = code << 2 | c
        mask = mask << 2 | (3 if c else 0)
    return code, mask


def group_settings(terms) -> list[MeasurementSetting]:
    """Greedy covering of non-identity terms by product measurement settings.

    Terms are processed with fewer identity slots first. Each joins the first
    compatible existing setting; otherwise it opens a new setting whose free
    (identity) slots are filled by merging the remaining compatible terms in
    order, then padded with X. Every non-identity term ends up covered by
    exactly one setting.

    Strings are packed two bits per qubit, so ``a`` and ``b`` are compatible
    exactly when ``(code_a ^ code_b) & mask_a & mask_b == 0``, and a term fits
    a setting exactly when ``bases & mask == code``: ``first[mask][bases & mask]``
    is the first setting each term of that mask could join.
    """
    terms = list(terms)
    if len({len(t.string) for t in terms}) > 1:
        raise ValueError("Pauli strings of different lengths cannot share settings")
    n = len(terms[0].string) if terms else 0
    full = (1 << 2 * n) - 1
    x_fill = full // 3  # code 0b01 (X) in every slot
    packed = [_pack(t.string) for t in terms]
    order = sorted(
        (i for i, (_, mask) in enumerate(packed) if mask),
        key=lambda i: (terms[i].string.count("I"), i),
    )
    settings: list[tuple[int, list[int]]] = []
    first: dict[int, dict[int, int]] = {mask: {} for _, mask in packed}
    for pos, i in enumerate(order):
        code, mask = packed[i]
        k = first[mask].get(code)
        if k is not None:
            settings[k][1].append(i)
            continue
        for j in order[pos + 1 :]:
            if mask == full:
                break  # no free slot left for a later term to fill
            other, other_mask = packed[j]
            if (code ^ other) & mask & other_mask == 0:
                code |= other
                mask |= other_mask
        bases = code | x_fill & ~mask
        for m, index in first.items():
            index.setdefault(bases & m, len(settings))
        settings.append((bases, [i]))
    return [MeasurementSetting(bases=_string_of(b, n), covered_terms=tuple(c)) for b, c in settings]


def _letter_bytes(strings: list[str]) -> np.ndarray:
    """``[string, qubit]`` ASCII bytes of equal-length Pauli strings."""
    return np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint8).reshape(len(strings), -1)


def _product_bases(bases: list[str]) -> np.ndarray:
    """Stacked ``kron`` of the eigenbases of each setting, multiplied left to right."""
    e = _EIGENBASES[_letter_bytes(bases) - ord("X")]  # [setting, qubit, row, column]
    out = e[:, 0]
    for q in range(1, e.shape[1]):
        shape = (len(bases), 2 * out.shape[1], 2 * out.shape[2])
        out = (out[:, :, None, :, None] * e[:, q, None, :, None, :]).reshape(shape)
    return out


def _setting_probabilities(state: np.ndarray, bases: list[str]) -> np.ndarray:
    """Born probabilities of the 2^n product-basis outcomes of each setting, outcome bit 0 <-> +1.

    Row k belongs to ``bases[k]``. One einsum covers every setting; its
    per-setting summation order is that of the single-setting contraction, so
    an outcome the state cannot produce keeps probability exactly 0.
    """
    b = _product_bases(bases)
    probs = np.real(np.einsum("sij,jk,ski->si", b.conj().transpose(0, 2, 1), state, b))
    probs = np.clip(probs, 0.0, None)
    totals = probs.sum(axis=1)
    bad = np.flatnonzero(np.abs(totals - 1.0) > STATE_ATOL)
    if bad.size:
        raise ValueError(f"outcome probabilities sum to {float(totals[bad[0]])!r}; state is not normalized")
    return probs / totals[:, None]


def _check_state(state: np.ndarray, n: int) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.shape != (2**n, 2**n):
        raise ValueError(f"state shape {state.shape} does not match {n} qubits")
    _check_hermitian(state, STATE_ATOL, "state")
    if not abs(complex(np.trace(state)).real - 1.0) <= STATE_ATOL:
        raise ValidationError("state must have unit trace")
    if float(np.linalg.eigvalsh((state + state.conj().T) / 2)[0]) < -STATE_ATOL:
        raise ValidationError("state has a negative eigenvalue")
    return state


def _outcome_signs(strings: list[str]) -> np.ndarray:
    """``[outcome, term]`` product of the +-1 outcomes on each string's non-identity qubits."""
    n = len(strings[0])
    bits = np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1) & 1  # [outcome, qubit]
    support = (_letter_bytes(strings) != ord("I")).astype(int)  # [term, qubit]
    return 1 - 2 * (bits @ support.T & 1)


def estimate_witness(choi: ChoiMatrix, w: Witness, shots_per_setting: int, seed: int = 0) -> ShotEstimate:
    """Estimate Tr[W * choi] from simulated local measurements on the Choi state.

    The state is validated (Hermitian, unit trace, positive semidefinite) once,
    before any setting is sampled; ``shots_per_setting`` lies in [1, ``MAX_SHOTS``]
    (the exact value is :func:`chandet.detect.evaluate_witness`). Terms sharing
    a setting are evaluated from the same shots, and their covariance enters
    the standard error through the per-shot sample variance of the combined
    value.
    """
    n = _require_measurable(choi.dims, "the Choi state")
    if w.dims != choi.dims:
        raise ValueError(f"witness dims {w.dims} do not match Choi dims {choi.dims}")
    shots = int(shots_per_setting)
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    state = _check_state(choi.matrix, n)
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots_per_setting must be >= 1 and at most {MAX_SHOTS}, got {shots}")
    terms = pauli_decompose(w.operator)
    settings = group_settings(terms)
    identity = "I" * n
    value = sum(t.coefficient for t in terms if t.string == identity)
    variance = 0.0
    if settings:
        probs = _setting_probabilities(state, [s.bases for s in settings])
        # [setting, outcome] counts; setting k draws from the stream [seed, k]
        counts = np.stack([np.random.default_rng([seed, k]).multinomial(shots, p) for k, p in enumerate(probs)])
        # [term, outcome] signed coefficients; one more term, 0.0 * identity, pads every setting to the widest
        strings = [t.string for t in terms] + [identity]
        signed = np.array([t.coefficient for t in terms] + [0.0])[:, None] * _outcome_signs(strings).T
        slots = np.full((len(settings), max(len(s.covered_terms) for s in settings)), len(terms))
        for k, setting in enumerate(settings):
            slots[k, : len(setting.covered_terms)] = setting.covered_terms
        # [setting, outcome] values, each adding its setting's terms left to right (x + 0.0 == x)
        v = np.zeros(counts.shape)
        for column in slots.T:
            v += signed[column]
        # per setting, count * v and count * v * v summed over outcomes in ascending order;
        # a zero count adds +-0.0, which changes no sum
        weighted = counts * v
        mean_acc = np.zeros(len(settings))
        sq_acc = np.zeros(len(settings))
        for o in range(counts.shape[1]):
            mean_acc += weighted[:, o]
            sq_acc += weighted[:, o] * v[:, o]
        for m_acc, s_acc in zip(mean_acc.tolist(), sq_acc.tolist()):
            mean = m_acc / shots
            value += mean
            if shots > 1:
                sample_var = (s_acc / shots - mean**2) * shots / (shots - 1)
                variance += sample_var / shots
    return ShotEstimate(
        value=float(value),
        std_error=float(np.sqrt(variance)),
        shots_per_setting=shots,
        seed=seed,
        setting_count=len(settings),
    )
