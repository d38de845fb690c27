"""Finite-shot simulation of the local-measurement detection schemes.

A qubit witness is expanded in the Pauli basis, the non-identity strings are
grouped into product measurement settings (strings sharing a setting are
estimated from the same shots), and outcomes are sampled from the exact Born
distribution of the Choi state being measured.

Every step runs on packed codes: a string's index in
``itertools.product("IXYZ", repeat=n)``, two bits per qubit, I = 0. Letters
appear only at the report boundary, in :func:`pauli_decompose` and
:func:`group_settings`, thin adapters over the path :func:`estimate_witness`
runs. What depends only on the qubit count n is built once per process, on
first use, by :func:`_pauli_tables`: the gather tables (a Pauli string has one
nonzero entry per row, so every Tr[P op] is read off one gather of the
operator), the ``[code, outcome]`` sign table and the 2^n subset masks,
read-only and 150 000 bytes for n = 1..4 together. The Born probabilities of
a setting are the Walsh-Hadamard transform of the state's Pauli traces on the
2^n sub-strings of its string, applied by n butterfly stages; the stage makes
no BLAS call and the butterfly fixes its order of summation, so each row is
bitwise the row of its setting alone, and every probability <=
``ZERO_CUTOFF`` is exactly 0. One ``multinomial(shots, probs)`` call of the
stream ``default_rng(seed)`` on the ``[setting, outcome]`` array draws the
counts of every setting: setting k's are its k-th multinomial draw, bitwise
what a loop of one-row draws of that stream gives, and setting 0's are those
the stream ``[seed, 0]`` drew (numpy pads the entropy with zeros). One pass
over ``[setting, outcome]`` arrays forms the estimate, each setting's terms
padded to the widest with a zero term, and its two sums over outcomes are
accumulates, which run left to right. So each number is bitwise the one of a
dense ``Tr[P W]``, the same transform on dense traces, one scalar butterfly
at a time, and a loop over settings, outcomes and terms. A
probability lies within 8 eps of the three-operand einsum over the product
eigenbases (``tests/test_measure.py::einsum_probabilities``), and one ulp
can move a BTPE binomial draw (p = 1/18 on the CNOT NPT composite, setting
YYXZ, 1 000 shots, seed 1). A draw that moves in setting j can shift the
counts of every later setting too. The Choi state itself is one BLAS product
(``Channel``), so counts may still differ between BLAS builds. Both entry
points first apply the layer's one limit, :func:`_require_measurable` (at most
``MAX_QUBITS`` qubits: the Choi states of channels on [2] or [2, 2]); no table
is built before it refuses.
"""

import functools
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import NamedTuple

import numpy as np

from .channels import ATOL, STATE_ATOL, ZERO_CUTOFF, ChoiMatrix, ValidationError, _check_hermitian
from .detect import Witness
from .qmath import _as_int, _as_seed

# Most qubits of a measured operator: its tables, built once, take 131 200 bytes at n = 4.
MAX_QUBITS = 4
# Most shots per setting: every setting's counts are int64 multinomial draws of one stream.
MAX_SHOTS = int(np.iinfo(np.int64).max)

_LETTERS = "IXYZ"  # a letter's index is its 2-bit code; I is 0
_LETTER_SET = frozenset(_LETTERS)
_LETTER_BYTES = np.frombuffer(_LETTERS.encode("ascii"), dtype=np.uint8)
_DIGIT = np.zeros(256, dtype=np.int64)  # [ASCII byte] code of a Pauli letter
_DIGIT[_LETTER_BYTES] = np.arange(4)
# Row r of the one-qubit Pauli with code c holds its nonzero entry _PHASE[c, r]
# at column r ^ _FLIP[c].
_FLIP = np.array([0, 1, 1, 0])
_PHASE = np.array([[1, 1], [1, 1], [-1j, 1j], [1, -1]], dtype=complex)

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


class _Tables(NamedTuple):
    """What the layer needs of n qubits, indexed by packed code; every array is read-only."""

    gather: np.ndarray  # [code, row] flat index of the row's one nonzero entry in a 2^n x 2^n matrix
    phases: np.ndarray  # [code, row] that entry
    signs: np.ndarray  # [code, outcome] product of the +-1 outcomes on the code's non-identity qubits
    masks: np.ndarray  # [subset] 0b11 in the slot of each qubit whose bit is set in the subset's index


@functools.cache
def _pauli_tables(n: int) -> _Tables:
    """The tables of n qubits, 1 <= n <= ``MAX_QUBITS``, built on the first call for n.

    The gather tables grow one qubit at a time, leftmost qubit most
    significant, as ``qmath.kron`` orders a product; outcomes and subsets index
    their qubits the same way.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"Pauli tables cover 1 to {MAX_QUBITS} qubits, not {n}")
    cols = np.zeros((1, 1), dtype=np.intp)
    phases = np.ones((1, 1), dtype=complex)
    flips = np.arange(2) ^ _FLIP[:, None]  # [letter, bit]
    for _ in range(n):
        # [code, row] x [letter, bit] -> [code, letter, row, bit]
        shape = (4 * cols.shape[0], 2 * cols.shape[1])
        cols = (2 * cols[:, None, :, None] + flips[None, :, None, :]).reshape(shape)
        phases = (phases[:, None, :, None] * _PHASE[None, :, None, :]).reshape(shape)
    side = 2**n
    digits = np.arange(4**n)[:, None] >> 2 * np.arange(n - 1, -1, -1) & 3  # [code, qubit]
    bits = np.arange(side)[:, None] >> np.arange(n - 1, -1, -1) & 1  # [outcome, qubit]
    tables = _Tables(
        gather=cols * side + np.arange(side),
        phases=phases,
        signs=1 - 2 * ((digits != 0) @ bits.T & 1),
        masks=3 * bits @ 4 ** np.arange(n - 1, -1, -1),
    )
    for a in tables:
        a.setflags(write=False)
    return tables


def _traces(op: np.ndarray, tables: _Tables) -> np.ndarray:
    """Tr[P op] of every code P, each the sum of the 2^n products P[i, j] op[j, i] with P[i, j] != 0.

    The products are summed in the order ``np.trace(P @ op)`` takes, so each trace is bitwise the dense one.
    """
    return (tables.phases * np.take(op, tables.gather)).sum(axis=-1)


def _names(codes, n: int) -> list[str]:
    """The n-letter Pauli string of each packed code."""
    digits = np.asarray(codes, dtype=np.int64)[:, None] >> 2 * np.arange(n - 1, -1, -1) & 3
    text = _LETTER_BYTES[digits].tobytes().decode("ascii")
    return [text[n * i : n * (i + 1)] for i in range(len(digits))]


def _codes_of(strings: list[str]) -> tuple[np.ndarray, int]:
    """The packed codes of equal-length Pauli strings, and their qubit count."""
    if len({len(s) for s in strings}) > 1:
        raise ValueError("Pauli strings of different lengths cannot share settings")
    n = len(strings[0]) if strings else 0
    if 2 * n >= np.iinfo(np.int64).bits:
        raise ValueError(f"Pauli strings of {n} qubits do not fit a 64-bit code")
    text = "".join(strings)
    if not set(text) <= _LETTER_SET:
        string = next(s for s in strings if not set(s) <= _LETTER_SET)
        letter = next(ch for ch in string if ch not in _LETTER_SET)
        raise ValueError(f"unknown Pauli letter {letter!r} in {string!r}")
    digits = _DIGIT[np.frombuffer(text.encode("ascii"), dtype=np.uint8)].reshape(len(strings), n)
    return digits @ 4 ** np.arange(n - 1, -1, -1), n


def _expand(w: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ascending codes of the strings of Hermitian ``w`` with |coefficient| > ZERO_CUTOFF, and their coefficients.

    A coefficient is :func:`_traces`' Tr[P W] / 2^n, so each is bitwise the dense one.
    """
    _check_hermitian(w, ATOL, "operator")
    coeffs = _traces(w, _pauli_tables(n)) / 2**n
    bad = np.flatnonzero(np.abs(coeffs.imag) > ZERO_CUTOFF)
    if bad.size:
        raise ValueError(f"coefficient of {_names(bad[:1], n)[0]} has imaginary part {coeffs[bad[0]].imag:.3e}")
    kept = np.flatnonzero(np.abs(coeffs.real) > ZERO_CUTOFF)
    return kept, coeffs.real[kept]


def pauli_decompose(w: np.ndarray) -> list[PauliTerm]:
    """Expand a Hermitian qubit operator as sum of real Pauli-string coefficients.

    Coefficients are Tr[P W] / 2^n for n <= ``MAX_QUBITS``, bitwise the dense
    ones; as in :func:`estimate_witness`, strings with |coefficient| <= ZERO_CUTOFF are dropped.
    """
    w = np.asarray(w, dtype=complex)
    side = w.shape[0] if w.ndim == 2 and w.shape[0] == w.shape[1] else 0
    if side < 2 or side & (side - 1):
        raise ValueError(f"operator shape {w.shape} is not a square power of 2")
    n = _require_measurable((2,) * (side.bit_length() - 1), "the operator")
    codes, coeffs = _expand(w, n)
    return [PauliTerm(s, c) for s, c in zip(_names(codes, n), coeffs.tolist())]


def _group(codes: np.ndarray, n: int) -> tuple[list[int], list[list[int]]]:
    """The greedy covering of :func:`group_settings` on packed codes: each setting's code and the positions it covers.

    With ``mask`` 0b11 in every non-identity slot, ``a`` and ``b`` are compatible
    exactly when ``(code_a ^ code_b) & mask_a & mask_b == 0``, and a code fits a
    setting exactly when ``setting & mask == code``. A code fixes its mask, so
    ``first[setting & mask]`` is the first setting each code of that mask could join.
    """
    full = (1 << 2 * n) - 1
    x_fill = full // 3  # code 0b01 (X) in every slot
    busy = (codes | codes >> 1) & x_fill  # the low bit of every non-identity slot
    masks = (3 * busy).tolist()
    weights = (busy[:, None] >> 2 * np.arange(n) & 1).sum(axis=1)
    order = np.flatnonzero(busy)
    order = order[np.argsort(-weights[order], kind="stable")].tolist()
    codes = codes.tolist()
    term_masks = set(masks) - {0}
    bases: list[int] = []
    covered: list[list[int]] = []
    first: dict[int, int] = {}
    for pos, i in enumerate(order):
        code, mask = codes[i], masks[i]
        k = first.get(code)
        if k is not None:
            covered[k].append(i)
            continue
        if mask != full:  # else no free slot is left for a later code to fill
            for j in order[pos + 1 :]:
                if (code ^ codes[j]) & mask & masks[j] == 0:
                    code |= codes[j]
                    mask |= masks[j]
                    if mask == full:
                        break
        setting = code | x_fill & ~mask
        k = len(bases)
        for m in term_masks:
            first.setdefault(setting & m, k)
        bases.append(setting)
        covered.append([i])
    return bases, covered


def group_settings(terms) -> list[MeasurementSetting]:
    """Greedy covering of non-identity terms by product measurement settings.

    Terms are processed with fewer identity slots first. Each joins the first
    compatible existing setting; otherwise it opens a new setting whose free
    (identity) slots are filled by merging the remaining compatible terms in
    order, then padded with X. Every non-identity term ends up covered by
    exactly one setting. The grouping is :func:`estimate_witness`'s, on the
    terms' packed codes.
    """
    codes, n = _codes_of([t.string for t in terms])
    bases, covered = _group(codes, n)
    return [MeasurementSetting(bases=b, covered_terms=tuple(c)) for b, c in zip(_names(bases, n), covered)]


def _setting_probabilities(state: np.ndarray, bases) -> np.ndarray:
    """Born probabilities of the 2^n product-basis outcomes of each setting, outcome bit 0 <-> +1.

    Row k belongs to ``bases[k]``, a setting's packed code. Its outcome
    projector is the product over qubits q of (I +- P_q)/2, so with
    r[S] = Tr[state P_{k & mask_S}] over the 2^n subsets S of the qubits, the
    row is H^n r / 2^n, H the +-1 Walsh-Hadamard matrix. Every Tr[P state] is
    read off one gather (:func:`_traces`), each setting gathers its 2^n
    sub-codes, and n butterfly stages, (a + b, a - b) on qubit 0 first, then
    qubit 1 and so on, apply H^n. No BLAS call is made and the butterfly fixes
    every sum's order, so row k is bitwise the row of ``bases[k:k+1]`` alone
    and a setting's probabilities do not depend on which other settings a
    witness needs. Every probability <= ``ZERO_CUTOFF`` is set to 0, so an
    outcome the state cannot produce is exactly 0 whatever the rounding. Each
    probability lies within 8 eps of the three-operand einsum over the product
    eigenbases (``tests/test_measure.py::einsum_probabilities``), and
    numpy's BTPE binomial takes floor((n + 1) p), so one ulp of a
    small-denominator rational p can move a count.
    """
    n = state.shape[0].bit_length() - 1
    tables = _pauli_tables(n)
    traces = _traces(state, tables).real
    terms = traces[np.asarray(bases)[:, None] & tables.masks]  # [setting, subset]
    half = 2 ** (n - 1)
    for _ in range(n):
        # (a + b, a - b) on the leading bit, which then moves last: the n stages take
        # qubits 0, 1, ... in turn and leave every bit in its place
        a, b = terms[:, :half], terms[:, half:]
        terms = np.empty_like(terms)
        pairs = terms.reshape(len(terms), half, 2)
        np.add(a, b, out=pairs[:, :, 0])
        np.subtract(a, b, out=pairs[:, :, 1])
    probs = terms / 2**n
    probs[probs <= ZERO_CUTOFF] = 0.0
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
    shots = _as_int(shots_per_setting, "shots_per_setting")
    seed = _as_seed(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    state = _check_state(choi.matrix, n)
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots_per_setting must be >= 1 and at most {MAX_SHOTS}, got {shots}")
    codes, coeffs = _expand(np.asarray(w.operator, dtype=complex), n)
    bases, covered = _group(codes, n)
    value = float(coeffs[0]) if codes.size and codes[0] == 0 else 0.0  # the identity's coefficient
    variance = 0.0
    if bases:
        probs = _setting_probabilities(state, bases)
        # [setting, outcome] counts in one call on the whole array: setting k's are its k-th
        # multinomial draw of the one stream seed, setting 0's what the stream [seed, 0] drew,
        # and a draw that moves shifts every later one
        counts = np.random.default_rng(seed).multinomial(shots, probs)
        # [term, outcome] signed coefficients; one more term, 0.0 * identity, pads every setting to the widest
        signed = np.append(coeffs, 0.0)[:, None] * _pauli_tables(n).signs[np.append(codes, 0)]
        # [slot, setting, outcome] signed coefficients of each setting's slot-th term, gathered at once
        slots = chain.from_iterable(zip_longest(*covered, fillvalue=codes.size))
        terms = np.take(signed, list(slots), axis=0).reshape(-1, *counts.shape)
        # [setting, outcome] values, each adding its setting's terms left to right; slot 0 is never
        # padding and its coefficient is nonzero, so starting there is starting from 0.0
        v = terms[0]
        for term in terms[1:]:
            v += term
        # per setting, count * v and count * v * v summed over outcomes by an accumulate, which
        # adds left to right; a zero count adds +-0.0, which changes no sum
        weighted = counts * v
        mean_acc = np.cumsum(weighted, axis=1)[:, -1]
        sq_acc = np.cumsum(weighted * v, axis=1)[:, -1]
        # a Python loop, not numpy: mean**2 of a Python float is libm pow, which can differ from
        # numpy's mean * mean by one ulp, and a numpy form of the variance moved std_error by one
        # ulp on an 81-setting NPT witness at 3 shots
        for m_acc, s_acc in zip(mean_acc.tolist(), sq_acc.tolist()):
            mean = m_acc / shots
            value += mean
            if shots > 1:
                # when all its shots land on one outcome, rounding can take a setting's variance below 0
                sample_var = max((s_acc / shots - mean**2) * shots / (shots - 1), 0.0)
                variance += sample_var / shots
    return ShotEstimate(
        value=float(value),
        std_error=float(np.sqrt(variance)),
        shots_per_setting=shots,
        seed=seed,
        setting_count=len(bases),
    )
