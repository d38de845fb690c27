"""Finite-shot simulation of the local-measurement detection schemes.

A qubit witness is expanded in the Pauli basis, the non-identity strings are
grouped into product measurement settings (strings sharing a setting are
estimated from the same shots), and outcomes are sampled from the exact Born
distribution of the Choi state being measured.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import ChoiMatrix, ValidationError
from .detect import Witness
from .qmath import kron, pauli_string

COEFF_CUTOFF = 1e-12

# single-qubit eigenbases, columns ordered (+1 eigenvector, -1 eigenvector)
_EIGENBASIS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}


@dataclass(frozen=True)
class PauliTerm:
    string: str
    coefficient: float

    @property
    def weight(self) -> int:
        return sum(1 for ch in self.string if ch != "I")


@dataclass(frozen=True)
class MeasurementSetting:
    """One product basis (letters from XYZ per qubit) and the terms it estimates."""

    bases: str
    covered_terms: tuple[int, ...]


@dataclass(frozen=True)
class ShotEstimate:
    """Estimated witness value; ``setting_count`` settings were measured (none when exact)."""

    value: float
    std_error: float
    shots_per_setting: int
    seed: int
    setting_count: int = 0


def pauli_decompose(w: np.ndarray, tol: float = COEFF_CUTOFF) -> list[PauliTerm]:
    """Expand a Hermitian qubit operator as sum of real Pauli-string coefficients.

    Coefficients are Tr[P W] / 2^n; strings with |coefficient| <= tol are dropped.
    """
    w = np.asarray(w, dtype=complex)
    n = int(round(math.log2(w.shape[0])))
    if w.ndim != 2 or w.shape[0] != w.shape[1] or 2**n != w.shape[0]:
        raise ValueError(f"operator shape {w.shape} is not a square power of 2")
    if np.max(np.abs(w - w.conj().T)) > 1e-10:
        raise ValueError("operator is not Hermitian; Pauli coefficients would be complex")
    terms = []
    for letters in itertools.product("IXYZ", repeat=n):
        s = "".join(letters)
        coeff = complex(np.trace(pauli_string(s) @ w)) / 2**n
        if abs(coeff.imag) > COEFF_CUTOFF:
            raise ValueError(f"coefficient of {s} has imaginary part {coeff.imag:.3e}")
        if abs(coeff.real) > tol:
            terms.append(PauliTerm(string=s, coefficient=float(coeff.real)))
    return terms


def _compatible(term: str, bases: str) -> bool:
    return all(t == "I" or t == b for t, b in zip(term, bases))


def group_settings(terms) -> list[MeasurementSetting]:
    """Greedy covering of non-identity terms by product measurement settings.

    Terms are processed with fewer identity slots first. Each joins the first
    compatible existing setting; otherwise it opens a new setting whose free
    (identity) slots are filled by merging the remaining compatible terms in
    order, then padded with X. Every non-identity term ends up covered by
    exactly one setting.
    """
    terms = list(terms)
    order = sorted(
        (i for i, t in enumerate(terms) if t.weight > 0),
        key=lambda i: (terms[i].string.count("I"), i),
    )
    settings: list[tuple[list[str], list[int]]] = []
    assigned: set[int] = set()
    for pos, i in enumerate(order):
        term = terms[i].string
        placed = False
        for bases, covered in settings:
            if _compatible(term, "".join(bases)):
                covered.append(i)
                placed = True
                break
        if placed:
            assigned.add(i)
            continue
        pattern: list[str | None] = [ch if ch != "I" else None for ch in term]
        for j in order[pos + 1 :]:
            if j in assigned:
                continue
            other = terms[j].string
            fits = all(
                ch == "I" or pattern[k] is None or pattern[k] == ch
                for k, ch in enumerate(other)
            )
            if fits:
                for k, ch in enumerate(other):
                    if ch != "I":
                        pattern[k] = ch
        bases = [ch if ch is not None else "X" for ch in pattern]
        settings.append((bases, [i]))
        assigned.add(i)
    return [MeasurementSetting(bases="".join(b), covered_terms=tuple(c)) for b, c in settings]


def _setting_probabilities(state: np.ndarray, bases: str) -> np.ndarray:
    """Born probabilities of the 2^n product-basis outcomes, outcome bit 0 <-> +1."""
    b = kron(*(_EIGENBASIS[ch] for ch in bases))
    probs = np.real(np.einsum("ij,jk,ki->i", b.conj().T, state, b))
    probs = np.clip(probs, 0.0, None)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"outcome probabilities sum to {total!r}; state is not normalized")
    return probs / total


def _check_state(state: np.ndarray, n: int) -> np.ndarray:
    state = np.asarray(state, dtype=complex)
    if state.shape != (2**n, 2**n):
        raise ValueError(f"state shape {state.shape} does not match {n} qubits")
    trace_dev = abs(complex(np.trace(state)).real - 1.0)
    if not (trace_dev <= 1e-9 and np.max(np.abs(state - state.conj().T)) <= 1e-9):
        raise ValidationError("state must be Hermitian with unit trace")
    if float(np.linalg.eigvalsh((state + state.conj().T) / 2)[0]) < -1e-9:
        raise ValidationError("state has a negative eigenvalue")
    return state


def simulate_counts(state: np.ndarray, setting, shots: int, seed) -> dict[tuple[int, ...], int]:
    """Sample projective outcomes for one product setting.

    Returns a histogram mapping outcome tuples (entries +1 or -1 per qubit) to
    counts. Sampling is multinomial over the exact Born distribution and
    deterministic for a fixed seed.
    """
    bases = setting.bases if isinstance(setting, MeasurementSetting) else str(setting)
    if not bases or any(ch not in "XYZ" for ch in bases):
        raise ValueError(f"invalid measurement bases {bases!r}")
    shots = int(shots)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _sample_counts(_check_state(state, len(bases)), bases, shots, rng)


def _sample_counts(state: np.ndarray, bases: str, shots: int, rng) -> dict[tuple[int, ...], int]:
    """Outcome histogram of an already validated state; see :func:`simulate_counts`."""
    n = len(bases)
    counts = rng.multinomial(shots, _setting_probabilities(state, bases))
    hist = {}
    for idx, cnt in enumerate(counts):
        if cnt == 0:
            continue
        bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
        hist[tuple(1 - 2 * b for b in bits)] = int(cnt)
    return hist


def _term_sign(outcome: tuple[int, ...], string: str) -> int:
    sign = 1
    for o, ch in zip(outcome, string):
        if ch != "I":
            sign *= o
    return sign


def estimate_witness(choi: ChoiMatrix, w: Witness, shots_per_setting: int, seed: int = 0) -> ShotEstimate:
    """Estimate Tr[W * choi] from simulated local measurements on the Choi state.

    The state is validated (Hermitian, unit trace, positive semidefinite) once,
    before any setting is sampled. ``shots_per_setting == 0`` selects exact
    evaluation (a degenerate estimate with zero standard error). Terms sharing
    a setting are evaluated from the same shots, and their covariance enters
    the standard error through the per-shot sample variance of the combined
    value.
    """
    if any(d != 2 for d in choi.dims):
        raise ValueError(f"shot simulation needs qubit subsystems, got dims {choi.dims}")
    if w.dims != choi.dims:
        raise ValueError(f"witness dims {w.dims} do not match Choi dims {choi.dims}")
    shots = int(shots_per_setting)
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if shots < 0:
        raise ValueError("shots_per_setting must be non-negative")
    n = len(choi.dims)
    state = _check_state(choi.matrix, n)
    if shots == 0:
        exact = float(np.real(np.trace(w.operator @ state)))
        return ShotEstimate(value=exact, std_error=0.0, shots_per_setting=0, seed=seed)

    terms = pauli_decompose(w.operator)
    settings = group_settings(terms)
    identity = "I" * n
    value = sum(t.coefficient for t in terms if t.string == identity)
    variance = 0.0
    for k, setting in enumerate(settings):
        rng = np.random.default_rng([seed, k])
        hist = _sample_counts(state, setting.bases, shots, rng)
        mean_acc = 0.0
        sq_acc = 0.0
        for outcome, cnt in hist.items():
            v = sum(
                terms[i].coefficient * _term_sign(outcome, terms[i].string)
                for i in setting.covered_terms
            )
            mean_acc += cnt * v
            sq_acc += cnt * v * v
        mean = mean_acc / shots
        value += mean
        if shots > 1:
            sample_var = (sq_acc / shots - mean**2) * shots / (shots - 1)
            variance += sample_var / shots
    return ShotEstimate(
        value=float(value),
        std_error=float(np.sqrt(variance)),
        shots_per_setting=shots,
        seed=seed,
        setting_count=len(settings),
    )
