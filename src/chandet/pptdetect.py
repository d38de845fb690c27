"""Detection of NPT maps on bipartite systems.

A CP map M on two qudits is PPT when the transpose-conjugated composite
T_A o M o T_A is still CP, i.e. when its Choi matrix stays positive. The
witness here is the partial transpose of the projector onto the most negative
eigenvector of that Choi matrix, measured on the Choi state of the physically
implementable composite M o SPA(T_A). SPA(T_A) is the structural physical
approximation of the partial transpose (Horodecki & Ekert, PRL 89, 127902
(2002)): the partial transpose plus the minimal depolarizing noise that makes
it CP.
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    UNITAL_ATOL,
    Channel,
    ChoiMatrix,
    ValidationError,
    compose,
    kraus_from_choi,
    superoperator_to_choi,
    transpose_superoperator,
    unvec,
    vec,
)
from .detect import Witness
from .qmath import partial_transpose

NEGATIVITY_ATOL = 1e-10
DEGENERACY_ATOL = 1e-10
CROSS_CHECK_ATOL = 1e-10
VERDICT_MARGIN = 1e-12

NPT_DETECTED = "npt_detected"
NOT_DETECTED = "not_detected"


class PptUndetectableError(ValueError):
    """The transpose-conjugated Choi matrix has no negative eigenvalue."""


@dataclass(frozen=True)
class NptReport:
    """Outcome of the NPT detection pipeline for one channel.

    ``threshold`` is p/d^4 when the channel is unital (the noise floor of the
    physical transpose approximation) and 0 otherwise; ``expectation`` is None
    when no witness could be built and none was supplied. ``witness`` and
    ``composite`` (the Choi state of ch o SPA(T_A) it was measured on) are
    None in the same case.
    """

    lambda_minus: float
    expectation: float | None
    noise_p: float
    threshold: float
    unital: bool
    verdict: str
    term_transpose: float | None = None
    term_noise_mt: float | None = None
    term_noise_m: float | None = None
    degenerate: bool = False
    note: str | None = None
    witness: Witness | None = None
    composite: ChoiMatrix | None = None


def _require_square_pair(ch: Channel) -> int:
    if len(ch.dims) != 2 or ch.dims[0] != ch.dims[1]:
        raise ValueError(f"NPT detection needs dims [d, d], got {list(ch.dims)}")
    return ch.dims[0]


def ppt_conjugate(ch: Channel):
    """Superoperator and Choi matrix of T_A o ch o T_A (Hermitian, possibly non-PSD)."""
    _require_square_pair(ch)
    s_ta = transpose_superoperator(ch.dims, 0)
    s = s_ta @ ch.superoperator @ s_ta
    return s, superoperator_to_choi(s, ch.dims)


def spa_noise_weight(d: int) -> float:
    """Minimal depolarizing weight making the partial transpose CP: d^3/(d^3+1)."""
    d = int(d)
    return d**3 / (d**3 + 1.0)


def spa_superoperator(d: int, noise: float) -> np.ndarray:
    """Superoperator of (1-noise) * T_A + noise * (depolarize to Id/d^2) on dims [d, d].

    The depolarizing part rho -> Tr[rho] Id/D is vec(Id/D) vec(Id)^T.
    """
    d = int(d)
    eye = np.eye(d * d)
    s_ta = transpose_superoperator((d, d), 0)
    return (1.0 - noise) * s_ta + noise * np.outer(vec(eye / (d * d)), vec(eye))


def spa_transpose(d: int) -> Channel:
    """Structural physical approximation of the partial transpose, as a CP-TP channel."""
    d = int(d)
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    p = spa_noise_weight(d)
    choi = superoperator_to_choi(spa_superoperator(d, p), (d, d))
    return kraus_from_choi(choi, require_tp=True)


def _negative_eigenpair(choi: ChoiMatrix):
    w, v = np.linalg.eigh(choi.matrix)
    lam = float(w[0])
    degenerate = w.size > 1 and float(w[1]) - lam <= DEGENERACY_ATOL
    return lam, v[:, 0], degenerate


def ppt_witness(ch: Channel):
    """Witness |lambda_-><lambda_-|^{T_A} that :func:`detect_npt` derives for ``ch``.

    Returns ``(witness, lambda_minus)``; raises :class:`PptUndetectableError`
    when the channel is PPT and no such witness exists.
    """
    report = detect_npt(ch)
    if report.witness is None:
        raise PptUndetectableError(report.note)
    return report.witness, report.lambda_minus


def detect_npt(ch: Channel, witness: Witness | None = None) -> NptReport:
    """Run the full NPT detection pipeline on a CP channel acting on dims [d, d].

    Builds the Choi state of the physically realizable composite ch o SPA(T_A)
    once, from the closed-form SPA superoperator, measures the witness on it,
    and cross-checks the result against the two-term split
    (1-p) * transpose-part + p * noise-part. When ``witness`` is None it is
    derived from the same transpose conjugate that gives lambda_-; channels
    whose transpose conjugate is already positive then come back
    ``not_detected`` with a diagnostic note.
    """
    d = _require_square_pair(ch)
    unital = float(np.max(np.abs(ch.unital_deficit()))) <= UNITAL_ATOL
    p = spa_noise_weight(d)
    threshold = p / d**4 if unital else 0.0
    s_mt, choi_mt = ppt_conjugate(ch)
    lam, vector, degenerate = _negative_eigenpair(choi_mt)

    note = None
    if witness is None:
        if lam >= -NEGATIVITY_ATOL:
            return NptReport(
                lambda_minus=lam,
                expectation=None,
                noise_p=p,
                threshold=threshold,
                unital=unital,
                verdict=NOT_DETECTED,
                degenerate=degenerate,
                note=(
                    f"transpose-conjugated Choi matrix is positive (min eigenvalue {lam:.6g}); "
                    "witness unavailable"
                ),
            )
        # the partial transpose acts on the first output qudit of the Choi space
        op = partial_transpose(np.outer(vector, vector.conj()), choi_mt.dims, 0)
        witness = Witness(operator=(op + op.conj().T) / 2, kind="ppt", dims=choi_mt.dims)
        if degenerate:
            note = "most negative eigenvalue is degenerate; witness uses the first eigenvector"
    elif witness.dims != choi_mt.dims:
        raise ValueError(f"witness dims {witness.dims} do not match Choi dims {choi_mt.dims}")

    dim = ch.dim
    choi_comp = superoperator_to_choi(compose(ch, spa_superoperator(d, p)), ch.dims)
    expectation = float(np.real(np.trace(witness.operator @ choi_comp.matrix)))

    # Two-term split: the witness is proj^{T_A}, so traces against partially
    # transposed states turn into plain projector overlaps.
    proj = partial_transpose(witness.operator, witness.dims, 0)
    term_transpose = float(np.real(np.trace(proj @ choi_mt.matrix)))
    mt_of_id = unvec(s_mt @ vec(np.eye(dim, dtype=complex) / dim))
    m_of_id = ch(np.eye(dim, dtype=complex) / dim)
    eye_anc = np.eye(dim) / dim
    term_noise_mt = float(np.real(np.trace(proj @ np.kron(mt_of_id, eye_anc))))
    term_noise_m = float(np.real(np.trace(proj @ np.kron(m_of_id, eye_anc))))
    split = (1.0 - p) * term_transpose + p * term_noise_mt
    if not abs(expectation - split) <= CROSS_CHECK_ATOL:
        raise ValidationError(
            f"two-term split {split!r} disagrees with direct expectation {expectation!r}"
        )

    verdict = NPT_DETECTED if expectation < threshold - VERDICT_MARGIN else NOT_DETECTED
    return NptReport(
        lambda_minus=lam,
        expectation=expectation,
        noise_p=p,
        threshold=threshold,
        unital=unital,
        verdict=verdict,
        term_transpose=term_transpose,
        term_noise_mt=term_noise_mt,
        term_noise_m=term_noise_m,
        degenerate=degenerate,
        note=note,
        witness=witness,
        composite=choi_comp,
    )
