"""Detection of NPT maps on bipartite systems, read off the Choi matrix.

A CP map M on two qudits is PPT when the transpose-conjugated composite
T_A o M o T_A is still CP, i.e. when its Choi matrix stays positive. The
witness here is the partial transpose of the projector onto the most negative
eigenvector of that Choi matrix, measured on the Choi state of the physically
implementable composite M o SPA(T_A). SPA(T_A) is the structural physical
approximation of the partial transpose (Horodecki & Ekert, PRL 89, 127902
(2002)): the partial transpose plus the minimal depolarizing noise that makes
it CP. Both Choi matrices are closed forms in M's Choi matrix, whose
subsystems are ordered (A out, B out, A anc, B anc).
"""

from dataclasses import dataclass

import numpy as np

from .channels import (
    UNITAL_ATOL,
    Channel,
    ChoiMatrix,
    ValidationError,
    identity_channel,
    kraus_from_choi,
)
from .detect import VERDICT_MARGIN, Witness
from .qmath import partial_trace, partial_transpose

NEGATIVITY_ATOL = 1e-10
DEGENERACY_ATOL = 1e-10
CROSS_CHECK_ATOL = 1e-10

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


def ppt_conjugate(ch: Channel) -> ChoiMatrix:
    """Choi matrix of T_A o ch o T_A (Hermitian, possibly non-PSD).

    It is ch's Choi matrix with A's output and ancilla (subsystems 0 and 2) transposed.
    """
    _require_square_pair(ch)
    c = ch.choi
    return ChoiMatrix(partial_transpose(c.matrix, c.dims, (0, 2)), c.dims, c.source_dims)


def spa_noise_weight(d: int) -> float:
    """Minimal depolarizing weight making the partial transpose CP: d^3/(d^3+1)."""
    d = int(d)
    return d**3 / (d**3 + 1.0)


def spa_composite(ch: Channel, noise: float) -> ChoiMatrix:
    """Choi state of ch o [(1-noise) * T_A + noise * (depolarize to Id/D)] on dims [d, d].

    T_A on the input transposes the A ancilla; the depolarizing part adds
    M(Id/D) kron Id/D, where M(Id/D) is the Choi matrix with the ancillas traced out.
    """
    _require_square_pair(ch)
    c = ch.choi
    m_of_id = partial_trace(c.matrix, c.dims, keep=(0, 1))
    mat = (1.0 - noise) * partial_transpose(c.matrix, c.dims, 2)
    mat += noise * np.kron(m_of_id, np.eye(ch.dim) / ch.dim)
    return ChoiMatrix(mat, c.dims, c.source_dims)


def spa_transpose(d: int) -> Channel:
    """Structural physical approximation of the partial transpose, as a CP-TP channel."""
    d = int(d)
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    choi = spa_composite(identity_channel((d, d)), spa_noise_weight(d))
    return kraus_from_choi(choi, require_tp=True)


def _negative_eigenpair(w: np.ndarray, v: np.ndarray):
    """From eigh's output: lambda_-, a unit vector of its eigenspace, and whether it is degenerate.

    The eigensolver's basis of a degenerate eigenspace is arbitrary, so there
    the vector is the normalized projection of (1, 2, ..., N)/N onto the space.
    """
    lam = float(w[0])
    block = v[:, w - lam <= DEGENERACY_ATOL]
    if block.shape[1] == 1:
        return lam, block[:, 0], False
    x = block @ (block.conj().T @ (np.arange(1, w.size + 1) / w.size))
    return lam, x / np.linalg.norm(x), True


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

    Reads everything off the channel's Choi matrix: the Choi state of the
    physically realizable composite ch o SPA(T_A) (:func:`spa_composite`), the
    witness expectation on it, and the two-term split (1-p) * transpose-part +
    p * noise-part that cross-checks it. When ``witness`` is None it is
    derived from the same transpose conjugate that gives lambda_-; channels
    whose transpose conjugate is already positive then come back
    ``not_detected`` with a diagnostic note.
    """
    d = _require_square_pair(ch)
    dim = ch.dim
    m_of_id = partial_trace(ch.choi.matrix, ch.choi.dims, keep=(0, 1))
    unital = float(np.max(np.abs(dim * m_of_id - np.eye(dim)))) <= UNITAL_ATOL
    p = spa_noise_weight(d)
    threshold = p / d**4 if unital else 0.0
    choi_mt = ppt_conjugate(ch)
    lam, vector, degenerate = _negative_eigenpair(*np.linalg.eigh(choi_mt.matrix))

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
                    "transpose-conjugated Choi matrix is positive (min eigenvalue >= "
                    f"-{NEGATIVITY_ATOL:g}); witness unavailable"
                ),
            )
        # the partial transpose acts on the first output qudit of the Choi space
        op = partial_transpose(np.outer(vector, vector.conj()), choi_mt.dims, 0)
        witness = Witness(operator=(op + op.conj().T) / 2, kind="ppt", dims=choi_mt.dims)
        if degenerate:
            note = (
                "most negative eigenvalue is degenerate; witness uses the projection of "
                "(1, 2, ..., N)/N onto its eigenspace"
            )
    elif witness.dims != choi_mt.dims:
        raise ValueError(f"witness dims {witness.dims} do not match Choi dims {choi_mt.dims}")

    choi_comp = spa_composite(ch, p)
    expectation = float(np.real(np.trace(witness.operator @ choi_comp.matrix)))

    # Two-term split: the witness is proj^{T_A}, so traces against partially
    # transposed states turn into plain projector overlaps.
    proj = partial_transpose(witness.operator, witness.dims, 0)
    term_transpose = float(np.real(np.trace(proj @ choi_mt.matrix)))
    mt_of_id = partial_transpose(m_of_id, ch.dims, 0)
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
