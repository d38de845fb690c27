"""Detection of NPT maps on bipartite systems, read off the Choi matrix.

A CP map M on a bipartite system [d_A, d_B] is PPT when the transpose-conjugated
composite T_A o M o T_A is still CP, i.e. when its Choi matrix stays positive.
Both factors must be at least 2, the package's one two-party rule
(``qmath._require_bipartite``), which SRU detection shares. The witness here is
W = (|v><v|)^{T_A}, the partial transpose of the projector onto the most
negative eigenvector v of that Choi matrix, measured on the Choi state of the
physically implementable composite M o SPA(T_A). W is carried as v, and every
exact number is read off v, as Tr[W X] = <v|X^{T_A}|v>: no D^2 x D^2
projector or witness is formed unless the Pauli layer measures it
(``NptReport.witness``). Only that one eigenpair is computed: lambda_- from
one ``eigvalsh`` and, when v is derived here and lambda_- is simple, v from
one inverse-iteration solve (Ipsen, SIAM Rev. 39, 254 (1997)), retried once
just below an exactly singular shift and checked by its residual; only a
degenerate lambda_- runs a full ``eigh``, and a supplied v needs no
eigenvector at all. SPA(T_A) is the structural physical approximation of the
partial transpose (Horodecki & Ekert, PRL 89, 127902 (2002)): the partial
transpose plus the minimal depolarizing noise that makes it CP. Both Choi
matrices are closed forms in M's Choi matrix, whose subsystems are ordered
(A out, B out, A anc, B anc).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .channels import ATOL, Channel, ChoiMatrix, ValidationError, _frozen
from .detect import VERDICTS, Witness, decide
from .qmath import partial_trace, partial_transpose, _require_bipartite


@dataclass(frozen=True, eq=False, kw_only=True)
class NptReport:
    """Outcome of the NPT detection pipeline for one channel.

    ``threshold`` is p/D^2, D = d_A d_B, when the channel is unital (the noise
    floor of the physical transpose approximation) and 0 otherwise;
    ``expectation`` is None when no witness could be built and none was
    supplied. ``vector``, the read-only unit vector v of the witness
    (|v><v|)^{T_A}, and ``composite`` (the Choi state of ch o SPA(T_A) it was
    measured on) are None in the same case. The fields before them are the
    report's results, in report order. The dense witness is ``witness``,
    built from ``vector`` on first read.
    """

    lambda_minus: float
    noise_p: float
    unital: bool
    threshold: float
    expectation: float | None
    term_transpose: float | None = None
    term_noise_mt: float | None = None
    term_noise_m: float | None = None
    degenerate: bool = False
    verdict: str
    note: str | None = None
    vector: np.ndarray | None = None
    composite: ChoiMatrix | None = None

    @functools.cached_property
    def witness(self) -> Witness | None:
        """The dense witness (|v><v|)^{T_A}, v = ``vector``, for the Pauli layer; built on first read, then kept."""
        return None if self.vector is None else _ppt_witness(self.vector, self.composite.dims)


def _ppt_witness(vector: np.ndarray, dims: tuple[int, ...]) -> Witness:
    """The ppt witness of the unit ``vector`` on the Choi space ``dims``: its projector, transposed on A's output."""
    # the partial transpose acts on the first output qudit of the Choi space
    op = partial_transpose(np.outer(vector, vector.conj()), dims, 0)
    # numpy's complex outer product is not bitwise Hermitian, so the average moves bits and stays
    return Witness(operator=_frozen((op + op.conj().T) / 2), kind="ppt", dims=dims)


def ppt_conjugate(ch: Channel) -> ChoiMatrix:
    """Choi matrix of T_A o ch o T_A (Hermitian, possibly non-PSD).

    It is ch's Choi matrix with A's output and ancilla (subsystems 0 and 2) transposed.
    """
    _require_bipartite(ch.dims, "NPT detection")
    c = ch.choi
    return ChoiMatrix(_frozen(partial_transpose(c.matrix, c.dims, (0, 2))), c.dims, c.source_dims)


def spa_noise_weight(dims) -> float:
    """Least noise weight making T_A on [d_A, d_B] CP: d_A d_B^2/(d_A d_B^2+1), as lambda_min = -1/d_A."""
    d_a, d_b = _require_bipartite(dims, "the SPA noise weight")
    return d_a * d_b**2 / (d_a * d_b**2 + 1.0)


def spa_composite(ch: Channel, noise: float) -> ChoiMatrix:
    """Choi state of ch o [(1-noise) * T_A + noise * (depolarize to Id/D)] on dims [d_A, d_B].

    T_A on the input transposes the A ancilla; the depolarizing part adds
    M(Id/D) kron Id/D, where M(Id/D) is the Choi matrix with the ancillas traced out.
    """
    _require_bipartite(ch.dims, "NPT detection")
    c = ch.choi
    return _composite(c, partial_trace(c.matrix, c.dims, keep=(0, 1)), noise)


def _composite(c: ChoiMatrix, m_of_id: np.ndarray, noise: float) -> ChoiMatrix:
    """:func:`spa_composite` from the channel's Choi matrix ``c`` and its ancilla trace ``m_of_id`` = M(Id/D)."""
    dim = m_of_id.shape[0]
    mat = partial_transpose(c.matrix, c.dims, 2)  # a fresh array: the transposed axes are not contiguous
    mat *= 1.0 - noise
    # noise * M(Id/D) kron Id/D is M(Id/D) * noise/D on the D diagonal ancilla blocks and 0 elsewhere
    blocks = mat.reshape(dim, dim, dim, dim)
    blocks[:, range(dim), :, range(dim)] += noise * (m_of_id * (1.0 / dim))
    return ChoiMatrix(_frozen(mat), c.dims, c.source_dims)


def _transposed_form(v: np.ndarray, x: np.ndarray, d_a: int) -> complex:
    """<v|x^{T_A}|v>, T_A the transpose of the leading factor d_a of ``x``'s space, without forming x^{T_A}.

    With indices split as (a, s), x^{T_A}[(a, s), (b, t)] = x[(b, s), (a, t)],
    so the form is sum conj(v[a, s]) x[(b, s), (a, t)] v[b, t]: one
    matrix-vector product on each of the d_a block rows b of ``x``.
    """
    vb = v.reshape(d_a, -1)
    rest = vb.shape[1]
    rows = x.reshape(d_a, rest * d_a, rest)
    y = sum(rows[b] @ vb[b] for b in range(d_a))  # y[(s, a)]
    return complex(np.vdot(vb.T, y.reshape(rest, d_a)))


def _negative_eigenvector(m: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """A unit vector of the eigenspace of lambda_- = w[0] < -ATOL of the Hermitian ``m``.

    ``w`` is ``m``'s ascending ``eigvalsh`` spectrum and ``k`` the number of
    its eigenvalues within ATOL of lambda_-, the eigenspace's dimension. A
    simple lambda_- takes its vector from one inverse-iteration solve of
    (m - lambda_- I) x = b, b = (1, 2, ..., N)/N, normalized and accepted only
    when max|m x - lambda_- x| <= ATOL; a second solve runs only when that
    shift is exactly singular. The eigensolver's basis of a degenerate
    eigenspace is arbitrary, so there the vector is the normalized projection
    of b onto the space, which one solve cannot give: cluster members within
    rounding of lambda_- get amplifications that differ by orders of magnitude.
    """
    lam = float(w[0])
    b = np.arange(1, w.size + 1) / w.size
    if k > 1:
        block = np.linalg.eigh(m)[1][:, :k]
        x = block @ (block.conj().T @ b)
        return x / np.linalg.norm(x)
    # A gate with entries such as 0 and +-1 can give an exact lambda_- and an
    # exactly singular m - lambda_- I. Its retry shifts one eigvalsh error bound,
    # N eps |m|, below lambda_-, where m - shift I is positive definite.
    for shift in (lam, lam - w.size * np.finfo(float).eps * max(-lam, float(w[-1]))):
        shifted = m.copy()
        shifted.reshape(-1)[:: w.size + 1] -= shift  # m - shift I, with no identity built
        try:
            x = np.linalg.solve(shifted, b)
            break
        except np.linalg.LinAlgError as exc:
            error = exc
    else:
        raise ValidationError(f"inverse iteration at lambda_- = {lam!r} failed: {error}") from error
    x /= np.linalg.norm(x)
    residual = float(np.max(np.abs(m @ x - lam * x)))
    if not residual <= ATOL:
        raise ValidationError(f"eigenvector of lambda_- = {lam!r} has residual {residual:.3e} above {ATOL:g}")
    return x


def _unit_vector(vector, size: int) -> np.ndarray:
    """A supplied witness vector as a read-only complex copy: ``size`` finite entries, norm 1 within ATOL."""
    v = np.array(vector, dtype=complex)
    if v.shape != (size,):
        raise ValueError(f"witness vector shape {v.shape} does not match the Choi space's side {size}")
    if not np.isfinite(v).all():
        raise ValueError("witness vector has a non-finite entry")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= ATOL:
        raise ValueError(f"witness vector norm {norm!r} is not 1 within {ATOL:g}")
    return _frozen(v)


def detect_npt(ch: Channel, vector: np.ndarray | None = None) -> NptReport:
    """Run the full NPT detection pipeline on a CP channel acting on dims [d_A, d_B], both >= 2.

    Reads everything off the channel's Choi matrix: the Choi state of the
    physically realizable composite ch o SPA(T_A) (:func:`spa_composite`), the
    expectation <v|composite^{T_A}|v> of the witness (|v><v|)^{T_A} on it, and
    the two-term split (1-p) * transpose-part + p * noise-part that
    cross-checks it. When ``vector`` is None, v is the unit vector of the most
    negative eigenvalue of the same transpose conjugate that gives lambda_-;
    channels whose transpose conjugate is already positive then come back
    ``not_detected`` with a diagnostic note. A supplied ``vector`` (D^2
    finite entries, norm 1 within ATOL, else ValueError) is measured as it is.
    """
    choi_mt = ppt_conjugate(ch)  # refuses dims that are not [d_A, d_B], both >= 2
    dim = ch.dim
    if vector is not None:
        vector = _unit_vector(vector, dim * dim)
    m_of_id = partial_trace(ch.choi.matrix, ch.choi.dims, keep=(0, 1))
    unital = float(np.max(np.abs(dim * m_of_id - np.eye(dim)))) <= ATOL
    p = spa_noise_weight(ch.dims)
    spectrum = np.linalg.eigvalsh(choi_mt.matrix)
    lam = float(spectrum[0])
    k = int(np.count_nonzero(spectrum - lam <= ATOL))  # lambda_-'s multiplicity, to ATOL
    thresholds = {"npt_detected": p / dim**2 if unital else 0.0}
    # the facts both exits report, stated once
    facts = dict(lambda_minus=lam, noise_p=p, unital=unital, threshold=thresholds["npt_detected"], degenerate=k > 1)

    note = None
    if vector is None:
        if lam >= -ATOL:
            note = f"transpose-conjugated Choi matrix is positive (min eigenvalue >= -{ATOL:g}); witness unavailable"
            # nothing was measured, so no verdict fires: the kind's default
            return NptReport(**facts, expectation=None, verdict=VERDICTS["ppt"][1], note=note)
        vector = _frozen(_negative_eigenvector(choi_mt.matrix, spectrum, k))
        if k > 1:
            note = (
                "most negative eigenvalue is degenerate; witness uses the projection of "
                "(1, 2, ..., N)/N onto its eigenspace"
            )

    choi_comp = _composite(ch.choi, m_of_id, p)
    value = _transposed_form(vector, choi_comp.matrix, ch.dims[0])
    if abs(value.imag) > ATOL:
        raise ValidationError(f"witness expectation has imaginary part {value.imag:.3e}")
    expectation = value.real

    # Two-term split: Tr[W X] = <v|X^{T_A}|v>, and the composite's transpose is
    # (1-p) choi_mt + p M(Id/D)^{T_A} kron Id/D, so the transpose term is
    # <v|choi_mt|v>; the noise terms are Tr[Tr_anc(|v><v|) X] / D, with
    # Tr_anc|v><v| = V V^dag for v reshaped to V, D x D (output, ancilla).
    term_transpose = float(np.vdot(vector, choi_mt.matrix @ vector).real)
    v_out = vector.reshape(dim, dim)
    proj_out = v_out @ v_out.conj().T
    mt_of_id = partial_transpose(m_of_id, ch.dims, 0)
    term_noise_mt = float(np.einsum("ij,ji->", proj_out, mt_of_id).real) / dim
    term_noise_m = float(np.einsum("ij,ji->", proj_out, m_of_id).real) / dim
    split = (1.0 - p) * term_transpose + p * term_noise_mt
    if not abs(expectation - split) <= ATOL:
        raise ValidationError(f"two-term split {split!r} disagrees with direct expectation {expectation!r}")

    return NptReport(
        **facts,
        expectation=expectation,
        verdict=decide("ppt", expectation, thresholds),
        term_transpose=term_transpose,
        term_noise_mt=term_noise_mt,
        term_noise_m=term_noise_m,
        note=note,
        vector=vector,
        composite=choi_comp,
    )
