"""Random ensembles and reference helpers shared by the test files; no command reaches them.

Separable random unitary mixtures are PPT by construction (a partial transpose
of the product Kraus operators only conjugates the A-side unitaries), so
:func:`random_sru_channel` draws PPT channels. The reference helpers restate
the package's conventions by independent means for the tests to check against.
"""

import math

import numpy as np

from chandet import detect
from chandet.channels import ATOL, SWEEP_TOL, Channel, sru_channel
from chandet.qmath import PAULI, dag, haar_unitary, kron

CNOT = np.eye(4, dtype=complex)
CNOT[2:, 2:] = PAULI["X"]


def random_ket(d: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density_matrix(d: int, seed, rank: int | None = None) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_channel(dims, seed, kraus_count: int | None = None) -> Channel:
    """Random CP-TP channel: Gaussian Kraus operators whitened to satisfy TP."""
    d = math.prod(dims)
    rng = np.random.default_rng(seed)
    count = kraus_count or int(rng.integers(1, d * d + 1))
    gs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(count)]
    total = sum(g.conj().T @ g for g in gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Channel([g @ inv_sqrt for g in gs], dims)


def random_sru_channel(dims=(2, 2), seed=0, max_terms: int = 8) -> Channel:
    """Mixture of up to ``max_terms`` Haar product unitaries with uniform-simplex weights."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_terms + 1))
    probs = rng.dirichlet(np.ones(n))
    va = [haar_unitary(dims[0], rng) for _ in range(n)]
    wb = [haar_unitary(dims[1], rng) for _ in range(n)]
    return sru_channel(probs, va, wb, dims)


def random_separable_state(dims=(2, 2), seed=0, max_terms: int = 8) -> np.ndarray:
    """Mixture of product pure states, hence separable across the bipartition."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, max_terms + 1))
    probs = rng.dirichlet(np.ones(n))
    rho = np.zeros((math.prod(dims), math.prod(dims)), dtype=complex)
    for p in probs:
        ket = kron(
            random_ket(dims[0], rng).reshape(-1, 1), random_ket(dims[1], rng).reshape(-1, 1)
        ).reshape(-1)
        rho += p * np.outer(ket, ket.conj())
    return rho


def max_entangled(d: int) -> np.ndarray:
    """Maximally entangled bipartite state (1/sqrt(d)) sum_k |k>|k> as a flat vector."""
    d = int(d)
    if d < 2:
        raise ValueError(f"maximally entangled state needs dimension >= 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return v


def product_overlap(u: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> float:
    """|<ua kron ub | u>| = |Tr[(ua kron ub)^dag u]| / (da*db) on Choi vectors."""
    da, db = ua.shape[0], ub.shape[0]
    return float(abs(np.trace(dag(np.kron(ua, ub)) @ u))) / (da * db)


def einsum_ascent(u, da, db, ub0, record=None):
    """Reference for ``detect._alternating_ascent``: the same climbs, partial traces by ``einsum``.

    Every sweep takes both partial traces of the live starts by one ``einsum``
    each and gathers and scatters the starts through a boolean mask, so the
    sums run in another order than the package's matrix products. Reads
    ``detect.MAX_SWEEPS`` at call time, so a test can lower the cap.
    """
    u4 = u.reshape(da, db, da, db)
    n = ub0.shape[0]
    ub = np.array(ub0, dtype=complex)
    ua = np.empty((n, da, da), dtype=complex)
    val = np.full(n, -1.0)
    live = np.ones(n, dtype=bool)
    for _ in range(detect.MAX_SWEEPS):
        w, _, vh = np.linalg.svd(np.einsum("kcb,acdb->kad", ub[live].conj(), u4))
        ua[live] = w @ vh
        w, s, vh = np.linalg.svd(np.einsum("kca,cbae->kbe", ua[live].conj(), u4))
        ub[live] = w @ vh
        prev, val[live] = val[live], s.sum(axis=1) / (da * db)
        if record is not None:
            record.append(np.where(live, val, np.nan))
        live[live] = val[live] - prev >= SWEEP_TOL
        if not live.any():
            break
    return val, ua, ub


def weyl_operators_matrix_power(d: int) -> list:
    """Reference for ``channels._weyl_operators``: each X^a Z^b as a product of two ``matrix_power`` calls."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    clock = np.diag(omega ** np.arange(d))
    return [
        np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b)
        for a in range(d)
        for b in range(d)
        if (a, b) != (0, 0)
    ]


def matrix_to_pairs(m) -> list:
    """The [re, im] nest of complex ``m``, as a channel spec gives a matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1).tolist()


def kraus_to_choi_loop(kraus, dim: int) -> np.ndarray:
    """Reference for ``Channel.choi``: one ``np.outer`` of vec A_k per Kraus operator, summed, over D."""
    c = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in kraus:
        w = np.asarray(a).reshape(-1)  # row-major: w[i*dim + m] = A[i, m]
        c += np.outer(w, w.conj())
    return c / dim


def superoperator(choi):
    """Superoperator on column-stacked matrices, reshuffled from a trace-normalized Choi matrix."""
    d = int(round(np.sqrt(choi.shape[0])))
    return choi.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d) * d


def choi_of_superoperator(s):
    """Inverse reshuffle of :func:`superoperator`: the trace-normalized Choi matrix."""
    d = int(round(np.sqrt(s.shape[0])))
    return s.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d) / d


def kraus_from_choi(choi, dims, require_tp=False):
    """Channel of the eigen-Kraus operators sqrt(lambda * D) * reshape(v) of a PSD Choi matrix."""
    d = choi.shape[0] // int(np.prod(dims))
    w, v = np.linalg.eigh(choi)
    kraus = [np.sqrt(lam * d) * v[:, k].reshape(d, d) for k, lam in enumerate(w) if lam > 1e-10]
    return Channel(kraus, dims, require_tp=require_tp)


def permute_subsystems(m, dims, perm):
    """Reorder the subsystems of ``m`` so that subsystem k of the result is ``perm[k]``."""
    n = len(dims)
    axes = list(perm) + [p + n for p in perm]
    return m.reshape(list(dims) * 2).transpose(axes).reshape(m.shape)


def operator_schmidt_loop(o, da: int, db: int) -> detect.SchmidtDecomposition:
    """Reference for ``detect.operator_schmidt``: the same SVD, then one term at a time, factors as tuples."""
    o = np.asarray(o, dtype=complex)
    realigned = o.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    u, sv, vh = np.linalg.svd(realigned)
    sigmas = sv / np.sqrt(da * db)
    rank = int(np.sum(sigmas > detect.ZERO_CUTOFF))
    if not rank:
        raise ValueError(f"operator has no Schmidt coefficient above {detect.ZERO_CUTOFF:g}")
    a_factors, b_factors = [], []
    for i in range(rank):
        a = np.sqrt(da) * u[:, i].reshape(da, da)
        b = np.sqrt(db) * vh[i, :].reshape(db, db)
        flat = a.reshape(-1)
        nz = np.flatnonzero(np.abs(flat) > detect.ZERO_CUTOFF)
        if nz.size:
            phase = flat[nz[0]] / abs(flat[nz[0]])
            a = a / phase
            b = b * phase
        a_factors.append(a)
        b_factors.append(b)
    return detect.SchmidtDecomposition(sigmas[:rank], tuple(a_factors), tuple(b_factors), rank, (da, db))


def reconstruct(sd):
    """The operator sum_i sigma_i A_i kron B_i of operator Schmidt data ``sd``."""
    return sum(s * np.kron(a, b) for s, a, b in zip(sd.sigmas, sd.a_factors, sd.b_factors))


def apply(ch, rho):
    """The channel's action sum_k A_k rho A_k^dag on ``rho``."""
    rho = np.asarray(rho, dtype=complex)
    return sum(a @ rho @ dag(a) for a in ch.kraus)


def is_unital(ch):
    """sum_k A_k A_k^dag = Id within ATOL."""
    deficit = sum(a @ dag(a) for a in ch.kraus) - np.eye(ch.dim)
    return float(np.max(np.abs(deficit))) <= ATOL
