"""Random ensembles for soundness and round-trip checks.

Separable random unitary mixtures are PPT by construction (conjugating the
product Kraus operators by a partial transpose only conjugates the A-side
unitaries), so :func:`random_sru_channel` draws PPT channels.
"""

import math

import numpy as np

from .channels import Channel, sru_channel
from .qmath import as_rng, haar_unitary, kron, _as_dims


def random_ket(d: int, seed) -> np.ndarray:
    rng = as_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density_matrix(d: int, seed, rank: int | None = None) -> np.ndarray:
    rng = as_rng(seed)
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_channel(dims, seed, kraus_count: int | None = None) -> Channel:
    """Random CP-TP channel: Gaussian Kraus operators whitened to satisfy TP."""
    dims = _as_dims(dims)
    d = math.prod(dims)
    rng = as_rng(seed)
    count = kraus_count or int(rng.integers(1, d * d + 1))
    gs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(count)]
    total = sum(g.conj().T @ g for g in gs)
    w, v = np.linalg.eigh(total)
    inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return Channel([g @ inv_sqrt for g in gs], dims)


def random_sru_channel(dims=(2, 2), seed=0, max_terms: int = 8) -> Channel:
    """Mixture of up to ``max_terms`` Haar product unitaries with uniform-simplex weights."""
    dims = _as_dims(dims)
    rng = as_rng(seed)
    n = int(rng.integers(1, max_terms + 1))
    probs = rng.dirichlet(np.ones(n))
    va = [haar_unitary(dims[0], rng) for _ in range(n)]
    wb = [haar_unitary(dims[1], rng) for _ in range(n)]
    return sru_channel(probs, va, wb, dims)


def random_separable_state(dims=(2, 2), seed=0, max_terms: int = 8) -> np.ndarray:
    """Mixture of product pure states, hence separable across the bipartition."""
    dims = _as_dims(dims)
    rng = as_rng(seed)
    n = int(rng.integers(1, max_terms + 1))
    probs = rng.dirichlet(np.ones(n))
    rho = np.zeros((math.prod(dims), math.prod(dims)), dtype=complex)
    for p in probs:
        ket = kron(
            random_ket(dims[0], rng).reshape(-1, 1), random_ket(dims[1], rng).reshape(-1, 1)
        ).reshape(-1)
        rho += p * np.outer(ket, ket.conj())
    return rho
