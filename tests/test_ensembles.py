import numpy as np

from chandet.channels import ATOL
from chandet.pptdetect import ppt_conjugate
from support import random_channel, random_density_matrix, random_separable_state, random_sru_channel


def test_random_channel_is_cptp():
    for seed in range(10):
        ch = random_channel([2, 2] if seed % 2 else [3], seed)
        assert np.linalg.eigvalsh(ch.choi.matrix)[0] >= -ATOL
        assert np.max(np.abs(ch.tp_deficit())) <= ATOL


def test_random_density_matrix():
    rho = random_density_matrix(4, 0)
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho)[0] >= -1e-12


def test_random_sru_channel_term_count():
    counts = set()
    for seed in range(30):
        ch = random_sru_channel((2, 2), seed=seed)
        counts.add(len(ch.kraus))
        assert np.max(np.abs(ch.tp_deficit())) <= ATOL
    assert counts <= set(range(1, 9)) and len(counts) > 3


def test_random_ppt_channel_transpose_conjugate_is_positive():
    for seed in range(10):
        ch = random_sru_channel((2, 2), seed=seed)
        choi = ppt_conjugate(ch)
        assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10


def test_random_separable_state_is_state():
    for seed in range(10):
        rho = random_separable_state((2, 2), seed=seed)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-12
        # separable two-qubit states are PPT
        from chandet.qmath import partial_transpose

        assert np.linalg.eigvalsh(partial_transpose(rho, [2, 2], 0))[0] >= -1e-10


def test_seed_determinism():
    a = random_sru_channel((2, 2), seed=5)
    b = random_sru_channel((2, 2), seed=5)
    np.testing.assert_array_equal(a.choi.matrix, b.choi.matrix)
