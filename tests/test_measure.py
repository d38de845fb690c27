import itertools

import numpy as np
import pytest

from chandet.channels import Channel, cnot_channel, depolarizing_channel
from chandet.detect import build_sru_witness, eb_witness, evaluate_witness
from chandet.ensembles import random_density_matrix
from chandet.measure import (
    MeasurementSetting,
    PauliTerm,
    estimate_witness,
    group_settings,
    pauli_decompose,
    simulate_counts,
)
from chandet.qmath import PAULI, kron, max_entangled

I2, X = PAULI["I"], PAULI["X"]
CNOT = np.eye(4, dtype=complex)
CNOT[2:, 2:] = X

# W_CNOT = Id/2 - C_CNOT expanded over Pauli strings: the identity carries 7/16
# and these fifteen strings carry 1/16 with the signs below.
W_CNOT_SIGNED_STRINGS = {
    "IXIX": -1, "XXXI": -1, "XIXX": -1,
    "ZZIZ": -1, "ZYIY": +1, "YYXZ": +1, "YZXY": +1,
    "ZIZI": -1, "ZXZX": -1, "YXYI": +1, "YIYX": +1,
    "IZZZ": -1, "IYZY": +1, "XYYZ": +1, "XZYY": +1,
}
W_CNOT_SETTINGS = {"XXXX", "ZZZZ", "ZYZY", "YXYX", "YYXZ", "YZXY", "ZXZX", "XYYZ", "XZYY"}


def trace_coefficient(string, op):
    """Independent oracle: Tr[P op] / 2^n with P built locally."""
    mats = [PAULI[ch] for ch in string]
    p = mats[0]
    for m in mats[1:]:
        p = np.kron(p, m)
    return np.trace(p @ op) / op.shape[0]


class TestPauliDecompose:
    def test_eb_witness_terms(self):
        terms = {t.string: t.coefficient for t in pauli_decompose(eb_witness().operator)}
        assert terms == pytest.approx({"II": 0.25, "XX": -0.25, "YY": 0.25, "ZZ": -0.25})

    def test_cnot_witness_terms(self):
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        terms = {t.string: t.coefficient for t in pauli_decompose(w.operator)}
        assert len(terms) == 16
        assert terms["IIII"] == pytest.approx(7 / 16, abs=1e-12)
        for string, sign in W_CNOT_SIGNED_STRINGS.items():
            assert terms[string] == pytest.approx(sign / 16, abs=1e-12), string
            oracle = trace_coefficient(string, w.operator)
            assert abs(terms[string] - oracle) < 1e-12

    def test_detection_value_from_terms(self):
        # the tabulated coefficients must reproduce Tr[W C_CNOT] = -1/2
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        assert abs(evaluate_witness(w, cnot_channel()) + 0.5) < 1e-10

    def test_rescaled_identity(self):
        terms = pauli_decompose(np.eye(16) / 16)
        assert len(terms) == 1
        assert terms[0].string == "IIII"
        assert terms[0].coefficient == pytest.approx(1 / 16)

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        op = a + a.conj().T
        terms = pauli_decompose(op)
        rebuilt = sum(t.coefficient * _string_matrix(t.string) for t in terms)
        np.testing.assert_allclose(rebuilt, op, atol=1e-10)

    def test_rejects_non_qubit_or_non_hermitian(self):
        with pytest.raises(ValueError):
            pauli_decompose(np.eye(3))
        with pytest.raises(ValueError):
            pauli_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


def _string_matrix(string):
    return kron(*(PAULI[ch] for ch in string))


class TestGroupSettings:
    def test_cnot_witness_settings(self):
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        terms = pauli_decompose(w.operator)
        settings = group_settings(terms)
        assert len(settings) == 9
        assert {s.bases for s in settings} == W_CNOT_SETTINGS

    def test_eb_witness_settings(self):
        settings = group_settings(pauli_decompose(eb_witness().operator))
        assert sorted(s.bases for s in settings) == ["XX", "YY", "ZZ"]

    def test_single_term_padding(self):
        settings = group_settings([PauliTerm("ZIIZ", 0.5)])
        assert len(settings) == 1
        assert settings[0].bases[0] == "Z" and settings[0].bases[3] == "Z"
        assert settings[0].covered_terms == (0,)

    def test_partition_covers_each_term_once(self):
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        terms = pauli_decompose(w.operator)
        settings = group_settings(terms)
        covered = [i for s in settings for i in s.covered_terms]
        non_identity = [i for i, t in enumerate(terms) if t.string != "IIII"]
        assert sorted(covered) == sorted(non_identity)
        for s in settings:
            for i in s.covered_terms:
                assert all(
                    ch == "I" or ch == b for ch, b in zip(terms[i].string, s.bases)
                ), (terms[i].string, s.bases)

    def test_grouped_expectations_reconstruct_trace(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(16, rng)
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        terms = pauli_decompose(w.operator)
        settings = group_settings(terms)
        total = sum(t.coefficient for t in terms if t.string == "IIII")
        for s in settings:
            for i in s.covered_terms:
                total += terms[i].coefficient * np.trace(_string_matrix(terms[i].string) @ rho).real
        assert abs(total - np.trace(w.operator @ rho).real) < 1e-10


class TestSimulateCounts:
    def test_z_eigenstate_deterministic(self):
        state = np.zeros((2, 2), dtype=complex)
        state[0, 0] = 1.0
        hist = simulate_counts(state, "Z", 1000, seed=0)
        assert hist == {(1,): 1000}

    def test_unbiased_coin(self):
        hist = simulate_counts(np.eye(2, dtype=complex) / 2, "X", 100_000, seed=1)
        mean = sum(k[0] * v for k, v in hist.items()) / 100_000
        assert abs(mean) < 5 / np.sqrt(100_000)

    def test_bell_state_parity(self):
        alpha = max_entangled(2)
        hist = simulate_counts(np.outer(alpha, alpha.conj()), "XX", 5000, seed=2)
        assert all(o[0] * o[1] == 1 for o in hist)
        assert sum(hist.values()) == 5000

    def test_deterministic_per_seed(self):
        state = np.eye(4, dtype=complex) / 4
        assert simulate_counts(state, "XZ", 500, seed=7) == simulate_counts(state, "XZ", 500, seed=7)

    def test_invalid_state(self):
        with pytest.raises(ValueError):
            simulate_counts(np.eye(2, dtype=complex), "Z", 10, seed=0)  # trace 2
        with pytest.raises(ValueError):
            simulate_counts(np.diag([1.5, -0.5]).astype(complex), "Z", 10, seed=0)


class TestEstimateWitness:
    def test_exact_mode(self):
        ch = depolarizing_channel(0.25)
        w = eb_witness()
        est = estimate_witness(ch.choi, w, 0, seed=3)
        assert est.value == evaluate_witness(w, ch)
        assert est.std_error == 0.0 and est.shots_per_setting == 0

    def test_cnot_estimate_matches_exact(self):
        ch = cnot_channel()
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        for seed in range(5):
            est = estimate_witness(ch.choi, w, 10_000, seed=seed)
            # stabilizer-state parities are deterministic: exact value, zero error
            assert est.value == pytest.approx(-0.5, abs=1e-12)
            assert est.std_error == 0.0

    def test_depolarizing_estimate_within_errorbars(self):
        ch = depolarizing_channel(0.0)
        w = eb_witness()
        for seed in range(5):
            est = estimate_witness(ch.choi, w, 100_000, seed=seed)
            assert abs(est.value + 0.5) <= 5 * max(est.std_error, 1e-12)

    def test_unbiased_over_seeds(self):
        ch = depolarizing_channel(0.25)
        w = eb_witness()
        exact = evaluate_witness(w, ch)
        ests = [estimate_witness(ch.choi, w, 10_000, seed=s) for s in range(50)]
        mean = np.mean([e.value for e in ests])
        typical_se = np.mean([e.std_error for e in ests])
        assert abs(mean - exact) < 3 * typical_se / np.sqrt(50)

    def test_error_scaling(self):
        ch = depolarizing_channel(0.25)
        w = eb_witness()
        ratios = []
        for seed in range(20):
            e1 = estimate_witness(ch.choi, w, 4_000, seed=seed)
            e4 = estimate_witness(ch.choi, w, 16_000, seed=seed)
            ratios.append(e4.std_error / e1.std_error)
        assert 0.4 <= np.mean(ratios) <= 0.6

    def test_noisy_cnot_scaling(self):
        # compose CNOT with local depolarizing noise so parities fluctuate
        noise = depolarizing_channel(0.2)
        kraus = [kron(a, b) @ CNOT for a in noise.kraus for b in noise.kraus]
        ch = Channel(kraus, (2, 2))
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        exact = evaluate_witness(w, ch)
        ratios = []
        for seed in range(10):
            e1 = estimate_witness(ch.choi, w, 2_000, seed=seed)
            e4 = estimate_witness(ch.choi, w, 8_000, seed=seed)
            assert abs(e1.value - exact) <= 5 * e1.std_error
            ratios.append(e4.std_error / e1.std_error)
        assert 0.35 <= np.mean(ratios) <= 0.65

    def test_seed_reproducible(self):
        ch = depolarizing_channel(0.25)
        w = eb_witness()
        e1 = estimate_witness(ch.choi, w, 5_000, seed=9)
        e2 = estimate_witness(ch.choi, w, 5_000, seed=9)
        assert e1 == e2

    def test_rejects_qutrits(self):
        from chandet.channels import z3_channel
        from chandet.detect import alpha_sru_optimize, build_sru_witness

        z3 = z3_channel()
        w = build_sru_witness(z3.kraus[0], (3, 3), 0.6)
        with pytest.raises(ValueError, match="qubit"):
            estimate_witness(z3.choi, w, 100, seed=0)

    def test_rejects_non_positive_state(self):
        from chandet.channels import ValidationError
        from chandet.pptdetect import ppt_conjugate

        # the transpose conjugate of the CNOT has unit trace but a negative eigenvalue
        choi_mt = ppt_conjugate(cnot_channel())
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        for shots in (0, 100):
            with pytest.raises(ValidationError, match="negative eigenvalue"):
                estimate_witness(choi_mt, w, shots, seed=0)
