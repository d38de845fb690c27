import numpy as np
import pytest

from chandet.channels import (
    Channel,
    classify,
    cnot_channel,
    compose,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    kraus_from_choi,
    superoperator_to_choi,
)
from chandet.ensembles import random_channel, random_sru_channel
from chandet.pptdetect import (
    NOT_DETECTED,
    NPT_DETECTED,
    PptUndetectableError,
    detect_npt,
    ppt_conjugate,
    ppt_witness,
    spa_noise_weight,
    spa_superoperator,
    spa_transpose,
)
from chandet.qmath import kron, max_entangled


def product_of_depolarizing(p):
    """Two-qubit channel acting as independent single-qubit depolarizing maps."""
    one = depolarizing_channel(p)
    kraus = [kron(a, b) for a in one.kraus for b in one.kraus]
    return Channel(kraus, (2, 2))


class TestPptConjugate:
    def test_identity_stays_positive(self):
        _, choi = ppt_conjugate(identity_channel([2, 2]))
        alpha = max_entangled(4)
        np.testing.assert_allclose(choi.matrix, np.outer(alpha, alpha.conj()), atol=1e-12)
        assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-12

    def test_cnot_single_negative_eigenvalue(self):
        _, choi = ppt_conjugate(cnot_channel())
        eigs = np.linalg.eigvalsh(choi.matrix)
        assert abs(eigs[0] + 0.5) < 1e-10
        assert eigs[1] >= -1e-10

    def test_fully_mixing_product(self):
        ch = product_of_depolarizing(0.75)
        _, choi = ppt_conjugate(ch)
        np.testing.assert_allclose(choi.matrix, np.eye(16) / 16, atol=1e-12)

    def test_dims_validated(self):
        with pytest.raises(ValueError, match="d, d"):
            ppt_conjugate(depolarizing_channel(0.1))


class TestSpaTranspose:
    def test_noise_weight_qubits(self):
        assert spa_noise_weight(2) == 8 / 9

    def test_channel_is_cp(self):
        ch = spa_transpose(2)
        assert np.linalg.eigvalsh(ch.choi.matrix)[0] >= -1e-10
        flags = classify(ch)
        assert flags.cp and flags.tp

    def test_noise_is_minimal(self):
        p = spa_noise_weight(2) - 0.01
        choi = superoperator_to_choi(spa_superoperator(2, p), (2, 2))
        assert np.linalg.eigvalsh(choi.matrix)[0] < -1e-4

    def test_qutrit_weight_and_cp(self):
        assert spa_noise_weight(3) == 27 / 28
        choi = superoperator_to_choi(spa_superoperator(3, spa_noise_weight(3)), (3, 3))
        assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10

    def test_composition_with_cp_channel_stays_cp(self):
        for seed in range(5):
            ch = random_channel([2, 2], seed, kraus_count=3)
            s = compose(ch, spa_transpose(2).superoperator)
            choi = superoperator_to_choi(s, (2, 2))
            assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10


class TestPptWitness:
    def test_cnot_witness(self):
        w, lam = ppt_witness(cnot_channel())
        assert abs(lam + 0.5) < 1e-10
        assert abs(np.trace(w.operator).real - 1.0) < 1e-10
        np.testing.assert_allclose(w.operator, w.operator.conj().T, atol=1e-12)
        eigs = np.linalg.eigvalsh(w.operator)
        assert eigs[0] >= -0.5 - 1e-10 and eigs[-1] <= 0.5 + 1e-10

    def test_positive_choi_rejected(self):
        with pytest.raises(PptUndetectableError):
            ppt_witness(identity_channel([2, 2]))


class TestDetectNpt:
    def test_cnot_pipeline(self):
        rep = detect_npt(cnot_channel())
        assert abs(rep.lambda_minus + 0.5) < 1e-9
        assert rep.noise_p == 8 / 9
        assert rep.unital
        assert abs(rep.threshold - 1 / 18) < 1e-12
        assert abs(rep.expectation) < 1e-10
        assert rep.verdict == NPT_DETECTED
        # unital two-term form
        assert abs(rep.expectation - ((1 - rep.noise_p) * rep.lambda_minus + rep.noise_p / 16)) < 1e-10
        assert abs(rep.term_transpose - rep.lambda_minus) < 1e-10
        assert abs(rep.term_noise_mt - 1 / 16) < 1e-10
        assert abs(rep.term_noise_m - 1 / 16) < 1e-10

    def test_identity_not_detected_with_note(self):
        rep = detect_npt(identity_channel([2, 2]))
        assert rep.verdict == NOT_DETECTED
        assert rep.expectation is None
        assert rep.note is not None and "positive" in rep.note

    def test_unital_ppt_channel_stays_above_noise_floor(self):
        w, _ = ppt_witness(cnot_channel())
        ch = fully_depolarizing_channel([2, 2])
        rep = detect_npt(ch, witness=w)
        assert rep.unital
        assert rep.expectation >= rep.noise_p / 16 - 1e-10
        assert rep.verdict == NOT_DETECTED

    def test_two_term_split_on_random_channels(self):
        # consistency of the direct expectation with the (1-p)/p split is
        # asserted inside detect_npt; drive it across random CP-TP channels
        w, _ = ppt_witness(cnot_channel())
        for seed in range(20):
            ch = random_channel([2, 2], seed, kraus_count=int(seed % 4) + 1)
            rep = detect_npt(ch, witness=w)
            split = (1 - rep.noise_p) * rep.term_transpose + rep.noise_p * rep.term_noise_mt
            assert abs(rep.expectation - split) < 1e-10

    def test_unital_closed_form_on_random_unitary_mixtures(self):
        from chandet.channels import random_unitary_channel
        from chandet.qmath import haar_unitary

        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(700 + seed)
            n = int(rng.integers(1, 4))
            probs = rng.dirichlet(np.ones(n))
            us = [haar_unitary(4, rng) for _ in range(n)]
            ch = random_unitary_channel(probs, us, (2, 2))
            assert classify(ch).unital
            _, choi = ppt_conjugate(ch)
            if np.linalg.eigvalsh(choi.matrix)[0] >= -1e-6:
                continue  # PPT instance, no witness of its own
            hits += 1
            rep = detect_npt(ch)
            closed = (1 - rep.noise_p) * rep.lambda_minus + rep.noise_p / 16
            assert abs(rep.expectation - closed) < 1e-10
        assert hits >= 5  # global Haar mixtures are generically NPT

    def test_soundness_on_ppt_channels(self):
        w, _ = ppt_witness(cnot_channel())
        for seed in range(20):
            ch = random_sru_channel((2, 2), seed=seed)
            rep = detect_npt(ch, witness=w)
            assert rep.expectation >= -1e-10

    def test_external_witness_dims_checked(self):
        w, _ = ppt_witness(cnot_channel())
        from chandet.channels import z3_channel

        with pytest.raises(ValueError, match="dims"):
            detect_npt(z3_channel(), witness=w)
