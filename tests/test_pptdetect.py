import math

import numpy as np
import pytest

from chandet.channels import (
    Channel,
    classify,
    cnot_channel,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    kraus_from_choi,
    superoperator_to_choi,
    unitary_channel,
)
from chandet.ensembles import random_channel, random_sru_channel
from chandet.pptdetect import (
    DEGENERACY_ATOL,
    NOT_DETECTED,
    NPT_DETECTED,
    PptUndetectableError,
    detect_npt,
    ppt_conjugate,
    ppt_witness,
    spa_composite,
    spa_noise_weight,
    spa_transpose,
    _negative_eigenpair,
)
from chandet.qmath import haar_unitary, kron, max_entangled, partial_transpose


def product_of_depolarizing(p):
    """Two-qubit channel acting as independent single-qubit depolarizing maps."""
    one = depolarizing_channel(p)
    kraus = [kron(a, b) for a in one.kraus for b in one.kraus]
    return Channel(kraus, (2, 2))


def swap_channel(d):
    u = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return unitary_channel(u, (d, d))


def choi_by_definition(phi, dims):
    """(1/D) sum_ij phi(E_ij) kron E_ij, straight from the definition of the Choi state."""
    dim = math.prod(dims)
    c = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(phi(e), e)
    return c / dim


def definition_cases():
    for d in (2, 3):
        for rank in (1, d**4):
            yield f"random{d}-rank{rank}", random_channel([d, d], 40 + rank, kraus_count=rank)
        yield f"sru{d}", random_sru_channel((d, d), seed=d)
        yield f"swap{d}", swap_channel(d)


class TestPptConjugate:
    def test_identity_stays_positive(self):
        choi = ppt_conjugate(identity_channel([2, 2]))
        alpha = max_entangled(4)
        np.testing.assert_allclose(choi.matrix, np.outer(alpha, alpha.conj()), atol=1e-12)
        assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-12

    def test_cnot_single_negative_eigenvalue(self):
        choi = ppt_conjugate(cnot_channel())
        eigs = np.linalg.eigvalsh(choi.matrix)
        assert abs(eigs[0] + 0.5) < 1e-10
        assert eigs[1] >= -1e-10

    def test_fully_mixing_product(self):
        ch = product_of_depolarizing(0.75)
        choi = ppt_conjugate(ch)
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
        choi = spa_composite(identity_channel((2, 2)), p)
        assert np.linalg.eigvalsh(choi.matrix)[0] < -1e-4

    def test_qutrit_weight_and_cp(self):
        assert spa_noise_weight(3) == 27 / 28
        choi = spa_composite(identity_channel((3, 3)), spa_noise_weight(3))
        assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10

    def test_composition_with_cp_channel_stays_cp(self):
        for seed in range(5):
            ch = random_channel([2, 2], seed, kraus_count=3)
            s = ch.superoperator @ spa_transpose(2).superoperator
            choi = superoperator_to_choi(s, (2, 2))
            assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10
            closed = spa_composite(ch, spa_noise_weight(2))
            np.testing.assert_allclose(closed.matrix, choi.matrix, atol=1e-12)


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
            choi = ppt_conjugate(ch)
            if np.linalg.eigvalsh(choi.matrix)[0] >= -1e-6:
                continue  # PPT instance, no witness of its own
            hits += 1
            rep = detect_npt(ch)
            closed = (1 - rep.noise_p) * rep.lambda_minus + rep.noise_p / 16
            assert abs(rep.expectation - closed) < 1e-10
        assert hits >= 5  # global Haar mixtures are generically NPT

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_ppt_note_is_stable_under_kraus_order(self, dims):
        # lambda_- of an SRU mixture is rounding, +-1e-16, and moves with the Kraus order
        ch = random_sru_channel(dims, seed=0)
        reordered = Channel(ch.kraus[::-1], ch.dims)
        notes = [detect_npt(c).note for c in (ch, reordered)]
        assert notes[0] == notes[1]
        assert "-1e-10" in notes[0]

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



class TestAgainstDefinition:
    """The closed forms in Choi matrices against Choi states built map by map."""

    REFERENCE = {2: cnot_channel, 3: lambda: swap_channel(3)}

    @pytest.mark.parametrize("name, ch", list(definition_cases()))
    def test_closed_forms_match_the_definition(self, name, ch):
        dims, dim = ch.dims, ch.dim
        mixed = np.eye(dim) / dim

        def t_a(x):
            return partial_transpose(x, dims, 0)

        def composite(p):
            return choi_by_definition(lambda x: ch((1 - p) * t_a(x) + p * np.trace(x) * mixed), dims)

        choi_mt = choi_by_definition(lambda x: t_a(ch(t_a(x))), dims)
        np.testing.assert_allclose(ppt_conjugate(ch).matrix, choi_mt, atol=1e-12)
        np.testing.assert_allclose(spa_composite(ch, 0.3).matrix, composite(0.3), atol=1e-12)

        rep = detect_npt(ch)
        if rep.witness is None:  # PPT: measure a reference gate's witness instead
            rep = detect_npt(ch, witness=ppt_witness(self.REFERENCE[dims[0]]())[0])
        np.testing.assert_allclose(rep.composite.matrix, composite(rep.noise_p), atol=1e-12)
        assert rep.unital == classify(ch).unital
        proj = partial_transpose(rep.witness.operator, rep.witness.dims, 0)
        expected = {
            "term_transpose": np.trace(proj @ choi_mt).real,
            "term_noise_mt": np.trace(proj @ np.kron(t_a(ch(t_a(mixed))), mixed)).real,
            "term_noise_m": np.trace(proj @ np.kron(ch(mixed), mixed)).real,
        }
        for field, value in expected.items():
            assert getattr(rep, field) == pytest.approx(value, abs=1e-12), field


class TestDegenerateWitness:
    def test_vector_depends_only_on_the_eigenspace(self):
        for d in (2, 3):
            choi = ppt_conjugate(swap_channel(d))
            w, v = np.linalg.eigh(choi.matrix)
            k = int(np.sum(w - w[0] <= DEGENERACY_ATOL))
            assert k == d * d * (d * d - 1) // 2  # the antisymmetric subspace
            lam, x, degenerate = _negative_eigenpair(w, v)
            assert degenerate
            np.testing.assert_allclose(choi.matrix @ x, lam * x, atol=1e-12)
            for seed in range(3):
                mixed = v.copy()
                mixed[:, :k] = v[:, :k] @ haar_unitary(k, seed)
                _, y, _ = _negative_eigenpair(w, mixed)
                np.testing.assert_allclose(np.outer(y, y.conj()), np.outer(x, x.conj()), atol=1e-12)

    def test_report_does_not_depend_on_the_kraus_basis(self):
        # a non-unital channel with a doubly degenerate lambda_-: amplitude damping after SWAP
        swap = swap_channel(2).kraus[0]
        damp = [np.array([[1, 0], [0, np.sqrt(0.7)]]), np.array([[0, np.sqrt(0.3)], [0, 0]])]
        kraus = [np.kron(a, np.eye(2)) @ swap for a in damp]
        mix = haar_unitary(2, 9)  # K'_k = sum_l mix[k, l] K_l is the same channel
        mixed = [sum(mix[k, l] * kraus[l] for l in range(2)) for k in range(2)]
        a, b = detect_npt(Channel(kraus, (2, 2))), detect_npt(Channel(mixed, (2, 2)))
        assert a.degenerate and not a.unital
        np.testing.assert_allclose(a.witness.operator, b.witness.operator, atol=1e-12)
        assert a.expectation == pytest.approx(b.expectation, abs=1e-12)
