import numpy as np
import pytest

from chandet.channels import (
    Channel,
    ChoiMatrix,
    ValidationError,
    choi_to_superoperator,
    classify,
    cnot_channel,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    kraus_from_choi,
    make_named_channel,
    random_unitary_channel,
    sru_channel,
    superoperator_to_choi,
    unitary_channel,
    z3_channel,
)
from chandet.ensembles import random_channel, random_density_matrix, random_sru_channel
from chandet.pptdetect import ppt_conjugate
from chandet.qmath import PAULI, haar_unitary, kron, max_entangled, partial_trace, partial_transpose, permute_subsystems

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]


def vec(m):
    """Column-stacking vectorization, the superoperator convention."""
    return np.asarray(m).reshape(-1, order="F")

CNOT = np.eye(4, dtype=complex)
CNOT[2:, 2:] = X


def bell_projector():
    alpha = max_entangled(2)
    return np.outer(alpha, alpha.conj())


class TestNamedChannels:
    def test_depolarizing_zero_is_identity(self):
        ch = make_named_channel("depolarizing", {"p": 0.0}, [2])
        assert len(ch.kraus) == 1
        np.testing.assert_allclose(ch.kraus[0], I2)

    def test_depolarizing_kraus_set(self):
        ch = depolarizing_channel(0.3)
        assert len(ch.kraus) == 4
        np.testing.assert_allclose(ch.kraus[0], np.sqrt(0.7) * I2)
        for k, pauli in zip(ch.kraus[1:], (X, Y, Z)):
            np.testing.assert_allclose(k, np.sqrt(0.1) * pauli)

    def test_cnot_block_structure(self):
        ch = make_named_channel("cnot")
        assert ch.dims == (2, 2)
        np.testing.assert_array_equal(ch.kraus[0], CNOT)

    def test_z3_diagonal(self):
        ch = make_named_channel("z3")
        assert ch.dims == (3, 3)
        np.testing.assert_array_equal(ch.kraus[0], np.diag([1.0] * 8 + [-1.0]))

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown channel name"):
            make_named_channel("swap")

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            depolarizing_channel(1.5)
        with pytest.raises(ValueError):
            random_unitary_channel([0.4, 0.4], [I2, X])

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            unitary_channel(np.array([[1, 0], [0, 0.5]]))
        with pytest.raises(ValidationError):
            sru_channel([1.0], [np.array([[1, 0], [0, 0.5]])], [I2])

    def test_fully_depolarizing_action(self):
        rng = np.random.default_rng(0)
        sigma = random_density_matrix(2, rng)
        ch = fully_depolarizing_channel([2], sigma)
        rho = random_density_matrix(2, rng)
        np.testing.assert_allclose(ch(rho), sigma, atol=1e-12)
        assert classify(ch).tp


class TestChoi:
    def test_identity_choi_is_bell_projector(self):
        choi = identity_channel([2]).choi
        np.testing.assert_allclose(choi.matrix, bell_projector(), atol=1e-14)
        assert np.linalg.matrix_rank(choi.matrix, tol=1e-10) == 1

    @pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_depolarizing_choi_is_werner(self, p):
        choi = depolarizing_channel(p).choi
        werner = (1 - 4 * p / 3) * bell_projector() + (p / 3) * np.eye(4)
        np.testing.assert_allclose(choi.matrix, werner, atol=1e-12)

    def test_fully_mixing_point(self):
        np.testing.assert_allclose(depolarizing_channel(0.75).choi.matrix, np.eye(4) / 4, atol=1e-12)

    def test_cnot_choi_schmidt_form(self):
        # |CNOT> = (|00>_AC |phi+>_BD + |11>_AC |psi+>_BD)/sqrt(2), reordered to (A,B,C,D)
        phi = max_entangled(2)
        psi = np.array([0, 1, 1, 0]) / np.sqrt(2)
        ket00 = np.zeros(4)
        ket00[0] = 1
        ket11 = np.zeros(4)
        ket11[3] = 1
        acbd = (np.kron(ket00, phi) + np.kron(ket11, psi)) / np.sqrt(2)
        proj_acbd = np.outer(acbd, acbd.conj())
        expected = permute_subsystems(proj_acbd, [2, 2, 2, 2], [0, 2, 1, 3])
        np.testing.assert_allclose(cnot_channel().choi.matrix, expected, atol=1e-12)

    def test_tp_choi_properties(self):
        for ch in (depolarizing_channel(0.3), cnot_channel(), z3_channel(), random_channel([2, 2], 5)):
            choi = ch.choi
            assert abs(np.trace(choi.matrix) - 1.0) < 1e-10
            n = len(ch.dims)
            reduced = partial_trace(choi.matrix, choi.dims, range(n, 2 * n))
            np.testing.assert_allclose(reduced, np.eye(ch.dim) / ch.dim, atol=1e-10)
            assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10


class TestSuperoperator:
    def test_identity(self):
        np.testing.assert_array_equal(identity_channel([2, 2]).superoperator, np.eye(16))

    def test_unitary_channel(self):
        u = haar_unitary(3, 0)
        np.testing.assert_allclose(unitary_channel(u).superoperator, np.kron(u.conj(), u), atol=1e-14)

    def test_superoperator_action(self):
        rng = np.random.default_rng(1)
        ch = random_channel([3], rng, kraus_count=4)
        rho = random_density_matrix(3, rng)
        out = (ch.superoperator @ vec(rho)).reshape(3, 3, order="F")
        np.testing.assert_allclose(out, ch(rho), atol=1e-12)

    def test_conversion_cycle(self):
        # superoperator -> Choi (reshuffle) -> Kraus -> superoperator
        for k in range(50):
            rng = np.random.default_rng(100 + k)
            dims = [2] if k % 2 == 0 else [3]
            ch = random_channel(dims, rng)
            choi = superoperator_to_choi(ch.superoperator, ch.dims)
            np.testing.assert_allclose(choi.matrix, ch.choi.matrix, atol=1e-12)
            rebuilt = kraus_from_choi(choi, require_tp=True)
            np.testing.assert_allclose(rebuilt.superoperator, ch.superoperator, atol=1e-10)

    def test_choi_superoperator_inverse_pair(self):
        rng = np.random.default_rng(2)
        ch = random_channel([2, 2], rng, kraus_count=3)
        np.testing.assert_allclose(
            choi_to_superoperator(ch.choi), ch.superoperator, atol=1e-12
        )


def _transpose_superoperator(dims, sys):
    """Superoperator of the transpose on output subsystems ``sys``, read off the
    partially transposed Choi matrix of the identity channel."""
    choi = identity_channel(dims).choi
    t_choi = ChoiMatrix(partial_transpose(choi.matrix, choi.dims, sys), choi.dims, choi.source_dims)
    return choi_to_superoperator(t_choi)


class TestTransposeSuperoperator:
    """The transpose map is the partial transpose of the identity's Choi matrix."""

    def test_matches_direct_action(self):
        rng = np.random.default_rng(3)
        s = _transpose_superoperator([2, 2], 0)
        for _ in range(20):
            rho = random_density_matrix(4, rng)
            np.testing.assert_allclose(
                (s @ vec(rho)).reshape(4, 4, order="F"), partial_transpose(rho, [2, 2], 0), atol=1e-12
            )

    def test_involution(self):
        s = _transpose_superoperator([2, 2], 0)
        np.testing.assert_allclose(s @ s, np.eye(16), atol=1e-14)

    def test_full_transpose_fixes_symmetric(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        sym = ((a + a.T) / 2).astype(complex)
        s = _transpose_superoperator([2, 2], [0, 1])
        np.testing.assert_allclose(s @ vec(sym), vec(sym), atol=1e-14)


class TestCompose:
    """Composition of channels is the product of their superoperators."""

    def test_compose_with_identity(self):
        ch = depolarizing_channel(0.3)
        np.testing.assert_allclose(
            ch.superoperator @ identity_channel([2]).superoperator, ch.superoperator, atol=1e-14
        )

    def test_transpose_conjugated_cnot_spectrum(self):
        # partial transpose as a permutation superoperator, column by column
        basis = np.eye(16).reshape(16, 4, 4).transpose(0, 2, 1)  # column-stacked order
        s_ta = np.column_stack([vec(partial_transpose(e, [2, 2], 0)) for e in basis])
        s = s_ta @ cnot_channel().superoperator @ s_ta
        choi = superoperator_to_choi(s, (2, 2))
        np.testing.assert_allclose(choi.matrix, ppt_conjugate(cnot_channel()).matrix, atol=1e-15)
        eigs = np.linalg.eigvalsh(choi.matrix)
        assert abs(eigs[0] + 0.5) < 1e-10
        assert eigs[1] > -1e-10

    def test_unitary_inverse(self):
        u = haar_unitary(4, 7)
        s = unitary_channel(u, (2, 2)).superoperator @ unitary_channel(u.conj().T, (2, 2)).superoperator
        np.testing.assert_allclose(s, np.eye(16), atol=1e-12)

    def test_homomorphism(self):
        rng = np.random.default_rng(5)
        f = random_channel([2], rng, kraus_count=3)
        g = random_channel([2], rng, kraus_count=2)
        fg = Channel([a @ b for a in f.kraus for b in g.kraus], [2])
        np.testing.assert_allclose(f.superoperator @ g.superoperator, fg.superoperator, atol=1e-10)


class TestKrausFromChoi:
    def test_depolarizing_round_trip(self):
        rng = np.random.default_rng(6)
        ch = depolarizing_channel(0.3)
        rebuilt = kraus_from_choi(ch.choi, require_tp=True)
        assert len(rebuilt.kraus) == 4
        for _ in range(10):
            rho = random_density_matrix(2, rng)
            np.testing.assert_allclose(
                rebuilt(rho), ch(rho), atol=1e-10
            )

    def test_pure_choi_single_kraus(self):
        ch = cnot_channel()
        rebuilt = kraus_from_choi(ch.choi)
        assert len(rebuilt.kraus) == 1
        k = rebuilt.kraus[0]
        phase = k[0, 0] / CNOT[0, 0]
        np.testing.assert_allclose(k / phase, CNOT, atol=1e-10)

    def test_maximally_mixed_choi(self):
        from chandet.channels import ChoiMatrix

        choi = ChoiMatrix(np.eye(4) / 4, (2, 2), (2,))
        ch = kraus_from_choi(choi, require_tp=True)
        assert len(ch.kraus) == 4
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            np.testing.assert_allclose(ch(rho), I2 / 2, atol=1e-10)

    def test_choi_of_kraus_from_choi_round_trip(self):
        rng = np.random.default_rng(8)
        ch = random_channel([2, 2], rng, kraus_count=5)
        rebuilt = kraus_from_choi(ch.choi)
        np.testing.assert_allclose(rebuilt.choi.matrix, ch.choi.matrix, atol=1e-9)

    def test_rejects_negative_choi(self):
        from chandet.channels import ChoiMatrix

        bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValidationError, match="positive semidefinite"):
            kraus_from_choi(ChoiMatrix(bad, (2, 2), (2,)))


class TestClassify:
    def test_depolarizing_flags(self):
        for p in (0.0, 0.5, 1.0):
            flags = classify(depolarizing_channel(p))
            assert flags.cp and flags.tp and flags.unital

    def test_cnot_flags(self):
        flags = classify(cnot_channel())
        assert flags.cp and flags.tp and flags.unital

    def test_non_unital_channel(self):
        # sends everything to |0><0|: sum A A^dag = 2|0><0| != I
        k0 = np.array([[1, 0], [0, 0]], dtype=complex)
        k1 = np.array([[0, 1], [0, 0]], dtype=complex)
        flags = classify(Channel([k0, k1], [2]))
        assert flags.cp and flags.tp and not flags.unital

    def test_tp_validation_reports_deficit(self):
        with pytest.raises(ValidationError, match="trace preserving"):
            Channel([np.sqrt(0.9) * I2], [2])
        ch = Channel([np.sqrt(0.9) * I2], [2], require_tp=False)
        assert not classify(ch).tp

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kraus_rejected(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 0] = bad
        for require_tp in (True, False):
            with pytest.raises(ValueError, match="non-finite"):
                Channel([k], [2], require_tp=require_tp)

    def test_overflowing_choi_rejected(self):
        with pytest.raises(ValidationError, match="not finite"):
            Channel([1e200 * I2], [2], require_tp=False)


class TestSruChoiStructure:
    def test_choi_is_mixture_of_product_choi_states(self):
        alpha4 = max_entangled(4)
        alpha2 = max_entangled(2)
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(1, 6))
            probs = rng.dirichlet(np.ones(n))
            va = [haar_unitary(2, rng) for _ in range(n)]
            wb = [haar_unitary(2, rng) for _ in range(n)]
            ch = sru_channel(probs, va, wb)

            # direct construction: (V kron W kron I) |alpha>
            mix = np.zeros((16, 16), dtype=complex)
            for p, v, w in zip(probs, va, wb):
                ket = kron(kron(v, w), np.eye(4)) @ alpha4
                mix += p * np.outer(ket, ket.conj())
            np.testing.assert_allclose(ch.choi.matrix, mix, atol=1e-10)

            # product-of-local-Choi-states construction, reordered from (A,C,B,D)
            mix2 = np.zeros((16, 16), dtype=complex)
            for p, v, w in zip(probs, va, wb):
                ket_ac = kron(v, I2) @ alpha2
                ket_bd = kron(w, I2) @ alpha2
                proj = np.outer(np.kron(ket_ac, ket_bd), np.kron(ket_ac, ket_bd).conj())
                mix2 += p * permute_subsystems(proj, [2, 2, 2, 2], [0, 2, 1, 3])
            np.testing.assert_allclose(ch.choi.matrix, mix2, atol=1e-10)

    def test_random_sru_is_tp_unital(self):
        ch = random_sru_channel((2, 2), seed=3)
        flags = classify(ch)
        assert flags.cp and flags.tp and flags.unital
