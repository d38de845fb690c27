import numpy as np
import pytest

from chandet.qmath import (
    PAULI,
    _haar_stack,
    haar_unitary,
    kron,
    partial_trace,
    partial_transpose,
    pauli_string,
)
from support import max_entangled, permute_subsystems

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + a.conj().T


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(I2, I2), np.eye(4))

    def test_bit_flip_action(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(kron(X, X) @ ket00, [0, 0, 0, 1])

    def test_diagonal_product(self):
        np.testing.assert_array_equal(kron(Z, Z), np.diag([1, -1, -1, 1]))

    def test_associativity_exact(self):
        # exact equality needs products that do not round, so integer entries
        rng = np.random.default_rng(0)
        a, b, c = (
            rng.integers(-4, 5, size=(2, 2)) + 1j * rng.integers(-4, 5, size=(2, 2))
            for _ in range(3)
        )
        np.testing.assert_array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))
        np.testing.assert_array_equal(kron(kron(X, Y), Z), kron(X, kron(Y, Z)))

    def test_pauli_string(self):
        np.testing.assert_array_equal(pauli_string("XZ"), np.kron(X, Z))
        with pytest.raises(ValueError):
            pauli_string("XQ")


class TestPartialTrace:
    def test_max_entangled_reduction(self):
        alpha = max_entangled(2)
        rho = np.outer(alpha, alpha.conj())
        for keep in ([0], [1]):
            np.testing.assert_allclose(partial_trace(rho, [2, 2], keep), I2 / 2, atol=1e-14)

    def test_product_state(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        got = partial_trace(kron(a, b), [2, 3], [0])
        np.testing.assert_allclose(got, a * np.trace(b), atol=1e-12)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(partial_trace(np.eye(4) / 4, [2, 2], [0]), I2 / 2)

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        m = random_hermitian(6, rng)
        np.testing.assert_allclose(
            np.trace(partial_trace(m, [2, 3], [1])), np.trace(m), atol=1e-12
        )

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            partial_trace(np.eye(4), [2, 2], [2])

    def test_index_is_not_truncated(self):
        with pytest.raises(TypeError, match="subsystem index must be an integer"):
            partial_trace(np.eye(4), [2, 2], [0.5])
        np.testing.assert_array_equal(partial_trace(np.eye(4), [2, 2], [np.int64(1)]), 2 * np.eye(2))


class TestPartialTranspose:
    def test_involution_exact(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_array_equal(
            partial_transpose(partial_transpose(m, [2, 2], 0), [2, 2], 0), m
        )

    def test_bell_state_spectrum(self):
        alpha = max_entangled(2)
        pt = partial_transpose(np.outer(alpha, alpha.conj()), [2, 2], 0)
        np.testing.assert_allclose(np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_real_symmetric_factor_unchanged(self):
        rng = np.random.default_rng(4)
        ra = rng.standard_normal((2, 2))
        ra = ra + ra.T
        rb = random_hermitian(2, rng)
        m = kron(ra.astype(complex), rb)
        np.testing.assert_allclose(partial_transpose(m, [2, 2], 0), m, atol=1e-14)

    def test_trace_inner_product_swap(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = random_hermitian(4, rng)
            y = random_hermitian(4, rng)
            lhs = np.trace(partial_transpose(x, [2, 2], 0) @ y)
            rhs = np.trace(x @ partial_transpose(y, [2, 2], 0))
            assert abs(lhs - rhs) < 1e-10

    def test_subsystem_out_of_range(self):
        with pytest.raises(IndexError):
            partial_transpose(np.eye(4), [2, 2], 5)

    def test_subsystem_is_not_truncated(self):
        with pytest.raises(TypeError, match="subsystem index must be an integer"):
            partial_transpose(np.eye(4), [2, 2], 0.7)


class TestPermuteSubsystems:
    """Reordering subsystems by an axis transpose, the layout the Choi-matrix tests rely on."""

    def test_spectrum_invariant(self):
        rng = np.random.default_rng(8)
        m = random_hermitian(8, rng)
        permuted = permute_subsystems(m, [2, 2, 2], [2, 0, 1])
        np.testing.assert_allclose(
            np.linalg.eigvalsh(permuted), np.linalg.eigvalsh(m), atol=1e-12
        )

    def test_swap_matches_kron_order(self):
        rng = np.random.default_rng(9)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        np.testing.assert_allclose(
            permute_subsystems(kron(a, b), [2, 3], [1, 0]), kron(b, a), atol=1e-14
        )


class TestMaxEntangled:
    def test_qubit_pair(self):
        np.testing.assert_allclose(max_entangled(2), np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_qutrit_pair(self):
        v = np.zeros(9)
        v[[0, 4, 8]] = 1 / np.sqrt(3)
        np.testing.assert_allclose(max_entangled(3), v)

    def test_reduced_states(self):
        for d in (2, 3):
            rho = np.outer(max_entangled(d), max_entangled(d).conj())
            for keep in ([0], [1]):
                np.testing.assert_allclose(
                    partial_trace(rho, [d, d], keep), np.eye(d) / d, atol=1e-14
                )

    def test_dimension_too_small(self):
        with pytest.raises(ValueError):
            max_entangled(1)


class TestHermitianEig:
    def test_transpose_conjugated_cnot_minimum(self):
        from chandet.channels import cnot_channel

        # T_A o CNOT o T_A: transpose A's output and ancilla in the Choi matrix
        choi = partial_transpose(cnot_channel().choi.matrix, [2, 2, 2, 2], [0, 2])
        w = np.linalg.eigvalsh(choi)
        assert abs(w[0] + 0.5) < 1e-10

    def test_eigenvalues_permutation_invariant(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(8, rng)
        w1 = np.linalg.eigvalsh(m)
        w2 = np.linalg.eigvalsh(permute_subsystems(m, [2, 2, 2], [1, 2, 0]))
        np.testing.assert_allclose(w1, w2, atol=1e-12)


class TestHaarUnitary:
    def test_unitarity(self):
        for d in (2, 3):
            for seed in range(100):
                u = haar_unitary(d, seed)
                np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(haar_unitary(3, 42), haar_unitary(3, 42))

    def test_draws_match_the_reference(self):
        def reference(d, seed):
            # the first sampler: a Generator was passed through, anything else seeded one
            rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
            a = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
            q, r = np.linalg.qr(a)
            ph = np.diagonal(r).copy()
            ph /= np.abs(ph)
            return q * ph

        for d in (1, 2, 3, 4, 9):
            for seed in (0, 1, 42, 2**32 + 5, [7, 3]):
                np.testing.assert_array_equal(haar_unitary(d, seed), reference(d, seed))
            # a shared Generator is drawn from in place, so consecutive draws differ and agree
            rng, ref_rng = np.random.default_rng(d), np.random.default_rng(d)
            for _ in range(3):
                np.testing.assert_array_equal(haar_unitary(d, rng), reference(d, ref_rng))

    def test_stack_matches_one_at_a_time(self):
        # the optimizer's starts come from one Gaussian draw and one batched QR; each is the
        # successive draw of the same stream, bit for bit, and a shorter stack is a prefix
        for d in (2, 3, 4, 6):
            for seed in (0, 1, 7, 12345):
                rng = np.random.default_rng(seed)
                expected = np.stack([haar_unitary(d, rng) for _ in range(64)])
                for starts in (1, 2, 50, 64):
                    stack = _haar_stack(d, np.random.default_rng(seed), starts)
                    assert stack.tobytes() == expected[:starts].tobytes()
                # a Generator is drawn from in place: successive stacks continue the stream
                rng = np.random.default_rng(seed)
                stacks = [_haar_stack(d, rng, count) for count in (2, 1, 5)]
                assert np.concatenate(stacks).tobytes() == expected[:8].tobytes()

    def test_first_start_is_the_seed_zero_stream(self):
        # default_rng(seed) pads its entropy with zeros, so start 0 is the draw of the stream [seed, 0]
        for d in (2, 3, 6):
            for seed in (0, 7, 2**32 + 5, 2**40):
                first = _haar_stack(d, np.random.default_rng(seed), 3)[0]
                assert first.tobytes() == haar_unitary(d, [seed, 0]).tobytes()

    def test_trace_moment(self):
        # Haar moment: the mean of |Tr U|^2 over U(2) equals 1
        rng = np.random.default_rng(12)
        acc = sum(abs(np.trace(haar_unitary(2, rng))) ** 2 for _ in range(10_000))
        assert abs(acc / 10_000 - 1.0) < 0.05

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            haar_unitary(0, 1)

    @pytest.mark.parametrize("d", [2.7, 2.0, True])
    def test_dimension_is_not_truncated(self, d):
        with pytest.raises(TypeError, match="dimension must be an integer"):
            haar_unitary(d, 0)
        assert haar_unitary(np.int64(3), 0).tobytes() == haar_unitary(3, 0).tobytes()
