import numpy as np
import pytest

from chandet.channels import (
    ATOL,
    Channel,
    ValidationError,
    _weyl_operators,
    cnot_channel,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    random_unitary_channel,
    sru_channel,
    unitary_channel,
    z3_channel,
)
from chandet.cli import SpecError, parse_channel_spec
from chandet.detect import eb_witness
from chandet.pptdetect import ppt_conjugate
from chandet.qmath import PAULI, _as_dims, haar_unitary, kron, partial_trace, partial_transpose
from support import CNOT, apply, choi_of_superoperator, is_unital, kraus_from_choi, kraus_to_choi_loop, max_entangled
from support import permute_subsystems, random_channel, random_density_matrix, random_sru_channel, superoperator
from support import weyl_operators_matrix_power

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]


def vec(m):
    """Column-stacking vectorization, the superoperator convention."""
    return np.asarray(m).reshape(-1, order="F")


def is_tp(ch):
    return float(np.max(np.abs(ch.tp_deficit()))) <= ATOL


def is_cp(ch):
    return float(np.linalg.eigvalsh(ch.choi.matrix)[0]) >= -ATOL


def bell_projector():
    alpha = max_entangled(2)
    return np.outer(alpha, alpha.conj())


class TestNamedChannels:
    def test_depolarizing_zero_is_identity(self):
        ch = depolarizing_channel(0.0, 2)
        assert len(ch.kraus) == 1
        np.testing.assert_allclose(ch.kraus[0], I2)

    def test_depolarizing_kraus_set(self):
        ch = depolarizing_channel(0.3)
        assert len(ch.kraus) == 4
        np.testing.assert_allclose(ch.kraus[0], np.sqrt(0.7) * I2)
        for k, pauli in zip(ch.kraus[1:], (X, Y, Z)):
            np.testing.assert_allclose(k, np.sqrt(0.1) * pauli)

    def test_cnot_block_structure(self):
        ch = cnot_channel()
        assert ch.dims == (2, 2)
        np.testing.assert_array_equal(ch.kraus[0], CNOT)

    def test_z3_diagonal(self):
        ch = z3_channel()
        assert ch.dims == (3, 3)
        np.testing.assert_array_equal(ch.kraus[0], np.diag([1.0] * 8 + [-1.0]))

    def test_unknown_name(self):
        with pytest.raises(SpecError, match="unknown channel name 'swap'"):
            parse_channel_spec({"dims": [2, 2], "kind": "named", "name": "swap"})

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            depolarizing_channel(1.5)
        with pytest.raises(ValueError):
            random_unitary_channel([0.4, 0.4], [I2, X])

    @pytest.mark.parametrize("bad", [2.7, 2.0, "3", True], ids=["float", "integral-float", "str", "bool"])
    def test_dims_are_integers_not_truncated(self, bad):
        # each dimension is taken by operator.index: int(2.7) would build a qubit, int("3") a qutrit
        for make in (_as_dims, identity_channel, eb_witness, lambda dims: depolarizing_channel(0.1, dims[1])):
            with pytest.raises(ValueError, match="invalid subsystem dimensions"):
                make([2, bad])

    def test_numpy_integer_dims_are_taken(self):
        three = np.int64(3)
        assert _as_dims([three, 2]) == (3, 2) and all(type(d) is int for d in _as_dims([three, 2]))
        assert identity_channel([three]).dims == (3,)
        assert eb_witness([three]).dims == (3, 3)
        assert depolarizing_channel(0.1, three).dims == (3,)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            unitary_channel(np.array([[1, 0], [0, 0.5]]))
        with pytest.raises(ValidationError):
            sru_channel([1.0], [np.array([[1, 0], [0, 0.5]])], [I2])

    def test_sru_needs_every_local_unitary_on_its_site(self):
        # kron(1 x 1, 4 x 4) is 4 x 4, but a global unitary is no local one on [2, 2]
        cnot = np.eye(4)[[0, 1, 3, 2]]
        with pytest.raises(ValueError, match="local unitary shapes do not match dims"):
            sru_channel([0.5, 0.5], [I2, np.eye(1)], [I2, cnot], dims=(2, 2))

    def test_fully_depolarizing_action(self):
        rng = np.random.default_rng(0)
        sigma = random_density_matrix(2, rng)
        ch = fully_depolarizing_channel([2], sigma)
        rho = random_density_matrix(2, rng)
        np.testing.assert_allclose(apply(ch, rho), sigma, atol=1e-12)
        assert is_tp(ch)

    @pytest.mark.parametrize("dims", [[2], [3], [2, 2], [3, 3]])
    @pytest.mark.parametrize("rank", [None, 1, 2, "full"])
    def test_fully_depolarizing_kraus_layout(self, dims, rank):
        """Operator (i, j) is zero but for column j, sqrt(lambda_i) v_i, over sigma's kept eigenpairs."""
        d = int(np.prod(dims))
        sigma = None if rank is None else random_density_matrix(d, 40 + d, rank=d if rank == "full" else rank)
        s = np.eye(d, dtype=complex) / d if sigma is None else sigma
        w, v = np.linalg.eigh((s + s.conj().T) / 2)
        ref = []
        for lam, col in zip(w, v.T):
            if lam > 1e-14:
                for j in range(d):
                    k = np.zeros((d, d), dtype=complex)
                    k[:, j] = np.sqrt(lam) * col
                    ref.append(k)
        assert fully_depolarizing_channel(dims, sigma).kraus.tobytes() == np.array(ref).tobytes()


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

    @pytest.mark.parametrize("count, d", [(1, 9), (5, 9), (81, 9), (256, 16)])
    def test_matches_the_per_kraus_loop(self, count, d):
        ch = random_channel([d], seed=count, kraus_count=count)
        assert ch.kraus.shape == (count, d, d)
        np.testing.assert_allclose(ch.choi.matrix, kraus_to_choi_loop(ch.kraus, d), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 6, 16])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_depolarizing_closed_form(self, d, p):
        # the d^2 Weyl-conjugated Bell states are an orthonormal basis, so the
        # d^2 - 1 error operators fill Id - Phi
        phi = max_entangled(d)
        bell = np.outer(phi, phi.conj())
        expected = (1 - p) * bell + p / (d * d - 1) * (np.eye(d * d) - bell)
        np.testing.assert_allclose(depolarizing_channel(p, d).choi.matrix, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_weyl_operators_match_the_matrix_power_products(self, d):
        got = list(_weyl_operators(d))
        ref = weyl_operators_matrix_power(d)
        assert len(got) == len(ref) == d * d - 1
        for op, want in zip(got, ref):  # the same (a, b) order
            np.testing.assert_allclose(op, want, rtol=0, atol=1e-14)

    def test_construction_holds_no_full_size_copy(self):
        # the Choi product is divided in place and frozen without a copy; the
        # depolarizing operators are scaled as generated and stacked once, so
        # the peak is the Kraus array, the conjugate operand and the product
        import tracemalloc

        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            ch = identity_channel((6, 6))
            assert tracemalloc.get_traced_memory()[1] <= 1.2 * ch.choi.matrix.nbytes
            del ch
            tracemalloc.reset_peak()
            ch = depolarizing_channel(0.1, 36)
            assert tracemalloc.get_traced_memory()[1] <= 4 * ch.kraus.nbytes
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: identity_channel((2, 3)), id="identity-2x3"),
            pytest.param(lambda: depolarizing_channel(0.3, 3), id="depolarizing-3"),
            pytest.param(cnot_channel, id="cnot"),
            pytest.param(z3_channel, id="z3"),
            pytest.param(lambda: fully_depolarizing_channel((2,), random_density_matrix(2, 4)), id="fully-dep"),
            pytest.param(
                lambda: random_unitary_channel([0.5, 0.5], [haar_unitary(4, 1), haar_unitary(4, 2)]), id="mixture"
            ),
            pytest.param(lambda: random_sru_channel((3, 3), seed=5), id="sru-3x3"),
            *(
                pytest.param(
                    lambda dims=dims, count=count: random_channel(dims, seed=count, kraus_count=count),
                    id=f"kraus{count}-{'x'.join(map(str, dims))}",
                )
                for dims, count in [([2], 3), ([2, 2], 16), ([3, 3], 81), ([3, 3], 2), ([2, 3], 7), ([6, 6], 2)]
            ),
        ],
    )
    def test_choi_is_hermitian_by_construction(self, build):
        ch = build()
        m = ch.choi.matrix
        vecs = ch.kraus.reshape(len(ch.kraus), -1)
        product = vecs.T @ vecs.conj() / ch.dim
        lower = np.tril_indices(len(m), -1)
        upper = lower[::-1]
        # the computed strict lower triangle and real diagonal, bit for bit
        assert m[lower].tobytes() == product[lower].tobytes()
        assert m.diagonal().real.tobytes() == product.diagonal().real.tobytes()
        # the strict upper triangle is its conjugate, bit for bit, and the diagonal's imaginary parts are +0.0
        assert m[upper].tobytes() == m[lower].conj().tobytes()
        assert not m.diagonal().imag.view(np.uint64).any()
        assert np.array_equal(m, m.conj().T)

    def test_tp_choi_properties(self):
        for ch in (depolarizing_channel(0.3), cnot_channel(), z3_channel(), random_channel([2, 2], 5)):
            choi = ch.choi
            assert abs(np.trace(choi.matrix) - 1.0) < 1e-10
            n = len(ch.dims)
            reduced = partial_trace(choi.matrix, choi.dims, range(n, 2 * n))
            np.testing.assert_allclose(reduced, np.eye(ch.dim) / ch.dim, atol=1e-10)
            assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10


class TestSuperoperator:
    """The Choi matrix reshuffles into the superoperator sum_k conj(A_k) kron A_k."""

    def test_identity(self):
        np.testing.assert_array_equal(superoperator(identity_channel([2, 2]).choi.matrix), np.eye(16))

    def test_unitary_channel(self):
        u = haar_unitary(3, 0)
        s = superoperator(unitary_channel(u).choi.matrix)
        np.testing.assert_allclose(s, np.kron(u.conj(), u), atol=1e-14)

    def test_superoperator_action(self):
        rng = np.random.default_rng(1)
        ch = random_channel([3], rng, kraus_count=4)
        rho = random_density_matrix(3, rng)
        out = (superoperator(ch.choi.matrix) @ vec(rho)).reshape(3, 3, order="F")
        np.testing.assert_allclose(out, apply(ch, rho), atol=1e-12)

    def test_conversion_cycle(self):
        # superoperator (from Kraus) -> Choi (reshuffle) -> Kraus (eigh) -> superoperator
        for k in range(50):
            rng = np.random.default_rng(100 + k)
            dims = [2] if k % 2 == 0 else [3]
            ch = random_channel(dims, rng)
            s = sum(np.kron(a.conj(), a) for a in ch.kraus)
            choi = choi_of_superoperator(s)
            np.testing.assert_allclose(choi, ch.choi.matrix, atol=1e-12)
            rebuilt = kraus_from_choi(choi, dims, require_tp=True)
            np.testing.assert_allclose(superoperator(rebuilt.choi.matrix), s, atol=1e-10)

    def test_choi_superoperator_inverse_pair(self):
        rng = np.random.default_rng(2)
        ch = random_channel([2, 2], rng, kraus_count=3)
        np.testing.assert_allclose(
            superoperator(ch.choi.matrix), sum(np.kron(a.conj(), a) for a in ch.kraus), atol=1e-12
        )


def _transpose_superoperator(dims, sys):
    """Superoperator of the transpose on output subsystems ``sys``, read off the
    partially transposed Choi matrix of the identity channel."""
    choi = identity_channel(dims).choi
    return superoperator(partial_transpose(choi.matrix, choi.dims, sys))


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
        s = superoperator(ch.choi.matrix)
        np.testing.assert_allclose(s @ superoperator(identity_channel([2]).choi.matrix), s, atol=1e-14)

    def test_transpose_conjugated_cnot_spectrum(self):
        # partial transpose as a permutation superoperator, column by column
        basis = np.eye(16).reshape(16, 4, 4).transpose(0, 2, 1)  # column-stacked order
        s_ta = np.column_stack([vec(partial_transpose(e, [2, 2], 0)) for e in basis])
        s = s_ta @ superoperator(cnot_channel().choi.matrix) @ s_ta
        choi = choi_of_superoperator(s)
        np.testing.assert_allclose(choi, ppt_conjugate(cnot_channel()).matrix, atol=1e-15)
        eigs = np.linalg.eigvalsh(choi)
        assert abs(eigs[0] + 0.5) < 1e-10
        assert eigs[1] > -1e-10

    def test_unitary_inverse(self):
        u = haar_unitary(4, 7)
        s = superoperator(unitary_channel(u, (2, 2)).choi.matrix)
        s = s @ superoperator(unitary_channel(u.conj().T, (2, 2)).choi.matrix)
        np.testing.assert_allclose(s, np.eye(16), atol=1e-12)

    def test_homomorphism(self):
        rng = np.random.default_rng(5)
        f = random_channel([2], rng, kraus_count=3)
        g = random_channel([2], rng, kraus_count=2)
        fg = Channel([a @ b for a in f.kraus for b in g.kraus], [2])
        np.testing.assert_allclose(
            superoperator(f.choi.matrix) @ superoperator(g.choi.matrix), superoperator(fg.choi.matrix), atol=1e-10
        )


class TestKrausFromChoi:
    """The eigenvectors of the Choi matrix, reshaped row-major, are Kraus operators of the channel."""

    def test_depolarizing_round_trip(self):
        rng = np.random.default_rng(6)
        ch = depolarizing_channel(0.3)
        rebuilt = kraus_from_choi(ch.choi.matrix, ch.dims, require_tp=True)
        assert len(rebuilt.kraus) == 4
        for _ in range(10):
            rho = random_density_matrix(2, rng)
            np.testing.assert_allclose(
                apply(rebuilt, rho), apply(ch, rho), atol=1e-10
            )

    def test_pure_choi_single_kraus(self):
        ch = cnot_channel()
        rebuilt = kraus_from_choi(ch.choi.matrix, ch.dims)
        assert len(rebuilt.kraus) == 1
        k = rebuilt.kraus[0]
        phase = k[0, 0] / CNOT[0, 0]
        np.testing.assert_allclose(k / phase, CNOT, atol=1e-10)

    def test_maximally_mixed_choi(self):
        ch = kraus_from_choi(np.eye(4) / 4, (2,), require_tp=True)
        assert len(ch.kraus) == 4
        rng = np.random.default_rng(7)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            np.testing.assert_allclose(apply(ch, rho), I2 / 2, atol=1e-10)

    def test_choi_of_kraus_from_choi_round_trip(self):
        rng = np.random.default_rng(8)
        ch = random_channel([2, 2], rng, kraus_count=5)
        rebuilt = kraus_from_choi(ch.choi.matrix, ch.dims)
        np.testing.assert_allclose(rebuilt.choi.matrix, ch.choi.matrix, atol=1e-9)


class TestClassify:
    def test_depolarizing_flags(self):
        for p in (0.0, 0.5, 1.0):
            ch = depolarizing_channel(p)
            assert is_cp(ch) and is_tp(ch) and is_unital(ch)

    def test_cnot_flags(self):
        ch = cnot_channel()
        assert is_cp(ch) and is_tp(ch) and is_unital(ch)

    def test_non_unital_channel(self):
        # sends everything to |0><0|: sum A A^dag = 2|0><0| != I
        k0 = np.array([[1, 0], [0, 0]], dtype=complex)
        k1 = np.array([[0, 1], [0, 0]], dtype=complex)
        ch = Channel([k0, k1], [2])
        assert is_cp(ch) and is_tp(ch) and not is_unital(ch)

    def test_kraus_is_one_read_only_array(self):
        ch = depolarizing_channel(0.3, 3)
        ops = ch.kraus
        assert isinstance(ops, np.ndarray) and ops.shape == (9, 3, 3)
        with pytest.raises(ValueError, match="read-only"):
            ops[0, 0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            ops[1][0, 0] = 0.0
        assert len(ops) == 9
        assert [k.shape for k in ops] == [(3, 3)] * 9
        np.testing.assert_array_equal(ops[0], np.sqrt(0.7) * np.eye(3))
        reordered = Channel(ops[::-1], ch.dims)
        np.testing.assert_array_equal(reordered.kraus, ops[::-1])
        np.testing.assert_allclose(reordered.choi.matrix, ch.choi.matrix, rtol=0, atol=1e-15)

    def test_tp_deficit_is_one_float(self):
        ch = Channel([np.sqrt(0.9) * I2, np.sqrt(0.05) * X], [2], require_tp=False)
        deficit = ch.tp_deficit()
        assert type(deficit) is float and deficit == pytest.approx(0.05, abs=1e-15)
        assert depolarizing_channel(0.3, 3).tp_deficit() <= ATOL

    def test_tp_validation_reports_deficit(self):
        with pytest.raises(ValidationError, match="trace preserving"):
            Channel([np.sqrt(0.9) * I2], [2])
        ch = Channel([np.sqrt(0.9) * I2], [2], require_tp=False)
        assert not is_tp(ch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_kraus_rejected(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 0] = bad
        for require_tp in (True, False):
            with pytest.raises(ValueError, match="non-finite"):
                Channel([k], [2], require_tp=require_tp)

    def test_first_faulty_operator_is_named(self):
        nan = np.full((2, 2), np.nan)
        cases = [
            ([I2, nan, np.eye(3)], "kraus[1] has a non-finite entry"),
            ([I2, np.eye(3), nan], "kraus[1] has shape (3, 3), expected (2, 2) for dims (2,)"),
            ([I2, X, nan], "kraus[2] has a non-finite entry"),
            (np.stack([I2, X, nan, nan]), "kraus[2] has a non-finite entry"),
        ]
        for kraus, message in cases:
            with pytest.raises(ValueError) as exc:
                Channel(kraus, [2], require_tp=False)
            assert str(exc.value) == message

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
        assert is_cp(ch) and is_tp(ch) and is_unital(ch)
