import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chandet.channels import (
    ATOL,
    Channel,
    ChoiMatrix,
    ValidationError,
    cnot_channel,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    unitary_channel,
    z3_channel,
)
from chandet.detect import alpha_sru_optimize, build_sru_witness, evaluate_witness
from chandet.pptdetect import (
    detect_npt,
    ppt_conjugate,
    spa_composite,
    spa_noise_weight,
    _negative_eigenvector,
)
from chandet.qmath import haar_unitary, kron, partial_trace, partial_transpose
from support import apply, choi_of_superoperator, is_unital, max_entangled, random_channel
from support import random_ket, random_sru_channel, superoperator


def product_of_depolarizing(p):
    """Two-qubit channel acting as independent single-qubit depolarizing maps."""
    one = depolarizing_channel(p)
    kraus = [kron(a, b) for a in one.kraus for b in one.kraus]
    return Channel(kraus, (2, 2))


def swap_channel(d):
    u = np.eye(d * d).reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return unitary_channel(u, (d, d))


def controlled_shift(dims):
    """|0><0| kron Id_3 + |1><1| kron X_3 on [2, 3], its mirror image on [3, 2]: an NPT unitary."""
    terms = [(np.diag([1.0, 0.0]), np.eye(3)), (np.diag([0.0, 1.0]), np.roll(np.eye(3), 1, axis=0))]
    return unitary_channel(sum(np.kron(*(t if dims == (2, 3) else t[::-1])) for t in terms), dims)


def product_channel(dims, seed):
    a, b = random_channel([dims[0]], seed), random_channel([dims[1]], seed + 1)
    return Channel([np.kron(x, y) for x in a.kraus for y in b.kraus], dims)


def measure_and_prepare(dims, seed):
    """Measure A and B in Haar bases, then prepare a product state picked by both outcomes."""
    rng = np.random.default_rng(seed)
    a, b = haar_unitary(dims[0], rng), haar_unitary(dims[1], rng)
    kraus = []
    for i in range(dims[0]):
        for j in range(dims[1]):
            prepared = np.kron(random_ket(dims[0], rng), random_ket(dims[1], rng))
            kraus.append(np.outer(prepared, np.kron(a[:, i], b[:, j]).conj()))
    return Channel(kraus, dims)


# channels whose Choi matrix is separable across A|B, hence PPT
PPT_ENSEMBLES = {
    "sru": lambda dims, seed: random_sru_channel(dims, seed=seed),
    "product": product_channel,
    "measure-prepare": measure_and_prepare,
}


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
    for dims in ((2, 3), (3, 2)):
        for rank in (1, 36):
            yield f"random{dims[0]}{dims[1]}-rank{rank}", random_channel(dims, 50 + rank, kraus_count=rank)
        yield f"sru{dims[0]}{dims[1]}", random_sru_channel(dims, seed=7)
        yield f"shift{dims[0]}{dims[1]}", controlled_shift(dims)
    for dims in ((2, 4), (4, 2)):  # the ancilla-traced split on pairs with a factor of 4
        for rank in (1, 3):
            yield f"random{dims[0]}{dims[1]}-rank{rank}", random_channel(dims, 60 + rank, kraus_count=rank)


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
        # every NPT and SRU entry point refuses all but two factors of at least 2 each
        for ch in (depolarizing_channel(0.1), *map(identity_channel, ([4], [2, 2, 2], [1, 4], [2, 1]))):
            u = np.eye(ch.dim)
            for what, call in (
                ("NPT detection", ppt_conjugate),
                ("NPT detection", lambda ch: spa_composite(ch, 0.5)),
                ("NPT detection", detect_npt),
                ("SRU detection", lambda ch: alpha_sru_optimize(u, ch.dims)),
                ("SRU detection", lambda ch: build_sru_witness(u, ch.dims, 0.5)),
            ):
                with pytest.raises(ValueError) as exc:
                    call(ch)
                dims = list(ch.dims)
                assert str(exc.value) == f"{what} needs dims [d_A, d_B] with d_A, d_B >= 2, got {dims}"


class TestSpaTranspose:
    def test_noise_weight_qubits(self):
        assert spa_noise_weight((2, 2)) == 8 / 9

    def test_noise_weight_dims_are_not_truncated(self):
        assert spa_noise_weight((np.int64(2), 2)) == 8 / 9
        for dims in ([2.5, 2], [2, True], [1, 2]):
            with pytest.raises(ValueError):
                spa_noise_weight(dims)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 2), (2, 4), (4, 2)])
    def test_noise_weight_from_the_transpose_spectrum(self, dims):
        # (1-p) lambda_min + p/D^2 = 0 with lambda_min of the Choi matrix of T_A kron id_B
        dim, p = math.prod(dims), spa_noise_weight(dims)
        lam = np.linalg.eigvalsh(choi_by_definition(lambda x: partial_transpose(x, dims, 0), dims))[0]
        assert abs(lam + 1 / dims[0]) <= 1e-12
        assert abs(-lam / (1 / dim**2 - lam) - p) <= 1e-15
        assert np.linalg.eigvalsh(spa_composite(identity_channel(dims), p).matrix)[0] >= -1e-12
        assert np.linalg.eigvalsh(spa_composite(identity_channel(dims), p - 0.01).matrix)[0] < -1e-4

    def test_noise_weight_on_square_pairs_keeps_its_float(self):
        for d in range(2, 7):
            assert spa_noise_weight((d, d)) == d**3 / (d**3 + 1.0)

    def test_channel_is_cp(self):
        choi = spa_composite(identity_channel((2, 2)), spa_noise_weight((2, 2)))
        assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10
        # trace preserving: tracing out the outputs leaves Id/D, the Kraus form's TP deficit
        reduced = partial_trace(choi.matrix, choi.dims, keep=(2, 3))
        assert float(np.max(np.abs(4 * reduced - np.eye(4)))) <= ATOL

    def test_noise_is_minimal(self):
        p = spa_noise_weight((2, 2)) - 0.01
        choi = spa_composite(identity_channel((2, 2)), p)
        assert np.linalg.eigvalsh(choi.matrix)[0] < -1e-4

    def test_qutrit_weight_and_cp(self):
        assert spa_noise_weight((3, 3)) == 27 / 28
        choi = spa_composite(identity_channel((3, 3)), spa_noise_weight((3, 3)))
        assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10

    def test_composition_with_cp_channel_stays_cp(self):
        for seed in range(5):
            ch = random_channel([2, 2], seed, kraus_count=3)
            spa = spa_composite(identity_channel((2, 2)), spa_noise_weight((2, 2)))
            choi = choi_of_superoperator(superoperator(ch.choi.matrix) @ superoperator(spa.matrix))
            assert np.linalg.eigvalsh(choi)[0] >= -1e-10
            closed = spa_composite(ch, spa_noise_weight((2, 2)))
            np.testing.assert_allclose(closed.matrix, choi, atol=1e-12)


class TestPptWitness:
    def test_cnot_witness(self):
        rep = detect_npt(cnot_channel())
        w, lam = rep.witness, rep.lambda_minus
        assert abs(lam + 0.5) < 1e-10
        assert abs(np.trace(w.operator).real - 1.0) < 1e-10
        np.testing.assert_allclose(w.operator, w.operator.conj().T, atol=1e-12)
        eigs = np.linalg.eigvalsh(w.operator)
        assert eigs[0] >= -0.5 - 1e-10 and eigs[-1] <= 0.5 + 1e-10

    def test_positive_choi_rejected(self):
        rep = detect_npt(identity_channel([2, 2]))
        assert rep.vector is None and rep.witness is None and rep.composite is None


class TestWitnessVector:
    """The witness is carried as its unit vector v; the dense (|v><v|)^{T_A} is built only on request."""

    def test_dense_witness_is_built_from_the_vector(self):
        rep = detect_npt(random_channel([2, 2], 11, kraus_count=2))
        v = rep.vector
        assert v.shape == (16,) and not v.flags.writeable
        op = partial_transpose(np.outer(v, v.conj()), (2, 2, 2, 2), 0)
        w = rep.witness
        assert w.kind == "ppt" and w.dims == (2, 2, 2, 2)
        assert w.operator.tobytes() == ((op + op.conj().T) / 2).tobytes()
        assert rep.witness is w  # built once, then kept

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 2), (2, 4)])
    def test_expectation_is_the_dense_witness_on_the_composite(self, dims):
        for seed in range(5):
            rep = detect_npt(random_channel(dims, 300 + seed, kraus_count=seed % 3 + 1))
            if rep.vector is None:
                continue
            assert rep.expectation == pytest.approx(evaluate_witness(rep.witness, rep.composite), abs=1e-14)

    @pytest.mark.parametrize(
        "vector, message",
        [
            (np.ones(15) / np.sqrt(15), r"shape \(15,\) does not match the Choi space's side 16"),
            (np.ones((4, 4)) / 4, r"shape \(4, 4\) does not match"),
            (np.full(16, np.nan), "non-finite entry"),
            (np.r_[np.inf, np.zeros(15)], "non-finite entry"),
            (np.ones(16) / 4 * (1 + 3 * ATOL), "norm .* is not 1 within 1e-10"),
            (np.zeros(16), "norm 0.0 is not 1 within 1e-10"),
        ],
        ids=["short", "matrix", "nan", "inf", "norm-off", "zero"],
    )
    def test_bad_vector_refused(self, vector, message):
        with pytest.raises(ValueError, match=message):
            detect_npt(cnot_channel(), vector=vector)

    def test_vector_within_atol_of_unit_norm_is_measured_as_given(self):
        v = np.ones(16) / 4 * (1 + ATOL / 2)
        rep = detect_npt(cnot_channel(), vector=v)
        assert rep.vector.tobytes() == v.astype(complex).tobytes()
        assert rep.expectation is not None

    def test_traced_peak_stays_within_four_choi_sized_arrays(self):
        # the Choi matrix's transposed copy and the composite are the two D^4-entry arrays the
        # pipeline keeps; no projector, dense witness or identity of that size is formed
        ch = random_channel([4, 4], 17, kraus_count=2)
        assert detect_npt(ch).lambda_minus < -ATOL
        tracemalloc.start()
        try:
            detect_npt(ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 256**2 * 16

    def test_split_catches_a_composite_without_its_noise(self, monkeypatch):
        from chandet import pptdetect

        def noiseless(c, m_of_id, noise):
            return ChoiMatrix((1.0 - noise) * partial_transpose(c.matrix, c.dims, 2), c.dims, c.source_dims)

        monkeypatch.setattr(pptdetect, "_composite", noiseless)
        with pytest.raises(ValidationError, match="two-term split .* disagrees with direct expectation"):
            detect_npt(cnot_channel())


class TestDetectNpt:
    def test_cnot_pipeline(self):
        rep = detect_npt(cnot_channel())
        assert abs(rep.lambda_minus + 0.5) < 1e-9
        assert rep.noise_p == 8 / 9
        assert rep.unital
        assert abs(rep.threshold - 1 / 18) < 1e-12
        assert abs(rep.expectation) < 1e-10
        assert rep.verdict == "npt_detected"
        # unital two-term form
        assert abs(rep.expectation - ((1 - rep.noise_p) * rep.lambda_minus + rep.noise_p / 16)) < 1e-10
        assert abs(rep.term_transpose - rep.lambda_minus) < 1e-10
        assert abs(rep.term_noise_mt - 1 / 16) < 1e-10
        assert abs(rep.term_noise_m - 1 / 16) < 1e-10

    def test_one_ancilla_trace_of_the_choi_matrix(self, monkeypatch):
        # M(Id/D) is traced once and serves both the unital test and the composite;
        # the split traces the witness's projector as V V^dag, with no partial_trace
        from chandet import pptdetect

        calls = []

        def counting_trace(m, dims, keep):
            calls.append((m, tuple(keep)))
            return partial_trace(m, dims, keep)

        monkeypatch.setattr(pptdetect, "partial_trace", counting_trace)
        ch = cnot_channel()
        rep = detect_npt(ch)
        assert len(calls) == 1
        assert calls[0][0] is ch.choi.matrix and calls[0][1] == (0, 1)
        assert np.array_equal(rep.composite.matrix, spa_composite(ch, rep.noise_p).matrix)

    def test_identity_not_detected_with_note(self):
        rep = detect_npt(identity_channel([2, 2]))
        assert rep.verdict == "not_detected"
        assert rep.expectation is None
        assert rep.note is not None and "positive" in rep.note

    def test_unital_ppt_channel_stays_above_noise_floor(self):
        v = detect_npt(cnot_channel()).vector
        ch = fully_depolarizing_channel([2, 2])
        rep = detect_npt(ch, vector=v)
        assert rep.unital
        assert rep.expectation >= rep.noise_p / 16 - 1e-10
        assert rep.verdict == "not_detected"

    def test_two_term_split_on_random_channels(self):
        # consistency of the direct expectation with the (1-p)/p split is
        # asserted inside detect_npt; drive it across random CP-TP channels
        v = detect_npt(cnot_channel()).vector
        for seed in range(20):
            ch = random_channel([2, 2], seed, kraus_count=int(seed % 4) + 1)
            rep = detect_npt(ch, vector=v)
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
            assert is_unital(ch)
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
        v = detect_npt(cnot_channel()).vector
        for seed in range(20):
            ch = random_sru_channel((2, 2), seed=seed)
            rep = detect_npt(ch, vector=v)
            assert rep.expectation >= -1e-10

    def test_both_exits_report_the_same_shared_facts(self):
        # the PPT exit and the measured exit take lambda_-, p, unital, the threshold and degenerate from one statement
        ch = random_sru_channel((2, 2), seed=3)
        ppt = detect_npt(ch)
        measured = detect_npt(ch, vector=detect_npt(cnot_channel()).vector)
        assert ppt.expectation is None and measured.expectation is not None
        assert ppt.unital and ppt.threshold > 0.0
        for field in ("lambda_minus", "noise_p", "unital", "threshold", "degenerate"):
            got, want = getattr(measured, field), getattr(ppt, field)
            assert type(got) is type(want) and repr(got) == repr(want), field  # float repr round-trips every bit

    def test_external_vector_length_checked(self):
        v = detect_npt(cnot_channel()).vector
        with pytest.raises(ValueError, match="does not match the Choi space's side 81"):
            detect_npt(z3_channel(), vector=v)



class TestUnequalDims:
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_controlled_shift_is_detected(self, dims):
        rep = detect_npt(controlled_shift(dims))
        p = spa_noise_weight(dims)
        assert rep.noise_p == p and rep.unital and rep.threshold == p / 36
        assert rep.lambda_minus == pytest.approx(-0.5, abs=1e-12)
        # the unital closed form: 0 on [2, 3], -1/78 on [3, 2]
        assert rep.expectation == pytest.approx((1 - p) * -0.5 + p / 36, abs=1e-12)
        assert rep.verdict == "npt_detected"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(sorted(PPT_ENSEMBLES)),
        dims=st.sampled_from([(2, 3), (3, 2)]),
        seed=st.integers(0, 2**32 - 2),
    )
    def test_ppt_channels_are_not_detected(self, kind, dims, seed):
        ch = PPT_ENSEMBLES[kind](dims, seed)
        assert detect_npt(ch).verdict == "not_detected"
        reference = detect_npt(controlled_shift(dims)).vector
        assert detect_npt(ch, vector=reference).verdict == "not_detected"


class TestAgainstDefinition:
    """The closed forms in Choi matrices against Choi states built map by map."""

    REFERENCE = {
        (2, 2): cnot_channel,
        (3, 3): lambda: swap_channel(3),
        (2, 3): lambda: controlled_shift((2, 3)),
        (3, 2): lambda: controlled_shift((3, 2)),
    }

    @pytest.mark.parametrize("name, ch", list(definition_cases()))
    def test_closed_forms_match_the_definition(self, name, ch):
        dims, dim = ch.dims, ch.dim
        mixed = np.eye(dim) / dim

        def t_a(x):
            return partial_transpose(x, dims, 0)

        def composite(p):
            return choi_by_definition(lambda x: apply(ch, (1 - p) * t_a(x) + p * np.trace(x) * mixed), dims)

        choi_mt = choi_by_definition(lambda x: t_a(apply(ch, t_a(x))), dims)
        np.testing.assert_allclose(ppt_conjugate(ch).matrix, choi_mt, atol=1e-12)
        np.testing.assert_allclose(spa_composite(ch, 0.3).matrix, composite(0.3), atol=1e-12)

        rep = detect_npt(ch)
        if rep.vector is None:  # PPT: measure a reference gate's witness instead
            rep = detect_npt(ch, vector=detect_npt(self.REFERENCE[dims]()).vector)
        np.testing.assert_allclose(rep.composite.matrix, composite(rep.noise_p), atol=1e-12)
        assert rep.unital == is_unital(ch)
        proj = partial_transpose(rep.witness.operator, rep.witness.dims, 0)
        expected = {
            "term_transpose": np.trace(proj @ choi_mt).real,
            "term_noise_mt": np.trace(proj @ np.kron(t_a(apply(ch, t_a(mixed))), mixed)).real,
            "term_noise_m": np.trace(proj @ np.kron(apply(ch, mixed), mixed)).real,
        }
        for field, value in expected.items():
            assert getattr(rep, field) == pytest.approx(value, abs=1e-12), field


def negative_eigenpair(m):
    """lambda_- of ``m``, the unit vector ``detect_npt`` builds its witness from, and whether lambda_- is degenerate.

    The vector is None when lambda_- >= -ATOL, where no witness is built.
    """
    w = np.linalg.eigvalsh(m)
    k = int(np.sum(w - w[0] <= ATOL))
    return float(w[0]), None if w[0] >= -ATOL else _negative_eigenvector(m, w, k), k > 1


class TestDegenerateWitness:
    def test_vector_depends_only_on_the_eigenspace(self):
        for d in (2, 3):
            choi = ppt_conjugate(swap_channel(d))
            w, v = np.linalg.eigh(choi.matrix)
            k = int(np.sum(w - w[0] <= ATOL))
            assert k == d * d * (d * d - 1) // 2  # the antisymmetric subspace
            lam, x, degenerate = negative_eigenpair(choi.matrix)
            assert degenerate
            np.testing.assert_allclose(choi.matrix @ x, lam * x, atol=1e-12)
            b = np.arange(1, w.size + 1) / w.size
            # the projection of b from any orthonormal basis of the eigenspace, Haar-mixed ones included
            for basis in (v[:, :k], *(v[:, :k] @ haar_unitary(k, seed) for seed in range(3))):
                y = basis @ (basis.conj().T @ b)
                np.testing.assert_allclose(x, y / np.linalg.norm(y), atol=1e-12)

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


def singular_solve(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


class TestNegativeEigenpair:
    def test_matches_eigh_on_random_npt_channels(self):
        simple = 0
        for dims in ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3)):
            for seed in range(50):
                m = ppt_conjugate(random_channel(dims, 700 + seed)).matrix
                lam, x, degenerate = negative_eigenpair(m)
                if x is None or degenerate:
                    continue
                simple += 1
                w, v = np.linalg.eigh(m)
                assert abs(lam - w[0]) <= 1e-14
                np.testing.assert_allclose(np.outer(x, x.conj()), np.outer(v[:, 0], v[:, 0].conj()), atol=1e-12)
                assert np.max(np.abs(m @ x - lam * x)) <= ATOL
        assert simple >= 200

    @pytest.mark.parametrize(
        "ch",
        [
            cnot_channel(),
            unitary_channel(np.diag([1, 1, 1, -1]), (2, 2)),
            z3_channel(),
            controlled_shift((2, 3)),
            controlled_shift((3, 2)),
        ],
        ids=["cnot", "cz", "z3", "shift23", "shift32"],
    )
    def test_exact_rational_channels_solve(self, ch):
        # exact entries give an exact lambda_-, so the shifted matrix can be exactly singular (the CZ's is)
        m = ppt_conjugate(ch).matrix
        lam, x, degenerate = negative_eigenpair(m)
        assert lam < -ATOL and not degenerate
        v = np.linalg.eigh(m)[1][:, 0]
        np.testing.assert_allclose(np.outer(x, x.conj()), np.outer(v, v.conj()), atol=1e-12)
        assert np.max(np.abs(m @ x - lam * x)) <= ATOL
        assert detect_npt(ch).verdict == "npt_detected"

    def test_singular_shift_is_retried_below_lambda(self, monkeypatch):
        from chandet import pptdetect

        m = ppt_conjugate(cnot_channel()).matrix
        solve, shifted = np.linalg.solve, []

        def singular_once(a, b):
            shifted.append(a)
            if len(shifted) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(pptdetect.np.linalg, "solve", singular_once)
        lam, x, _ = negative_eigenpair(m)
        # the retry moves only the diagonal, by a positive nudge of rounding size
        step = shifted[1] - shifted[0]
        assert np.count_nonzero(step - np.diag(np.diag(step))) == 0
        assert np.all(step.diagonal().real > 0) and np.max(step.diagonal().real) <= 1e-13
        v = np.linalg.eigh(m)[1][:, 0]
        np.testing.assert_allclose(np.outer(x, x.conj()), np.outer(v, v.conj()), atol=1e-12)
        assert np.max(np.abs(m @ x - lam * x)) <= ATOL

    @pytest.mark.parametrize(
        "ch, calls",
        [
            (identity_channel([2, 2]), {"eigvalsh": 1}),
            (random_sru_channel((3, 3), seed=5), {"eigvalsh": 1}),
            (cnot_channel(), {"eigvalsh": 1, "solve": 1}),
            (swap_channel(2), {"eigvalsh": 1, "eigh": 1}),
        ],
        ids=["identity", "sru-mix", "cnot", "swap"],
    )
    def test_eigensolver_calls(self, monkeypatch, ch, calls):
        from chandet import pptdetect

        counted = {}
        for name in ("eigvalsh", "eigh", "solve"):

            def counting(*args, _name=name, _call=getattr(np.linalg, name)):
                counted[_name] = counted.get(_name, 0) + 1
                return _call(*args)

            monkeypatch.setattr(pptdetect.np.linalg, name, counting)
        detect_npt(ch)
        assert counted == calls

    @pytest.mark.parametrize(
        "ch",
        [*(random_channel((2, 2), seed) for seed in range(900, 905)), swap_channel(2)],
        ids=[*(f"random-{seed}" for seed in range(900, 905)), "swap"],
    )
    def test_supplied_vector_needs_no_eigenvector(self, monkeypatch, ch):
        from chandet import pptdetect

        own = detect_npt(ch)
        assert own.lambda_minus < -ATOL
        reference = detect_npt(cnot_channel()).vector
        counted = {}
        for name in ("eigh", "solve"):

            def counting(*args, _name=name, _call=getattr(np.linalg, name)):
                counted[_name] = counted.get(_name, 0) + 1
                return _call(*args)

            monkeypatch.setattr(pptdetect.np.linalg, name, counting)
        supplied = detect_npt(ch, vector=own.vector)
        detect_npt(ch, vector=reference)
        assert counted == {}
        # the channel's own vector, supplied, gives the report that deriving it gave, but for a degenerate note
        for f in fields(own):
            a, b = getattr(supplied, f.name), getattr(own, f.name)
            if f.name == "composite":
                assert a.matrix.tobytes() == b.matrix.tobytes()
            elif f.name == "vector":
                assert a.tobytes() == b.tobytes() and not a.flags.writeable
            elif f.name == "note" and own.degenerate:
                assert a is None
            else:
                assert a is b or a == b, f.name

    @pytest.mark.parametrize(
        "solve, message",
        [
            (lambda a, b: b, "eigenvector of lambda_- = "),
            (lambda a, b: np.full_like(b, np.nan), "eigenvector of lambda_- = "),
            (singular_solve, "inverse iteration at lambda_- = "),
        ],
        ids=["not-an-eigenvector", "nan", "singular"],
    )
    def test_failed_solve_exits_numerical(self, monkeypatch, tmp_path, capsys, solve, message):
        from chandet import cli, pptdetect

        monkeypatch.setattr(pptdetect.np.linalg, "solve", solve)
        path = tmp_path / "cnot.json"
        path.write_text('{"dims": [2, 2], "kind": "named", "name": "cnot"}')
        code = cli.main(["detect-npt", "--channel", str(path)])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_NUMERICAL_ERROR and out == ""
        assert err.startswith(f"validation error: {message}")
