import numpy as np
import pytest

from chandet.channels import (
    Channel,
    ValidationError,
    cnot_channel,
    depolarizing_channel,
    identity_channel,
    unitary_channel,
    z3_channel,
)
from chandet.detect import (
    MAX_SWEEPS,
    SWEEP_TOL,
    Verdict,
    Witness,
    _alternating_ascent,
    alpha_sru_optimize,
    build_sru_witness,
    choi_vector,
    classify_violation,
    eb_witness,
    evaluate_witness,
    operator_schmidt,
    product_overlap,
    robustness_bounds,
    stabilizer_witness,
)
from chandet.ensembles import random_separable_state, random_sru_channel
from chandet.qmath import PAULI, haar_unitary, kron, max_entangled, partial_trace

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]
CNOT = np.eye(4, dtype=complex)
CNOT[2:, 2:] = X
Z3 = np.diag([1.0] * 8 + [-1.0]).astype(complex)
SQRT17 = np.sqrt(17.0)
Z3_SIGMA_1 = np.sqrt((9 + SQRT17) / 2) / 3
Z3_SIGMA_2 = np.sqrt((9 - SQRT17) / 2) / 3
HAAR9 = [haar_unitary(9, seed) for seed in (500, 501, 502)]


def reference_climb(u, da, db, ub0):
    """One start of the ascent as a plain loop: kron, partial_trace and polar steps."""

    def polar(f):
        w, _, vh = np.linalg.svd(f)
        return w @ vh

    eye_a, eye_b = np.eye(da), np.eye(db)
    ub, prev = ub0, -1.0
    for _ in range(MAX_SWEEPS):
        ua = polar(partial_trace(np.kron(eye_a, ub.conj().T) @ u, (da, db), keep=[0]))
        g = partial_trace(np.kron(ua.conj().T, eye_b) @ u, (da, db), keep=[1])
        ub = polar(g)
        val = float(np.linalg.svd(g, compute_uv=False).sum()) / (da * db)
        if val - prev < SWEEP_TOL:
            break
        prev = val
    return val, ua, ub


def start_points(db, starts, seed):
    return np.stack([haar_unitary(db, np.random.default_rng([seed, k])) for k in range(starts)])


class TestOperatorSchmidt:
    def test_cnot_rank_and_coefficients(self):
        sd = operator_schmidt(CNOT, 2, 2)
        assert sd.rank == 2
        np.testing.assert_allclose(sd.sigmas, [1 / np.sqrt(2)] * 2, atol=1e-12)
        # degenerate coefficients: factors are not unique, check reconstruction only
        np.testing.assert_allclose(sd.reconstruct(), CNOT, atol=1e-10)

    def test_z3_closed_form(self):
        sd = operator_schmidt(Z3, 3, 3)
        assert sd.rank == 2
        np.testing.assert_allclose(sd.sigmas, [Z3_SIGMA_1, Z3_SIGMA_2], atol=1e-12)
        a1 = np.sqrt(3) / np.sqrt(102 + 22 * SQRT17) * np.diag([5 + SQRT17, 5 + SQRT17, 1 + SQRT17])
        a2 = np.sqrt(3) / np.sqrt(102 - 22 * SQRT17) * np.diag([5 - SQRT17, 5 - SQRT17, 1 - SQRT17])
        b1 = np.sqrt(3) / np.sqrt(646 + 150 * SQRT17) * np.diag([11 + 3 * SQRT17, 11 + 3 * SQRT17, 9 + SQRT17])
        b2 = np.sqrt(3) / np.sqrt(646 - 150 * SQRT17) * np.diag([11 - 3 * SQRT17, 11 - 3 * SQRT17, 9 - SQRT17])
        np.testing.assert_allclose(sd.a_factors[0], a1, atol=1e-10)
        np.testing.assert_allclose(sd.a_factors[1], a2, atol=1e-10)
        np.testing.assert_allclose(sd.b_factors[0], b1, atol=1e-10)
        np.testing.assert_allclose(sd.b_factors[1], b2, atol=1e-10)

    def test_product_unitary_rank_one(self):
        u = kron(haar_unitary(2, 0), haar_unitary(2, 1))
        sd = operator_schmidt(u, 2, 2)
        assert sd.rank == 1
        assert abs(sd.sigmas[0] - 1.0) < 1e-12

    def test_reconstruction_and_normalization(self):
        rng = np.random.default_rng(2)
        for dims in ((2, 2), (2, 3), (3, 3)):
            da, db = dims
            o = rng.standard_normal((da * db, da * db)) + 1j * rng.standard_normal((da * db, da * db))
            sd = operator_schmidt(o, da, db)
            np.testing.assert_allclose(sd.reconstruct(), o, atol=1e-10)
            for factors, d in ((sd.a_factors, da), (sd.b_factors, db)):
                gram = np.array(
                    [[np.trace(f1.conj().T @ f2) for f2 in factors] for f1 in factors]
                )
                np.testing.assert_allclose(gram, d * np.eye(sd.rank), atol=1e-9)
            assert np.all(np.diff(sd.sigmas) <= 1e-12)

    def test_unitary_sigma_square_sum(self):
        for seed in range(5):
            u = haar_unitary(9, seed)
            sd = operator_schmidt(u, 3, 3)
            assert abs(np.sum(sd.sigmas**2) - 1.0) < 1e-10

    def test_phase_gauge(self):
        rng = np.random.default_rng(3)
        o = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        sd = operator_schmidt(o, 2, 3)
        for a in sd.a_factors:
            flat = a.reshape(-1)
            first = flat[np.flatnonzero(np.abs(flat) > 1e-12)[0]]
            assert abs(first.imag) < 1e-12 and first.real > 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            operator_schmidt(np.eye(4), 2, 3)


class TestAlphaSruOptimize:
    def test_cnot_value_and_maximizer(self):
        val, ua, ub = alpha_sru_optimize(CNOT, (2, 2), starts=20, seed=0)
        assert abs(val - 1 / np.sqrt(2)) < 1e-6
        assert abs(product_overlap(CNOT, ua, ub) - val) < 1e-9

    def test_phase_gate_pair_achieves_maximum(self):
        s_gate = np.diag([1, 1j])
        v = np.cos(np.pi / 4) * I2 - 1j * np.sin(np.pi / 4) * X  # exp(-i pi X / 4)
        assert product_overlap(CNOT, s_gate, v) >= 1 / np.sqrt(2) - 1e-10

    def test_product_unitary_scores_one(self):
        for u in (kron(haar_unitary(2, 5), haar_unitary(2, 6)), np.eye(4)):
            val, _, _ = alpha_sru_optimize(u, (2, 2), starts=5, seed=0)
            assert 1 - 1e-9 <= val <= 1.0
            build_sru_witness(u, (2, 2), val**2)  # needs alpha_sq in (0, 1]

    def test_z3_value(self):
        val, _, _ = alpha_sru_optimize(Z3, (3, 3), starts=50, seed=0)
        assert abs(val - 0.786) < 0.01

    def test_never_exceeds_sigma1(self):
        for seed in range(10):
            u = haar_unitary(4, 300 + seed)
            s1 = operator_schmidt(u, 2, 2).sigmas[0]
            val, _, _ = alpha_sru_optimize(u, (2, 2), starts=5, seed=seed)
            assert val <= s1 + 1e-9

    def test_two_qubit_matches_sigma1(self):
        for seed in range(10):
            u = haar_unitary(4, 400 + seed)
            s1 = operator_schmidt(u, 2, 2).sigmas[0]
            val, _, _ = alpha_sru_optimize(u, (2, 2), starts=12, seed=seed)
            assert abs(val - s1) < 1e-6

    def test_sweeps_monotone(self):
        for u in (Z3, HAAR9[0]):
            history = []
            val, _, _ = _alternating_ascent(u, 3, 3, start_points(3, 12, 9), record=history)
            sweeps = np.array(history)
            assert sweeps.shape[1] == 12
            for k, column in enumerate(sweeps.T):
                run = column[~np.isnan(column)]
                assert run.size >= 1
                assert np.isnan(column[run.size :]).all()  # a stopped start stays stopped
                assert np.all(np.diff(run) >= -1e-12)
                assert run[-1] == val[k]

    @pytest.mark.parametrize("u", [Z3] + HAAR9, ids=["z3", "haar0", "haar1", "haar2"])
    def test_batch_matches_per_start_loop(self, u):
        for starts, seed in ((1, 0), (1, 4), (7, 3), (20, 0), (50, 1)):
            ub0 = start_points(3, starts, seed)
            climbs = [reference_climb(u, 3, 3, b) for b in ub0]
            ref = max(climbs, key=lambda c: c[0])[0]
            vals, _, _ = _alternating_ascent(u, 3, 3, ub0)
            np.testing.assert_allclose(vals, [c[0] for c in climbs], rtol=0, atol=1e-14)
            val, ua, ub = alpha_sru_optimize(u, (3, 3), starts=starts, seed=seed)
            assert abs(val - min(ref, 1.0)) <= 1e-14
            assert abs(product_overlap(u, ua, ub) - val) <= 1e-12

    def test_single_start_is_one_climb(self):
        for u in (Z3, HAAR9[1]):
            val, ua, ub = alpha_sru_optimize(u, (3, 3), starts=1, seed=2)
            ref_val, ref_ua, ref_ub = reference_climb(u, 3, 3, start_points(3, 1, 2)[0])
            assert abs(val - ref_val) <= 1e-14
            np.testing.assert_allclose(ua, ref_ua, atol=1e-10)
            np.testing.assert_allclose(ub, ref_ub, atol=1e-10)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            alpha_sru_optimize(np.diag([1.0, 1.0, 1.0, 0.5]), (2, 2))

    def test_seed_deterministic(self):
        v1 = alpha_sru_optimize(Z3, (3, 3), starts=5, seed=11)[0]
        v2 = alpha_sru_optimize(Z3, (3, 3), starts=5, seed=11)[0]
        assert v1 == v2


class TestSruWitness:
    def test_cnot_witness_detects_cnot(self):
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        assert abs(evaluate_witness(w, cnot_channel()) + 0.5) < 1e-12
        assert w.alpha_s_sq is not None and abs(w.alpha_s_sq - 0.5) < 1e-10

    def test_identity_channel_value(self):
        # overlap oracle: <alpha|(CNOT kron I)|alpha> = Tr[CNOT]/4 = 1/2
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        alpha = max_entangled(4)
        overlap = alpha.conj() @ (kron(CNOT, np.eye(4)) @ alpha)
        expected = 0.5 - abs(overlap) ** 2
        assert abs(expected - 0.25) < 1e-12
        assert abs(evaluate_witness(w, identity_channel([2, 2])) - expected) < 1e-12

    def test_nonnegative_on_random_srus(self):
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        for seed in range(50):
            ch = random_sru_channel((2, 2), seed=seed)
            assert evaluate_witness(w, ch) >= -1e-9

    def test_z3_witness_value(self):
        alpha, _, _ = alpha_sru_optimize(Z3, (3, 3), starts=50, seed=0)
        w = build_sru_witness(Z3, (3, 3), alpha**2)
        val = evaluate_witness(w, z3_channel())
        assert abs(val - (alpha**2 - 1.0)) < 1e-10

    def test_choi_vector_normalization(self):
        ket = choi_vector(CNOT, (2, 2))
        assert abs(np.linalg.norm(ket) - 1.0) < 1e-12

    def test_alpha_ordering_enforced(self):
        with pytest.raises(ValueError, match="exceeds"):
            Witness(operator=np.eye(16), kind="sru", dims=(2, 2, 2, 2), alpha_sru_sq=0.9, alpha_s_sq=0.5)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            build_sru_witness(CNOT, (2, 2), 0.0)


class TestEbWitness:
    def test_depolarizing_curve(self):
        w = eb_witness()
        for p in (0.0, 0.25, 0.5, 1.0):
            val = evaluate_witness(w, depolarizing_channel(p))
            assert abs(val - (p - 0.5)) < 1e-12

    def test_bell_state_expectation(self):
        alpha = max_entangled(2)
        val = np.trace(eb_witness().operator @ np.outer(alpha, alpha.conj())).real
        assert abs(val + 0.5) < 1e-12

    def test_max_eigenvalue(self):
        assert abs(eb_witness().max_eigenvalue() - 0.5) < 1e-12

    def test_nonnegative_on_separable_states(self):
        w = eb_witness()
        for seed in range(100):
            rho = random_separable_state((2, 2), seed=seed)
            assert np.trace(w.operator @ rho).real >= -1e-9


class TestStabilizerWitness:
    GENS = ("XXXI", "IXIX", "ZIZI", "ZZIZ")

    def test_detects_cnot(self):
        w = stabilizer_witness(self.GENS)
        assert abs(evaluate_witness(w, cnot_channel()) + 1.0) < 1e-10

    def test_maximally_mixed_value(self):
        w = stabilizer_witness(self.GENS)
        assert abs(np.trace(w.operator @ (np.eye(16) / 16)).real - 2.0) < 1e-12

    def test_two_settings(self):
        from chandet.measure import group_settings, pauli_decompose

        settings = group_settings(pauli_decompose(stabilizer_witness(self.GENS).operator))
        assert sorted(s.bases for s in settings) == ["XXXX", "ZZZZ"]

    def test_signed_generators(self):
        w = stabilizer_witness(("+XXXI", "IXIX", "-ZIZI", "ZZIZ"))
        assert w.operator.shape == (16, 16)

    def test_non_commuting_rejected(self):
        with pytest.raises(ValueError, match="commute"):
            stabilizer_witness(("XXXI", "ZIII", "ZIZI", "ZZIZ"))

    def test_dependent_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            stabilizer_witness(("XXXI", "IXIX", "XIXX", "ZZIZ"))

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="4 generators"):
            stabilizer_witness(("XX", "ZZ"))


class TestVerdicts:
    def _z3_witness(self, alpha_sru_sq=0.786**2):
        return Witness(
            operator=alpha_sru_sq * np.eye(81) - np.outer(choi_vector(Z3, (3, 3)), choi_vector(Z3, (3, 3)).conj()),
            kind="sru",
            dims=(3, 3, 3, 3),
            alpha_sru_sq=alpha_sru_sq,
            alpha_s_sq=Z3_SIGMA_1**2,
        )

    def test_not_separable(self):
        w = self._z3_witness()
        value = 0.786**2 - 1.0
        assert value < w.alpha_sru_sq - w.alpha_s_sq
        assert classify_violation(value, w) is Verdict.NOT_SEPARABLE

    def test_not_sru_between_thresholds(self):
        assert classify_violation(-0.05, self._z3_witness()) is Verdict.NOT_SRU

    def test_undetected(self):
        assert classify_violation(0.1, self._z3_witness()) is Verdict.UNDETECTED

    def test_missing_coefficients(self):
        with pytest.raises(ValueError):
            classify_violation(-0.1, eb_witness())


class TestRobustnessBounds:
    def test_depolarizing_quarter(self):
        w = eb_witness()
        c = evaluate_witness(w, depolarizing_channel(0.25))
        rep = robustness_bounds(c, w)
        assert abs(rep.c + 0.25) < 1e-12
        assert abs(rep.w_max - 0.5) < 1e-12
        assert abs(rep.robustness_lb - 0.5) < 1e-10
        p = 0.25
        assert abs(rep.mu_c_lb - (1 - 2 * p) / (2 - 2 * p)) < 1e-10
        # stays below the exact critical mixing weight for this channel family
        assert rep.mu_c_lb <= (2 - 4 * p) / (3 - 4 * p) + 1e-12

    def test_zero_expectation(self):
        rep = robustness_bounds(0.0, eb_witness())
        assert rep.robustness_lb == 0.0 and rep.mu_c_lb == 0.0

    def test_positive_expectation(self):
        rep = robustness_bounds(0.3, eb_witness())
        assert rep.robustness_lb == 0.0 and rep.mu_c_lb == 0.0

    def test_rounding_below_zero_gives_no_bound(self):
        # depolarizing at p = 1/2 is exactly entanglement breaking; Tr[W C] = -8e-17
        w = eb_witness()
        c = evaluate_witness(w, depolarizing_channel(0.5))
        assert c < 0.0
        rep = robustness_bounds(c, w)
        assert rep.robustness_lb == 0.0 and rep.mu_c_lb == 0.0


class TestEvaluateWitness:
    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            evaluate_witness(eb_witness(), cnot_channel())

    def test_matches_trace_formula(self):
        w = eb_witness()
        ch = depolarizing_channel(0.3)
        direct = np.trace(w.operator @ ch.choi.matrix).real
        assert evaluate_witness(w, ch) == direct

    def test_non_tp_channel_still_evaluates(self):
        half = Channel([np.sqrt(0.5) * np.eye(2)], [2], require_tp=False)
        val = evaluate_witness(eb_witness(), half)
        assert abs(val + 0.25) < 1e-12
