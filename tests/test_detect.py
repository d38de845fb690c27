import tracemalloc

import numpy as np
import pytest

from chandet.channels import (
    VERDICT_MARGIN,
    Channel,
    ValidationError,
    cnot_channel,
    depolarizing_channel,
    identity_channel,
    z3_channel,
)
from chandet import detect
from chandet.detect import (
    DUPLICATE_TOL,
    MAX_SWEEPS,
    SWEEP_TOL,
    TRAIL_TOL,
    _alternating_ascent,
    alpha_sru_optimize,
    build_sru_witness,
    decide,
    eb_witness,
    evaluate_witness,
    operator_schmidt,
    robustness_bounds,
    stabilizer_witness,
)
from chandet.qmath import PAULI, haar_unitary, kron, partial_trace, pauli_string
from support import CNOT, max_entangled, product_overlap, random_separable_state, random_sru_channel
from support import einsum_ascent, operator_schmidt_loop, reconstruct

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]
Z3 = np.diag([1.0] * 8 + [-1.0]).astype(complex)
SQRT17 = np.sqrt(17.0)
Z3_SIGMA_1 = np.sqrt((9 + SQRT17) / 2) / 3
Z3_SIGMA_2 = np.sqrt((9 - SQRT17) / 2) / 3
HAAR9 = [haar_unitary(9, seed) for seed in (500, 501, 502)]
HAAR_PAIRS = [
    ((3, 3), haar_unitary(9, 609)),
    ((2, 3), haar_unitary(6, 606)),
    ((3, 2), haar_unitary(6, 607)),
    ((2, 4), haar_unitary(8, 608)),
]
PAIR_IDS = ["haar33", "haar23", "haar32", "haar24"]


def choi_ket(u):
    """Choi state vector (u kron Id)|alpha> of a unitary, as a flat array."""
    return u.reshape(-1) / np.sqrt(len(u))


def reference_climb(u, da, db, ub0, record=None):
    """One start of the ascent as a plain loop: kron, partial_trace and polar steps.

    ``record`` gets each sweep's value and ub, the last one the sweep that stopped the climb.
    """

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
        if record is not None:
            record.append((val, ub))
        if val - prev < SWEEP_TOL:
            break
        prev = val
    return val, ua, ub


def start_points(db, starts, seed):
    """The optimizer's starts, drawn one at a time: the first ``starts`` Haar unitaries of ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return np.stack([haar_unitary(db, rng) for _ in range(starts)])


def duplicate_order(table, i):
    """The starts live at sweep ``i`` of a ``record`` table, ranked as the ascent's duplicate test ranks them.

    By value plus last gain, highest first, on a tie the lower index first.
    """
    cur = table[i]
    gain = cur - (table[i - 1] if i else -1.0)
    return [j for j in np.argsort(-(cur + gain), kind="stable") if not np.isnan(cur[j])]


class TestOperatorSchmidt:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_zero_operator_has_no_schmidt_terms(self, dims):
        # it was reported as rank 1 with sigma = [0.0] and arbitrary SVD factors
        d = dims[0] * dims[1]
        with pytest.raises(ValueError, match="operator has no Schmidt coefficient above 1e-12"):
            operator_schmidt(np.zeros((d, d)), *dims)
        with pytest.raises(ValueError, match="operator has no Schmidt coefficient"):
            operator_schmidt(np.full((d, d), 1e-14), *dims)

    def test_cnot_rank_and_coefficients(self):
        sd = operator_schmidt(CNOT, 2, 2)
        assert sd.rank == 2
        np.testing.assert_allclose(sd.sigmas, [1 / np.sqrt(2)] * 2, atol=1e-12)
        # degenerate coefficients: factors are not unique, check reconstruction only
        np.testing.assert_allclose(reconstruct(sd), CNOT, atol=1e-10)

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
            np.testing.assert_allclose(reconstruct(sd), o, atol=1e-10)
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

    def test_dims_are_not_truncated(self):
        with pytest.raises(ValueError, match="dimensions"):
            operator_schmidt(np.eye(4), 2.9, 2.2)
        assert operator_schmidt(Z3, np.int64(3), 3).dims == (3, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_operator_refused_before_the_svd(self, bad):
        o = np.eye(4, dtype=complex)
        o[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            operator_schmidt(o, 2, 2)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 3), (3, 2), (6, 6), (2, 18)])
    def test_matches_the_per_term_loop_bitwise(self, dims):
        da, db = dims
        d = da * db
        rng = np.random.default_rng(da * 100 + db)
        ops = [haar_unitary(d, seed) for seed in range(6)] + [
            kron(haar_unitary(da, 7), haar_unitary(db, 8)),
            np.eye(d),
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)),
            np.zeros((d, d)),
        ]
        if dims == (3, 3):
            ops.append(Z3)
        for o in ops:
            if not o.any():  # no Schmidt terms: both refuse it
                for decompose in (operator_schmidt, operator_schmidt_loop):
                    with pytest.raises(ValueError, match="no Schmidt coefficient above"):
                        decompose(o, da, db)
                continue
            got, ref = operator_schmidt(o, da, db), operator_schmidt_loop(o, da, db)
            assert (got.rank, got.dims) == (ref.rank, ref.dims)
            assert got.sigmas.tobytes() == ref.sigmas.tobytes()
            for stack, factors, side in ((got.a_factors, ref.a_factors, da), (got.b_factors, ref.b_factors, db)):
                assert stack.shape == (ref.rank, side, side)
                assert stack.tobytes() == np.array(factors).tobytes()

    def test_factor_stacks_are_read_only(self):
        sd = operator_schmidt(Z3, 3, 3)
        for stack in (sd.a_factors, sd.b_factors):
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0.0


class TestAlphaSruOptimize:
    def test_nan_gate_is_refused_before_the_ascent(self):
        # numpy's SVD did not converge on it, a LinAlgError
        with pytest.raises(ValidationError, match=r"^target unitary is not unitary: .* = nan$"):
            alpha_sru_optimize(np.full((9, 9), np.nan), (3, 3), starts=3)

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

    @pytest.mark.parametrize("dims, u", HAAR_PAIRS, ids=PAIR_IDS)
    def test_every_start_reaches_its_value(self, dims, u):
        da, db = dims
        val, ua, ub = _alternating_ascent(u, da, db, start_points(db, 20, 5))
        for k in range(20):
            assert abs(product_overlap(u, ua[k], ub[k]) - val[k]) <= 1e-14

    @pytest.mark.parametrize("cap", [2, 3])
    def test_starts_live_at_the_sweep_cap_return_their_last_state(self, monkeypatch, cap):
        u = HAAR9[0]
        # three ends of trailing climbs within 1e-3 of each other: the one ranked highest stops on its second
        # sweep, the other two as its duplicates on their first; five Haar starts are still climbing at the cap
        ub0 = np.concatenate([_alternating_ascent(u, 3, 3, start_points(3, 3, 7))[2], start_points(3, 5, 8)])

        def einsum_state(k, sweeps):  # start k's ua and ub after that many sweeps of the sharp-rule ascent
            monkeypatch.setattr(detect, "MAX_SWEEPS", sweeps)
            _, ref_ua, ref_ub = einsum_ascent(u, 3, 3, ub0[k : k + 1])
            return ref_ua[0], ref_ub[0]

        monkeypatch.setattr(detect, "MAX_SWEEPS", cap)
        history = []
        val, ua, ub = _alternating_ascent(u, 3, 3, ub0, record=history)
        sweeps = np.array(history)
        assert sweeps.shape == (cap, 8)
        live_at_cap, stops = [], []
        for k, column in enumerate(sweeps.T):
            run = column[~np.isnan(column)]
            assert np.isnan(column[run.size :]).all()  # NaN only after the start stopped
            gains = np.diff(np.concatenate([[-1.0], run]))
            assert np.all(gains[:-1] >= SWEEP_TOL)  # it climbed on every sweep before its last
            stops.append(run.size)
            live_at_cap.append(run.size == cap and gains[-1] >= SWEEP_TOL)
            assert val[k] == run[-1]
            assert abs(product_overlap(u, ua[k], ub[k]) - val[k]) <= 1e-14
            ref_ua, ref_ub = einsum_state(k, run.size)
            np.testing.assert_allclose(ua[k], ref_ua, rtol=0, atol=1e-12)
            np.testing.assert_allclose(ub[k], ref_ub, rtol=0, atol=1e-12)
            if run.size < cap and gains[-1] >= SWEEP_TOL:
                # a duplicate: near the start ranked just above it at its last sweep
                order = duplicate_order(sweeps, run.size - 1)
                assert order.index(k) > 0
                above = order[order.index(k) - 1]
                assert abs(np.vdot(einsum_state(above, run.size)[1], ub[k])) >= (1 - DUPLICATE_TOL) * 3
        assert live_at_cap == [False] * 3 + [True] * 5
        assert sorted(stops[:3]) == [1, 1, 2]

    @pytest.mark.parametrize("dims, u", HAAR_PAIRS + [((3, 3), Z3)], ids=PAIR_IDS + ["z3"])
    def test_alpha_within_16_eps_of_the_einsum_ascent(self, dims, u):
        # the products round differently from einsum; a start may then stop one sweep apart, or a
        # near-tie change winners: over 1 000 Haar gates on [3, 3], [2, 3], [3, 2], [2, 4] and
        # [4, 2] at 50 starts alpha moved by at most 2.2e-15, and by more than 4 ulp of alpha on 3%.
        # Above the sharp rule by at most 16 eps; below it by more where the best climb's duplicate
        # would have stopped higher in the same basin (at most 1.3e-13 here)
        da, db = dims
        for starts, seed in ((1, 0), (20, 3), (50, 1)):
            ref = min(float(einsum_ascent(u, da, db, start_points(db, starts, seed))[0].max()), 1.0)
            val = alpha_sru_optimize(u, dims, starts=starts, seed=seed)[0]
            assert -1e-12 <= val - ref <= 16 * np.finfo(float).eps

    @pytest.mark.parametrize("u", [Z3] + HAAR9, ids=["z3", "haar0", "haar1", "haar2"])
    def test_batch_matches_per_start_loop(self, u):
        for starts, seed in ((1, 0), (1, 4), (7, 3), (20, 0), (50, 1)):
            ub0 = start_points(3, starts, seed)
            states = [[] for _ in range(starts)]  # each sweep's (value, ub) of each start's reference climb
            climbs = [reference_climb(u, 3, 3, b, record=state) for b, state in zip(ub0, states)]
            runs = [[v for v, _ in state] for state in states]
            ref = max(climbs, key=lambda c: c[0])[0]
            history = []
            vals, _, _ = _alternating_ascent(u, 3, 3, ub0, record=history)
            table = np.vstack(history)
            best = np.maximum.accumulate(np.nanmax(table, axis=1))  # the best value of any start by each sweep
            for k, run in enumerate(runs):
                batch = table[~np.isnan(table[:, k]), k]  # NaN: stopped
                assert vals[k] == batch[-1] and climbs[k][0] == run[-1]
                m = min(batch.size, len(run))
                # the same climb sweep by sweep, up to the batch's stop (start 19 of 50 at seed 1 on
                # haar1 drifts 1.6e-14 mid-climb)
                np.testing.assert_allclose(batch[:m], run[:m], rtol=0, atol=2e-14)
                gains = np.diff(np.concatenate([[-1.0], batch]))
                if batch.size < len(run):
                    # the reference keeps the sharp rule; the batch stops a start that trails the best
                    # once it gains less than TRAIL_TOL and a tenth of its gap at that sweep, and a
                    # duplicate: a start whose ub is within DUPLICATE_TOL of the live start's ranked just above it
                    trailing = gains[-1] < np.clip((best[m - 1] - batch[-1]) / 10, SWEEP_TOL, TRAIL_TOL)
                    order = duplicate_order(table, m - 1)
                    at = order.index(k)
                    above = states[order[at - 1]]
                    overlap = abs(np.vdot(above[min(m, len(above)) - 1][1], states[k][m - 1][1])) / 3
                    assert trailing or (at > 0 and overlap >= 1 - DUPLICATE_TOL)
                elif batch.size > len(run):
                    # the sums run in another order: a gain within rounding of SWEEP_TOL may stop the
                    # reference a sweep before the batch (no start here does so with OpenBLAS 0.3 on x86-64)
                    stop_gain = run[-1] - (run[-2] if len(run) > 1 else -1.0)
                    assert stop_gain < SWEEP_TOL <= gains[m - 1]
                    assert max(SWEEP_TOL - stop_gain, gains[m - 1] - SWEEP_TOL) <= 1e-15
                    assert abs(batch[-1] - run[-1]) <= gains[m - 1]
            # the best start still reaches the reference's best, up to where in its basin a duplicate of it
            # would have stopped
            assert abs(vals.max() - ref) <= 1e-12
            val, ua, ub = alpha_sru_optimize(u, (3, 3), starts=starts, seed=seed)
            assert abs(val - min(ref, 1.0)) <= 1e-12
            assert abs(product_overlap(u, ua, ub) - val) <= 1e-12

    def test_a_trailing_start_passing_a_saddle_climbs_on(self):
        # start 0 trails start 1 with gains of about 1e-3 at sweep 3, then escapes to the top basin; stopped
        # by a tenth of its gap alone it would end 0.062 lower, and win nothing
        ref = einsum_ascent(HAAR9[1], 3, 3, start_points(3, 2, 5))[0].max()
        assert abs(alpha_sru_optimize(HAAR9[1], (3, 3), starts=2, seed=5)[0] - min(ref, 1.0)) <= 1e-14

    @pytest.mark.parametrize("u", [Z3] + HAAR9, ids=["z3", "haar0", "haar1", "haar2"])
    def test_a_phase_copy_of_a_start_stops_on_its_first_sweep(self, u):
        # a sweep commutes with a global phase of ub, so the copy climbs the start's climb; the one of the
        # two ranked lower on sweep 1 (the copy on a tie) stops there and leaves no trace on the rest
        a, c = start_points(3, 2, 1)
        pair = (a, np.exp(0.7j) * a)
        history = []
        _alternating_ascent(u, 3, 3, np.stack([*pair, c]), record=history)
        table = np.array(history)
        assert not np.isnan(table[0]).any()
        stopped = np.isnan(table[1:, :2]).all(axis=0)
        assert stopped.sum() == 1
        survivor = int(np.flatnonzero(~stopped)[0])
        lone = []
        _alternating_ascent(u, 3, 3, np.stack([pair[survivor], c]), record=lone)
        assert table[:, [survivor, 2]].tobytes() == np.array(lone).tobytes()

    @pytest.mark.parametrize("dims", [(3, 3), (2, 3), (2, 4), (3, 4)])
    def test_duplicate_stops_never_lower_alpha(self, dims):
        # a duplicate stops before SWEEP_TOL, so its basin's best is where the start above it stops: the
        # loss is within the stop's own rounding, no basin is lost (1 200 runs on [3, 3], [2, 3], [2, 4]
        # and [3, 4] fell by at most 8.4e-13, on [3, 4]; here by at most 4.5e-13)
        da, db = dims
        for gate in range(16):
            u = haar_unitary(da * db, 36_000 + 100 * da + 10 * db + gate)
            for starts in (5, 50):
                seed = gate + starts
                ref = min(float(einsum_ascent(u, da, db, start_points(db, starts, seed))[0].max()), 1.0)
                assert alpha_sru_optimize(u, dims, starts=starts, seed=seed)[0] >= ref - 1e-12

    @pytest.mark.parametrize("dims", [(3, 3), (2, 3), (2, 4)])
    def test_trailing_stops_never_lower_alpha(self, dims):
        # einsum_ascent keeps the sharp rule: every start climbs until a sweep gains less than SWEEP_TOL
        da, db = dims
        for gate in range(4):
            u = haar_unitary(da * db, 700 + 10 * da + db + gate)
            for starts in (1, 2, 5, 50):
                seed = gate + starts
                ref = min(float(einsum_ascent(u, da, db, start_points(db, starts, seed))[0].max()), 1.0)
                assert alpha_sru_optimize(u, dims, starts=starts, seed=seed)[0] >= ref - 1e-12

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

    def test_traced_peak_at_the_start_limit_is_linear_in_the_starts(self):
        # 8 246 starts on [3, 3] trace about 12.9 MB: arrays of starts x 9 entries and the batched SVDs'
        # copies; one comparison of every pair of starts would take 1.09 GB
        tracemalloc.start()
        try:
            alpha_sru_optimize(HAAR9[0], (3, 3), starts=8_246)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    @pytest.mark.parametrize("starts", [2.5, 2.0, "2", True])
    def test_starts_are_not_truncated(self, starts):
        with pytest.raises(TypeError, match="starts must be an integer"):
            alpha_sru_optimize(Z3, (3, 3), starts=starts)

    @pytest.mark.parametrize("dims, limit", [((3, 3), 8_246), ((6, 6), 644), ((2, 18), 156), ((2, 3), 15_679)])
    def test_starts_budget_refuses_before_any_start_is_drawn(self, monkeypatch, dims, limit):
        def no_starts(*args, **kwargs):
            raise AssertionError("no start may be drawn")

        monkeypatch.setattr(detect, "_haar_stack", no_starts)
        u = np.eye(dims[0] * dims[1])
        with pytest.raises(ValueError) as exc:
            alpha_sru_optimize(u, dims, starts=limit + 1)
        assert str(exc.value) == f"starts must be >= 1 and at most {limit} on dims {list(dims)}, got {limit + 1}"
        # the limit itself is admitted: identity starts and one sweep stand in for the draw and the climb
        drawn = []
        monkeypatch.setattr(detect, "_haar_stack", lambda db, rng, n: drawn.append(n) or np.stack([np.eye(db)] * n))
        monkeypatch.setattr(detect, "_alternating_ascent", lambda u, da, db, ub0: (np.ones(len(ub0)), ub0, ub0))
        assert alpha_sru_optimize(u, dims, starts=limit)[0] == 1.0
        assert drawn == [limit]

    def test_default_starts_run_on_the_largest_dims(self, monkeypatch):
        climbed = []

        def one_sweep(u, da, db, ub0):
            climbed.append(ub0.shape)
            return np.ones(len(ub0)), np.stack([np.eye(da)] * len(ub0)), ub0

        monkeypatch.setattr(detect, "_alternating_ascent", one_sweep)
        for starts in (50, 156):
            assert alpha_sru_optimize(np.eye(36), (2, 18), starts=starts)[0] == 1.0
        assert climbed == [(50, 18, 18), (156, 18, 18)]

    def test_seed_deterministic(self):
        v1 = alpha_sru_optimize(Z3, (3, 3), starts=5, seed=11)[0]
        v2 = alpha_sru_optimize(Z3, (3, 3), starts=5, seed=11)[0]
        assert v1 == v2

    @pytest.mark.parametrize(
        "dims, u",
        [((3, 3), Z3), ((3, 3), HAAR9[0]), *HAAR_PAIRS[:3]]
        + [((2, 6), haar_unitary(12, 612)), ((2, 18), haar_unitary(36, 636))],
        ids=["z3", "haar0", *PAIR_IDS[:3], "haar26", "haar2_18"],
    )
    def test_repeated_runs_give_the_drawn_result(self, dims, u):
        def drawn(seed):  # the ascent from a stack drawn for this call alone
            val, ua, ub = _alternating_ascent(u, *dims, start_points(dims[1], 12, seed))
            best = int(np.argmax(val))
            return min(float(val[best]), 1.0), ua[best], ub[best]

        def assert_same(got, ref):
            assert got[0] == ref[0]
            assert got[1].tobytes() == ref[1].tobytes() and got[2].tobytes() == ref[2].tobytes()

        ref = {seed: drawn(seed) for seed in (3, 2**40)}
        for seed in (3, 3, 2**40, 2**40, 3):  # no run depends on the one before it
            assert_same(alpha_sru_optimize(u, dims, starts=12, seed=seed), ref[seed])

    @pytest.mark.parametrize("seed", [3.5, True, "3"])
    def test_a_seed_that_is_no_integer_is_refused(self, seed):
        with pytest.raises(TypeError, match="seed must be an integer"):
            alpha_sru_optimize(Z3, (3, 3), starts=5, seed=seed)

    @pytest.mark.parametrize("seed", [3.0, np.int64(3)], ids=["float", "int64"])
    def test_seed_is_taken_as_an_int(self, seed):
        got, ref = alpha_sru_optimize(Z3, (3, 3), starts=5, seed=seed), alpha_sru_optimize(Z3, (3, 3), starts=5, seed=3)
        assert got[0] == ref[0] and got[1].tobytes() == ref[1].tobytes() and got[2].tobytes() == ref[2].tobytes()
        with pytest.raises(TypeError):  # a Generator is not a seed
            alpha_sru_optimize(Z3, (3, 3), starts=5, seed=np.random.default_rng(3))

    @pytest.mark.parametrize("u", [Z3, HAAR9[0], HAAR9[1]], ids=["z3", "haar0", "haar1"])
    def test_alpha_never_falls_as_starts_grow(self, u):
        # a run's starts are the first of every longer run's at its seed, so the best can only rise, up to
        # where in its basin the best climb stops: a later start may stop it as a duplicate (at most 1.4e-13)
        for seed in (0, 5):
            alphas = [alpha_sru_optimize(u, (3, 3), starts=n, seed=seed)[0] for n in (1, 2, 5, 12, 30, 50)]
            assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))


class TestSruWitness:
    def test_nan_gate_is_refused_as_the_target(self):
        # not as a witness that is not Hermitian by a NaN deviation
        with pytest.raises(ValidationError, match=r"^target unitary is not unitary: .* = nan$"):
            build_sru_witness(np.full((4, 4), np.nan), (2, 2), 0.5)

    def test_cnot_witness_detects_cnot(self):
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        assert abs(evaluate_witness(w, cnot_channel().choi) + 0.5) < 1e-12
        assert abs(operator_schmidt(CNOT, 2, 2).sigmas[0] ** 2 - 0.5) < 1e-10

    def test_identity_channel_value(self):
        # overlap oracle: <alpha|(CNOT kron I)|alpha> = Tr[CNOT]/4 = 1/2
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        alpha = max_entangled(4)
        overlap = alpha.conj() @ (kron(CNOT, np.eye(4)) @ alpha)
        expected = 0.5 - abs(overlap) ** 2
        assert abs(expected - 0.25) < 1e-12
        assert abs(evaluate_witness(w, identity_channel([2, 2]).choi) - expected) < 1e-12

    def test_nonnegative_on_random_srus(self):
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        for seed in range(50):
            ch = random_sru_channel((2, 2), seed=seed)
            assert evaluate_witness(w, ch.choi) >= -1e-9

    def test_z3_witness_value(self):
        alpha, _, _ = alpha_sru_optimize(Z3, (3, 3), starts=50, seed=0)
        w = build_sru_witness(Z3, (3, 3), alpha**2)
        val = evaluate_witness(w, z3_channel().choi)
        assert abs(val - (alpha**2 - 1.0)) < 1e-10

    def test_choi_vector_normalization(self):
        # alpha^2 Id - W is the projector onto the gate's unit-norm Choi vector
        w = build_sru_witness(Z3, (3, 3), 0.6)
        proj = w.alpha_sq * np.eye(81) - w.operator
        assert abs(np.trace(proj).real - 1.0) < 1e-12
        assert np.allclose(proj @ proj, proj, atol=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            build_sru_witness(CNOT, (2, 2), 0.0)


class TestEbWitness:
    def test_depolarizing_curve(self):
        w = eb_witness()
        for p in (0.0, 0.25, 0.5, 1.0):
            val = evaluate_witness(w, depolarizing_channel(p).choi)
            assert abs(val - (p - 0.5)) < 1e-12

    def test_bell_state_expectation(self):
        alpha = max_entangled(2)
        val = np.trace(eb_witness().operator @ np.outer(alpha, alpha.conj())).real
        assert abs(val + 0.5) < 1e-12

    def test_max_eigenvalue(self):
        # the family alpha^2 Id - P_U has eigenvalues alpha^2 and alpha^2 - 1 in closed form
        for dims in ((2,), (3,), (2, 2)):
            w = eb_witness(dims)
            eigs = np.linalg.eigvalsh(w.operator)
            assert w.alpha_sq == 1.0 / np.prod(dims) and w.kind == "eb"
            assert abs(eigs[-1] - w.alpha_sq) < 1e-12 and abs(eigs[0] - (w.alpha_sq - 1.0)) < 1e-12

    def test_qubit_witness_is_the_pauli_sum_bitwise(self):
        from chandet.qmath import pauli_string

        literal = 0.25 * (pauli_string("II") - pauli_string("XX") + pauli_string("YY") - pauli_string("ZZ"))
        assert np.array_equal(eb_witness().operator, literal)

    def test_qubit_sru_witness_is_unchanged_bitwise(self):
        # P_U = outer(vec U) / D and the old outer(vec U / sqrt(D)) agree exactly when D = 4
        ket = choi_ket(CNOT)
        reference = 0.5 * np.eye(16) - np.outer(ket, ket.conj())
        assert np.array_equal(build_sru_witness(CNOT, (2, 2), 0.5).operator, reference)

    def test_dimension_one_refused(self):
        with pytest.raises(ValueError, match="prod"):
            eb_witness((1,))

    def test_nonnegative_on_separable_states(self):
        w = eb_witness()
        for seed in range(100):
            rho = random_separable_state((2, 2), seed=seed)
            assert np.trace(w.operator @ rho).real >= -1e-9


def generic_stabilizer_witness(generators):
    """Reference copy of the generic builder that the constant CNOT witness replaced."""
    parsed = []
    for g in generators:
        sign, body = (-1.0, g[1:]) if g[0] == "-" else (1.0, g.lstrip("+"))
        parsed.append((sign, body))
    eye = np.eye(2 ** len(parsed[0][1]))
    projs = [(eye + sign * pauli_string(body)) / 2 for sign, body in parsed]
    return 3 * eye - 2 * (projs[0] @ projs[1] + projs[2] @ projs[3])


class TestStabilizerWitness:
    def test_detects_cnot(self):
        w = stabilizer_witness()
        assert abs(evaluate_witness(w, cnot_channel().choi) + 1.0) < 1e-10

    def test_maximally_mixed_value(self):
        w = stabilizer_witness()
        assert abs(np.trace(w.operator @ (np.eye(16) / 16)).real - 2.0) < 1e-12

    def test_two_settings(self):
        from chandet.measure import group_settings, pauli_decompose

        settings = group_settings(pauli_decompose(stabilizer_witness().operator))
        assert sorted(s.bases for s in settings) == ["XXXX", "ZZZZ"]

    def test_matches_the_generic_builder_bitwise(self):
        reference = generic_stabilizer_witness(("XXXI", "IXIX", "ZIZI", "ZZIZ"))
        assert np.array_equal(stabilizer_witness().operator, reference)

    def test_built_once_and_read_only(self):
        w = stabilizer_witness()
        assert stabilizer_witness() is w
        assert not w.operator.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w.operator[0, 0] = 0.0


class TestDecide:
    # Z3's SRU thresholds: alpha_SRU^2 - alpha_S^2 for alpha_SRU = 0.786, and zero
    Z3_THRESHOLDS = {"not_separable": 0.786**2 - Z3_SIGMA_1**2, "not_sru": 0.0}

    def test_not_separable(self):
        value = 0.786**2 - 1.0
        assert value < self.Z3_THRESHOLDS["not_separable"]
        assert decide("sru", value, self.Z3_THRESHOLDS) == "not_separable"

    def test_not_sru_between_thresholds(self):
        assert decide("sru", -0.05, self.Z3_THRESHOLDS) == "not_sru"

    def test_undetected(self):
        assert decide("sru", 0.1, self.Z3_THRESHOLDS) == "undetected"

    def test_below_both_sru_thresholds_is_not_separable(self):
        # the strongest claim wins, whatever order the thresholds come in
        reordered = dict(reversed(self.Z3_THRESHOLDS.items()))
        assert decide("sru", -1.0, reordered) == "not_separable"

    @pytest.mark.parametrize(
        "kind, thresholds, tier, at_margin",
        [
            ("eb", {"not_entanglement_breaking": 0.0}, "not_entanglement_breaking", "undetected"),
            ("sru", Z3_THRESHOLDS, "not_sru", "undetected"),
            # alpha_SRU = alpha_S: both thresholds are zero and the stronger claim fires first
            ("sru", {"not_separable": 0.0, "not_sru": 0.0}, "not_separable", "undetected"),
            # below zero but not by the margin below the gap: the weaker tier
            ("sru", Z3_THRESHOLDS, "not_separable", "not_sru"),
            ("ppt", {"npt_detected": 1 / 18}, "npt_detected", "not_detected"),
            ("ppt", {"npt_detected": 0.0}, "npt_detected", "not_detected"),
        ],
    )
    def test_margin_edge(self, kind, thresholds, tier, at_margin):
        edge = thresholds[tier] - VERDICT_MARGIN
        assert decide(kind, edge, thresholds) == at_margin
        assert decide(kind, np.nextafter(edge, -np.inf), thresholds) == tier

    @pytest.mark.parametrize(
        "kind, thresholds",
        [
            ("sru", {"not_sru": 0.0}),
            ("sru", {"not_sru": 0.0, "not_separable": -0.1, "not_entanglement_breaking": 0.0}),
            ("eb", {"not_sru": 0.0}),
            ("ppt", {}),
            ("stabilizer", {"not_sru": 0.0}),
            ("npt_detected", {"npt_detected": 0.0}),
        ],
    )
    def test_wrong_thresholds_or_kind_raise(self, kind, thresholds):
        with pytest.raises(ValueError):
            decide(kind, -1.0, thresholds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_no_verdict_from_a_non_finite_number(self, bad):
        with pytest.raises(ValueError, match="finite"):
            decide("eb", bad, {"not_entanglement_breaking": 0.0})
        with pytest.raises(ValueError, match="finite"):
            decide("sru", -1.0, {"not_separable": bad, "not_sru": 0.0})


class TestRobustnessBounds:
    def test_depolarizing_quarter(self):
        w = eb_witness()
        c = evaluate_witness(w, depolarizing_channel(0.25).choi)
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
        c = evaluate_witness(w, depolarizing_channel(0.5).choi)
        assert c < 0.0
        rep = robustness_bounds(c, w)
        assert rep.robustness_lb == 0.0 and rep.mu_c_lb == 0.0

    def test_needs_a_fidelity_witness(self):
        with pytest.raises(ValueError, match="alpha"):
            robustness_bounds(-0.5, stabilizer_witness())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_no_bound_from_a_non_finite_expectation(self, bad):
        with pytest.raises(ValueError, match="finite"):
            robustness_bounds(bad, eb_witness())


class TestEvaluateWitness:
    def test_dims_mismatch(self):
        with pytest.raises(ValueError, match="dims"):
            evaluate_witness(eb_witness(), cnot_channel().choi)

    def test_matches_trace_formula(self):
        w = eb_witness()
        ch = depolarizing_channel(0.3)
        direct = np.trace(w.operator @ ch.choi.matrix).real
        assert evaluate_witness(w, ch.choi) == direct

    def test_non_tp_channel_still_evaluates(self):
        half = Channel([np.sqrt(0.5) * np.eye(2)], [2], require_tp=False)
        val = evaluate_witness(eb_witness(), half.choi)
        assert abs(val + 0.25) < 1e-12
