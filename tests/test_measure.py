import functools
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chandet.channels import STATE_ATOL, ZERO_CUTOFF, Channel, cnot_channel, depolarizing_channel
from chandet.detect import Witness, build_sru_witness, eb_witness, evaluate_witness, stabilizer_witness
from chandet.measure import (
    MeasurementSetting,
    PauliTerm,
    ShotEstimate,
    _codes_of,
    _setting_probabilities,
    estimate_witness,
    group_settings,
    pauli_decompose,
)
from chandet.pptdetect import detect_npt
from chandet.qmath import PAULI, haar_unitary, kron
from support import CNOT, random_channel, random_density_matrix

I2, X = PAULI["I"], PAULI["X"]

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
        assert abs(evaluate_witness(w, cnot_channel().choi) + 0.5) < 1e-10

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
        for shape in [(0, 0), (), (1, 1), (4,), (2, 4), (2, 2, 2)]:
            with pytest.raises(ValueError, match="is not a square power of 2"):
                pauli_decompose(np.ones(shape))
        with pytest.raises(ValueError):
            pauli_decompose(np.array([[0, 1], [0, 0]], dtype=complex))


@functools.cache
def _string_matrix(string):
    p = np.array(kron(*(PAULI[ch] for ch in string)))  # a read-only copy, shared by every caller
    p.setflags(write=False)
    return p


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

    def test_rejects_malformed_strings(self):
        with pytest.raises(ValueError, match="unknown Pauli letter"):
            group_settings([PauliTerm("XA", 1.0)])
        with pytest.raises(ValueError, match="different lengths"):
            group_settings([PauliTerm("XX", 1.0), PauliTerm("Z", 1.0)])

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


class TestMeasurableDims:
    """Above MAX_QUBITS qubits the layer refuses before any Pauli table is allocated."""

    @pytest.fixture(autouse=True)
    def no_tables(self, monkeypatch):
        from chandet import measure

        def refuse(*args, **kwargs):
            raise AssertionError("the Pauli tables must not be built")

        monkeypatch.setattr(measure, "_pauli_tables", refuse)

    def test_pauli_decompose_beyond_four_qubits(self):
        with pytest.raises(ValueError) as exc:
            pauli_decompose(np.eye(32))
        assert str(exc.value) == "the operator needs dims of at most 4 qubits, got [2, 2, 2, 2, 2]"

    def test_estimate_witness_beyond_four_qubits(self):
        from chandet.channels import identity_channel

        choi = identity_channel([2, 2, 2]).choi
        with pytest.raises(ValueError) as exc:
            estimate_witness(choi, eb_witness((2, 2, 2)), 100, seed=0)
        assert str(exc.value) == "the Choi state needs dims of at most 4 qubits, got [2, 2, 2, 2, 2, 2]"


@pytest.fixture
def table_builds(monkeypatch):
    """The qubit counts the Pauli tables are built for, in order, behind a fresh cache."""
    from chandet import measure

    builds = []
    build = measure._pauli_tables.__wrapped__

    def counting_build(n):
        builds.append(n)
        return build(n)

    monkeypatch.setattr(measure, "_pauli_tables", functools.cache(counting_build))
    return builds


class TestTables:
    """Everything that depends only on the qubit count is built once per process and is read-only."""

    def test_size(self):
        # the sizes that the MAX_QUBITS comment, the module docstring and README state
        from chandet import measure

        sizes = [sum(a.nbytes for a in measure._pauli_tables(n)) for n in range(1, measure.MAX_QUBITS + 1)]
        assert (sizes[-1], sum(sizes)) == (131_200, 150_000)

    def test_built_once_per_qubit_count(self, table_builds):
        from chandet import measure

        channels = {2: depolarizing_channel(0.25), 4: cnot_channel()}
        witnesses = {1: Witness(PAULI["Z"] + PAULI["X"] / 2, "hermitian", (2,)), 2: eb_witness()}
        witnesses[4] = _sru_witness_of(haar_unitary(4, 3))
        for n in (2, 4, 2, 1, 4, 1, 2):
            w = witnesses[n]
            for _ in range(2):
                assert group_settings(pauli_decompose(w.operator))
                if n in channels:
                    estimate_witness(channels[n].choi, w, 100, seed=n)
        assert table_builds == [2, 4, 1]
        for n in table_builds:
            for table in measure._pauli_tables(n):
                with pytest.raises(ValueError, match="read-only"):
                    table[(0,) * table.ndim] = table[(0,) * table.ndim]


class TestEstimateWitness:
    @pytest.mark.parametrize("c, shots", [(0.1, 3), (0.1, 1000), (0.1, 100_000), (0.3, 100_000)])
    def test_one_outcome_settings_have_finite_error(self, c, shots):
        # every shot of both settings lands on one outcome, and rounding took their sample
        # variances below 0, so the root of the summed variance was NaN
        choi = cnot_channel().choi
        w = Witness(c * (_string_matrix("XXXI") + _string_matrix("ZIZI")), "h", (2, 2, 2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_witness(choi, w, shots, 1)
        assert 0.0 <= est.std_error < 1e-7
        assert_bitwise(est, dense_estimate(choi, w, shots, 1))

    def test_needs_a_shot(self):
        # the exact value is evaluate_witness; no request estimates from zero shots
        with pytest.raises(ValueError, match=">= 1"):
            estimate_witness(depolarizing_channel(0.25).choi, eb_witness(), 0, seed=3)

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
        exact = evaluate_witness(w, ch.choi)
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
        exact = evaluate_witness(w, ch.choi)
        ratios = []
        for seed in range(10):
            e1 = estimate_witness(ch.choi, w, 2_000, seed=seed)
            e4 = estimate_witness(ch.choi, w, 8_000, seed=seed)
            assert abs(e1.value - exact) <= 5 * e1.std_error
            ratios.append(e4.std_error / e1.std_error)
        assert 0.35 <= np.mean(ratios) <= 0.65

    def test_one_sign_table_and_one_stream_per_estimate(self, monkeypatch, table_builds):
        # the sampling contract: every setting's counts come from one multinomial call of the one
        # stream default_rng(seed), whatever the setting count, and the outcome signs of every
        # term are read from the one [code, outcome] table of its qubit count, built once however
        # many estimates read it
        from chandet import measure

        streams = []
        draws = []
        real_rng = np.random.default_rng

        class CountingRng:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def multinomial(self, n, pvals):
                draws.append(np.shape(pvals))
                return self._rng.multinomial(n, pvals)

        def counting_rng(seed=None):
            streams.append(seed)
            return CountingRng(seed)

        npt = detect_npt(cnot_channel())
        cases = [
            (cnot_channel().choi, _sru_witness_of(haar_unitary(4, 3))),
            (depolarizing_channel(0.25).choi, eb_witness()),
            (npt.composite, npt.witness),
        ]
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        for choi, w in cases * 2:
            streams.clear()
            draws.clear()
            est = estimate_witness(choi, w, 1000, seed=11)
            assert est.setting_count > 1 and streams == [11]
            assert len(draws) == 1 and draws[0][0] == est.setting_count
        assert table_builds == [4, 2]
        for n in table_builds:
            signs = measure._pauli_tables(n).signs
            for code, string in enumerate(itertools.product("IXYZ", repeat=n)):
                for outcome in range(2**n):
                    bits = [(outcome >> (n - 1 - q)) & 1 for q in range(n)]
                    assert signs[code, outcome] == math.prod(1 - 2 * b for b, ch in zip(bits, string) if ch != "I")

    def test_stream_draws_are_the_two_dimensional_draw(self):
        # one stream's per-setting draws are bitwise numpy's draw on the [setting, outcome] array
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.random((int(rng.integers(1, 82)), 2 ** int(rng.integers(1, 5))))
            p[rng.random(p.shape) < 0.3] = 0.0
            p[:, 0] += 1e-3  # no row all zeros
            p /= p.sum(axis=1)[:, None]
            shots = int(rng.choice([1, 2, 1000, 50_000, 10**12]))
            seed = int(rng.integers(2**32))
            g = np.random.default_rng(seed)
            rows = np.stack([g.multinomial(shots, q) for q in p])
            assert np.array_equal(rows, np.random.default_rng(seed).multinomial(shots, p))

    def test_one_setting_keeps_its_former_stream(self, monkeypatch):
        # default_rng(seed) is the former stream [seed, 0] of setting 0 (numpy pads the entropy
        # with zeros), so an estimate of one setting draws the counts it drew before
        z = PAULI["Z"]
        w = Witness(kron(z, z) + 0.5 * kron(z, I2) - 0.25 * kron(I2, z), "zz", (2, 2))
        choi = random_channel((2,), 3, kraus_count=2).choi
        estimates = [estimate_witness(choi, w, shots, seed) for shots in (1, 1000, 10**12) for seed in (0, 11)]
        real_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda seed: real_rng([seed, 0]))
        for est in estimates:
            assert est.setting_count == 1
            assert_bitwise(est, estimate_witness(choi, w, est.shots_per_setting, est.seed))

    def test_z_scores_calibrated_on_81_settings(self):
        # one stream feeds every setting, and the estimate and its standard error stay calibrated:
        # z = (estimate - exact) / std_error has mean near 0 and spread near 1
        report = detect_npt(random_channel((2, 2), 0, kraus_count=4))
        exact = evaluate_witness(report.witness, report.composite)
        z = []
        for seed in range(200):
            est = estimate_witness(report.composite, report.witness, 2_000, seed)
            assert est.setting_count == 81
            z.append((est.value - exact) / est.std_error)
        assert abs(np.mean(z)) <= 0.25
        assert 0.8 <= np.std(z, ddof=1) <= 1.2
        assert np.abs(z).max() <= 5

    def test_seed_reproducible(self):
        ch = depolarizing_channel(0.25)
        w = eb_witness()
        e1 = estimate_witness(ch.choi, w, 5_000, seed=9)
        e2 = estimate_witness(ch.choi, w, 5_000, seed=9)
        assert e1 == e2

    @pytest.mark.parametrize("shots", [2.5, 100.0, True])
    def test_shots_are_not_truncated(self, shots):
        with pytest.raises(TypeError, match="shots_per_setting must be an integer"):
            estimate_witness(depolarizing_channel(0.25).choi, eb_witness(), shots, seed=3)

    def test_integer_types_and_whole_float_seeds_are_taken(self):
        choi = depolarizing_channel(0.25).choi
        ref = estimate_witness(choi, eb_witness(), 100, seed=3)
        assert estimate_witness(choi, eb_witness(), np.int64(100), seed=3.0) == ref
        with pytest.raises(TypeError, match="seed must be an integer"):
            estimate_witness(choi, eb_witness(), 100, seed=3.5)

    def test_shots_beyond_int64_refused(self):
        # the sampler draws each setting's counts as one int64 multinomial
        with pytest.raises(ValueError, match="at most 9223372036854775807, got 9223372036854775808"):
            estimate_witness(depolarizing_channel(0.25).choi, eb_witness(), 2**63, seed=3)

    def test_rejects_qutrits(self):
        from chandet.channels import z3_channel
        from chandet.detect import build_sru_witness

        z3 = z3_channel()
        w = build_sru_witness(z3.kraus[0], (3, 3), 0.6)
        with pytest.raises(ValueError, match="qubit"):
            estimate_witness(z3.choi, w, 100, seed=0)

    def test_invalid_state(self):
        from chandet.channels import ChoiMatrix

        w = eb_witness()
        for bad in (np.eye(4) / 2, np.diag([1.5, -0.5, 0.0, 0.0])):  # trace 2; a negative eigenvalue
            with pytest.raises(ValueError):
                estimate_witness(ChoiMatrix(bad.astype(complex), (2, 2), (2,)), w, 10, seed=0)

    def test_rejects_non_positive_state(self):
        from chandet.channels import ValidationError
        from chandet.pptdetect import ppt_conjugate

        # the transpose conjugate of the CNOT has unit trace but a negative eigenvalue
        choi_mt = ppt_conjugate(cnot_channel())
        w = build_sru_witness(CNOT, (2, 2), 0.5)
        for shots in (0, 100):
            with pytest.raises(ValidationError, match="negative eigenvalue"):
                estimate_witness(choi_mt, w, shots, seed=0)


# ---------------------------------------------------------------------------
# Reference copies of the dense measurement layer that the tabulated one
# replaced: one kron per Pauli string, a character-wise greedy grouping and,
# per setting, the Walsh-Hadamard form of the package's probabilities on dense
# traces, one scalar butterfly at a time. The fast layer must agree with them
# bit for bit, because the probabilities seed the multinomial draws and the
# reports print every digit. The einsum below, and the kron eigenbases it
# rotates into, are the independent guard on the formula itself.

EIGENBASIS = {
    "X": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "Y": np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    "Z": np.eye(2, dtype=complex),
}


def dense_decompose(w, tol=1e-12):
    w = np.asarray(w, dtype=complex)
    n = int(round(np.log2(w.shape[0])))
    terms = []
    for letters in itertools.product("IXYZ", repeat=n):
        s = "".join(letters)
        coeff = complex(np.trace(_string_matrix(s) @ w)) / 2**n
        assert abs(coeff.imag) <= 1e-12
        if abs(coeff.real) > tol:
            terms.append(PauliTerm(string=s, coefficient=float(coeff.real)))
    return terms


def _compatible(term, bases):
    return all(t == "I" or t == b for t, b in zip(term, bases))


def greedy_group(terms):
    terms = list(terms)
    order = sorted(
        (i for i, t in enumerate(terms) if t.string.count("I") < len(t.string)),
        key=lambda i: (terms[i].string.count("I"), i),
    )
    settings = []
    for pos, i in enumerate(order):
        term = terms[i].string
        for bases, covered in settings:
            if _compatible(term, "".join(bases)):
                covered.append(i)
                break
        else:
            pattern = [ch if ch != "I" else None for ch in term]
            for j in order[pos + 1 :]:
                other = terms[j].string
                if all(ch == "I" or pattern[k] is None or pattern[k] == ch for k, ch in enumerate(other)):
                    for k, ch in enumerate(other):
                        if ch != "I":
                            pattern[k] = ch
            settings.append(([ch if ch is not None else "X" for ch in pattern], [i]))
    return [MeasurementSetting(bases="".join(b), covered_terms=tuple(c)) for b, c in settings]


def walsh_probabilities(state, bases):
    """H^n r / 2^n, r[j] = Tr[P_j state], P_j the setting's string with "I" at each qubit q whose bit n - 1 - q of j is 0.

    The scalar butterflies take qubits 0, 1, ... in turn, as the package's stages do.
    """
    n = len(bases)
    r = []
    for j in range(2**n):
        sub = "".join(ch if j >> (n - 1 - q) & 1 else "I" for q, ch in enumerate(bases))
        r.append(complex(np.trace(_string_matrix(sub) @ state)).real)
    for q in range(n):
        bit = 1 << (n - 1 - q)
        for j in range(2**n):
            if not j & bit:
                r[j], r[j | bit] = r[j] + r[j | bit], r[j] - r[j | bit]
    probs = np.array(r) / 2**n
    probs[probs <= ZERO_CUTOFF] = 0.0
    total = float(probs.sum())
    assert abs(total - 1.0) <= STATE_ATOL
    return probs / total


def einsum_probabilities(state, strings):
    """The three-operand einsum over the kron eigenbases, unclipped and unnormalized."""
    b = np.stack([kron(*(EIGENBASIS[ch] for ch in s)) for s in strings])
    return np.real(np.einsum("sij,jk,ski->si", b.conj().transpose(0, 2, 1), state, b))


def dense_estimate(choi, w, shots, seed):
    state = choi.matrix
    n = len(choi.dims)
    terms = dense_decompose(w.operator)
    settings = greedy_group(terms)
    value = sum(t.coefficient for t in terms if t.string == "I" * n)
    variance = 0.0
    g = np.random.default_rng(seed)
    for setting in settings:
        counts = g.multinomial(shots, walsh_probabilities(state, setting.bases))
        mean_acc = sq_acc = 0.0
        for idx, cnt in enumerate(counts):
            if cnt == 0:
                continue
            outcome = [1 - 2 * ((idx >> (n - 1 - q)) & 1) for q in range(n)]
            v = 0.0  # left to right, as the package adds them
            for i in setting.covered_terms:
                sign = math.prod(o for o, ch in zip(outcome, terms[i].string) if ch != "I")
                v += terms[i].coefficient * sign
            mean_acc += int(cnt) * v
            sq_acc += int(cnt) * v * v
        mean = mean_acc / shots
        value += mean
        if shots > 1:
            variance += max((sq_acc / shots - mean**2) * shots / (shots - 1), 0.0) / shots
    return ShotEstimate(float(value), float(np.sqrt(variance)), shots, seed, len(settings))


def assert_bitwise(est, ref):
    # ShotEstimate == compares floats with ==, which cannot tell 0.0 from -0.0
    assert est == ref
    assert (est.value.hex(), est.std_error.hex()) == (ref.value.hex(), ref.std_error.hex())


def _noisy_cnot(p):
    noise = depolarizing_channel(p)
    return Channel([kron(a, b) @ CNOT for a in noise.kraus for b in noise.kraus], (2, 2))


def _bit_flipped_cnot(p):
    # flips only the target qubit, so stabilizers without Z there stay sharp
    return Channel([np.sqrt(1 - p) * CNOT, np.sqrt(p) * kron(I2, X) @ CNOT], (2, 2))


def _qubit_pair_channels():
    yield "cnot", cnot_channel()
    yield "bit-flipped-cnot", _bit_flipped_cnot(0.1)
    yield "noisy-cnot", _noisy_cnot(0.2)
    for seed in range(3):
        yield f"haar-{seed}", Channel([haar_unitary(4, seed)], (2, 2))
    for rank in (1, 2, 4, 16):
        yield f"kraus-rank-{rank}", random_channel((2, 2), 40 + rank, kraus_count=rank)


QUBIT_PAIR_CHANNELS = dict(_qubit_pair_channels())


def _sru_witness_of(u):
    from chandet.detect import operator_schmidt

    return build_sru_witness(u, (2, 2), min(float(operator_schmidt(u, 2, 2).sigmas[0] ** 2), 1.0))


class TestMatchesDenseReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pauli_decompose(self, n):
        rng = np.random.default_rng(n)
        d = 2**n
        for trial in range(25):
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            if trial % 3 == 0:
                a[rng.random((d, d)) < 0.5] = 0  # exact zeros and cancelling terms
            if trial % 4 == 0:
                a = np.round(a, 1)
            op = a + a.conj().T
            assert pauli_decompose(op) == dense_decompose(op, ZERO_CUTOFF)

    def test_pauli_decompose_of_witnesses(self):
        ws = [eb_witness(), stabilizer_witness()]
        ws += [_sru_witness_of(u) for u in (CNOT, haar_unitary(4, 7))]
        for w in ws:
            assert pauli_decompose(w.operator) == dense_decompose(w.operator)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_group_settings(self, n):
        rng = np.random.default_rng(10 + n)
        strings = ["".join(p) for p in itertools.product("IXYZ", repeat=n)]
        subsets = [[], ["I" * n], ["I" * n] * 3, strings[:256]]
        for _ in range(40):
            size = int(rng.integers(1, min(len(strings), 256) + 1))
            subsets.append(list(rng.choice(strings, size=size, replace=bool(rng.integers(2)))))
        for subset in subsets:
            terms = [PauliTerm(str(s), 1.0) for s in subset]
            assert group_settings(terms) == greedy_group(terms)

    def test_group_settings_of_witnesses(self):
        for ch in QUBIT_PAIR_CHANNELS.values():
            report = detect_npt(ch)
            if report.witness is not None:
                terms = pauli_decompose(report.witness.operator)
                assert group_settings(terms) == greedy_group(terms)

    @pytest.mark.parametrize("name", sorted(QUBIT_PAIR_CHANNELS))
    def test_probabilities(self, name):
        state = QUBIT_PAIR_CHANNELS[name].choi.matrix
        bases = ["".join(p) for p in itertools.product("XYZ", repeat=4)]
        expected = np.array([walsh_probabilities(state, b) for b in bases])
        assert np.array_equal(_setting_probabilities(state, _codes_of(bases)[0]), expected)
        if name in ("cnot", "bit-flipped-cnot"):
            assert np.count_nonzero(expected == 0) > 0  # outcomes the state cannot produce

    def test_probabilities_near_the_einsum(self):
        # the einsum clipped at 0 and normalized, as the package took it:
        # every probability within 8 eps of it, and the same outcomes exactly 0
        states = [ch.choi.matrix for ch in QUBIT_PAIR_CHANNELS.values()]
        states += [random_density_matrix(16, seed, rank=1 + seed % 16) for seed in range(50)]
        bases = ["".join(p) for p in itertools.product("XYZ", repeat=4)]
        for state in states:
            old = np.clip(einsum_probabilities(state, bases), 0.0, None)
            old /= old.sum(axis=1)[:, None]
            probs = _setting_probabilities(state, _codes_of(bases)[0])
            assert np.abs(probs - old).max() <= 8 * np.finfo(float).eps
            assert np.array_equal(probs == 0, old == 0)

    @pytest.mark.parametrize(
        "name", ["cnot", "bit-flipped-cnot", "noisy-cnot", "haar-0", "kraus-rank-2", "kraus-rank-16"]
    )
    def test_estimate_witness(self, name):
        ch = QUBIT_PAIR_CHANNELS[name]
        targets = [CNOT, haar_unitary(4, 3)]
        witnesses = [(ch.choi, _sru_witness_of(u)) for u in targets]
        report = detect_npt(ch)
        if report.witness is not None:
            witnesses.append((report.composite, report.witness))
        for choi, w in witnesses:
            for shots, seed in [(1, 0), (2, 5), (1000, 1), (20_000, 9)]:
                assert_bitwise(estimate_witness(choi, w, shots, seed), dense_estimate(choi, w, shots, seed))

    def test_estimate_eb_witness(self):
        for seed in range(3):
            ch = random_channel((2,), seed, kraus_count=2)
            for shots in (1, 2, 5000):
                est = estimate_witness(ch.choi, eb_witness(), shots, seed)
                assert_bitwise(est, dense_estimate(ch.choi, eb_witness(), shots, seed))

    def test_estimate_stabilizer_witness(self):
        # two settings whose parities are deterministic on the CNOT state: zero variance
        choi = cnot_channel().choi
        for shots, seed in [(1, 0), (2, 3), (1000, 1), (100_000, 7)]:
            est = estimate_witness(choi, stabilizer_witness(), shots, seed)
            assert est.setting_count == 2 and est.std_error == 0.0
            assert_bitwise(est, dense_estimate(choi, stabilizer_witness(), shots, seed))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.5, 0.9, 0.97]),
        st.integers(1, 16),
        st.sampled_from([1, 2, 3, 1000, 100_000]),
    )
    def test_estimate_random_hermitian_witness(self, seed, sparsity, kraus_count, shots):
        # settings cover from one to fifteen terms, so most are padded to the widest
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a[rng.random((16, 16)) < sparsity] = 0
        w = Witness(a + a.conj().T, "hermitian", (2, 2, 2, 2))
        choi = random_channel((2, 2), seed, kraus_count=kraus_count).choi
        assert_bitwise(estimate_witness(choi, w, shots, seed), dense_estimate(choi, w, shots, seed))


class TestSettingProbabilities:
    """The Born probabilities of a setting depend on the state and that setting alone."""

    CODES = _codes_of(["".join(p) for p in itertools.product("XYZ", repeat=4)])[0]

    @pytest.mark.parametrize("name", ["cnot", "noisy-cnot", "haar-1", "kraus-rank-16"])
    def test_row_is_the_single_setting_product(self, name):
        # a setting's probabilities must not depend on which other settings a witness needs
        state = QUBIT_PAIR_CHANNELS[name].choi.matrix
        rng = np.random.default_rng(0)
        for size in (81, 40, 9, 2):
            codes = rng.permutation(self.CODES)[:size]
            probs = _setting_probabilities(state, codes)
            for k in range(size):
                assert probs[k].tobytes() == _setting_probabilities(state, codes[k : k + 1])[0].tobytes()

    def test_outcome_below_the_cutoff_draws_no_counts(self):
        # 1e-13 of I/16 gives each outcome the CNOT state cannot produce 6.25e-15 <= ZERO_CUTOFF
        choi = cnot_channel().choi
        mixed = replace(choi, matrix=(1 - 1e-13) * choi.matrix + 1e-13 * np.eye(16) / 16)
        codes = _codes_of(sorted(W_CNOT_SETTINGS))[0]
        probs = _setting_probabilities(mixed.matrix, codes)
        assert np.array_equal(probs == 0, _setting_probabilities(choi.matrix, codes) == 0)
        assert np.count_nonzero(probs == 0) > 0
        exact = einsum_probabilities(mixed.matrix, sorted(W_CNOT_SETTINGS))
        assert (0 < exact[probs == 0]).all() and (exact[probs == 0] <= ZERO_CUTOFF).all()
        for seed in range(3):
            est = estimate_witness(mixed, stabilizer_witness(), 10**12, seed)
            assert est.std_error == 0.0  # every drawn parity is the stabilizer's

    def test_peak_memory(self):
        # the trace gather's two (256, 16) complex arrays and a few (81, 16) float ones,
        # below one (81, 16, 16) array of any float dtype
        import tracemalloc

        state = QUBIT_PAIR_CHANNELS["haar-0"].choi.matrix
        _setting_probabilities(state, self.CODES)  # the tables are built before tracing
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _setting_probabilities(state, self.CODES)
            assert tracemalloc.get_traced_memory()[1] < 2 * 256 * 16 * 16 + 3 * 81 * 16 * 8
        finally:
            tracemalloc.stop()
