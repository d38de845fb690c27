"""Acceptance criteria for the whole detection stack.

Each test pins one end-to-end quantitative result at its stated tolerance and
prints a pass line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them). Expected values are closed forms or independently computed oracles; no
value here is copied from the code under test.
"""

import numpy as np

from chandet.channels import (
    cnot_channel,
    depolarizing_channel,
    identity_channel,
    kraus_from_choi,
    superoperator_to_choi,
    z3_channel,
)
from chandet.detect import (
    Verdict,
    alpha_sru_optimize,
    build_sru_witness,
    classify_violation,
    eb_witness,
    evaluate_witness,
    operator_schmidt,
    product_overlap,
    robustness_bounds,
    stabilizer_witness,
)
from chandet.ensembles import (
    random_channel,
    random_density_matrix,
    random_separable_state,
    random_sru_channel,
)
from chandet.measure import estimate_witness, group_settings, pauli_decompose
from chandet.pptdetect import (
    NPT_DETECTED,
    detect_npt,
    ppt_witness,
    spa_composite,
    spa_noise_weight,
    spa_transpose,
)
from chandet.qmath import PAULI, haar_unitary

CNOT = np.eye(4, dtype=complex)
CNOT[2:, 2:] = PAULI["X"]

EXPECTED_CNOT_SIGNS = {
    "IXIX": -1, "XXXI": -1, "XIXX": -1,
    "ZZIZ": -1, "ZYIY": +1, "YYXZ": +1, "YZXY": +1,
    "ZIZI": -1, "ZXZX": -1, "YXYI": +1, "YIYX": +1,
    "IZZZ": -1, "IYZY": +1, "XYYZ": +1, "XZYY": +1,
}
EXPECTED_CNOT_SETTINGS = {
    "XXXX", "ZZZZ", "ZYZY", "YXYX", "YYXZ", "YZXY", "ZXZX", "XYYZ", "XZYY",
}


def passed(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def test_criterion_01_eb_detection_curve():
    w = eb_witness()
    for p in np.arange(0.0, 1.0 + 1e-9, 0.1):
        value = evaluate_witness(w, depolarizing_channel(p))
        assert abs(value - (p - 0.5)) <= 1e-9, p
        if p < 0.5 - 1e-12:
            assert value < 0  # detected: not entanglement breaking
        else:
            assert value >= -1e-9  # consistent with EB from p = 1/2 on
    passed(1, "Tr[W_EB Choi(depolarizing p)] = p - 1/2 on the p grid, sign change at 1/2")


def test_criterion_02_mu_c_bounds():
    p = 0.25
    w = eb_witness()
    rep = robustness_bounds(evaluate_witness(w, depolarizing_channel(p)), w)
    closed = (1 - 2 * p) / (2 - 2 * p)
    assert abs(rep.mu_c_lb - 1 / 3) <= 1e-12
    assert abs(rep.mu_c_lb - closed) <= 1e-12
    reference = (2 - 4 * p) / (3 - 4 * p)  # exact critical weight for this family
    assert rep.mu_c_lb <= reference + 1e-12
    assert abs(reference - 0.5) < 1e-15
    passed(2, "mu_c lower bound = 1/3 at p = 0.25 and below the exact value 0.5")


def test_criterion_03_alpha_sru_cnot():
    val, ua, ub = alpha_sru_optimize(CNOT, (2, 2), starts=20, seed=0)
    assert abs(val - 0.70710678) <= 1e-6
    sigma1 = operator_schmidt(CNOT, 2, 2).sigmas[0]
    assert abs(val - sigma1) <= 1e-6
    s_gate = np.diag([1, 1j])
    xrot = np.cos(np.pi / 4) * PAULI["I"] - 1j * np.sin(np.pi / 4) * PAULI["X"]
    assert product_overlap(CNOT, s_gate, xrot) >= 1 / np.sqrt(2) - 1e-10
    passed(3, "alpha_SRU(CNOT) = 1/sqrt(2) from the optimizer, matched by the phase-gate pair")


def test_criterion_04_w_cnot_structure():
    w = build_sru_witness(CNOT, (2, 2), 0.5)
    terms = pauli_decompose(w.operator)
    by_string = {t.string: t.coefficient for t in terms}
    assert len(by_string) == 16
    assert abs(by_string["IIII"] - 7 / 16) <= 1e-12
    for string, sign in EXPECTED_CNOT_SIGNS.items():
        assert abs(by_string[string] - sign / 16) <= 1e-12, string
    settings = group_settings(terms)
    assert len(settings) == 9
    assert {s.bases for s in settings} == EXPECTED_CNOT_SETTINGS
    assert abs(evaluate_witness(w, cnot_channel()) + 0.5) <= 1e-10
    passed(4, "W_CNOT: 16 strings with the expected signs, 9 settings, detection value -1/2")


def test_criterion_05_stabilizer_witness():
    w = stabilizer_witness(("XXXI", "IXIX", "ZIZI", "ZZIZ"))
    assert abs(evaluate_witness(w, cnot_channel()) + 1.0) <= 1e-10
    settings = group_settings(pauli_decompose(w.operator))
    assert len(settings) == 2
    assert {s.bases for s in settings} == {"XXXX", "ZZZZ"}
    passed(5, "stabilizer witness scores -1 on the CNOT Choi state with settings {XXXX, ZZZZ}")


def test_criterion_06_z3_analysis():
    z3 = z3_channel()
    sd = operator_schmidt(z3.kraus[0], 3, 3)
    s17 = np.sqrt(17.0)
    assert abs(sd.sigmas[0] - np.sqrt((9 + s17) / 2) / 3) <= 1e-9
    assert abs(sd.sigmas[1] - np.sqrt((9 - s17) / 2) / 3) <= 1e-9
    assert abs(np.sum(sd.sigmas**2) - 1.0) <= 1e-10
    alpha, _, _ = alpha_sru_optimize(z3.kraus[0], (3, 3), starts=50, seed=0)
    assert abs(alpha - 0.786) <= 0.01
    w = build_sru_witness(z3.kraus[0], (3, 3), alpha**2)
    value = evaluate_witness(w, z3)
    assert abs(value - (alpha**2 - 1.0)) <= 1e-10
    gap = w.alpha_sru_sq - w.alpha_s_sq
    assert abs(gap + 0.111) < 5e-3
    assert value < gap
    assert classify_violation(value, w) is Verdict.NOT_SEPARABLE
    passed(6, f"Z3: sigmas at closed form, alpha_SRU = {alpha:.4f}, verdict not_separable")


def test_criterion_07_npt_pipeline_on_cnot():
    rep = detect_npt(cnot_channel())
    assert abs(rep.lambda_minus + 0.5) <= 1e-9
    assert rep.noise_p == 8 / 9
    assert abs(rep.expectation) <= 1e-10
    assert rep.unital and abs(rep.threshold - 1 / 18) <= 1e-12
    assert abs(rep.threshold - 0.0556) < 1e-4
    assert rep.verdict == NPT_DETECTED
    closed = (1 - rep.noise_p) * rep.lambda_minus + rep.noise_p / 2**4
    assert abs(rep.expectation - closed) <= 1e-10
    passed(7, "CNOT NPT run: lambda=-1/2, p=8/9, expectation 0 below threshold 1/18")


def test_criterion_08_spa_minimality():
    choi = spa_transpose(2).choi
    assert np.linalg.eigvalsh(choi.matrix)[0] >= -1e-10
    reduced = spa_noise_weight(2) - 0.01
    perturbed = spa_composite(identity_channel((2, 2)), reduced)
    assert np.linalg.eigvalsh(perturbed.matrix)[0] < -1e-4
    passed(8, "SPA transpose is CP at p = 8/9 and loses positivity at p - 0.01")


def test_criterion_09_witness_soundness():
    w_cnot = build_sru_witness(CNOT, (2, 2), 0.5)
    for seed in range(200):
        assert evaluate_witness(w_cnot, random_sru_channel((2, 2), seed=seed)) >= -1e-9
    w_eb = eb_witness()
    for seed in range(500):
        rho = random_separable_state((2, 2), seed=seed)
        assert np.trace(w_eb.operator @ rho).real >= -1e-9
    w_ppt, _ = ppt_witness(cnot_channel())
    for seed in range(20):
        rep = detect_npt(random_sru_channel((2, 2), seed=seed), witness=w_ppt)
        assert rep.expectation >= -1e-10
    passed(9, "no false positives on 200 SRUs, 500 separable states, 20 PPT channels")


def test_criterion_10_conversion_round_trips():
    for k in range(50):
        rng = np.random.default_rng(1000 + k)
        dims = [2] if k % 2 == 0 else [3]
        ch = random_channel(dims, rng)
        via_choi = kraus_from_choi(ch.choi, require_tp=True)
        via_super = kraus_from_choi(
            superoperator_to_choi(ch.superoperator, ch.dims), require_tp=True
        )
        for _ in range(3):
            rho = random_density_matrix(ch.dim, rng)
            expected = ch(rho)
            assert np.max(np.abs(via_choi(rho) - expected)) <= 1e-10
            assert np.max(np.abs(via_super(rho) - expected)) <= 1e-10
    passed(10, "Kraus/Choi/superoperator round trips preserve channel action (d = 2 and 3)")


def test_criterion_11_shot_statistics():
    ch = cnot_channel()
    w = build_sru_witness(CNOT, (2, 2), 0.5)
    for seed in range(20):
        est = estimate_witness(ch.choi, w, 100_000, seed=seed)
        assert abs(est.value - (-0.5)) <= 5 * est.std_error
    # the noiseless CNOT parities are deterministic (zero spread), so the
    # error-scaling half of the criterion runs on a fluctuating case
    ch_eb = depolarizing_channel(0.25)
    w_eb = eb_witness()
    ratios = []
    for seed in range(20):
        e1 = estimate_witness(ch_eb.choi, w_eb, 25_000, seed=seed)
        e4 = estimate_witness(ch_eb.choi, w_eb, 100_000, seed=seed)
        ratios.append(e4.std_error / e1.std_error)
    assert 0.4 <= float(np.mean(ratios)) <= 0.6
    passed(11, "shot estimates hit -1/2 within 5 sigma; std_error ratio near 1/2 for 4x shots")


def test_criterion_12_two_qubit_cartan_property():
    worst = 0.0
    for k in range(50):
        u = haar_unitary(4, 5000 + k)
        sigma1 = operator_schmidt(u, 2, 2).sigmas[0]
        val, _, _ = alpha_sru_optimize(u, (2, 2), starts=16, seed=k)
        worst = max(worst, abs(val - sigma1))
        assert abs(val - sigma1) <= 1e-6
    passed(12, f"alpha_SRU = sigma_1 on 50 Haar two-qubit gates (worst gap {worst:.2e})")
