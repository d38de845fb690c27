"""Independent output oracle: a few numpy lines per CLI command.

Nothing here imports ``chandet``. Each check recomputes the reported numbers
from the Kraus operators (or target gate) the benchmark itself generated and
raises :class:`OracleError` on the first disagreement.
"""

import json

import numpy as np

ATOL = 1e-9
SIGMA = 6.0  # allowed |estimate - exact| in standard errors
STABILIZER_GENERATORS = ("XXXI", "IXIX", "ZIZI", "ZZIZ")  # the CLI's fixed CNOT generators

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class OracleError(AssertionError):
    """The program's output disagrees with the independent computation."""


def _reject_constant(token):
    raise OracleError(f"stdout is not RFC-8259 JSON: contains {token}")


def parse_report(stdout):
    return json.loads(stdout, parse_constant=_reject_constant)


def _close(name, got, want, atol=ATOL):
    if got is None or not np.allclose(got, want, rtol=0.0, atol=atol):
        raise OracleError(f"{name}: got {got!r}, expected {want!r}")


def _matrix(pairs):
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def pauli(s):
    out = np.eye(1, dtype=complex)
    for ch in s:
        out = np.kron(out, _PAULI[ch])
    return out


# ---------------------------------------------------------------------------
# reference quantities


def choi(kraus):
    """Sum of vec(A) vec(A)^dag / d with row-major vec: order (outputs, ancillas)."""
    d = kraus[0].shape[0]
    return sum(np.outer(a.reshape(-1), a.reshape(-1).conj()) for a in kraus) / d


def transpose_parts(m, dims, parts):
    n = len(dims)
    axes = list(range(2 * n))
    for s in parts:
        axes[s], axes[n + s] = n + s, s
    return m.reshape(dims + dims).transpose(axes).reshape(m.shape)


def realigned_sigmas(u, d):
    r = u.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return np.linalg.svd(r, compute_uv=False) / d


def _polar(f):
    w, s, vh = np.linalg.svd(f)
    return w @ vh, s.sum(-1)


def reference_alpha_sru(u, d, rng, starts=64, sweeps=1000):
    """Best product-unitary overlap of gate u on [d, d] by batched alternating ascent.

    All starts climb at once; each half-step is the exact polar maximization
    over one local unitary. Used only as the value the program must reach.
    """
    t = u.reshape(d, d, d, d)
    z = (rng.standard_normal((starts, d, d)) + 1j * rng.standard_normal((starts, d, d))) / np.sqrt(2)
    ub, _ = np.linalg.qr(z)
    prev = np.full(starts, -1.0)
    for _ in range(sweeps):
        ua, _ = _polar(np.einsum("nyb,aycb->nac", ub.conj(), t))
        ub, val = _polar(np.einsum("nxa,xbay->nby", ua.conj(), t))
        val = val / (d * d)
        if np.all(val - prev < 1e-14):
            break
        prev = val
    return float(val.max())


def ppt_reference(kraus, d):
    """lambda_minus of T_A o M o T_A and the witness expectation on the SPA composite.

    The composite M o SPA has Choi matrix (1-p) C^{T_A-ancilla} + p M(I/D) kron I/D.
    """
    dims = [d, d, d, d]
    c = choi(kraus)
    w, v = np.linalg.eigh(transpose_parts(c, dims, (0, 2)))
    out = {"lambda_minus": float(w[0]), "degenerate": bool(w[1] - w[0] <= 1e-10)}
    p = d**3 / (d**3 + 1.0)
    big = d * d
    m_of_id = sum(a @ a.conj().T for a in kraus) / big
    out["p"] = p
    out["unital"] = bool(np.max(np.abs(m_of_id * big - np.eye(big))) <= 1e-10)
    composite = (1 - p) * transpose_parts(c, dims, (2,)) + p * np.kron(m_of_id, np.eye(big) / big)
    witness = transpose_parts(np.outer(v[:, 0], v[:, 0].conj()), dims, (0,))
    out["exact"] = float(np.real(np.trace(witness @ composite)))
    return out


def sru_witness(u, alpha_sq):
    ket = u.reshape(-1) / np.sqrt(u.shape[0])
    return alpha_sq * np.eye(ket.size) - np.outer(ket, ket.conj())


def eb_witness():
    return 0.25 * (pauli("II") - pauli("XX") + pauli("YY") - pauli("ZZ"))


def stabilizer_witness():
    eye = np.eye(16)
    p = [(eye + pauli(g)) / 2 for g in STABILIZER_GENERATORS]
    return 3 * eye - 2 * (p[0] @ p[1] + p[2] @ p[3])


def named_witness(kind, expect):
    if kind == "eb":
        return eb_witness()
    if kind == "stabilizer":
        return stabilizer_witness()
    u = expect["target"]
    return sru_witness(u, float(realigned_sigmas(u, 2)[0] ** 2))


# ---------------------------------------------------------------------------
# per-command checks


def _check_estimate(est, exact, shots):
    if est is None:
        raise OracleError("estimate missing")
    if est["shots_per_setting"] != shots:
        raise OracleError(f"shots_per_setting {est['shots_per_setting']} != {shots}")
    se = est["std_error"]
    if not se >= 0.0 or not abs(est["value"] - exact) <= SIGMA * se + ATOL:
        raise OracleError(f"estimate {est['value']} +- {se} is more than {SIGMA} se from {exact}")


def _check_choi(res, expect):
    c = choi(expect["kraus"])
    _close("choi.matrix", _matrix(res["matrix"]), c)
    _close("choi.eigenvalues", res["eigenvalues"], np.linalg.eigvalsh(c))
    _close("choi.trace", res["trace"], np.trace(c).real)


def _check_npt(res, expect, ref):
    d = expect["d"]
    _close("lambda_minus", res["lambda_minus"], ref["lambda_minus"])
    _close("noise_p", res["noise_p"], ref["p"], 1e-12)
    if res["unital"] != ref["unital"]:
        raise OracleError(f"unital flag {res['unital']} != {ref['unital']}")
    threshold = ref["p"] / d**4 if ref["unital"] else 0.0
    _close("threshold", res["threshold"], threshold, 1e-12)
    if ref["lambda_minus"] >= -1e-10:
        if res["verdict"] != "not_detected" or res["expectation"] is not None:
            raise OracleError(f"PPT channel came back {res['verdict']}")
        return
    if expect.get("ppt"):
        raise OracleError(f"channel expected PPT has lambda_minus {ref['lambda_minus']}")
    _close("term_transpose", res["term_transpose"], ref["lambda_minus"])
    if not ref["degenerate"]:
        _close("expectation", res["expectation"], ref["exact"])
    exp = res["expectation"]
    if abs(exp - threshold) > ATOL:
        want = "npt_detected" if exp < threshold else "not_detected"
        if res["verdict"] != want:
            raise OracleError(f"verdict {res['verdict']} with expectation {exp} vs threshold {threshold}")


def _check_sru(res, expect):
    u = expect["target"]
    d = int(round(np.sqrt(u.shape[0])))
    sig = realigned_sigmas(u, d)
    alpha = res["alpha_sru"]
    _close("alpha_s", res["alpha_s"], sig[0])
    _close("alpha_sru_sq", res["alpha_sru_sq"], alpha**2)
    if d == 2:
        _close("alpha_sru (d=2 equals sigma_1)", alpha, sig[0])
    elif not expect["alpha_ref"] - ATOL <= alpha <= sig[0] + ATOL:
        raise OracleError(f"alpha_sru {alpha} outside [reference {expect['alpha_ref']}, sigma_1 {sig[0]}]")
    c = choi(expect["kraus"])
    w = sru_witness(u, res["alpha_sru_sq"])
    exact = float(np.real(np.trace(w @ c)))
    _close("expectation", res["expectation"], exact)
    not_sep = res["alpha_sru_sq"] - res["alpha_s_sq"]
    _close("thresholds.not_separable", res["thresholds"]["not_separable"], not_sep)
    if min(abs(exact), abs(exact - not_sep)) > ATOL:
        want = "not_separable" if exact < not_sep else "not_sru" if exact < 0 else "undetected"
        if res["verdict"] != want:
            raise OracleError(f"verdict {res['verdict']}, expected {want}")
    if expect["command"] == "detect-sep":
        keep = sig[sig > 1e-12]
        _close("sigmas", res["sigmas"], keep)
        if res["rank"] != keep.size:
            raise OracleError(f"rank {res['rank']} != {keep.size}")
    if "shots" in expect:
        _check_estimate(res.get("estimate"), exact, expect["shots"])


def _check_eb(res, expect):
    w = eb_witness()
    exact = float(np.real(np.trace(w @ choi(expect["kraus"]))))
    _close("expectation", res["expectation"], exact)
    if abs(exact) > ATOL:
        want = "not_entanglement_breaking" if exact < 0 else "undetected"
        if res["verdict"] != want:
            raise OracleError(f"verdict {res['verdict']}, expected {want}")
    w_max = float(np.linalg.eigvalsh(w)[-1])
    r = max(-exact, 0.0) / w_max
    _close("bounds", [res["bounds"][k] for k in ("c", "w_max", "robustness_lb", "mu_c_lb")],
           [exact, w_max, r, 1 - 1 / (1 + r)])
    _check_estimate(res.get("estimate"), exact, expect["shots"])


def _check_simulate(res, expect, ref):
    kind = expect["witness"]
    if kind == "ppt":
        exact = ref["exact"]
        if ref["degenerate"]:
            exact = res["exact"]
    else:
        w = named_witness(kind, expect)
        exact = float(np.real(np.trace(w @ choi(expect["kraus"]))))
        want = {"sru": 9, "stabilizer": 2}[kind]
        if res["setting_count"] != want:
            raise OracleError(f"{kind} witness needs {want} settings, got {res['setting_count']}")
    _close("exact", res["exact"], exact)
    _check_estimate(res["estimate"], exact, expect["shots"])


def _check_decompose(res, expect):
    w = named_witness(expect["witness"], expect)
    n = int(round(np.log2(w.shape[0])))
    terms = res["terms"]
    rebuilt = sum(t["coefficient"] * pauli(t["string"]) for t in terms)
    _close("sum of Pauli terms", rebuilt, w)
    covered = sorted(i for s in res["settings"] for i in s["covered_terms"])
    wanted = [i for i, t in enumerate(terms) if t["string"] != "I" * n]
    if covered != wanted:
        raise OracleError(f"settings cover terms {covered}, expected each of {wanted} once")
    for s in res["settings"]:
        for i in s["covered_terms"]:
            if any(t not in ("I", b) for t, b in zip(terms[i]["string"], s["bases"])):
                raise OracleError(f"term {terms[i]['string']} not measurable in {s['bases']}")
    if res["setting_count"] != len(res["settings"]):
        raise OracleError("setting_count disagrees with the settings list")


def check(expect, code, stdout):
    """Raise OracleError unless (exit code, stdout) is the correct outcome."""
    if "exit" in expect:
        if code not in expect["exit"] or stdout:
            raise OracleError(f"exit {code} with {len(stdout)} stdout bytes, expected exit in {sorted(expect['exit'])}")
        return
    if code != 0:
        raise OracleError(f"exit {code}, expected 0")
    res = parse_report(stdout)["results"]
    command = expect["command"]
    ref = None
    if "d" in expect and command != "choi":
        ref = ppt_reference(expect["kraus"], expect["d"])
    if command == "choi":
        _check_choi(res, expect)
    elif command == "detect-npt":
        _check_npt(res, expect, ref)
        if "shots" in expect:
            exact = res["expectation"] if ref["degenerate"] else ref["exact"]
            _check_estimate(res.get("estimate"), exact, expect["shots"])
    elif command in ("detect-sru", "detect-sep"):
        _check_sru(res, expect)
    elif command == "detect-eb":
        _check_eb(res, expect)
    elif command == "simulate":
        _check_simulate(res, expect, ref)
    elif command == "decompose-witness":
        _check_decompose(res, expect)
    else:
        raise OracleError(f"no oracle for command {command!r}")
