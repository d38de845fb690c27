"""Property test: the witnesses never flag a channel the ensembles make separable.

A mixture of product unitaries (``random_sru_channel``) is a separable random
unitary channel, hence also separable and PPT. Whatever Haar gate the SRU
witness is built from, the CLI must not report the mixture ``not_sru`` or
``not_separable``, and the NPT pipeline must not detect it. The hardest such
channel is the product pair at which the optimizer's overlap peaks: the
witness of its gate reads it on the threshold, 0, and flags nothing.

A map with product Kraus operators is separable, whatever its Choi trace Tr C:
its fidelity with a gate is at most alpha_S^2 Tr C, so ``detect-sep`` must not
report it ``not_separable``, not even on the threshold, as the gate's leading
Schmidt term scaled to any trace sits.

An entanglement-breaking channel has a separable Choi state, whose fidelity
with the maximally entangled state is at most 1/D, so ``detect-eb`` must not
flag one in any dimension: fully depolarizing channels and measure-and-prepare
channels (rank-one Kraus operators, the general EB form) stay ``undetected``.
"""

import contextlib
import io
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chandet.channels import VERDICT_MARGIN, z3_channel  # noqa: E402
from chandet.cli import EXIT_OK, main  # noqa: E402
from chandet.detect import alpha_sru_optimize, operator_schmidt  # noqa: E402
from chandet.qmath import haar_unitary  # noqa: E402
from support import matrix_to_pairs, random_density_matrix, random_ket, random_sru_channel  # noqa: E402

seeds = st.integers(0, 2**32 - 1)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("specs")


def write_spec(path, dims, **fields):
    path.write_text(json.dumps({"dims": dims, **fields}))
    return str(path)


def results(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_OK, err.getvalue()
    return json.loads(out.getvalue())["results"]


def verdict(argv):
    return results(argv)["verdict"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(dims=st.sampled_from([[2, 2], [3, 3], [2, 3], [3, 2], [2, 4]]), channel_seed=seeds, target_seed=seeds)
def test_sru_mixtures_are_never_flagged(spec_dir, dims, channel_seed, target_seed):
    kraus = [matrix_to_pairs(k) for k in random_sru_channel(dims, seed=channel_seed).kraus]
    chan = write_spec(spec_dir / "chan.json", dims, kind="kraus", kraus=kraus)
    gate = {"matrix": matrix_to_pairs(haar_unitary(dims[0] * dims[1], target_seed))}
    target = write_spec(spec_dir / "gate.json", dims, kind="named", name="unitary", params=gate)
    for command in ("detect-sru", "detect-sep"):
        assert verdict([command, "--channel", chan, "--target", target]) == "undetected"
    assert verdict(["detect-npt", "--channel", chan]) == "not_detected"


@pytest.mark.parametrize("dims", [[2, 3], [3, 2], [2, 4]])
@pytest.mark.parametrize("seed", range(3))
def test_best_product_unitary_sits_on_the_threshold(spec_dir, dims, seed):
    # a weaker alpha than the 1000-start one, from the CLI's default starts, would flag this product
    u = haar_unitary(dims[0] * dims[1], seed)
    _, ua, ub = alpha_sru_optimize(u, dims, starts=1000, seed=seed)
    best = {"matrix": matrix_to_pairs(np.kron(ua, ub))}
    chan = write_spec(spec_dir / "best.json", dims, kind="named", name="unitary", params=best)
    gate = {"matrix": matrix_to_pairs(u)}
    target = write_spec(spec_dir / "gate.json", dims, kind="named", name="unitary", params=gate)
    res = results(["detect-sru", "--channel", chan, "--target", target])
    assert res["verdict"] == "undetected" and abs(res["expectation"]) <= VERDICT_MARGIN


def product_kraus_spec(ops, trace):
    """A kraus spec of ``ops`` scaled so that its Choi trace, sum_k Tr[K_k^dag K_k] / D, is ``trace``."""
    scale = np.sqrt(trace * len(ops[0]) / sum(np.vdot(k, k).real for k in ops))
    return {"kind": "kraus", "kraus": [matrix_to_pairs(scale * k) for k in ops]}


@pytest.mark.parametrize("trace", [0.25, 1.0, 2.25, 4.0])
def test_leading_schmidt_term_is_never_not_separable(spec_dir, trace):
    # the map of z3's leading Schmidt term kron(A_1, B_1) is separable; its fidelity with z3
    # is sigma_1^2 Tr C, so it sits on the threshold (alpha_SRU^2 - alpha_S^2) Tr C
    sd = operator_schmidt(z3_channel().kraus[0], 3, 3)
    spec = product_kraus_spec([np.kron(sd.a_factors[0], sd.b_factors[0])], trace)
    chan = write_spec(spec_dir / "lead.json", [3, 3], **spec)
    target = write_spec(spec_dir / "z3.json", [3, 3], kind="named", name="z3")
    res = results(["detect-sep", "--channel", chan, "--target", target])
    assert res["verdict"] != "not_separable"
    gap = res["alpha_sru_sq"] - res["alpha_s_sq"]
    assert res["thresholds"]["not_separable"] == pytest.approx(gap * trace, rel=1e-12)


def gaussian(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@pytest.mark.parametrize("dims", [[2, 2], [2, 3], [3, 3]])
@pytest.mark.parametrize("seed", range(4))
def test_product_kraus_maps_are_never_not_separable(spec_dir, dims, seed):
    # a gate's leading Schmidt term plus up to two random products, at a random Choi trace
    rng = np.random.default_rng(seed)
    u = haar_unitary(dims[0] * dims[1], rng)
    sd = operator_schmidt(u, *dims)
    ops = [np.kron(sd.a_factors[0], sd.b_factors[0])]
    ops += [0.3 * np.kron(gaussian(dims[0], rng), gaussian(dims[1], rng)) for _ in range(rng.integers(0, 3))]
    chan = write_spec(spec_dir / "prod.json", dims, **product_kraus_spec(ops, rng.uniform(0.2, 4.0)))
    gate = {"matrix": matrix_to_pairs(u)}
    target = write_spec(spec_dir / "gate.json", dims, kind="named", name="unitary", params=gate)
    assert verdict(["detect-sep", "--channel", chan, "--target", target]) != "not_separable"


def measure_and_prepare_kraus(d, rng, boundary):
    """Kraus operators |psi_k><r_k| of a rank-one POVM {|r_k><r_k|} followed by preparations.

    The rows r_k of a Haar isometry form the POVM. With ``boundary`` the POVM is
    a basis and each outcome prepares its own basis state: the Choi state then
    has fidelity exactly 1/D, so the expectation is 0 up to rounding.
    """
    m = d if boundary else int(rng.integers(d, d * d + 1))
    rows = haar_unitary(m, rng)[:, :d]
    preps = [r.conj() if boundary else random_ket(d, rng) for r in rows]
    return [np.outer(psi, r) for psi, r in zip(preps, rows)]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(dims=st.sampled_from([[2], [3], [2, 2], [3, 3]]), seed=seeds, boundary=st.booleans())
def test_eb_channels_are_never_flagged(spec_dir, dims, seed, boundary):
    d = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    sigma = {"sigma": matrix_to_pairs(random_density_matrix(d, rng))}
    depol = write_spec(spec_dir / "depol.json", dims, kind="named", name="fully_depolarizing", params=sigma)
    kraus = [matrix_to_pairs(k) for k in measure_and_prepare_kraus(d, rng, boundary)]
    mp = write_spec(spec_dir / "mp.json", dims, kind="kraus", kraus=kraus)
    for chan in (depol, mp):
        assert verdict(["detect-eb", "--channel", chan]) == "undetected"
