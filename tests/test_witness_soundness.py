"""Property test: the witnesses never flag a channel the ensembles make separable.

A mixture of product unitaries (``random_sru_channel``) is a separable random
unitary channel, hence also separable and PPT. Whatever Haar gate the SRU
witness is built from, the CLI must not report the mixture ``not_sru`` or
``not_separable``, and the NPT pipeline must not detect it. The hardest such
channel is the product pair at which the optimizer's overlap peaks: the
witness of its gate reads it on the threshold, 0, and flags nothing.

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

from chandet.channels import VERDICT_MARGIN  # noqa: E402
from chandet.cli import EXIT_OK, main  # noqa: E402
from chandet.detect import alpha_sru_optimize  # noqa: E402
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
