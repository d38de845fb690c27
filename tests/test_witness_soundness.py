"""Property test: the witnesses never flag a channel the ensembles make separable.

A mixture of product unitaries (``random_sru_channel``) is a separable random
unitary channel, hence also separable and PPT. Whatever Haar gate the SRU
witness is built from, the CLI must not report the mixture ``not_sru`` or
``not_separable``, and the NPT pipeline must not detect it.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chandet.cli import EXIT_OK, main, matrix_to_pairs  # noqa: E402
from chandet.ensembles import random_sru_channel  # noqa: E402
from chandet.qmath import haar_unitary  # noqa: E402

seeds = st.integers(0, 2**32 - 1)


@pytest.fixture(scope="module")
def spec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("specs")


def write_spec(path, dims, **fields):
    path.write_text(json.dumps({"dims": dims, **fields}))
    return str(path)


def verdict(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == EXIT_OK, err.getvalue()
    return json.loads(out.getvalue())["results"]["verdict"]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3]), channel_seed=seeds, target_seed=seeds)
def test_sru_mixtures_are_never_flagged(spec_dir, d, channel_seed, target_seed):
    kraus = [matrix_to_pairs(k) for k in random_sru_channel((d, d), seed=channel_seed).kraus]
    chan = write_spec(spec_dir / "chan.json", [d, d], kind="kraus", kraus=kraus)
    gate = {"matrix": matrix_to_pairs(haar_unitary(d * d, target_seed))}
    target = write_spec(spec_dir / "gate.json", [d, d], kind="named", name="unitary", params=gate)
    for command in ("detect-sru", "detect-sep"):
        assert verdict([command, "--channel", chan, "--target", target]) == "undetected"
    assert verdict(["detect-npt", "--channel", chan]) == "not_detected"
