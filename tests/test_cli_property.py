"""Property test of the CLI contract on generated channel specs.

Whatever the spec holds (finite numbers of any size, NaN, infinities, strings,
booleans, wrong shapes), a run ends with exit code 0, 2 or 3, never with an
escaping exception. A JSON report is RFC-8259 JSON, a detect command's
verdict is one of its witness kind's row of ``detect.VERDICTS``, a text report
holds no NaN or Infinity token, and a failed run prints nothing to stdout.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chandet.cli import COMMANDS, EXIT_INPUT_ERROR, EXIT_NUMERICAL_ERROR, EXIT_OK, NAMED_SPECS, main  # noqa: E402
from chandet.detect import VERDICTS  # noqa: E402

DIMS = ([1], [2], [3], [1, 2], [2, 1], [2, 2], [2, 3], [2, 2, 2])
PARAM_KEYS = ["p", "d", "probs", "matrix", "sigma", "unitaries"]

numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-2, 2))
scalars = st.one_of(
    numbers,
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["0.5", "", True, False, None]),
)
# mostly well-formed [re, im] pairs, so that generation reaches the pipelines
pairs = st.one_of(
    st.lists(numbers, min_size=2, max_size=2),
    st.lists(scalars, min_size=2, max_size=2),
    scalars,
    st.lists(numbers, max_size=3),
)


@st.composite
def matrices(draw, side):
    n = draw(st.sampled_from([side, side, side, 1, 3]))
    m = draw(st.sampled_from([n, n, n, n + 1]))
    return [[draw(pairs) for _ in range(m)] for _ in range(n)]


def exact_pairs(m):
    return [[[float(x), 0.0] for x in row] for row in m]


IDENTITY4 = exact_pairs([[1 if i == j else 0 for j in range(4)] for i in range(4)])
SWAP = exact_pairs([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
# |0><0| kron Id_3 + |1><1| kron X_3 on [2, 3]: NPT, so detect-npt builds and measures its witness
SHIFT = exact_pairs([[i == j if min(i, j) < 3 else i - 3 == (j - 2) % 3 for j in range(6)] for i in range(6)])
SHIFT_SPEC = {"dims": [2, 3], "kind": "kraus", "kraus": [SHIFT]}
# well-formed specs that run every pipeline to the end
VALID_SPECS = [
    {"dims": [2, 2], "kind": "named", "name": "cnot"},
    {"dims": [2, 2], "kind": "named", "name": "identity"},
    {"dims": [2, 2], "kind": "named", "name": "unitary", "params": {"matrix": SWAP}},
    {"dims": [2], "kind": "named", "name": "depolarizing", "params": {"p": 0.3}},
    {"dims": [2], "kind": "named", "name": "identity"},
    {"dims": [2, 2], "kind": "kraus", "kraus": [IDENTITY4]},
    SHIFT_SPEC,
]


@st.composite
def malformed_specs(draw):
    dims = draw(st.sampled_from(DIMS))
    side = math.prod(dims)
    if draw(st.booleans()):
        name = draw(st.sampled_from(tuple(NAMED_SPECS)))
        params = {}
        for key in sorted(draw(st.sets(st.sampled_from(PARAM_KEYS)))):
            if key in ("matrix", "sigma"):
                params[key] = draw(matrices(side))
            elif key == "unitaries":
                params[key] = draw(st.lists(matrices(side), max_size=2))
            elif key == "probs":
                params[key] = draw(st.lists(scalars, max_size=3))
            else:
                params[key] = draw(st.one_of(scalars, st.floats(0, 1), st.integers(1, 3)))
        return {"dims": dims, "kind": "named", "name": name, "params": params}
    kraus = draw(st.one_of(st.lists(matrices(side), min_size=1, max_size=2), st.just([IDENTITY4])))
    return {"dims": dims, "kind": "kraus", "kraus": kraus}


channel_specs = st.one_of(st.sampled_from(VALID_SPECS), malformed_specs())

# --target files, written next to the spec: a valid CNOT spec and a malformed one
TARGET_SPECS = {
    "target-cnot.json": {"dims": [2, 2], "kind": "named", "name": "cnot"},
    "target-malformed.json": {"dims": [2, 2], "kind": "kraus", "kraus": [[[1, 0]]]},
}
TARGET_COMMANDS = ("decompose-witness", "detect-sep", "detect-sru", "simulate")
# the commands that take --shots and --seed; of them, detect-sru and detect-sep take --starts too
SAMPLING_COMMANDS = ("detect-eb", "detect-sru", "detect-sep", "detect-npt", "simulate")
# the witness kind whose row of the verdict table each detect command reports from
DETECT_KINDS = {"detect-eb": "eb", "detect-sru": "sru", "detect-sep": "sru", "detect-npt": "ppt"}


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    if command in SAMPLING_COMMANDS:
        argv += ["--seed", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            argv += ["--shots", str(draw(st.integers(0, 200)))]
    if command in ("detect-sru", "detect-sep"):
        argv += ["--starts", "2"]
    if command in ("decompose-witness", "simulate"):
        kinds = ["eb", "sru", "stabilizer"] + (["ppt"] if command == "simulate" else [])
        argv += ["--witness", draw(st.sampled_from(kinds))]
    if command in TARGET_COMMANDS and draw(st.booleans()):
        argv += ["--target", draw(st.sampled_from(sorted(TARGET_SPECS)))]
    return argv


def reject_constant(token):
    raise AssertionError(f"stdout holds the non-JSON constant {token}")


@pytest.fixture(scope="module")
def spec_path():
    with tempfile.TemporaryDirectory() as tmp:
        for name, target in TARGET_SPECS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(target, fh)
        yield os.path.join(tmp, "spec.json")


def run_main(spec_path, spec, argv):
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)  # writes NaN and Infinity as bare tokens
    tmp = os.path.dirname(spec_path)
    argv = [os.path.join(tmp, a) if a in TARGET_SPECS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--channel", spec_path])
    event(f"exit {code}")
    assert code in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_NUMERICAL_ERROR)
    if code != EXIT_OK:
        assert out.getvalue() == "" and err.getvalue()
    return code, out.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=channel_specs, argv=invocations())
@example(spec=SHIFT_SPEC, argv=["detect-npt"])
@example(spec=SHIFT_SPEC, argv=["detect-sep"])
def test_cli_contract(spec_path, spec, argv):
    code, out = run_main(spec_path, spec, argv)
    if code == EXIT_OK:
        report = json.loads(out, parse_constant=reject_constant)
        if argv[0] in DETECT_KINDS:
            tiers, default = VERDICTS[DETECT_KINDS[argv[0]]]
            assert report["results"]["verdict"] in (*tiers, default)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=channel_specs, argv=invocations())
@example(spec=SHIFT_SPEC, argv=["detect-npt"])
@example(spec=SHIFT_SPEC, argv=["detect-sep"])
def test_cli_contract_text(spec_path, spec, argv):
    code, out = run_main(spec_path, spec, argv + ["--format", "text"])
    if code == EXIT_OK:
        assert not re.search(r"\b(NaN|Infinity)\b", out), out
