"""The CLI's whole-array paths against their per-entry references.

``render_report`` writes every value through one writer. A JSON report
indents its dicts by two spaces a level and writes every other value, every
list and array included, on its key's line; read back with ``json.load`` it
must be the value of ``json.dumps(value)`` (of an array's ``tolist()``),
signed zeros included. A text report writes each field as
``json.dumps(allow_nan=False)`` does, byte for byte. Both raise a ValueError
where json does, naming the first non-finite float as json's Python encoder
names it. An ndarray is written as its ``tolist()``, a complex one as its
[re, im] pairs; a square complex matrix whose upper triangle mirrors its lower
one bit for bit takes one repr per conjugate pair, in both formats.

``_complex_matrix`` accepts a well-formed matrix through one array check; it
must return exactly the array of the per-entry walk below (the parser as it
was before that check), and name the same fault on malformed input.
``_matrix_list`` does the same for a whole list of matrices at once: its array
must be that of the matrices walked one by one, and a list it cannot convert
must be refused with the text of the matrix-by-matrix path.
"""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chandet import cli  # noqa: E402
from chandet.channels import ValidationError  # noqa: E402
from chandet.cli import SpecError, parse_channel_spec, render_report  # noqa: E402
from support import random_channel  # noqa: E402


def per_entry_number(obj, where):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise SpecError(f"{where} must be a number")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SpecError(f"{where} must be a finite number")
    return value


def per_entry_complex_matrix(obj, where):
    """The reference: one entry at a time, each pair through ``complex(re, im)``."""
    if not isinstance(obj, list) or not obj:
        raise SpecError(f"{where} must be a non-empty nested list of [re, im] pairs")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise SpecError(f"{where}[{i}] must be a non-empty list")
        entries = []
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise SpecError(f"{where}[{i}][{j}] must be an [re, im] pair of numbers")
            entries.append(complex(*(per_entry_number(x, f"{where}[{i}][{j}]") for x in pair)))
        rows.append(entries)
    if any(len(r) != len(rows[0]) for r in rows):
        raise SpecError(f"{where} rows have unequal lengths")
    return np.array(rows, dtype=complex)


# ---------------------------------------------------------------------------
# rendering

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1.7e308, -1.7e308, 1 / 3]
NON_FINITE = [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]
plain_floats = st.floats(allow_nan=False, allow_infinity=False)
finite_floats = st.one_of(plain_floats, st.sampled_from(EDGE_FLOATS), plain_floats.map(np.float64))
any_floats = st.one_of(finite_floats, finite_floats, st.sampled_from(NON_FINITE))
strings = st.one_of(st.text(), st.sampled_from(['"', "\\", "\n\t\r\x00\x1f\x7f", "é ü   \U0001f600", ""]))


@st.composite
def uniform_arrays(draw, leaves):
    """A nested list of depth 1-4 and one shape, some levels tuples."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))

    def build(dims):
        if not dims:
            return draw(leaves)
        items = [build(dims[1:]) for _ in range(dims[0])]
        return tuple(items) if draw(st.integers(0, 4)) == 0 else items

    return build(shape)


def json_values(floats):
    numbers = st.one_of(floats, st.integers(), st.booleans())
    scalars = st.one_of(numbers, strings, st.none())
    arrays = st.one_of(
        uniform_arrays(floats),
        st.lists(numbers, max_size=5),  # int/float/bool mixes
        st.lists(st.lists(floats, max_size=3), max_size=3),  # ragged, empty rows
    )
    return st.recursive(
        st.one_of(scalars, arrays),
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(strings, inner, max_size=4),
        ),
        max_leaves=12,
    )


def first_non_finite(value):
    """The first float of ``value``, in json's order, that is not finite; None if there is none."""
    if isinstance(value, float):
        return None if math.isfinite(value) else value
    items = value.values() if isinstance(value, dict) else value if isinstance(value, (list, tuple)) else ()
    return next((x for x in map(first_non_finite, items) if x is not None), None)


def reference_value(value):
    """``json.loads(json.dumps(value))``, or json's ValueError and the text that names the first non-finite float."""
    try:
        return json.loads(json.dumps(value, allow_nan=False))
    except ValueError:
        return ValueError, f"Out of range float values are not JSON compliant: {first_non_finite(value)!r}"


def assert_layout(text):
    """A non-empty dict one key a line, two spaces deeper a level; any other value whole on its key's line."""
    decode = json.JSONDecoder().raw_decode
    lines = text.split("\n")
    assert lines.pop() == ""
    depth = 0
    for line in lines:
        body = line.lstrip(" ")
        if body.startswith("}"):
            depth -= 1
            assert body in ("}", "},") and line == "  " * depth + body
            continue
        assert line == "  " * depth + body
        if depth:
            key, end = decode(body)
            assert isinstance(key, str) and body[end : end + 2] == ": "
            body = body[end + 2 :]
        if body == "{":
            depth += 1
        else:
            json.loads(body.removesuffix(","))  # the whole value on this one line
    assert depth == 0


def rendered_value(value):
    """``json.loads`` of the JSON report of ``value``, its layout checked, or the writer's error and its text."""
    try:
        text = render_report(value)
    except ValidationError as exc:
        # the writer's ValueError, raised as a numerical failure
        assert str(exc) == f"report holds a non-finite number: {exc.__cause__}"
        return type(exc.__cause__), str(exc.__cause__)
    assert_layout(text)
    return json.loads(text)


def assert_same_value(got, want):
    assert got == want
    assert repr(got) == repr(want)  # == takes -0.0 for 0.0


def reference_line(value):
    """``json.dumps([value])``, one line, or the type of its error."""
    try:
        return json.dumps([value], allow_nan=False)
    except ValueError:
        return ValueError


def rendered_line(value):
    """The text format's line of ``[value]``, or the type of the writer's error."""
    payload = {"pipeline": "choi", "inputs": {"channel": [value], "options": {}}, "results": {}}
    try:
        return render_report(payload, "text").split("\n")[1].removeprefix("channel: ")
    except ValidationError as exc:
        assert str(exc) == f"report holds a non-finite number: {exc.__cause__}"
        return type(exc.__cause__)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_values(finite_floats))
@example([[[-0.0, 5e-324], [1.7e308, 0.0]]])
@example({"matrix": [[np.float64(1.5)]], "empty": [[], {}], "tuple": (1.0, (2.0,)), "mixed": [1, 1.0, True]})
def test_writer_matches_json_dumps(value):
    assert_same_value(rendered_value(value), reference_value(value))
    assert rendered_line(value) == reference_line(value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(json_values(any_floats))
@example([[0.5, math.nan], [math.inf, 1.0]])
@example({"a": [1.0, np.float64("-inf")], "b": math.nan})
def test_writer_raises_what_json_dumps_raises(value):
    assert_same_value(rendered_value(value), reference_value(value))
    assert rendered_line(value) == reference_line(value)


def test_writer_error_names_the_first_non_finite_float():
    with pytest.raises(ValidationError) as exc:
        render_report({"results": {"matrix": [[0.0, 1.0], [np.float64("nan"), math.inf]]}})
    assert str(exc.value.__cause__) == "Out of range float values are not JSON compliant: np.float64(nan)"


def test_a_refused_report_leaves_its_lists_writable():
    payload = {"results": {"rows": [[0.5, math.nan]]}}
    with pytest.raises(ValidationError):
        render_report(payload)
    payload["results"]["rows"][0][1] = 1.5  # the same lists, now finite
    assert json.loads(render_report(payload)) == {"results": {"rows": [[0.5, 1.5]]}}


# ---------------------------------------------------------------------------
# ndarray blocks: a report hands the writer its arrays as the library holds them


def as_list(block):
    """The nested list a report writes for ``block``: a complex array's [re, im] pairs, any other's ``tolist()``."""
    return cli._pairs(block).tolist() if block.dtype.kind == "c" else block.tolist()


def complex_matrix(pairs):
    """The complex matrix of a nest of [re, im] pairs, signed zeros included."""
    return np.array(pairs, dtype=float).view(complex)[..., 0]


def both_formats(block):
    """The JSON and text renderings of a report holding ``block``, or the errors they raise."""
    payload = {"pipeline": "choi", "inputs": {"channel": {"dims": [2]}, "options": {}}, "results": {"matrix": block}}
    texts = []
    for fmt in ("json", "text"):
        try:
            texts.append(render_report(payload, fmt))
        except ValidationError as exc:
            texts.append((type(exc.__cause__), str(exc.__cause__)))
    return texts


def assert_renders_as_its_list(block):
    assert both_formats(block) == both_formats(as_list(block))
    assert_same_value(rendered_value(block), reference_value(as_list(block)))


ARRAY_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.7e308, 1 / 3, -2.0]


@st.composite
def hermitian_blocks(draw, floats, min_n=1):
    """An n x n complex matrix whose strict upper triangle is the conjugate of its strict lower one, bit for bit."""
    n = draw(st.integers(min_n, 6))
    block = np.array(draw(st.lists(floats, min_size=2 * n * n, max_size=2 * n * n)), dtype=float).view(complex)
    block = block.reshape(n, n)
    upper = np.triu_indices(n, 1)
    block[upper] = np.conjugate(block[upper[::-1]])  # a +0.0 imaginary part mirrors to -0.0
    return block


edge_or_plain = st.one_of(plain_floats, st.sampled_from(ARRAY_EDGE_FLOATS))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(hermitian_blocks(edge_or_plain))
@example(complex_matrix([[[0.0, -0.0]]]))
@example(complex_matrix([[[1e308, 0.0], [-0.0, 0.0]], [[-0.0, -0.0], [5e-324, -0.0]]]))
def test_hermitian_block_writes_each_conjugate_pair_once(block):
    assert cli._hermitian_text(block) is not None
    assert_renders_as_its_list(block)


def test_choi_matrix_takes_the_conjugate_pair_path():
    block = random_channel([3, 3], 8, kraus_count=81).choi.matrix
    assert cli._hermitian_text(block) == json.dumps(cli._pairs(block).tolist())
    assert_renders_as_its_list(block)


def default_options(command):
    """The options ``main`` runs ``command`` with when none is given."""
    return cli.build_parser().parse_args([command, "--channel", "unused.json"])


def test_text_choi_report_writes_each_conjugate_pair_once(monkeypatch):
    results = cli._run_choi(random_channel([3, 3], 9, kraus_count=81), default_options("choi"))
    payload = {"pipeline": "choi", "inputs": {"channel": {"dims": [3, 3]}, "options": {}}, "results": results}
    real, found = cli._hermitian_text, []

    def recording(m):
        text = real(m)
        found.append((m.shape, text is not None))
        return text

    monkeypatch.setattr(cli, "_hermitian_text", recording)
    lines = render_report(payload, "text").split("\n")
    assert [shape for shape, mirrored in found if mirrored] == [(81, 81)]
    assert f"  matrix: {json.dumps(cli._pairs(results['matrix']).tolist())}" in lines


@pytest.mark.parametrize("command", ["choi", "schmidt", "decompose-witness", "detect-sep"])
def test_json_report_writes_each_list_on_one_line(command):
    cnot = parse_channel_spec({"dims": [2, 2], "kind": "named", "name": "cnot"})
    channel = random_channel([2, 2], 11, kraus_count=16) if command == "choi" else cnot
    results = cli._run(command, channel, default_options(command))
    payload = {"pipeline": command, "inputs": {"channel": {"dims": [2, 2]}, "options": {}}, "results": results}
    text = render_report(payload)
    assert_layout(text)
    lines = [line.removesuffix(",") for line in text.split("\n")]
    listed = [key for key, val in results.items() if isinstance(val, (list, tuple, np.ndarray))]
    assert listed
    for key in listed:
        assert f'    "{key}": {json.dumps(results[key], default=as_list)}' in lines


def test_writer_without_the_c_encoder_writes_the_same(monkeypatch):
    results = cli._run_choi(random_channel([3], 12, kraus_count=9), default_options("choi"))
    payloads = [{"results": results}, {"results": {**results, "trace": math.inf}}, [np.float64("nan")]]
    texts = [both_formats(p) for p in payloads]
    monkeypatch.setattr(cli, "c_make_encoder", None)
    cli._encoder.cache_clear()
    try:
        assert [both_formats(p) for p in payloads] == texts
    finally:
        cli._encoder.cache_clear()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(hermitian_blocks(edge_or_plain, min_n=2), st.data())
def test_one_bit_of_asymmetry_falls_back(block, data):
    i = data.draw(st.integers(1, len(block) - 1))
    j = data.draw(st.integers(0, i - 1))
    part, bit = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 63))
    where = data.draw(st.sampled_from([(i, j, part), (j, i, part)]))
    bits = cli._pairs(block).view(np.uint64)  # the [re, im] view of the matrix
    bits[where] ^= np.uint64(1 << bit)
    if not np.isfinite(block).all():
        return  # the bit made an exponent of all ones
    assert cli._hermitian_text(block) is None
    assert_renders_as_its_list(block)


def test_zeros_of_one_sign_on_both_sides_fall_back():
    block = np.zeros((2, 2), dtype=complex)  # +0.0 imaginary parts on both sides: a conjugate would hold -0.0
    assert cli._hermitian_text(block) is None
    assert_renders_as_its_list(block)
    cli._pairs(block)[0, 1, 1] = -0.0
    assert cli._hermitian_text(block) is not None
    assert_renders_as_its_list(block)


@pytest.mark.parametrize(
    "block",
    [
        np.arange(12.0).reshape(2, 3, 2),  # not square
        np.arange(18.0).reshape(3, 3, 2) * -0.5,  # square, not Hermitian
        np.arange(27.0).reshape(3, 3, 3),  # square, not [re, im]
        np.arange(16.0).reshape(2, 2, 2, 2) - 7.5,  # a stack of Schmidt factors' pairs
        complex_matrix(np.arange(12.0).reshape(2, 3, 2)),  # complex, not square
        complex_matrix(np.arange(18.0).reshape(3, 3, 2) * -0.5),  # complex, square, not Hermitian
        complex_matrix(np.arange(16.0).reshape(2, 2, 2, 2) - 7.5),  # a stack of Schmidt factors
        np.array([1e308, -0.0, 5e-324]),
        np.arange(4).reshape(2, 2),  # not float64
        np.array(2.5),
        np.zeros((0, 2)),
        np.zeros((2, 0)),
        np.zeros((0, 0, 2)),
    ],
    ids=lambda b: f"{b.dtype}{list(b.shape)}",
)
def test_other_blocks_write_their_lists(block):
    assert_renders_as_its_list(block)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0, 0), (1, 0, 1), (0, 1, 0), (2, 2, 1)])
def test_non_finite_entry_raises_what_json_dumps_raises(bad, where):
    block = cli._pairs(random_channel([3], 2, kraus_count=1).choi.matrix[:3, :3])
    block[where] = bad
    assert rendered_value(block)[0] is ValueError
    assert_renders_as_its_list(block)


# ---------------------------------------------------------------------------
# parsing

numbers = st.one_of(
    plain_floats,
    st.integers(-(2**70), 2**70),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 2**53 + 1, 10**308, 1.7e308]),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_valid_matrix_matches_the_walk_bitwise(rows, cols, data):
    obj = [[[data.draw(numbers), data.draw(numbers)] for _ in range(cols)] for _ in range(rows)]
    ref = per_entry_complex_matrix(obj, "m")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_number", None)  # the whole-array path reads no entry on its own
        got = cli._complex_matrix(obj, "m")
    assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
    assert got.tobytes() == ref.tobytes()


def test_number_subclass_entries_take_the_array_check():
    obj = [[[np.float64(0.5), 1], [np.float64(-0.0), 2.5]]]
    ref = per_entry_complex_matrix(obj, "m")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_number", None)
        got = cli._complex_matrix(obj, "m")
    assert got.tobytes() == ref.tobytes()


GOOD = [[[1, 0]]]
# each holds one fault, read from JSON text as a spec file gives it
MALFORMED = {
    "string": '[[[1, 0], ["0.5", 0]]]',
    "bool": "[[[true, 0]]]",
    "huge int": "[[[1" + "0" * 400 + ", 0]]]",
    "1e400": "[[[0, 0], [0, 1e400]]]",
    "3-element pair": "[[[1, 0, 0]]]",
    "1-element pair": "[[[1]]]",
    "ragged rows": "[[[1, 0], [0, 0]], [[1, 0]]]",
    "extra nesting": "[[[[1, 0], [0, 0]]]]",
    "empty row": "[[[1, 0]], []]",
    "empty matrix": "[]",
    "bare pair list": "[[1, 0]]",
    "object": '{"re": 1}',
    "string matrix": '"[[[1, 0]]]"',
    "number": "1",
    "null": "null",
}
# where each field puts a matrix, the spec holding it there, and the name the fault is reported under
FIELDS = {
    "kraus": ("kraus[0]", lambda m: {"dims": [1], "kind": "kraus", "kraus": [m]}),
    "params.matrix": ("params.matrix", lambda m: {"dims": [1], "kind": "named", "name": "unitary", "params": {"matrix": m}}),
    "params.sigma": (
        "params.sigma",
        lambda m: {"dims": [1], "kind": "named", "name": "fully_depolarizing", "params": {"sigma": m}},
    ),
    "unitaries": (
        "params.unitaries[1]",
        lambda m: {"dims": [1], "kind": "named", "name": "random_unitary", "params": {"probs": [0.5, 0.5], "unitaries": [GOOD, m]}},
    ),
    "a_unitaries": (
        "params.a_unitaries[0]",
        lambda m: {
            "dims": [1, 1],
            "kind": "named",
            "name": "sru",
            "params": {"probs": [1.0], "a_unitaries": [m], "b_unitaries": [GOOD]},
        },
    ),
    "b_unitaries": (
        "params.b_unitaries[0]",
        lambda m: {
            "dims": [1, 1],
            "kind": "named",
            "name": "sru",
            "params": {"probs": [1.0], "a_unitaries": [GOOD], "b_unitaries": [m]},
        },
    ),
}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("fault", MALFORMED)
def test_malformed_matrix_is_named_as_the_walk_names_it(field, fault):
    obj = json.loads(MALFORMED[fault])
    where, spec = FIELDS[field]
    with pytest.raises(SpecError) as ref:
        per_entry_complex_matrix(obj, where)
    with pytest.raises(SpecError) as got:
        parse_channel_spec(spec(obj))
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize(
    "obj, fault",
    [([[[0.0, 0.0], [math.nan, 0.0]]], "[0][1] must be a finite number"), ([[(1, 0)]], "[0][0] must be an [re, im] pair of numbers")],
)
def test_python_only_faults_are_named_as_the_walk_names_them(field, obj, fault):
    where, spec = FIELDS[field]
    with pytest.raises(SpecError) as got:
        parse_channel_spec(spec(obj))
    assert str(got.value) == where + fault


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.data())
def test_valid_matrix_list_matches_the_walk_bitwise(count, rows, cols, data):
    obj = [[[[data.draw(numbers), data.draw(numbers)] for _ in range(cols)] for _ in range(rows)] for _ in range(count)]
    ref = np.array([per_entry_complex_matrix(m, f"m[{i}]") for i, m in enumerate(obj)])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_number", None)  # the whole-list path reads no entry
        mp.setattr(cli, "_complex_matrix", None)  # and no matrix on its own
        got = cli._matrix_list(obj, "m")
    assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
    assert got.tobytes() == ref.tobytes()


ONE = "[[[1, 0]]]"
# each list holds one fault, read from JSON text as a spec file gives it
MALFORMED_LISTS = {
    "bad entry in matrix 2": f"[{ONE}, {ONE}, [[[1, [0]]]]]",
    "two shapes": f"[{ONE}, [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], {ONE}]",
    "empty matrix": f"[{ONE}, [], {ONE}]",
    "true": f"[{ONE}, {ONE}, [[[true, 0]]]]",
    "string": f'[{ONE}, [[["0.5", 0]]], {ONE}]',
    "401-digit int": f"[{ONE}, {ONE}, [[[0, 1{'0' * 400}]]]]",
    "1e400": f"[[[[1e400, 0]]], {ONE}, {ONE}]",
    "non-list entry": f"[{ONE}, 1, {ONE}]",
}
# the spec that holds a list of three 1 x 1 matrices in each field a matrix list is parsed from
LIST_FIELDS = {
    "kraus": lambda ms: {"dims": [1], "kind": "kraus", "kraus": ms},
    "unitaries": lambda ms: {
        "dims": [1], "kind": "named", "name": "random_unitary", "params": {"probs": [0.5, 0.25, 0.25], "unitaries": ms}
    },
    "a_unitaries": lambda ms: {
        "dims": [1, 1],
        "kind": "named",
        "name": "sru",
        "params": {"probs": [0.5, 0.25, 0.25], "a_unitaries": ms, "b_unitaries": json.loads(f"[{ONE}, {ONE}, {ONE}]")},
    },
    "b_unitaries": lambda ms: {
        "dims": [1, 1],
        "kind": "named",
        "name": "sru",
        "params": {"probs": [0.5, 0.25, 0.25], "a_unitaries": json.loads(f"[{ONE}, {ONE}, {ONE}]"), "b_unitaries": ms},
    },
}


def matrix_by_matrix_error(spec):
    """The refusal of ``spec`` with every list of matrices parsed one matrix at a time."""
    array_check = cli._complex_array
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_complex_array", lambda obj, ndim: array_check(obj, ndim) if ndim == 2 else None)
        with pytest.raises(SpecError) as exc:
            parse_channel_spec(spec)
    return str(exc.value)


@pytest.mark.parametrize("field", LIST_FIELDS)
@pytest.mark.parametrize("fault", MALFORMED_LISTS)
def test_malformed_matrix_list_is_named_as_the_walk_names_it(field, fault):
    mats = json.loads(MALFORMED_LISTS[fault])
    spec = LIST_FIELDS[field](mats)
    with pytest.raises(SpecError) as got:
        parse_channel_spec(spec)
    assert str(got.value) == matrix_by_matrix_error(spec)
    where = field if field == "kraus" else f"params.{field}"
    for i, m in enumerate(mats):  # a fault inside a matrix is the per-entry walk's
        try:
            per_entry_complex_matrix(m, f"{where}[{i}]")
        except SpecError as ref:
            assert str(got.value) == str(ref)
            break
    else:
        assert fault == "two shapes"
        if field == "unitaries":  # the field the spec has, not the Kraus operators built from it
            assert str(got.value).startswith("unitaries[1] has shape (2, 2)")
