"""The names ``chandet`` exports, their one argument contract, and that the CLI reaches every module of the package."""

import json
import math
import subprocess
import sys
import types
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import chandet

SRC = Path(chandet.__file__).parent

# The library's surface; the linear-algebra helpers stay in chandet.qmath.
PUBLIC_NAMES = """
    BoundReport Channel ChoiMatrix MeasurementSetting NptReport PauliTerm SchmidtDecomposition
    ShotEstimate ValidationError Witness alpha_sru_optimize build_sru_witness
    cnot_channel decide depolarizing_channel detect_npt eb_witness estimate_witness
    evaluate_witness fully_depolarizing_channel group_settings identity_channel
    operator_schmidt pauli_decompose ppt_conjugate random_unitary_channel robustness_bounds
    spa_noise_weight sru_channel stabilizer_witness unitary_channel z3_channel
""".split()

# Imports chandet.cli under a bare stand-in for the package, so that the
# re-exports of chandet/__init__.py, which would load every module anyway,
# do not count; prints the chandet modules that the CLI's imports loaded.
LOADED_BY_CLI = """
import json, sys, types
package = types.ModuleType("chandet")
package.__path__ = [sys.argv[1]]
sys.modules["chandet"] = package
import chandet.cli
print(json.dumps(sorted(name for name in sys.modules if name.startswith("chandet."))))
"""


def test_public_names():
    names = [n for n, v in vars(chandet).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert sorted(names) == PUBLIC_NAMES and len(names) == 32


def test_cli_reaches_every_module():
    modules = sorted(f"chandet.{path.stem}" for path in SRC.glob("*.py") if path.stem != "__init__")
    argv = [sys.executable, "-c", LOADED_BY_CLI, str(SRC)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == modules


# Every record that holds an array, each kind the package returns, built from the CNOT; a case is
# named by the record's type and, after a dash, the builder when the type has more than one.
CNOT = chandet.cnot_channel
ARRAY_RECORDS = {
    "ChoiMatrix-choi": lambda: CNOT().choi,
    "ChoiMatrix-ppt_conjugate": lambda: chandet.ppt_conjugate(CNOT()),
    "ChoiMatrix-composite": lambda: chandet.detect_npt(CNOT()).composite,
    "SchmidtDecomposition": lambda: chandet.operator_schmidt(CNOT().kraus[0], 2, 2),
    "Witness-sru": lambda: chandet.build_sru_witness(CNOT().kraus[0], (2, 2), 0.5),
    "Witness-eb": lambda: chandet.eb_witness(),
    "Witness-stabilizer": lambda: chandet.stabilizer_witness(),
    "Witness-ppt": lambda: chandet.detect_npt(CNOT()).witness,
    "NptReport": lambda: chandet.detect_npt(CNOT()),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_compare_and_hash_by_identity(name):
    # a generated __eq__ would compare the arrays inside a tuple and raise; such records are equal only to themselves
    record = ARRAY_RECORDS[name]()
    assert type(record).__name__ == name.partition("-")[0]
    twin = replace(record)
    assert record == record and not record == twin and record != twin
    assert len({record, twin, record}) == 2 and hash(record) == hash(record)


def held_arrays(record):
    """Every ndarray ``record`` holds, through the records it holds."""
    for f in fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            yield f.name, value
        elif is_dataclass(value):
            yield from ((f"{f.name}.{name}", a) for name, a in held_arrays(value))


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_array_records_hold_read_only_arrays(name):
    # a writable array would let a caller change a record that others, such as a kept witness, share
    arrays = dict(held_arrays(ARRAY_RECORDS[name]()))
    assert arrays and [key for key, a in arrays.items() if a.flags.writeable] == []


# ---------------------------------------------------------------------------
# the one argument contract of the public names' numeric parameters

U2, CNOT_U = np.eye(2), CNOT().kraus[0]


def with_entry(d, x):
    """The d x d identity with ``x`` at [0, 1]."""
    m = np.eye(d, dtype=complex)
    m[0, 1] = x
    return m


def unit_vector_with(x):
    """A unit vector of 16 entries, the CNOT's NPT witness size, whose last entry is ``x``."""
    return np.r_[1.0, np.zeros(14), x]


def eb_state():
    return chandet.identity_channel([2]).choi


# Each numeric parameter of the public names, by kind: a call that puts ``x`` there, a value the call takes,
# and how its refusals begin, naming the argument. An int is a count, dimension, seed or subsystem index; a real
# is a probability, weight, expectation or threshold; an entry is one entry of a matrix or vector argument.
DIMS = "invalid subsystem dimensions"
PARAMETERS = {
    "int": {
        "Channel dims": (lambda x: chandet.Channel([U2], [x]), 2, DIMS),
        "identity_channel dims": (lambda x: chandet.identity_channel([x]), 2, DIMS),
        "unitary_channel dims": (lambda x: chandet.unitary_channel(U2, [x]), 2, DIMS),
        "depolarizing_channel d": (lambda x: chandet.depolarizing_channel(0.25, x), 2, DIMS),
        "fully_depolarizing_channel dims": (lambda x: chandet.fully_depolarizing_channel([x]), 2, DIMS),
        "random_unitary_channel dims": (lambda x: chandet.random_unitary_channel([1.0], [U2], [x]), 2, DIMS),
        "sru_channel dims": (lambda x: chandet.sru_channel([1.0], [U2], [U2], [x, 2]), 2, DIMS),
        "operator_schmidt da": (lambda x: chandet.operator_schmidt(CNOT_U, x, 2), 2, DIMS),
        "operator_schmidt db": (lambda x: chandet.operator_schmidt(CNOT_U, 2, x), 2, DIMS),
        "alpha_sru_optimize dims": (lambda x: chandet.alpha_sru_optimize(CNOT_U, (x, 2), starts=2), 2, DIMS),
        "alpha_sru_optimize starts": (lambda x: chandet.alpha_sru_optimize(CNOT_U, (2, 2), starts=x), 2, "starts"),
        "alpha_sru_optimize seed": (
            lambda x: chandet.alpha_sru_optimize(CNOT_U, (2, 2), starts=2, seed=x), 2, "seed"
        ),
        "build_sru_witness dims": (lambda x: chandet.build_sru_witness(CNOT_U, (x, 2), 0.5), 2, DIMS),
        "eb_witness dims": (lambda x: chandet.eb_witness([x]), 2, DIMS),
        "estimate_witness shots": (
            lambda x: chandet.estimate_witness(eb_state(), chandet.eb_witness(), x), 2, "shots_per_setting"
        ),
        "estimate_witness seed": (
            lambda x: chandet.estimate_witness(eb_state(), chandet.eb_witness(), 9, x), 2, "seed"
        ),
        "spa_noise_weight dims": (lambda x: chandet.spa_noise_weight((x, 2)), 2, DIMS),
    },
    "real": {
        "depolarizing_channel p": (lambda x: chandet.depolarizing_channel(x, 2), 1, "depolarizing weight p"),
        "random_unitary_channel probs": (
            lambda x: chandet.random_unitary_channel([x, 1.0], [U2, U2]), 0, "probabilities[0]"
        ),
        "sru_channel probs": (lambda x: chandet.sru_channel([x, 1.0], [U2, U2], [U2, U2]), 0, "probabilities[0]"),
        "build_sru_witness alpha_sq": (lambda x: chandet.build_sru_witness(CNOT_U, (2, 2), x), 1, "alpha_sq"),
        "decide value": (
            lambda x: chandet.decide("eb", x, {"not_entanglement_breaking": 0.0}), 0, "the eb verdict's value"
        ),
        "decide threshold": (
            lambda x: chandet.decide("eb", -1.0, {"not_entanglement_breaking": x}), 0, "the eb verdict's value"
        ),
        "robustness_bounds c": (
            lambda x: chandet.robustness_bounds(x, chandet.eb_witness()), -1, "a robustness bound's expectation"
        ),
    },
    "entry": {
        "Channel kraus": (lambda x: chandet.Channel([with_entry(2, x)], [2], require_tp=False), 0, "kraus[0]"),
        "unitary_channel u": (lambda x: chandet.unitary_channel(with_entry(2, x)), 0, "unitary "),
        "fully_depolarizing_channel sigma": (
            lambda x: chandet.fully_depolarizing_channel([2], with_entry(2, x) / 2), 0, "sigma "
        ),
        "random_unitary_channel unitaries": (
            lambda x: chandet.random_unitary_channel([0.5, 0.5], [U2, with_entry(2, x)]), 0, "unitaries[1]"
        ),
        "sru_channel a_unitaries": (
            lambda x: chandet.sru_channel([1.0], [with_entry(2, x)], [U2]), 0, "a_unitaries[0]"
        ),
        "sru_channel b_unitaries": (
            lambda x: chandet.sru_channel([1.0], [U2], [with_entry(2, x)]), 0, "b_unitaries[0]"
        ),
        "operator_schmidt o": (lambda x: chandet.operator_schmidt(with_entry(4, x), 2, 2), 0, "operator "),
        "alpha_sru_optimize u": (
            lambda x: chandet.alpha_sru_optimize(with_entry(9, x), (3, 3), starts=3), 0, "target unitary "
        ),
        "build_sru_witness u": (
            lambda x: chandet.build_sru_witness(with_entry(4, x), (2, 2), 0.5), 0, "target unitary "
        ),
        "pauli_decompose w": (lambda x: chandet.pauli_decompose(with_entry(4, x)), 0, "operator "),
        "detect_npt vector": (lambda x: chandet.detect_npt(CNOT(), unit_vector_with(x)), 0, "witness vector "),
        "estimate_witness choi": (
            lambda x: chandet.estimate_witness(
                chandet.ChoiMatrix(with_entry(4, x) / 4, (2, 2), (2,)), chandet.eb_witness(), 9
            ),
            0,
            "state ",
        ),
    },
}
# what each kind refuses: a fractional float is no integer and would be truncated; a bool or a string is no number
REFUSED = {
    "int": [2.5, -0.5, True, False, "2", math.nan, math.inf, -math.inf],
    "real": [True, False, "0.5", "1", math.nan, math.inf, -math.inf, 10**400],
    "entry": [math.nan],
}


def fingerprint(value):
    """Each array's bytes and each other value with its type, through channels, records and tuples."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, chandet.Channel):
        return fingerprint((value.dims, value.kraus))
    if is_dataclass(value):
        return tuple(fingerprint(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(map(fingerprint, value))
    return type(value), value


@pytest.mark.parametrize("kind, name", [(kind, name) for kind, table in PARAMETERS.items() for name in table])
def test_numeric_parameters_take_only_numbers_of_their_kind(kind, name):
    # no call truncates, converts a bool or a string, or returns a verdict, a bound or a record from NaN
    call, good, named = PARAMETERS[kind][name]
    for bad in REFUSED[kind]:
        with pytest.raises((ValueError, TypeError)) as refused:
            call(bad)
        assert str(refused.value).startswith(named) and not isinstance(refused.value, np.linalg.LinAlgError)
    # an integer of any type is taken as the int it is
    assert fingerprint(call(np.int64(good))) == fingerprint(call(good))
