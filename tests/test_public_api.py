"""The names ``chandet`` exports, and that the CLI reaches every module of the package."""

import json
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
