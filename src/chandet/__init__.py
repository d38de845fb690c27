"""Witness-based detection of quantum channel properties.

Channels are linked to bipartite (or four-partite) Choi states; membership in
convex channel classes (entanglement breaking, separable random unitary,
separable, PPT) is tested through Hermitian witness operators whose negative
expectation certifies exclusion, including finite-shot simulations of the
local-measurement schemes that realize those expectations.

The names below are the library's surface; the linear-algebra helpers live in chandet.qmath.
"""

from .channels import (
    Channel,
    ChoiMatrix,
    ValidationError,
    cnot_channel,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    random_unitary_channel,
    sru_channel,
    unitary_channel,
    z3_channel,
)
from .detect import (
    BoundReport,
    SchmidtDecomposition,
    Witness,
    alpha_sru_optimize,
    build_sru_witness,
    decide,
    eb_witness,
    evaluate_witness,
    operator_schmidt,
    robustness_bounds,
    stabilizer_witness,
)
from .measure import (
    MeasurementSetting,
    PauliTerm,
    ShotEstimate,
    estimate_witness,
    group_settings,
    pauli_decompose,
)
from .pptdetect import (
    NptReport,
    detect_npt,
    ppt_conjugate,
    spa_noise_weight,
)

__version__ = "0.1.0"
