"""Witness-based detection of quantum channel properties.

Channels are linked to bipartite (or four-partite) Choi states; membership in
convex channel classes (entanglement breaking, separable random unitary,
separable, PPT) is tested through Hermitian witness operators whose negative
expectation certifies exclusion, including finite-shot simulations of the
local-measurement schemes that realize those expectations.
"""

from .channels import (
    Channel,
    ChannelFlags,
    ChoiMatrix,
    ValidationError,
    classify,
    cnot_channel,
    depolarizing_channel,
    fully_depolarizing_channel,
    identity_channel,
    kraus_from_choi,
    make_named_channel,
    random_unitary_channel,
    sru_channel,
    superoperator_to_choi,
    unitary_channel,
    z3_channel,
)
from .detect import (
    BoundReport,
    SchmidtDecomposition,
    Verdict,
    Witness,
    alpha_sru_optimize,
    build_sru_witness,
    choi_vector,
    classify_violation,
    eb_witness,
    evaluate_witness,
    operator_schmidt,
    product_overlap,
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
    simulate_counts,
)
from .pptdetect import (
    NptReport,
    PptUndetectableError,
    detect_npt,
    ppt_conjugate,
    ppt_witness,
    spa_noise_weight,
    spa_transpose,
)
from .qmath import (
    PAULI,
    haar_unitary,
    kron,
    max_entangled,
    partial_trace,
    partial_transpose,
    pauli_string,
    permute_subsystems,
)

__version__ = "0.1.0"
