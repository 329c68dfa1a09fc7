"""Eavesdropping-attack audits for qubit strings encoded in mutually
unbiased bases: channel models, disturbance statistics, information-gain
bounds and their numerical verification."""

from .errors import (
    DependentColumnsError,
    DimensionMismatchError,
    DimensionTooLargeError,
    EigensolverError,
    InvalidPovmError,
    InvalidStateError,
    MubeveError,
    NotADistributionError,
    NotHermitianError,
    NotUnitaryError,
    OutOfRangeError,
    ParseError,
    TheoremViolation,
    TranslationInvarianceError,
    UnsupportedCombinationError,
    ValidationError,
    WrongBasisError,
)
from .linalg import (
    N_MAX,
    TAU_HERM,
    TAU_PSD,
    TAU_TR,
    TAU_UNIT,
    BitString,
    DensityMatrix,
    Spectrum,
    bit_dot,
    bit_parity,
    hermitian_eigendecomposition,
    hermitian_eigenvalues,
    mub_transform,
    partial_trace,
    shannon_entropy,
    tensor_product,
    von_neumann_entropy,
)
from .channel import (
    AttackChannel,
    Basis,
    ErrorDistribution,
    bob_conjugate_state,
    eve_state,
    eve_states,
    from_unitary,
    to_conjugate_basis,
    xor_error_distribution,
)
from .symmetrize import (
    SigmaAnalysis,
    error_patterns,
    project_ancilla,
    purification_vectors,
    sigma_matrix,
    sigma_spectrum_check,
    symmetrize,
    symmetrized_sigma,
)
from .bounds import (
    BoundsReport,
    Ensemble,
    Povm,
    accessible_info_lower_bound,
    audit_attack,
    boykin_bound,
    corollary_bound,
    holevo_chi,
    kraus_holevo_chi,
    mutual_information_of_measurement,
    pretty_good_measurement,
    symmetrized_holevo_chi,
    xor_entropy_bound,
)
from .rng import SplitMix64, mix, mix64, random_isometry, random_unitary
from .zoo import AttackSpec, make_attack, random_attack
from .harness import (
    CampaignConfig,
    CampaignSummary,
    ScenarioConfig,
    parse_campaign,
    parse_scenario,
    run_campaign,
    run_scenario,
    run_sweep,
    write_report,
)

__version__ = "0.1.0"
