"""Eavesdropping-attack audits for qubit strings encoded in mutually
unbiased bases: channel models, disturbance statistics, information-gain
bounds and their numerical verification."""

from .errors import (
    DependentColumnsError,
    DimensionMismatchError,
    DimensionTooLargeError,
    EigensolverError,
    InvalidArrayError,
    InvalidPovmError,
    InvalidStateError,
    MubeveError,
    NotADistributionError,
    NotUnitaryError,
    OutOfRangeError,
    ParseError,
    TheoremViolation,
    TranslationInvarianceError,
    UnsupportedCombinationError,
    ValidationError,
)
from .linalg import N_MAX, TAU_HERM, TAU_PSD, TAU_TR, TAU_UNIT
from .channel import (
    AttackChannel,
    ErrorDistribution,
    from_unitary,
    xor_error_distribution,
)
from .symmetrize import fourier_spectrum, walsh_table
from .bounds import (
    BoundsReport,
    audit_attack,
    boykin_bound,
    corollary_bound,
    kraus_holevo_chi,
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
