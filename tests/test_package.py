"""The package namespace: its public names and its submodules."""

import types

import mubeve
from mubeve.symmetrize import symmetrize

# The audit route, the front end, and the API the acceptance suite names.
# The dense reference route lives in tests/oracle.py, not here.
PUBLIC = """
AttackChannel AttackSpec BoundsReport CampaignConfig CampaignSummary
DensityMatrix DependentColumnsError DimensionMismatchError
DimensionTooLargeError EigensolverError ErrorDistribution InvalidPovmError
InvalidStateError MubeveError N_MAX NotADistributionError NotHermitianError
NotUnitaryError OutOfRangeError ParseError ScenarioConfig Spectrum
SplitMix64 TAU_HERM TAU_PSD TAU_TR TAU_UNIT TheoremViolation
TranslationInvarianceError UnsupportedCombinationError ValidationError
audit_attack boykin_bound corollary_bound eve_state fourier_spectrum
from_unitary hermitian_eigendecomposition kraus_holevo_chi make_attack mix
mix64 mub_transform parse_campaign parse_scenario partial_trace
project_ancilla random_attack random_isometry random_unitary run_campaign
run_scenario run_sweep symmetrized_holevo_chi tensor_product walsh_table
write_report xor_entropy_bound xor_error_distribution
""".split()


def test_public_names_are_frozen():
    names = sorted(
        name for name, value in vars(mubeve).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC)


def test_symmetrize_attribute_is_the_module():
    # the package does not re-export the function under its module's name
    import mubeve.symmetrize as module

    assert isinstance(module, types.ModuleType)
    assert module.symmetrize is symmetrize
