"""The package namespace: its public names and its submodules."""

import ast
import types
from pathlib import Path

import pytest

import mubeve
from mubeve.symmetrize import symmetrize

# The audit route, the front end, and the API the acceptance suite names.
# The reference routes live in perfbench/reference.py and tests/oracle.py.
PUBLIC = """
AttackChannel AttackSpec BoundsReport CampaignConfig CampaignSummary
DensityMatrix DependentColumnsError DimensionMismatchError
DimensionTooLargeError EigensolverError ErrorDistribution InvalidArrayError
InvalidPovmError InvalidStateError MubeveError N_MAX NotADistributionError
NotHermitianError NotUnitaryError OutOfRangeError ParseError ScenarioConfig
Spectrum SplitMix64 TAU_HERM TAU_PSD TAU_TR TAU_UNIT TheoremViolation
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


@pytest.mark.parametrize("path, allowed", [
    ("perfbench/reference.py", set()),
    ("tests/oracle.py", {"mubeve.errors"}),
])
def test_references_import_nothing_they_check(path, allowed):
    # the checker shares no code with the package, and the oracle only the
    # error classes it raises, so no package defect reaches both sides of
    # a comparison
    tree = ast.parse((Path(__file__).resolve().parent.parent / path).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path} has a relative import"
            imported.add(node.module)
    assert imported  # the walk saw the imports
    assert {name for name in imported if name.partition(".")[0] == "mubeve"} <= allowed
