"""Shared fixtures, and the independent reference checker.

The benchmark's checker, ``perfbench/reference.py``, recomputes every
audited quantity with plain numpy and imports nothing from ``mubeve``.  It
is loaded here by its file path, without putting ``perfbench/`` on
``sys.path``, and registered as the module ``reference``, so a test file
reads it with ``import reference``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import mubeve.bounds as bounds
from mubeve.symmetrize import walsh_table

_REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"
_spec = importlib.util.spec_from_file_location("reference", _REFERENCE)
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)
sys.modules["reference"] = reference


@pytest.fixture
def swap_holevo(monkeypatch):
    """Make ``audit_attack`` read each Holevo quantity as the other one:
    the original Kraus table answers with the symmetrized value, and the
    Walsh table, asked next, with the original value."""
    original = bounds.kraus_holevo_chi
    symmetrized = bounds.symmetrized_holevo_chi
    held = []

    def swapped_original(kraus):
        held.append(original(kraus))
        return symmetrized(walsh_table(kraus))

    monkeypatch.setattr(bounds, "kraus_holevo_chi", swapped_original)
    monkeypatch.setattr(bounds, "symmetrized_holevo_chi", lambda walsh: held.pop())
