"""Shared fixtures."""

import pytest

import mubeve.bounds as bounds
from mubeve.symmetrize import walsh_table


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
