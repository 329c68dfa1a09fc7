"""Shared fixtures."""

import pytest

import mubeve.bounds as bounds
from mubeve.linalg import sign_grid
from mubeve.symmetrize import error_patterns


@pytest.fixture
def swap_holevo(monkeypatch):
    """Make ``audit_attack`` read each Holevo quantity as the other one:
    the original Kraus table answers with the symmetrized value, and the
    Walsh table of its error patterns, asked next, with the original value."""
    original = bounds.kraus_holevo_chi
    symmetrized = bounds.symmetrized_holevo_chi
    held = []

    def swapped_original(kraus):
        held.append(original(kraus))
        n = kraus.shape[0].bit_length() - 1
        return symmetrized(sign_grid(n) @ error_patterns(kraus))

    monkeypatch.setattr(bounds, "kraus_holevo_chi", swapped_original)
    monkeypatch.setattr(bounds, "symmetrized_holevo_chi", lambda walsh: held.pop())
