"""Shared fixtures."""

import pytest

import mubeve.bounds as bounds
from mubeve.channel import AttackChannel
from mubeve.symmetrize import symmetrize


@pytest.fixture
def swap_holevo(monkeypatch):
    """Make ``audit_attack`` read each Holevo quantity as the other one:
    the original Kraus table answers with the symmetrized value, and the
    symmetrized table, asked next, with the original value."""
    original = bounds.kraus_holevo_chi
    held = []

    def swapped(kraus):
        if held:
            return held.pop()
        ch = AttackChannel(
            n=kraus.shape[0].bit_length() - 1, eve_dim=kraus.shape[2], kraus=kraus
        )
        held.append(original(kraus))
        return original(symmetrize(ch).kraus)

    monkeypatch.setattr(bounds, "kraus_holevo_chi", swapped)
