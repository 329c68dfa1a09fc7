"""The tolerance budget: how far a report can move for a channel accepted
at the unitarity tolerance (README, "Tolerance budget")."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from mubeve.channel import from_unitary
from mubeve.cli import main
from mubeve.linalg import TAU_UNIT
from mubeve.rng import SplitMix64, random_unitary


def h2(x):
    return 0.0 if x <= 0.0 else -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def budget(eps, n, eve_dim):
    """The README table for a Kraus table with unitarity residual ``eps``."""
    d, total = 1 << n, eve_dim << n
    t = 2 * d * eps                            # trace distance of any state
    e = t * math.log2(total) + h2(t)           # one entropy
    return {
        "n": 0, "eve_dim": 0, "delta": 2 * t, "h_xor": e, "chi_orig": 2 * e,
        "chi_sym": 2 * e, "i_lower": 2 * e, "boykin_rhs": 4 * n * math.sqrt(2 * t),
        "corollary_rhs": h2(2 * t) + 2 * n * t, "slack_main": 3 * e,
        "slack_measured": 3 * e, "spectrum_deviation": 4 * t,
    }


def explicit_document(u, n, eve_dim):
    ancilla = [[1, 0]] + [[0, 0]] * (eve_dim - 1)
    return {
        "n_qubits": n,
        "attack": {"unitary": np.stack([u.real, u.imag], -1).tolist(),
                   "ancilla": ancilla},
        "povm_samples": 16,
        "seed": 5,
        "analyses": ["audit", "sigma_spectrum"],
    }


def audit(doc, path):
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["audit", str(path), "--format", "json"])
    assert rc == 0
    return json.loads(out.getvalue())[0]


@pytest.mark.parametrize("n, eve_dim", [(1, 4), (2, 4)])
def test_perturbed_explicit_unitary_stays_within_budget(n, eve_dim, tmp_path):
    # u (I + tA), A Hermitian on the apparatus-|0> columns: its polar factor
    # is u, so u is the isometry the budget measures distances from
    total, d = eve_dim << n, 1 << n
    u = random_unitary(total, 40 + n)
    g = SplitMix64(7).gaussian_matrix(d, d)
    a = np.zeros((total, total), dtype=complex)
    a[:d, :d] = g + g.conj().T
    perturbed = u @ (np.eye(total) + 2.25e-10 / np.max(np.abs(a)) * a)
    residual = np.max(np.abs(perturbed.conj().T @ perturbed - np.eye(total)))
    assert 4e-10 <= residual <= 4.9e-10

    ancilla = np.eye(eve_dim)[0]
    rows = from_unitary(perturbed, ancilla, n).kraus.reshape(d, -1)
    eps = float(np.max(np.abs(rows.conj() @ rows.T - np.eye(d))))
    assert 0.0 < eps <= TAU_UNIT

    exact = audit(explicit_document(u, n, eve_dim), tmp_path / "exact.json")
    moved = audit(explicit_document(perturbed, n, eve_dim), tmp_path / "moved.json")
    limits = budget(eps, n, eve_dim)
    assert set(limits) == set(exact) - {"attack_id"}
    for field, limit in limits.items():
        assert abs(moved[field] - exact[field]) <= limit, (field, limit)
