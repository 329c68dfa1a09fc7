"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance over
the shared attack ensemble (six built-in attacks plus 200 seeded random
attacks at n in {1, 2} and apparatus dimensions {1, 2, 4}) and prints one
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
import reference
from mubeve.bounds import audit_attack, boykin_bound, corollary_bound
from mubeve.channel import ErrorDistribution
from mubeve.harness import CampaignConfig, parse_campaign, run_campaign
from mubeve.linalg import _eigh, sign_grid
from mubeve.rng import mix
from mubeve.zoo import AttackSpec, make_attack, random_attack

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
MASTER_SEED = 20260809
POVM_SAMPLES = 64

# frozen from a 50-digit evaluation of h2(0.01) + 3 * 0.01
COROLLARY_001_N3 = 0.11079313589591118

CELLS = ((1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4))
COUNTS = (34, 34, 33, 33, 33, 33)  # 200 random attacks


def _criterion(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def zoo_attacks():
    return [
        make_attack(AttackSpec("identity", 2)),
        make_attack(AttackSpec("phase_conversion", 1)),
        make_attack(AttackSpec("intercept_resend", 2)),
        make_attack(AttackSpec("cnot_probe", 1)),
        make_attack(AttackSpec("probe_overlap", 1, params=(math.pi / 5,))),
        make_attack(AttackSpec("random_unitary", 2, eve_dim=2, seed=123)),
    ]


@pytest.fixture(scope="module")
def attack_ensemble():
    attacks = zoo_attacks()
    for (n, d), count in zip(CELLS, COUNTS):
        for k in range(count):
            attacks.append(random_attack(n, d, mix(MASTER_SEED, n, d, k)))
    assert len(attacks) == 206
    return attacks


@pytest.fixture(scope="module")
def audits(attack_ensemble):
    return [
        audit_attack(ch, POVM_SAMPLES, mix(MASTER_SEED, 99, idx))
        for idx, ch in enumerate(attack_ensemble)
    ]


def test_criterion_1_spectrum_identity(audits):
    worst = max(rep.spectrum_deviation for rep in audits)
    _criterion(
        1, worst <= 1e-9,
        f"spectrum identity max deviation {worst:.3e} <= 1e-9 "
        f"over {len(audits)} attacks",
    )


def test_criterion_2_main_inequalities(audits):
    sym_gap = max(rep.chi_sym - rep.h_xor for rep in audits)
    meas_gap = max(rep.i_lower - rep.h_xor for rep in audits)
    holevo_gap = max(rep.i_lower - rep.chi_orig for rep in audits)
    ok = sym_gap <= 1e-9 and meas_gap <= 1e-9 and holevo_gap <= 1e-9
    _criterion(
        2, ok,
        f"chi_sym-h_xor <= {sym_gap:.3e}, i_lower-h_xor <= {meas_gap:.3e}, "
        f"i_lower-chi_orig <= {holevo_gap:.3e} (povm_samples={POVM_SAMPLES})",
    )


def test_criterion_3_phase_conversion_separation():
    rep = audit_attack(
        make_attack(AttackSpec("phase_conversion", 1)), POVM_SAMPLES, 17
    )
    checks = (
        abs(rep.delta - 1.0) <= 1e-12,
        abs(rep.h_xor) <= 1e-12,
        abs(rep.chi_orig) <= 1e-9,
        abs(rep.chi_sym) <= 1e-9,
        rep.boykin_rhs == 4.0,
        abs(rep.corollary_rhs - 1.0) <= 1e-12,
    )
    _criterion(
        3, all(checks),
        f"delta={rep.delta}, h_xor={rep.h_xor}, chi_orig={rep.chi_orig}, "
        f"chi_sym={rep.chi_sym}, boykin_rhs={rep.boykin_rhs}, "
        f"corollary_rhs={rep.corollary_rhs}",
    )


def test_criterion_4_tight_probe_family():
    worst_closed_form = 0.0
    worst_tightness = 0.0
    for k in range(7):
        theta = k * math.pi / 12.0
        rep = audit_attack(
            make_attack(AttackSpec("probe_overlap", 1, params=(theta,))), 8, k
        )
        expected = binary_entropy((1.0 + math.cos(theta)) / 2.0)
        worst_closed_form = max(worst_closed_form, abs(rep.chi_orig - expected))
        worst_tightness = max(worst_tightness, abs(rep.h_xor - rep.chi_orig))
    ok = worst_closed_form <= 1e-8 and worst_tightness <= 1e-8
    _criterion(
        4, ok,
        f"|chi_orig - h2((1+cos)/2)| <= {worst_closed_form:.3e}, "
        f"|h_xor - chi_orig| <= {worst_tightness:.3e} over 7 angles",
    )


def test_criterion_5_corollary_dominance(audits):
    ensemble_gap = min(rep.corollary_rhs - rep.h_xor for rep in audits)
    probs = np.full(8, 0.01 / 7)
    probs[0] = 0.99
    boykin = boykin_bound(ErrorDistribution(3, probs))
    corollary = corollary_bound(0.01, 3)
    tighter_everywhere = all(
        corollary_bound(d, 3) < boykin_bound(
            ErrorDistribution(3, np.concatenate(([1 - d], np.full(7, d / 7))))
        )
        for d in (0.001, 0.005, 0.01, 0.02)
    )
    checks = (
        ensemble_gap >= -1e-9,
        abs(corollary - COROLLARY_001_N3) <= 1e-15,
        abs(corollary - 0.11079) <= 5e-6,
        abs(boykin - 1.2) <= 1e-12,
        tighter_everywhere,
    )
    _criterion(
        5, all(checks),
        f"min(corollary_rhs - h_xor) = {ensemble_gap:.3e} >= -1e-9; "
        f"n=3 delta=0.01: corollary {corollary:.6f} vs boykin {boykin:.6f}",
    )


def test_criterion_6_shift_law(attack_ensemble):
    worst_state = 0.0
    worst_prob = 0.0
    for ch in attack_ensemble:
        # the checker's symmetrized table, read by the oracle
        sym = reference.symmetrized(ch.kraus)
        states = reference._states(ch.kraus)
        d = 1 << ch.n
        for i in range(d):
            for m in range(d):
                prob, state = oracle.register_read(sym, i, m)
                worst_prob = max(worst_prob, abs(prob - 1.0 / d))
                worst_state = max(
                    worst_state, float(np.max(np.abs(state - states[i ^ m])))
                )
    ok = worst_state <= 1e-10 and worst_prob <= 1e-9
    _criterion(
        6, ok,
        f"shift-law state deviation {worst_state:.3e} <= 1e-10, "
        f"outcome probability deviation {worst_prob:.3e} <= 1e-9",
    )


def test_criterion_7_linear_algebra_suite():
    rng = np.random.default_rng(MASTER_SEED)
    worst_recon = 0.0
    for d in (2, 4, 8, 16, 32, 64):
        for _ in range(3):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            a = a + a.conj().T
            w, v = _eigh(a, want_vectors=True)
            rec = v @ np.diag(w) @ v.conj().T
            worst_recon = max(worst_recon, float(np.max(np.abs(rec - a))))

    worst_involution = 0.0
    for n in range(1, 5):
        m = sign_grid(n) * 2.0 ** (-n / 2.0)  # the change to the conjugate basis
        worst_involution = max(
            worst_involution, float(np.max(np.abs(m @ m - np.eye(1 << n))))
        )

    ok = worst_recon <= 1e-10 and worst_involution <= 1e-12
    _criterion(
        7, ok,
        f"eig reconstruction {worst_recon:.3e} <= 1e-10, "
        f"mub involution {worst_involution:.3e} <= 1e-12",
    )


def test_criterion_8_campaign_determinism(tmp_path):
    shipped = parse_campaign((SCENARIOS / "campaign_small.json").read_bytes())
    cfg = CampaignConfig(
        grid=shipped.grid,
        count=shipped.count,
        master_seed=shipped.master_seed,
        output=str(tmp_path / "run1.csv"),
        povm_samples=shipped.povm_samples,
    )
    run_campaign(cfg)
    run_campaign(replace(cfg, output=str(tmp_path / "run2.csv")))
    first = (tmp_path / "run1.csv").read_bytes()
    second = (tmp_path / "run2.csv").read_bytes()
    _criterion(
        8, first == second and len(first) > 0,
        f"two campaign runs produced identical CSV bytes ({len(first)} bytes)",
    )
