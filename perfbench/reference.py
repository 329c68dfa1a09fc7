"""Reference checker for mubeve reports, written apart from the package.

Nothing here imports ``mubeve``.  Attacks are rebuilt from their
documented definitions (the random stream and the attack tables described
in the package README) and every audited quantity is recomputed with plain
numpy and ``numpy.linalg.eigvalsh``/``eigh``.  A report is checked three
ways: against these recomputed values, against closed forms where the
attack has one, and against properties the method guarantees.
"""

from __future__ import annotations

import json
import math

import numpy as np

CSV_HEADER = (
    "attack_id,n,eve_dim,delta,h_xor,chi_orig,chi_sym,i_lower,"
    "boykin_rhs,corollary_rhs,slack_main,slack_measured,spectrum_deviation"
)
FIELDS = CSV_HEADER.split(",")
REALS = FIELDS[3:]

TOL_RECOMPUTED = 1e-10   # report vs. this module's recomputation
TOL_CLOSED = 1e-12       # report vs. closed forms
TOL_PROPERTY = 1e-9      # inequalities the method guarantees

# --------------------------------------------------------------------------
# The random stream: SplitMix64, Box-Muller, modified Gram-Schmidt.

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def mix(seed: int, *parts: int) -> int:
    h = seed & MASK64
    for p in parts:
        h = _finalize(((h ^ (int(p) & MASK64)) + GOLDEN) & MASK64)
    return h


class Stream:
    def __init__(self, seed: int):
        self.state = int(seed) & MASK64

    def double(self) -> float:
        self.state = (self.state + GOLDEN) & MASK64
        return (_finalize(self.state) >> 11) * 2.0**-53

    def gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        out = np.empty((rows, cols), dtype=complex)
        scale = 1.0 / math.sqrt(2.0)
        for r in range(rows):
            for c in range(cols):
                u1 = self.double()
                u2 = self.double()
                rad = math.sqrt(-2.0 * math.log(1.0 - u1))
                t = 2.0 * math.pi * u2
                out[r, c] = complex(rad * math.cos(t), rad * math.sin(t)) * scale
        return out


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass."""
    a = np.array(a, dtype=complex)
    q = np.zeros_like(a)
    for k in range(a.shape[1]):
        v = a[:, k].copy()
        for _ in range(2):
            if k:
                v -= q[:, :k] @ (q[:, :k].conj().T @ v)
        q[:, k] = v / np.linalg.norm(v)
    return q


# --------------------------------------------------------------------------
# Attack tables: kraus[i, j] is the apparatus vector for input i, output j.

def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _diagonal(n: int, vectors) -> np.ndarray:
    d = 1 << n
    e = len(vectors[0])
    k = np.zeros((d, d, e), dtype=complex)
    for i in range(d):
        k[i, i] = vectors[i]
    return k


def kraus_identity(n: int) -> np.ndarray:
    return _diagonal(n, [[1.0]] * (1 << n))


def kraus_phase_conversion(n: int) -> np.ndarray:
    return _diagonal(n, [[(-1.0) ** _parity(i)] for i in range(1 << n)])


def kraus_pointer(n: int) -> np.ndarray:
    """intercept_resend and cnot_probe: the string is forwarded and the
    apparatus keeps a copy."""
    return _diagonal(n, list(np.eye(1 << n)))


def kraus_probe_overlap(theta: float) -> np.ndarray:
    return _diagonal(1, [[1.0, 0.0], [math.cos(theta), math.sin(theta)]])


def kraus_from_unitary(u: np.ndarray, ancilla: np.ndarray, n: int) -> np.ndarray:
    """kraus[i, j, x] = <x, j| u |ancilla, i>, apparatus most significant."""
    d = 1 << n
    e = u.shape[0] // d
    cols = u.reshape(e, d, e, d)          # (x, j, y, i)
    return np.einsum("xjyi,y->ijx", cols, ancilla)


def kraus_random(n: int, eve_dim: int, seed: int) -> np.ndarray:
    total = eve_dim << n
    u = orthonormal_columns(Stream(seed).gaussian_matrix(total, total))
    ancilla = np.zeros(eve_dim, dtype=complex)
    ancilla[0] = 1.0
    return kraus_from_unitary(u, ancilla, n)


# --------------------------------------------------------------------------
# Audited quantities.

def _h(p) -> float:
    p = np.clip(np.asarray(p, dtype=float).reshape(-1), 0.0, None)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def h2(x: float) -> float:
    return _h([x, 1.0 - x])


def entropy(rho: np.ndarray) -> float:
    return _h(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)))


def _states(kraus: np.ndarray) -> np.ndarray:
    """Apparatus state for each input: sum_j |K_ij><K_ij|."""
    return np.einsum("ijx,ijy->ixy", kraus, kraus.conj())


def holevo(states: np.ndarray) -> float:
    return entropy(states.mean(axis=0)) - float(np.mean([entropy(s) for s in states]))


def _signs(n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    dots = idx[:, None] & idx[None, :]
    return np.array([[(-1.0) ** _parity(int(v)) for v in row] for row in dots])


def error_distribution(kraus: np.ndarray) -> np.ndarray:
    """p(c): conjugate-basis outcome XOR input, averaged over inputs."""
    d = kraus.shape[0]
    n = d.bit_length() - 1
    had = _signs(n) / math.sqrt(d)
    conj = np.einsum("li,sj,ijx->lsx", had, had, kraus)
    norms = np.sum(np.abs(conj) ** 2, axis=2)
    idx = np.arange(d)
    return np.array([norms[idx, idx ^ c].mean() for c in range(d)])


def symmetrized(kraus: np.ndarray) -> np.ndarray:
    """K_sym[i, j] = 2^(-n/2) sum_m (-1)^(m.(i^j)) |m> (x) K[i^m, j^m]."""
    d, _, e = kraus.shape
    n = d.bit_length() - 1
    signs = _signs(n)
    out = np.zeros((d, d, d * e), dtype=complex)
    for i in range(d):
        for j in range(d):
            for m in range(d):
                out[i, j, m * e:(m + 1) * e] = signs[m, i ^ j] * kraus[i ^ m, j ^ m]
    return out / math.sqrt(d)


def _mutual_information(states: np.ndarray, cond: np.ndarray) -> float:
    """I(label; outcome) for uniform priors and p(outcome | label)."""
    joint = np.clip(cond, 0.0, None) / states.shape[0]
    joint = joint / joint.sum()
    return _h(np.full(states.shape[0], 1.0 / states.shape[0])) + _h(joint.sum(axis=0)) - _h(joint)


def _pgm_information(states: np.ndarray) -> float:
    count, dim, _ = states.shape
    w, v = np.linalg.eigh(states.mean(axis=0))
    keep = w > 1e-12
    vk = v[:, keep]
    inv_sqrt = (vk / np.sqrt(w[keep])) @ vk.conj().T
    rest = (np.eye(dim) - vk @ vk.conj().T) / count
    cond = np.empty((count, count))
    for a in range(count):
        elem = inv_sqrt @ (states[a] / count) @ inv_sqrt + rest
        cond[:, a] = np.einsum("xy,iyx->i", elem, states).real
    return _mutual_information(states, cond)


def measured_information(states: np.ndarray, samples: int, seed: int) -> float:
    """Best of the pretty good measurement and ``samples`` random bases."""
    best = _pgm_information(states)
    stream = Stream(seed)
    dim = states.shape[1]
    for _ in range(samples):
        basis = orthonormal_columns(stream.gaussian_matrix(dim, dim))
        cond = np.einsum("xa,ixy,ya->ia", basis.conj(), states, basis).real
        best = max(best, _mutual_information(states, cond))
    return best


def reference_values(kraus: np.ndarray, samples: int, seed: int) -> dict:
    """Every audited quantity of one attack, recomputed from its table."""
    d = kraus.shape[0]
    gram = np.einsum("ijx,kjx->ik", kraus.conj(), kraus)
    if np.max(np.abs(gram - np.eye(d))) > 1e-9:
        raise ValueError("reference attack table is not unitary")
    probs = error_distribution(kraus)
    originals = _states(kraus)
    return {
        "error_probs": probs,
        "delta": float(probs[1:].sum()),
        "h_xor": _h(probs),
        "chi_orig": holevo(originals),
        "chi_sym": holevo(_states(symmetrized(kraus))),
        "i_lower": measured_information(originals, samples, seed),
    }


def closed_form(kind: str, n: int, theta: float | None = None) -> dict:
    """Exact values for the named attacks."""
    if kind == "identity":
        return dict(delta=0.0, h_xor=0.0, chi_orig=0.0, chi_sym=0.0, i_lower=0.0)
    if kind == "phase_conversion":
        return dict(delta=1.0, h_xor=0.0, chi_orig=0.0, chi_sym=0.0, i_lower=0.0)
    if kind in ("intercept_resend", "cnot_probe"):
        return dict(delta=1.0 - 2.0**-n, h_xor=float(n), chi_orig=float(n),
                    chi_sym=float(n), i_lower=float(n))
    if kind == "probe_overlap":
        delta = (1.0 - math.cos(theta)) / 2.0
        return dict(
            delta=delta,
            h_xor=h2(delta),
            chi_orig=h2((1.0 + math.cos(theta)) / 2.0),
            # the pretty good measurement is optimal for two pure states
            i_lower=1.0 - h2((1.0 + abs(math.sin(theta))) / 2.0),
        )
    raise ValueError(f"no closed form for {kind!r}")


# --------------------------------------------------------------------------
# Reports.

class Expected:
    """What one report row must say: its id, sizes and reference values."""

    def __init__(self, attack_id, n, kraus, samples, seed, exact=None):
        self.attack_id = attack_id
        self.n = n
        self.eve_dim = kraus.shape[2]
        self.values = reference_values(kraus, samples, seed)
        self.exact = exact or {}


def parse_csv(text: str) -> tuple[list[dict], list[str]]:
    """Rows as {field: string}, plus format problems."""
    problems = []
    lines = text.split("\n")
    if not text.endswith("\n") or lines[0] != CSV_HEADER:
        problems.append(f"CSV header or final newline wrong: {lines[0][:80]!r}")
        return [], problems
    rows = []
    for line in lines[1:-1]:
        parts = line.split(",")
        if len(parts) != len(FIELDS):
            problems.append(f"CSV row has {len(parts)} fields: {line[:80]!r}")
            continue
        row = dict(zip(FIELDS, parts))
        for name in REALS:
            s = row[name]
            try:
                ok = format(float(s) + 0.0, ".17g") == s
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"{name}={s!r} is not a 17-significant-digit real")
        rows.append(row)
    return rows, problems


def csv_values(rows: list[dict]) -> list[dict]:
    out = []
    for row in rows:
        vals = {"attack_id": row["attack_id"]}
        for name in FIELDS[1:]:
            try:
                vals[name] = int(row[name]) if name in ("n", "eve_dim") else float(row[name])
            except ValueError:
                vals[name] = row[name]
        out.append(vals)
    return out


def parse_json(text: str) -> tuple[list[dict], list[str]]:
    try:
        records = json.loads(text)
    except json.JSONDecodeError as exc:
        return [], [f"JSON report does not parse: {exc}"]
    if not isinstance(records, list) or any(
        not isinstance(r, dict) or list(r) != FIELDS for r in records
    ):
        return [], ["JSON report is not a list of records with the CSV fields"]
    return records, []


def check_row(row: dict, exp: Expected) -> list[str]:
    """Problems with one parsed report row (numbers as floats)."""
    where = exp.attack_id
    bad = []
    if row["attack_id"] != exp.attack_id:
        bad.append(f"attack_id {row['attack_id']!r}, expected {exp.attack_id!r}")
    if row["n"] != exp.n or row["eve_dim"] != exp.eve_dim:
        bad.append(f"{where}: sizes ({row['n']}, {row['eve_dim']}) != ({exp.n}, {exp.eve_dim})")
    if any(not isinstance(row[k], float) or not math.isfinite(row[k]) for k in REALS):
        return bad + [f"{where}: non-finite or non-numeric field"]

    for name, ref in exp.values.items():
        if name != "error_probs" and abs(row[name] - ref) > TOL_RECOMPUTED:
            bad.append(f"{where}: {name}={row[name]!r}, reference {ref!r}")
    for name, ref in exp.exact.items():
        if abs(row[name] - ref) > TOL_CLOSED:
            bad.append(f"{where}: {name}={row[name]!r}, closed form {ref!r}")

    delta = min(max(row["delta"], 0.0), 1.0)
    if abs(row["boykin_rhs"] - 4.0 * exp.n * math.sqrt(delta)) > TOL_CLOSED:
        bad.append(f"{where}: boykin_rhs={row['boykin_rhs']!r}")
    if abs(row["corollary_rhs"] - (h2(delta) + exp.n * delta)) > TOL_CLOSED:
        bad.append(f"{where}: corollary_rhs={row['corollary_rhs']!r}")
    if row["slack_main"] != row["h_xor"] - row["chi_sym"]:
        bad.append(f"{where}: slack_main is not h_xor - chi_sym")
    if row["slack_measured"] != row["h_xor"] - row["i_lower"]:
        bad.append(f"{where}: slack_measured is not h_xor - i_lower")

    tol = TOL_PROPERTY
    if row["slack_main"] < -tol or row["slack_measured"] < -tol:
        bad.append(f"{where}: negative slack")
    if not -tol <= row["i_lower"] <= row["chi_orig"] + tol:
        bad.append(f"{where}: i_lower outside [0, chi_orig]")
    if row["chi_orig"] < -tol or row["chi_orig"] > row["chi_sym"] + tol:
        bad.append(f"{where}: chi_orig outside [0, chi_sym]")
    if not 0.0 <= row["spectrum_deviation"] <= tol:
        bad.append(f"{where}: spectrum_deviation {row['spectrum_deviation']!r}")
    return bad


def check_report(text: str, fmt: str, expected: list[Expected]) -> tuple[list[str], list[dict]]:
    """Problems with one serialized report, and its rows as numbers."""
    if fmt == "csv":
        raw, bad = parse_csv(text)
        rows = csv_values(raw)
    else:
        rows, bad = parse_json(text)
    if len(rows) != len(expected):
        return bad + [f"{len(rows)} report rows, expected {len(expected)}"], rows
    for row, exp in zip(rows, expected):
        bad += check_row(row, exp)
    return bad, rows


def check_sigma_line(stderr: str, exp: Expected, row: dict) -> list[str]:
    """The ``sigma_spectrum`` stderr line of an audit."""
    lines = [l for l in stderr.splitlines() if l.startswith("sigma_spectrum ")]
    if len(lines) != 1:
        return [f"{exp.attack_id}: {len(lines)} sigma_spectrum lines"]
    detail = json.loads(lines[0][len("sigma_spectrum "):])
    probs = exp.values["error_probs"]
    bad = []
    if np.max(np.abs(np.array(detail["error_probs"]) - probs)) > TOL_RECOMPUTED:
        bad.append(f"{exp.attack_id}: sigma_spectrum error_probs disagree")
    if np.max(np.abs(np.array(detail["lambda"]) - probs)) > TOL_PROPERTY:
        bad.append(f"{exp.attack_id}: Fourier eigenvalues disagree with p(c)")
    if detail["max_deviation"] != row["spectrum_deviation"]:
        bad.append(f"{exp.attack_id}: sigma_spectrum max_deviation disagrees with report")
    return bad


def campaign_summary(rows: list[dict], seeds: list[int]) -> str:
    """The summary line ``mubeve campaign`` prints for these rows."""
    worst = min(range(len(rows)), key=lambda k: rows[k]["slack_main"])
    return (
        f"campaign: {len(rows)} attacks, "
        f"min slack_main {min(r['slack_main'] for r in rows):.3e}, "
        f"min slack_measured {min(r['slack_measured'] for r in rows):.3e}, "
        f"max spectrum_deviation {max(r['spectrum_deviation'] for r in rows):.3e}, "
        f"worst attack {rows[worst]['attack_id']} (seed {seeds[worst]})\n"
    )
