"""Outside-in span recorder.

The recorder wraps, at run time, the module attributes through which the
package's layers call each other (for example ``mubeve.bounds.holevo_chi``
or the ``linalg`` eigensolvers imported into ``symmetrize`` and
``bounds``), so the unchanged ``mubeve.cli.main`` runs inside the spans.
Nothing under ``src/`` changes.  Spans (name, start, end, parent,
operation id) are kept in flat arrays and written out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import Counter

# (object path, attribute, span name).  A name used at several call sites
# is one layer boundary seen from each caller.
TARGETS = (
    ("mubeve.cli", "parse_scenario", "harness.parse"),
    ("mubeve.cli", "parse_campaign", "harness.parse"),
    ("mubeve.cli", "write_report", "harness.write_report"),
    ("mubeve.harness", "write_report", "harness.write_report"),
    ("mubeve.harness", "audit_attack", "harness.audit"),
    ("mubeve.harness", "make_attack", "zoo.make_attack"),
    ("mubeve.harness", "random_attack", "zoo.random_attack"),
    ("mubeve.zoo", "random_attack", "zoo.random_attack"),
    ("mubeve.rng.SplitMix64", "gaussian_matrix", "rng.gaussian_matrix"),
    ("mubeve.rng", "gram_schmidt_unitary", "rng.gram_schmidt"),
    ("mubeve.bounds", "gram_schmidt_unitary", "rng.gram_schmidt"),
    ("mubeve.bounds", "xor_error_distribution", "channel.xor_error_distribution"),
    ("mubeve.bounds", "eve_state", "channel.eve_state"),
    ("mubeve.bounds", "symmetrize", "symmetrize.symmetrize"),
    ("mubeve.harness", "symmetrize", "symmetrize.symmetrize"),
    ("mubeve.bounds", "purification_vectors", "symmetrize.sigma_check"),
    ("mubeve.bounds", "sigma_matrix", "symmetrize.sigma_check"),
    ("mubeve.bounds", "sigma_spectrum_check", "symmetrize.sigma_check"),
    ("mubeve.harness", "purification_vectors", "symmetrize.sigma_check"),
    ("mubeve.harness", "sigma_matrix", "symmetrize.sigma_check"),
    ("mubeve.bounds", "holevo_chi", "bounds.chi"),
    ("mubeve.bounds", "accessible_info_lower_bound", "bounds.i_lower"),
    ("mubeve.bounds", "pretty_good_measurement", "bounds.pgm"),
    ("mubeve.bounds", "random_projective_povm", "bounds.random_povm"),
    ("mubeve.bounds", "mutual_information_of_measurement", "bounds.mutual_info"),
    ("mubeve.linalg", "hermitian_eigenvalues", "linalg.eig"),
    ("mubeve.linalg", "hermitian_eigendecomposition", "linalg.eig"),
    ("mubeve.symmetrize", "hermitian_eigenvalues", "linalg.eig"),
    ("mubeve.bounds", "hermitian_eigendecomposition", "linalg.eig"),
    ("mubeve.linalg.DensityMatrix", "__post_init__", "linalg.density_matrix"),
)

# Timed spans reported per operation; ``bounds.chi`` splits by ensemble.
SPANS = (
    "cli.command", "harness.parse", "harness.audit", "harness.write_report",
    "zoo.make_attack", "zoo.random_attack", "rng.gaussian_matrix",
    "rng.gram_schmidt", "channel.xor_error_distribution", "channel.eve_state",
    "symmetrize.symmetrize", "symmetrize.sigma_check", "bounds.chi_orig",
    "bounds.chi_sym", "bounds.i_lower", "bounds.pgm", "bounds.random_povm",
    "bounds.mutual_info", "linalg.eig", "linalg.density_matrix",
)
COUNTED = (
    "harness.audit", "zoo.make_attack", "zoo.random_attack", "channel.eve_state",
    "bounds.random_povm", "bounds.mutual_info", "linalg.eig", "linalg.density_matrix",
)


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Recorder:
    def __init__(self):
        self.names = list(SPANS)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("i")        # matrix dimension of eigensolver calls
        self.open: list[int] = []
        self.op_id = -1
        self.eve_dims: list[int] = []  # apparatus dimension of the audit in progress
        self.saved: list = []
        self.missing: list[str] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str, size: int = 0) -> int:
        idx = len(self.name)
        self.name.append(self.name_id[name])
        self.parent.append(self.open[-1] if self.open else -1)
        self.op.append(self.op_id)
        self.size.append(size)
        self.end.append(0)
        self.open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.open.pop()

    def _wrap(self, fn, name):
        rec = self
        audit = name == "harness.audit"
        if name == "bounds.chi":
            def span_of(args):
                # the original ensemble lives on the audited apparatus alone
                orig = rec.eve_dims and args[0].dim == rec.eve_dims[-1]
                return ("bounds.chi_orig" if orig else "bounds.chi_sym"), 0
        elif name == "linalg.eig":
            def span_of(args):
                return name, len(args[0])
        else:
            def span_of(args):
                return name, 0

        def wrapper(*args, **kwargs):
            if audit:
                rec.eve_dims.append(args[0].eve_dim)
            idx = rec.begin(*span_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                rec.finish(idx)
                if audit:
                    rec.eve_dims.pop()

        return wrapper

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        for path, attr, name in TARGETS:
            try:
                owner = _resolve(path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if f"{path}.{attr}" not in self.missing:
                    self.missing.append(f"{path}.{attr}")
                    print(f"trace: {path}.{attr} not found, not traced", file=sys.stderr)
                continue
            self.saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------
    def counts(self, first: int, last: int) -> dict:
        """Call counts and eigensolver work of spans first..last-1."""
        c = Counter(self.names[self.name[i]] for i in range(first, last))
        out = {f"{n}.calls": c[n] for n in COUNTED}
        eig = self.name_id["linalg.eig"]
        out["linalg.eig.dim3"] = sum(
            self.size[i] ** 3 for i in range(first, last) if self.name[i] == eig
        )
        return out

    def per_op(self, ops: int) -> dict:
        """Mean time, self time and counts per operation over all spans."""
        total = [0] * len(self.names)
        child = array("q", bytes(8 * len(self.name)))
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_ns = [0] * len(self.names)
        for i in range(len(self.name)):
            dur = self.end[i] - self.start[i]
            total[self.name[i]] += dur
            self_ns[self.name[i]] += dur - child[i]
        out = {}
        for n in SPANS:
            k = self.name_id[n]
            if n != "cli.command":
                out[f"{n}.ms"] = total[k] / 1e6 / ops
            out[f"{n}.self_ms"] = self_ns[k] / 1e6 / ops
        for key, value in self.counts(0, len(self.name)).items():
            out[key] = value / ops
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("op\tname\tstart_ns\tend_ns\tparent\tsize\n")
            for i in range(len(self.name)):
                f.write(f"{self.op[i]}\t{self.names[self.name[i]]}\t{self.start[i]}\t"
                        f"{self.end[i]}\t{self.parent[i]}\t{self.size[i]}\n")
