"""Contract fuzzer for the command line: mutated documents never crash it.

Each example takes a shipped scenario or campaign document, or one of two
in-test scenarios with a random_unitary or an explicit attack, applies up to
three mutations (a value swapped for another type, wrapped in a list or an
object, replaced by a huge, negative, non-finite, empty or NUL-bearing
value, or deleted) and runs ``cli.main`` on it in-process.  In a drawn
share of documents an infinity is written as the literal ``1e999``, which
overflows a double, in place of ``Infinity``.  The contract:
``main`` returns 0, 2 or 4 and raises nothing; a non-zero exit prints one
``error:`` or ``i/o error:`` line and nothing on stdout; exit 0 yields a
report that parses under ``CSV_HEADER``.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubeve import zoo
from mubeve.cli import main
from mubeve.errors import ValidationError
from mubeve.harness import CSV_HEADER, parse_campaign, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DOCUMENTS = {
    name: json.loads((SCENARIOS / name).read_text())
    for name in ("identity.scenario", "phase_conversion.scenario",
                 "probe_sweep.scenario", "campaign_small.json")
}
# No shipped document has attack.eve_dim, attack.seed or an explicit
# unitary, so these two put the named- and explicit-attack fields in reach.
DOCUMENTS["random_unitary.scenario"] = {
    "n_qubits": 1,
    "attack": {"kind": "random_unitary", "n": 1, "eve_dim": 2, "seed": 11},
    "povm_samples": 4,
    "seed": 3,
}
DOCUMENTS["explicit.scenario"] = {
    "n_qubits": 1,
    "attack": {  # CNOT from the qubit to a one-qubit apparatus at |0>
        "unitary": [[[int(r == c), 0] for c in (0, 3, 2, 1)] for r in range(4)],
        "ancilla": [[1, 0], [0, 0]],
    },
    "povm_samples": 4,
    "seed": 3,
    "analyses": ["audit", "sigma_spectrum"],
}

# Sizes capped far below the parser's work limits (zoo.MAX_POVM_SAMPLES
# and its neighbours), which still admit minutes of work per document;
# test_work_limits parses documents at the limits themselves.
CAPS = {"povm_samples": 8, "count": 2}
MAX_GRID = 3
MAX_THETAS = 8

ODD_VALUES = st.sampled_from([
    None, True, False, 0, 1, -1, 3, 2**63, 2**64, 10**400, -(10**400),
    0.5, -0.5, 1e308, -1e308, math.nan, math.inf, -math.inf,
    "", "\0", "a\0b.csv", "x" * 4096, "1", "identity", "random_unitary",
    "probe_overlap", "sigma_spectrum", "sweep", "rows.json",
    [], {}, [[]], [1, 1], [[1, 0]], [[1, 1]], [0.5, 1.5],
])
VALUES = st.one_of(
    ODD_VALUES,
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)


def paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            yield from paths(value, prefix + (pos,))


def swap_type(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return [value]
    if isinstance(value, list):
        return {str(pos): v for pos, v in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return 0


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        op = draw(st.sampled_from(["replace", "swap", "list", "object", "delete"]))
        parent, key = None, None
        node = doc
        for step in path:
            parent, key, node = node, step, node[step]
        if op == "delete" and parent is not None:
            del parent[key]
            continue
        new = {  # "replace", and "delete" at the root, draw a new value
            "swap": lambda: swap_type(node),
            "list": lambda: [node],
            "object": lambda: {"v": node},
        }.get(op, lambda: copy.deepcopy(draw(VALUES)))()  # never alias VALUES
        if parent is None:
            doc = new
        else:
            parent[key] = new
    return doc


def capped(doc):
    if isinstance(doc, dict):
        for key, cap in CAPS.items():
            value = doc.get(key)
            if isinstance(value, int) and not isinstance(value, bool) and value > cap:
                doc[key] = cap
        for key, cap in (("grid", MAX_GRID), ("sweep_thetas", MAX_THETAS)):
            if isinstance(doc.get(key), list):
                doc[key] = doc[key][:cap]
    return doc


@st.composite
def commands(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = capped(draw(mutated(DOCUMENTS[name])))
    command = draw(st.sampled_from(
        ["campaign"] if name.endswith(".json") else ["audit", "sweep"]
    ))
    extra = draw(st.sampled_from([[], [], [], ["--seed", "7"], ["--seed", "-1"],
                                  ["--seed", str(2**64)]]))
    if command != "campaign":
        extra += draw(st.sampled_from([[], ["--format", "json"]]))
    return command, doc, extra, draw(st.booleans())


def assert_report(text):
    rows = list(csv.reader(text.splitlines()))
    assert ",".join(rows[0]) == CSV_HEADER
    for row in rows[1:]:
        assert len(row) == len(rows[0])
        assert all(math.isfinite(float(v)) for v in row[1:])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(commands())
def test_mutated_documents_keep_the_contract(case):
    with tempfile.TemporaryDirectory() as tmp:
        check_contract(*case, Path(tmp))


def check_contract(command, doc, extra, overflowing, workdir):
    text = json.dumps(doc)  # NaN and Infinity as JSON literals
    if overflowing:  # no drawn string holds "Infinity", so only numbers change
        text = text.replace("Infinity", "1e999")
    path = workdir / "doc.json"
    path.write_text(text)
    argv = [command, str(path)] + extra
    if command == "campaign":
        argv += ["--out", str(workdir / "rows.csv")]  # never the document's path
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert rc in (0, 2, 4), (argv, doc, rc, err)
    if rc:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith("error: " if rc == 2 else "i/o error: "), err
        return
    if command == "campaign":
        assert out.startswith("campaign: ")
        assert_report((workdir / "rows.csv").read_text())
    elif "--format" in extra:
        records = json.loads(out)
        assert all(list(r) == CSV_HEADER.split(",") for r in records)
    else:
        assert_report(out)


# (document, field, library limit, the field's value at size k)
WORK_LIMITS = [
    ("identity.scenario", "povm_samples", zoo.MAX_POVM_SAMPLES, lambda k: k),
    ("campaign_small.json", "povm_samples", zoo.MAX_POVM_SAMPLES, lambda k: k),
    ("campaign_small.json", "count", zoo.MAX_COUNT, lambda k: k),
    ("campaign_small.json", "grid", zoo.MAX_GRID_CELLS, lambda k: [[1, 1]] * k),
    ("probe_sweep.scenario", "sweep_thetas", zoo.MAX_SWEEP_THETAS, lambda k: [0.0] * k),
]


@pytest.mark.parametrize("name, field, limit, value", WORK_LIMITS,
                         ids=[f"{name}:{field}" for name, field, *_ in WORK_LIMITS])
def test_work_limits(name, field, limit, value):
    # the parser, not an audit, enforces each library limit, at the limit + 1
    parse = parse_campaign if name.endswith(".json") else parse_scenario
    at_limit = dict(DOCUMENTS[name], **{field: value(limit)})
    parsed = getattr(parse(json.dumps(at_limit)), field)
    assert (parsed if isinstance(parsed, int) else len(parsed)) == limit
    with pytest.raises(ValidationError) as err:
        parse(json.dumps(dict(at_limit, **{field: value(limit + 1)})))
    assert err.value.field == field
