"""Tests for configuration parsing, runners, report serialization and the CLI."""

import csv
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mubeve.bounds as bounds
import mubeve.cli as cli
import mubeve.harness as harness
import mubeve.zoo as zoo
from mubeve.channel import AttackChannel
from mubeve.cli import main
from mubeve.errors import OutOfRangeError, ParseError, ValidationError
from mubeve.harness import (
    CSV_HEADER,
    CampaignConfig,
    ScenarioConfig,
    attack_label,
    parse_campaign,
    parse_scenario,
    run_campaign,
    run_scenario,
    run_sweep,
    write_report,
)
from mubeve.linalg import MAX_TOTAL_DIM, N_MAX
from mubeve.zoo import KINDS, AttackSpec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# Frozen reports: of the former pure-Python Jacobi eigensolver (jacobi_*),
# and of the declared-limit cells at 8d7d308 (limit_cells_campaign.csv).
FROZEN = Path(__file__).resolve().parent / "data"


# an array nested far beyond the interpreter's recursion limit
DEEP_DOCUMENT = b'{"n_qubits": ' + b"[" * 200_000 + b"]" * 200_000 + b"}"


def minimal_scenario(**overrides):
    doc = {
        "n_qubits": 1,
        "attack": {"kind": "phase_conversion"},
        "povm_samples": 2,
        "seed": 1,
    }
    doc.update(overrides)
    return json.dumps(doc)


def explicit_identity(dim):
    """Explicit-unitary attack field: the identity on apparatus x one qubit."""
    pairs = np.stack([np.eye(dim, dtype=int), np.zeros((dim, dim), dtype=int)], -1)
    ancilla = [[1, 0]] + [[0, 0]] * (dim // 2 - 1)
    return {"unitary": pairs.tolist(), "ancilla": ancilla}


def overflowing(document):
    """``document`` with its "@" value written as 1e999, a JSON number that
    overflows a double: ``json`` reads it as inf, and the field's own number
    rule must reject it."""
    return document.replace('"@"', "1e999")


# (command, field, document): one document per field that can hold a float
OVERFLOWING = [
    ("audit", "attack.params",
     minimal_scenario(attack={"kind": "probe_overlap", "params": ["@"]})),
    ("sweep", "sweep_thetas",
     minimal_scenario(attack={"kind": "probe_overlap", "params": [0.5]},
                      analyses=["sweep"], sweep_thetas=[0.5, "@"])),
    ("audit", "attack.unitary",
     minimal_scenario(attack={"unitary": [[[1, 0], [0, 0]], [[0, 0], ["@", 0]]],
                              "ancilla": [[1, 0]]})),
    ("audit", "attack.ancilla",
     minimal_scenario(attack={"unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                              "ancilla": [[0, "@"]]})),
    ("audit", "seed", minimal_scenario(seed="@")),
    ("campaign", "grid[0]", json.dumps(
        {"grid": [[1, "@"]], "count": 1, "master_seed": 0, "output": "x.csv"})),
]
OVERFLOWING_IDS = [field for _, field, _ in OVERFLOWING]


class TestParseScenario:
    def test_minimal_valid(self):
        cfg = parse_scenario(minimal_scenario())
        assert cfg.n_qubits == 1
        assert isinstance(cfg.attack, AttackSpec)
        assert cfg.attack.kind == "phase_conversion"
        assert cfg.analyses == ("audit",)

    def test_accepts_bytes(self):
        cfg = parse_scenario(minimal_scenario().encode("utf-8"))
        assert cfg.seed == 1

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_scenario(b"{not json")

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_scenario(DEEP_DOCUMENT)

    def test_integer_beyond_the_digit_limit_is_a_parse_error(self):
        # Python refuses to convert integer literals of over 4300 digits
        with pytest.raises(ParseError, match="4300 digits"):
            parse_scenario(minimal_scenario().replace('"seed": 1', '"seed": ' + "9" * 5000))

    def test_non_object_document(self):
        with pytest.raises(ParseError):
            parse_scenario(b"[1, 2]")

    def test_negative_povm_samples(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(minimal_scenario(povm_samples=-1))
        assert "povm_samples" in str(err.value)

    def test_unknown_analysis(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(minimal_scenario(analyses=["audit", "plot"]))
        assert err.value.field == "analyses"

    def test_attack_n_must_agree(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(minimal_scenario(attack={"kind": "identity", "n": 2}))
        assert err.value.field == "attack.n"

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            parse_scenario(minimal_scenario(attack={"kind": "mirror"}))

    def test_explicit_attack_valid(self):
        # apparatus dimension 1: the unitary is just a 2x2 system unitary
        doc = minimal_scenario(attack={
            "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "ancilla": [[1, 0]],
        })
        cfg = parse_scenario(doc)
        assert isinstance(cfg.attack, AttackChannel)  # built once, at parse
        assert attack_label(cfg) == "explicit"
        report = run_scenario(cfg)
        assert report.delta == pytest.approx(0.0, abs=1e-12)

    def test_explicit_non_unitary(self):
        doc = minimal_scenario(attack={
            "unitary": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
            "ancilla": [[1, 0]],
        })
        with pytest.raises(ValidationError) as err:
            parse_scenario(doc)
        assert err.value.field == "attack.unitary"

    def test_explicit_attack_at_size_limit(self):
        cfg = parse_scenario(minimal_scenario(attack=explicit_identity(512)))
        assert cfg.attack.eve_dim == 256

    def test_explicit_attack_beyond_size_limit(self):
        with pytest.raises(ValidationError) as err:
            parse_scenario(minimal_scenario(attack=explicit_identity(MAX_TOTAL_DIM + 2)))
        assert err.value.field == "attack.unitary"
        assert str(MAX_TOTAL_DIM + 2) in str(err.value)

    def test_explicit_needs_ancilla(self):
        doc = minimal_scenario(attack={
            "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        })
        with pytest.raises(ValidationError) as err:
            parse_scenario(doc)
        assert err.value.field == "attack.ancilla"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_rejected(self, literal):
        for doc in (
            minimal_scenario(attack={"kind": "probe_overlap", "params": [0.5]}),
            minimal_scenario(sweep_thetas=[0.5]),
        ):
            with pytest.raises(ParseError):
                parse_scenario(doc.replace("0.5", literal))

    @pytest.mark.parametrize("command, field, document", OVERFLOWING, ids=OVERFLOWING_IDS)
    def test_overflowing_number_names_its_field(self, command, field, document):
        parse = parse_campaign if command == "campaign" else parse_scenario
        with pytest.raises(ValidationError) as err:
            parse(overflowing(document))
        assert err.value.field == field

    @pytest.mark.parametrize("attack,field", [
        ({"kind": "probe_overlap", "params": [10**400]}, "attack.params"),
        ({"unitary": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]],
          "ancilla": [[1, 0]]}, "attack.unitary"),
    ])
    def test_integer_beyond_double_rejected(self, attack, field):
        with pytest.raises(ValidationError) as err:
            parse_scenario(minimal_scenario(attack=attack))
        assert err.value.field == field

    @pytest.mark.parametrize("text", [
        # top level, inside the attack object, inside a nested list
        '{"n_qubits": 1, "n_qubits": 2, "attack": {"kind": "identity"}, '
        '"povm_samples": 2, "seed": 1}',
        '{"n_qubits": 1, "attack": {"kind": "identity", "kind": "phase_conversion"}, '
        '"povm_samples": 2, "seed": 1}',
        '{"n_qubits": 1, "attack": {"kind": "identity"}, "povm_samples": 2, '
        '"seed": 1, "sweep_thetas": [{"a": 1, "a": 2}]}',
    ], ids=["top_level", "nested_object", "inside_list"])
    def test_duplicate_key_is_a_parse_error(self, text):
        with pytest.raises(ParseError) as err:
            parse_scenario(text)
        assert "duplicate key" in str(err.value)

    def test_seed_beyond_64_bits_rejected(self):
        # the stream keeps 64 bits of a seed, so a larger one would alias
        with pytest.raises(ValidationError) as err:
            parse_scenario(minimal_scenario(seed=2**64))
        assert err.value.field == "seed"
        assert str(2**64 - 1) in str(err.value)

    def test_largest_seed_accepted(self):
        cfg = parse_scenario(minimal_scenario(
            seed=2**64 - 1,
            attack={"kind": "random_unitary", "eve_dim": 2, "seed": 2**64 - 1},
        ))
        assert cfg.seed == cfg.attack.seed == 2**64 - 1

    @pytest.mark.parametrize("n_qubits", [0, N_MAX + 1])
    def test_qubit_count_outside_range(self, n_qubits):
        with pytest.raises(ValidationError) as err:
            parse_scenario(minimal_scenario(n_qubits=n_qubits))
        assert err.value.field == "n_qubits"
        assert f"qubit count {n_qubits} outside [1, {N_MAX}]" in str(err.value)

    @pytest.mark.parametrize("field, limit, value, huge", [
        ("povm_samples", 1024, lambda k: k, 10**18),
        ("sweep_thetas", 1024, lambda k: [0.0] * k, 10**5),
    ])
    def test_work_limits(self, field, limit, value, huge):
        parse_scenario(minimal_scenario(**{field: value(limit)}))
        for too_much in (limit + 1, huge):
            with pytest.raises(ValidationError) as err:
                parse_scenario(minimal_scenario(**{field: value(too_much)}))
            assert err.value.field == field
            assert str(limit) in str(err.value)

    def test_sweep_thetas_parsed(self):
        cfg = parse_scenario(minimal_scenario(
            attack={"kind": "probe_overlap", "params": [0.0]},
            sweep_thetas=[0.0, 0.5],
            analyses=["sweep"],
        ))
        assert cfg.sweep_thetas == (0.0, 0.5)


class TestParseCampaign:
    def test_valid(self):
        cfg = parse_campaign((SCENARIOS / "campaign_small.json").read_bytes())
        assert cfg.grid[0] == (1, 1)
        assert cfg.count == 4
        assert cfg.povm_samples == 8

    def test_bad_cell(self):
        # the first apparatus size over the total-dimension limit at n = 1
        doc = {"grid": [[1, MAX_TOTAL_DIM // 2 + 1]], "count": 1, "master_seed": 0,
               "output": "x.csv"}
        with pytest.raises(ValidationError) as err:
            parse_campaign(json.dumps(doc))
        assert err.value.field == "grid[0]"

    @pytest.mark.parametrize("cell, message", [
        ([0, 1], f"qubit count 0 outside [1, {N_MAX}]"),
        ([N_MAX + 1, 1], f"qubit count {N_MAX + 1} outside [1, {N_MAX}]"),
        ([1, 0], "eve_dim 0 must be at least 1"),
    ])
    def test_cell_outside_limits(self, cell, message):
        doc = {"grid": [[1, 1], cell], "count": 1, "master_seed": 0, "output": "x.csv"}
        with pytest.raises(ValidationError) as err:
            parse_campaign(json.dumps(doc))
        assert str(err.value) == f"grid[1]: {message}"

    @pytest.mark.parametrize("field, limit, value, huge", [
        ("povm_samples", 1024, lambda k: k, 10**18),
        ("count", 1024, lambda k: k, 10**12),
        ("grid", 64, lambda k: [[1, 1]] * k, 10**5),
    ])
    def test_work_limits(self, field, limit, value, huge):
        doc = {"grid": [[1, 1]], "count": 1, "master_seed": 0, "output": "x.csv"}
        parse_campaign(json.dumps({**doc, field: value(limit)}))
        for too_much in (limit + 1, huge):
            with pytest.raises(ValidationError) as err:
                parse_campaign(json.dumps({**doc, field: value(too_much)}))
            assert err.value.field == field
            assert str(limit) in str(err.value)

    def test_missing_output(self):
        doc = {"grid": [[1, 1]], "count": 1, "master_seed": 0}
        with pytest.raises(ValidationError):
            parse_campaign(json.dumps(doc))

    def test_output_with_nul_rejected(self):
        doc = {"grid": [[1, 1]], "count": 1, "master_seed": 0, "output": "x\0.csv"}
        with pytest.raises(ValidationError) as err:
            parse_campaign(json.dumps(doc))
        assert err.value.field == "output"

    def test_master_seed_beyond_64_bits_rejected(self):
        doc = {"grid": [[1, 1]], "count": 1, "master_seed": 2**64, "output": "x.csv"}
        with pytest.raises(ValidationError) as err:
            parse_campaign(json.dumps(doc))
        assert err.value.field == "master_seed"
        doc["master_seed"] = 2**64 - 1
        assert parse_campaign(json.dumps(doc)).master_seed == 2**64 - 1

    def test_duplicate_key_is_a_parse_error(self):
        text = '{"grid": [[1, 1]], "count": 1, "count": 2, "master_seed": 0, "output": "x.csv"}'
        with pytest.raises(ParseError):
            parse_campaign(text)

    @pytest.mark.parametrize("output", ["x.json", "out/report.json", "."])
    def test_output_that_is_its_own_mirror_rejected(self, output):
        # the JSON mirror goes to output with suffix .json; here it would
        # overwrite the CSV rows (or there is no file name to suffix)
        doc = {"grid": [[1, 1]], "count": 1, "master_seed": 0, "output": output}
        with pytest.raises(ValidationError) as err:
            parse_campaign(json.dumps(doc))
        assert err.value.field == "output"

    @pytest.mark.parametrize("output", ["x.csv", "x", "x.json.csv"])
    def test_output_with_distinct_mirror_accepted(self, output):
        doc = {"grid": [[1, 1]], "count": 1, "master_seed": 0, "output": output}
        assert parse_campaign(json.dumps(doc)).output == output


class TestFieldTables:
    """Every document object is read through one field table."""

    @pytest.mark.parametrize("parse, doc, error", [
        (parse_scenario, {"n_qubits": 1, "povm_samples": 2, "seed": 1},
         "attack: missing required field"),
        (parse_scenario, {"n_qubits": 1, "attack": {"n": 1}, "povm_samples": 2,
                          "seed": 1}, "attack.kind: missing required field"),
        (parse_scenario, {"n_qubits": 1, "attack": {"kind": 3}, "povm_samples": 2,
                          "seed": 1}, "attack.kind: must be a string"),
        (parse_scenario, {"attack": {"kind": "identity"}, "povm_samples": 2,
                          "seed": 1}, "n_qubits: missing required field"),
        (parse_campaign, {"count": 1, "master_seed": 0, "output": "x.csv"},
         "grid: missing required field"),
        (parse_campaign, {"grid": [[1, 1]], "count": 1, "master_seed": 0},
         "output: missing required field"),
    ], ids=["attack", "attack.kind", "attack.kind-type", "n_qubits", "grid", "output"])
    def test_missing_or_mistyped_field(self, parse, doc, error):
        with pytest.raises(ValidationError) as err:
            parse(json.dumps(doc))
        assert str(err.value) == error

    def test_absent_optional_fields_take_the_dataclass_defaults(self):
        cfg = parse_scenario(minimal_scenario(attack={"kind": "random_unitary"}))
        assert cfg.attack == AttackSpec("random_unitary", 1)
        defaults = {f.name: f.default for f in fields(ScenarioConfig)}
        assert cfg.analyses == defaults["analyses"] == ("audit",)
        assert cfg.sweep_thetas == defaults["sweep_thetas"]
        campaign = parse_campaign(json.dumps(
            {"grid": [[1, 1]], "count": 1, "master_seed": 0, "output": "x.csv"}
        ))
        assert campaign.povm_samples == CampaignConfig(
            grid=(), count=0, master_seed=0, output="x.csv"
        ).povm_samples == 16

    @pytest.mark.parametrize("parse, table, bad, good", [
        (parse_scenario, harness.SCENARIO_FIELDS,
         {"sweep_thetas": "x", "analyses": [], "seed": -1, "povm_samples": -1,
          "attack": 3, "n_qubits": 0},
         json.loads(minimal_scenario(analyses=["audit"], sweep_thetas=[0.0]))),
        (parse_campaign, harness.CAMPAIGN_FIELDS,
         {"povm_samples": -1, "output": "", "master_seed": -1, "count": -1,
          "grid": [[0, 1]]},
         {"povm_samples": 1, "output": "x.csv", "master_seed": 0, "count": 1,
          "grid": [[1, 1]]}),
    ], ids=["scenario", "campaign"])
    def test_fields_are_read_in_table_order(self, parse, table, bad, good):
        # with every field bad, the error names the first in table order
        for field in table:
            with pytest.raises(ValidationError) as err:
                parse(json.dumps(bad))
            assert err.value.field in (field, f"{field}[0]")
            bad[field] = good[field]
        parse(json.dumps(bad))


class TestShippedScenarios:
    def test_phase_conversion_file(self):
        cfg = parse_scenario((SCENARIOS / "phase_conversion.scenario").read_bytes())
        report = run_scenario(cfg)
        assert report.h_xor == pytest.approx(0.0, abs=1e-12)
        assert report.boykin_rhs == 4.0
        assert report.delta == pytest.approx(1.0, abs=1e-12)

    def test_identity_file(self):
        cfg = parse_scenario((SCENARIOS / "identity.scenario").read_bytes())
        report = run_scenario(cfg)
        for value in (report.delta, report.h_xor, report.chi_orig,
                      report.chi_sym, report.i_lower):
            assert value == pytest.approx(0.0, abs=1e-12)

    def test_probe_sweep_file(self):
        cfg = parse_scenario((SCENARIOS / "probe_sweep.scenario").read_bytes())
        rows = run_sweep(cfg)
        assert len(rows) == 7
        for _label, report in rows:
            assert abs(report.chi_orig - report.h_xor) <= 1e-8
        # each row is labelled as an audit of that one angle would be
        assert rows[0][0] == "probe_overlap[theta=0]"
        assert rows[1][0] == f"probe_overlap[theta={cfg.sweep_thetas[1]:.17g}]"

    def test_sweep_requires_probe_overlap(self):
        cfg = parse_scenario(minimal_scenario())
        with pytest.raises(ValidationError):
            run_sweep(cfg)


@pytest.fixture(scope="module")
def sample_rows():
    identity = parse_scenario((SCENARIOS / "identity.scenario").read_bytes())
    phase = parse_scenario((SCENARIOS / "phase_conversion.scenario").read_bytes())
    return [
        ("identity", run_scenario(identity)),
        ("phase_conversion", run_scenario(phase)),
    ]


class TestWriteReport:
    def test_csv_header_exact(self, sample_rows):
        payload = write_report(sample_rows, "csv").decode("utf-8")
        lines = payload.splitlines()
        assert lines[0] == (
            "attack_id,n,eve_dim,delta,h_xor,chi_orig,chi_sym,i_lower,"
            "boykin_rhs,corollary_rhs,slack_main,slack_measured,"
            "spectrum_deviation"
        )
        assert payload.endswith("\n")
        assert len(lines) == 3

    def test_identity_row_zeros(self, sample_rows):
        line = write_report(sample_rows, "csv").decode("utf-8").splitlines()[1]
        fields = line.split(",")
        assert fields[0] == "identity"
        assert fields[1] == "2" and fields[2] == "1"
        assert all(abs(float(v)) < 1e-11 for v in fields[3:])

    def test_phase_row_values(self, sample_rows):
        line = write_report(sample_rows, "csv").decode("utf-8").splitlines()[2]
        fields = line.split(",")
        assert float(fields[3]) == 1.0      # delta
        assert float(fields[4]) == 0.0      # h_xor
        assert float(fields[8]) == 4.0      # boykin_rhs

    def test_seventeen_digit_round_trip(self, sample_rows):
        cfg = parse_scenario(minimal_scenario(
            attack={"kind": "random_unitary", "eve_dim": 2, "seed": 5},
            povm_samples=4,
        ))
        report = run_scenario(cfg)
        line = write_report([("r", report)], "csv").decode().splitlines()[1]
        assert float(line.split(",")[4]) == report.h_xor

    def test_json_mirror_field_names(self, sample_rows):
        records = json.loads(write_report(sample_rows, "json").decode("utf-8"))
        assert [r["attack_id"] for r in records] == ["identity", "phase_conversion"]
        assert set(records[0]) == set(CSV_HEADER.split(","))
        assert records[1]["boykin_rhs"] == 4.0

    def test_unknown_format(self, sample_rows):
        with pytest.raises(OutOfRangeError, match="'xml'"):
            write_report(sample_rows, "xml")


class TestRunCampaign:
    def test_empty_grid(self, tmp_path):
        cfg = CampaignConfig(grid=(), count=3, master_seed=1,
                             output=str(tmp_path / "empty.csv"))
        summary = run_campaign(cfg)
        assert summary.rows == 0
        assert summary.worst_seed is None
        payload = (tmp_path / "empty.csv").read_text()
        assert payload == CSV_HEADER + "\n"
        assert json.loads((tmp_path / "empty.json").read_text()) == []

    def test_deterministic_rerun(self, tmp_path):
        cfg = CampaignConfig(grid=((1, 1), (1, 2)), count=3, master_seed=77,
                             output=str(tmp_path / "a.csv"), povm_samples=4)
        s1 = run_campaign(cfg)
        first = (tmp_path / "a.csv").read_bytes()
        s2 = run_campaign(cfg, output_path=str(tmp_path / "b.csv"))
        second = (tmp_path / "b.csv").read_bytes()
        assert first.split(b"\n", 1)[1] == second.split(b"\n", 1)[1]
        assert first == second
        assert s1 == s2

    def test_small_campaign_has_no_negative_field(self, campaign_small_rows):
        for row in campaign_small_rows:
            for name, value in row.items():
                if name != "attack_id":
                    assert float(value) >= 0.0, (row["attack_id"], name, value)

    def test_json_output_override_rejected_before_auditing(self, tmp_path, monkeypatch):
        def no_audit(*args):
            raise AssertionError("audited before the output path was checked")

        monkeypatch.setattr(harness, "audit_attack", no_audit)
        cfg = CampaignConfig(grid=((1, 1),), count=1, master_seed=3,
                             output=str(tmp_path / "rows.csv"), povm_samples=2)
        with pytest.raises(ValidationError) as err:
            run_campaign(cfg, output_path=str(tmp_path / "rows.json"))
        assert err.value.field == "output"
        assert list(tmp_path.iterdir()) == []

    def test_summary_matches_rows(self, tmp_path):
        cfg = CampaignConfig(grid=((1, 2),), count=4, master_seed=9,
                             output=str(tmp_path / "c.csv"), povm_samples=4)
        summary = run_campaign(cfg)
        lines = (tmp_path / "c.csv").read_text().splitlines()[1:]
        slacks = [float(l.split(",")[10]) for l in lines]
        assert summary.rows == 4
        assert summary.min_slack_main == pytest.approx(min(slacks), abs=1e-15)
        assert summary.min_slack_main >= -1e-9


@pytest.fixture(scope="module")
def campaign_small_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign") / "rows.csv"
    cfg = parse_campaign((SCENARIOS / "campaign_small.json").read_bytes())
    run_campaign(cfg, output_path=str(out))
    return list(csv.DictReader(out.read_text().splitlines()))


def assert_rows_close(rows, frozen_csv):
    frozen = list(csv.DictReader((FROZEN / frozen_csv).read_text().splitlines()))
    assert len(rows) == len(frozen)
    for row, old in zip(rows, frozen):
        assert row["attack_id"] == old["attack_id"]
        for name in CSV_HEADER.split(",")[1:]:
            assert abs(float(row[name]) - float(old[name])) <= 1e-12, (
                row["attack_id"], name, row[name], old[name]
            )


class TestFrozenReports:
    """The LAPACK eigen path reproduces the Jacobi-era reports to 1e-12, and
    the declared-limit cells their rows frozen at 8d7d308."""

    def test_campaign_small(self, campaign_small_rows):
        assert_rows_close(campaign_small_rows, "jacobi_campaign_small.csv")

    def test_probe_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(SCENARIOS / "probe_sweep.scenario"),
                     "--out", str(out)]) == 0
        assert_rows_close(list(csv.DictReader(out.read_text().splitlines())),
                          "jacobi_probe_sweep.csv")

    def test_declared_limit_cells(self, tmp_path):
        # one attack at each cell of total dimension 512, 16 measurement bases
        cfg = CampaignConfig(grid=((4, 32), (3, 64), (2, 128), (1, 256)), count=1,
                             master_seed=20260809, output=str(tmp_path / "limit.csv"),
                             povm_samples=16)
        run_campaign(cfg)
        assert_rows_close(list(csv.DictReader((tmp_path / "limit.csv").read_text()
                                              .splitlines())),
                          "limit_cells_campaign.csv")


class TestCli:
    def test_zoo_lists_kinds(self, capsys):
        assert main(["zoo"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(KINDS)
        assert lines[4] == (
            "probe_overlap      n=1 probe pair with overlap cos(theta); params: [theta]"
        )

    def test_audit_stdout_csv(self, capsys):
        rc = main(["audit", str(SCENARIOS / "identity.scenario")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("attack_id,")
        assert "identity" in out

    def test_audit_json_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        rc = main([
            "audit", str(SCENARIOS / "phase_conversion.scenario"),
            "--format", "json", "--out", str(out_file),
        ])
        assert rc == 0
        records = json.loads(out_file.read_text())
        assert records[0]["delta"] == 1.0
        # the sigma_spectrum analysis goes to stderr
        err = capsys.readouterr().err
        assert "sigma_spectrum" in err

    def test_audit_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        src = SCENARIOS / "identity.scenario"
        assert main(["audit", str(src), "--out", str(a)]) == 0
        assert main(["audit", str(src), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps({
            "n_qubits": 1,
            "attack": {"kind": "identity"},
            "povm_samples": -3,
            "seed": 0,
        }))
        assert main(["audit", str(bad)]) == 2
        assert "povm_samples" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text("{")
        assert main(["audit", str(bad)]) == 2

    def test_duplicate_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(minimal_scenario().replace('"seed": 1', '"seed": 1, "seed": 2'))
        assert main(["audit", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate key 'seed'\n"

    def test_deep_nesting_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "deep.scenario"
        bad.write_bytes(DEEP_DOCUMENT)
        assert main(["audit", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid JSON: ")

    @pytest.mark.parametrize("command,text", [
        ("audit", '{"n_qubits": 1, "attack": {"kind": "probe_overlap", '
                  '"params": [NaN]}, "povm_samples": 2, "seed": 1}'),
        ("sweep", '{"n_qubits": 1, "attack": {"kind": "probe_overlap", '
                  '"params": [0.0]}, "povm_samples": 2, "seed": 1, '
                  '"sweep_thetas": [0.5, Infinity]}'),
    ])
    def test_non_finite_document_exit_code(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.scenario"
        bad.write_text(text)
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command, field, document", OVERFLOWING, ids=OVERFLOWING_IDS)
    def test_overflowing_number_exit_code(self, tmp_path, capsys, command, field, document):
        bad = tmp_path / "bad.json"
        bad.write_text(overflowing(document))
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: ")
        assert captured.err.count("\n") == 1

    def test_oversized_explicit_attack_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(minimal_scenario(attack=explicit_identity(MAX_TOTAL_DIM + 2)))
        assert main(["audit", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: attack.unitary: ")

    @pytest.mark.parametrize("ancilla", [
        [[1, 0], [0, 0]], [[2, 0]], [[0.5, 0]],
    ], ids=["wrong-size", "part-above-1", "unnormalized"])
    def test_ancilla_errors_name_the_ancilla(self, tmp_path, capsys, ancilla):
        # from_unitary's checks of the ancilla are errors on attack.ancilla; an
        # entry of 1e999 is test_overflowing_number_exit_code[attack.ancilla]
        bad = tmp_path / "bad.scenario"
        bad.write_text(minimal_scenario(attack={
            "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "ancilla": ancilla}))
        assert main(["audit", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: attack.ancilla: ancilla ")

    @pytest.mark.parametrize("field,value", [
        ("eve_dim", "2"),
        ("eve_dim", 2.5),
        ("eve_dim", True),
        ("seed", "x"),
        ("seed", -3),
        ("n", True),
        ("seed", 2**64),
    ])
    def test_malformed_attack_field_exit_code(self, tmp_path, capsys, field, value):
        attack = {"kind": "random_unitary", "eve_dim": 2, "seed": 4}
        attack[field] = value
        bad = tmp_path / "bad.scenario"
        bad.write_text(minimal_scenario(attack=attack))
        assert main(["audit", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: attack.{field}: ")

    @pytest.mark.parametrize("attack, field", [
        ({"kind": "identity", "eve_dim": -5, "seed": 3}, "eve_dim"),
        ({"kind": "identity", "seed": 3}, "seed"),
        ({"kind": "phase_conversion", "eve_dim": 1}, "eve_dim"),
        ({"kind": "intercept_resend", "seed": 0}, "seed"),
        ({"kind": "cnot_probe", "eve_dim": 2}, "eve_dim"),
        ({"kind": "probe_overlap", "params": [0.5], "seed": 9}, "seed"),
    ])
    def test_named_kind_with_eve_dim_or_seed_exit_code(self, tmp_path, capsys,
                                                        attack, field):
        # only random_unitary reads these keys; any other kind would ignore them
        bad = tmp_path / "bad.scenario"
        bad.write_text(minimal_scenario(attack=attack))
        assert main(["audit", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: attack.{field}: only random_unitary")

    @pytest.mark.parametrize("command, document, field", [
        # a misspelt analysis would silently drop sigma_spectrum
        ("audit", minimal_scenario(analysis=["sigma_spectrum"]), "analysis"),
        ("audit", minimal_scenario(attack={"kind": "identity", "bogus": 3}),
         "attack.bogus"),
        # an explicit unitary would ignore the kind beside it
        ("audit", minimal_scenario(attack={
            "kind": "bogus", "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            "ancilla": [[1, 0]],
        }), "attack.kind"),
        # a misspelt povm_samples would fall back to the default of 16
        ("campaign", json.dumps({
            "grid": [[1, 1]], "count": 1, "master_seed": 0, "output": "x.csv",
            "povm_sample": 3,
        }), "povm_sample"),
    ], ids=["scenario", "named-attack", "explicit-attack", "campaign"])
    def test_unknown_key_exit_code(self, tmp_path, capsys, command, document, field):
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        assert main([command, str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: unknown field")

    @pytest.mark.parametrize("field,value", [
        ("unitary", {"re": 1.0, "im": 0.0}),
        ("unitary", [[[1, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0]]]),
        ("unitary", [[[1, 0], [0]], [[0, 0], [1, 0]]]),
        ("ancilla", {"re": 1.0, "im": 0.0}),
        ("ancilla", [[1, 0, 0]]),
        # numpy would read these as numbers; JSON strings and booleans are not
        ("unitary", [[["1", "0"], ["0", "0"]], [["0", "0"], ["1", "0"]]]),
        ("unitary", [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]),
        ("ancilla", [["1", 0]]),
        ("ancilla", [[True, False]]),
    ])
    def test_malformed_explicit_attack_exit_code(self, tmp_path, capsys, field, value):
        attack = {"unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "ancilla": [[1, 0]]}
        attack[field] = value
        bad = tmp_path / "bad.scenario"
        bad.write_text(minimal_scenario(attack=attack))
        assert main(["audit", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: attack.{field}: complex entries")
        assert captured.err.count("attack.") == 1  # the field is named once

    @pytest.mark.parametrize("command, document, field", [
        ("audit", "identity.scenario", "--out"),
        ("sweep", "probe_sweep.scenario", "--out"),
        ("campaign", "campaign_small.json", "output"),
    ])
    def test_nul_in_path_exit_code(self, capsys, command, document, field):
        # a command line cannot carry NUL, but an in-process argv can
        for argv, named in (
            ([command, str(SCENARIOS / document), "--out", "r\0.csv"], field),
            ([command, "doc\0.scenario"], "file"),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {named}: ")

    @pytest.mark.parametrize("command, analyses", [
        ("audit", ["sweep"]),
        ("audit", ["sigma_spectrum"]),
        ("sweep", ["sigma_spectrum"]),
        ("sweep", ["sweep", "sigma_spectrum"]),  # a sweep prints no sigma_spectrum line
        ("sweep", None),  # the default ("audit",)
    ])
    def test_analyses_must_agree_with_the_command(self, tmp_path, capsys, monkeypatch,
                                                  command, analyses):
        def no_audit(*args):
            raise AssertionError("audited before the analyses were checked")

        monkeypatch.setattr(harness, "audit_attack", no_audit)
        fields = {} if analyses is None else {"analyses": analyses}
        doc = tmp_path / "doc.scenario"
        doc.write_text(minimal_scenario(
            attack={"kind": "probe_overlap", "params": [0.5]}, **fields))
        assert main([command, str(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: analyses: ")

    @pytest.mark.parametrize("command", ["audit", "sweep"])
    def test_analyses_may_list_both_commands(self, tmp_path, capsys, command):
        doc = tmp_path / "doc.scenario"
        doc.write_text(minimal_scenario(
            attack={"kind": "probe_overlap", "params": [0.5]}, analyses=["audit", "sweep"],
            sweep_thetas=[0.5]))
        assert main([command, str(doc)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("probe_overlap[theta=0.5]")

    def test_named_attack_cell_check_budget(self, monkeypatch, tmp_path, capsys):
        # the parser reads n_qubits as an integer, the spec checks its cell
        # once, and make_attack draws from the checked spec
        cells = []
        original = zoo.check_cell

        def counting(*cell):
            cells.append(cell)
            return original(*cell)

        monkeypatch.setattr(zoo, "check_cell", counting)
        monkeypatch.setattr(harness, "check_cell", counting)
        doc = tmp_path / "doc.scenario"
        doc.write_text(minimal_scenario(
            n_qubits=3, attack={"kind": "random_unitary", "eve_dim": 2, "seed": 5},
            povm_samples=16))
        assert main(["audit", str(doc)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("random_unitary[n=3;d=2;seed=5]")
        assert 1 <= len(cells) <= 2

    def test_sigma_spectrum_audits_once(self, monkeypatch, capsys):
        calls = {"audit_attack": 0, "make_attack": 0, "fourier_spectrum": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(harness, "audit_attack")
        counting(harness, "make_attack")
        counting(bounds, "fourier_spectrum")
        rc = main(["audit", str(SCENARIOS / "phase_conversion.scenario")])
        assert rc == 0
        assert calls == {"audit_attack": 1, "make_attack": 1, "fourier_spectrum": 1}
        err = capsys.readouterr().err
        detail = json.loads(err.removeprefix("sigma_spectrum "))
        assert detail["error_probs"] == [0.0, 1.0]
        assert detail["lambda"] == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_sweep_builds_each_pointer_table_once(self, monkeypatch):
        # each angle's spec builds its table to check it, and make_attack reuses it
        calls = []
        entry = KINDS["probe_overlap"]

        def pointers(n, params):
            calls.append(params)
            return entry.pointers(n, params)

        monkeypatch.setitem(KINDS, "probe_overlap", entry._replace(pointers=pointers))
        cfg = parse_scenario(minimal_scenario(
            attack={"kind": "probe_overlap", "params": [0.0]}, analyses=["sweep"],
            sweep_thetas=[0.0, 0.3, 0.6, 0.9, 1.2]))
        assert len(run_sweep(cfg)) == 5
        assert len(calls) <= 6  # the parsed spec and one per angle

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["audit", str(tmp_path / "nope.scenario")]) == 4

    def test_sweep_runs(self, tmp_path):
        out_file = tmp_path / "sweep.csv"
        rc = main([
            "sweep", str(SCENARIOS / "probe_sweep.scenario"),
            "--out", str(out_file),
        ])
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert len(lines) == 8
        assert lines[1].startswith("probe_overlap[theta=0]")

    def test_campaign_writes_mirror(self, tmp_path, capsys):
        cfg = tmp_path / "camp.json"
        cfg.write_text(json.dumps({
            "grid": [[1, 1]],
            "count": 2,
            "master_seed": 5,
            "output": str(tmp_path / "rows.csv"),
            "povm_samples": 2,
        }))
        assert main(["campaign", str(cfg)]) == 0
        assert (tmp_path / "rows.csv").exists()
        assert (tmp_path / "rows.json").exists()
        assert "campaign: 2 attacks" in capsys.readouterr().out

    def test_campaign_json_out_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "camp.json"
        cfg.write_text(json.dumps({
            "grid": [[1, 1]], "count": 1, "master_seed": 5,
            "output": str(tmp_path / "rows.csv"), "povm_samples": 2,
        }))
        report = tmp_path / "report.json"
        assert main(["campaign", str(cfg), "--out", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: output: ")
        assert not report.exists() and not (tmp_path / "rows.csv").exists()

    def test_campaign_json_output_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "camp.json"
        cfg.write_text(json.dumps({
            "grid": [[1, 1]], "count": 1, "master_seed": 5,
            "output": str(tmp_path / "x.json"), "povm_samples": 2,
        }))
        assert main(["campaign", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: output: ")
        assert not (tmp_path / "x.json").exists()

    def test_theorem_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        # unreachable with valid channels, so inject the failure
        from mubeve.errors import TheoremViolation
        import mubeve.cli as cli

        def boom(cfg):
            raise TheoremViolation("injected", report=None)

        monkeypatch.setattr(cli, "run_scenario", boom)
        rc = main(["audit", str(SCENARIOS / "identity.scenario")])
        assert rc == 3
        assert "theorem violation" in capsys.readouterr().err

    def test_broken_bound_chain_exit_code(self, tmp_path, swap_holevo, capsys):
        doc = tmp_path / "random.scenario"
        doc.write_text(minimal_scenario(
            n_qubits=2, attack={"kind": "random_unitary", "eve_dim": 2, "seed": 11},
        ))
        assert main(["audit", str(doc)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "theorem violation" in captured.err
        assert ": chi_orig " in captured.err and " > chi_sym " in captured.err

    def test_cached_parser_keeps_no_state(self, capsys):
        """Consecutive in-process commands share one parser; each must print
        what the same command prints with a freshly built parser."""
        src = str(SCENARIOS / "probe_sweep.scenario")
        sequence = [
            ["audit", src, "--format", "json"],
            ["audit", src],
            ["audit", src, "--seed", "9"],
            ["audit", src],
        ]

        def run(argv):
            assert main(argv) == 0
            captured = capsys.readouterr()
            return captured.out.encode(), captured.err.encode()

        warm = [run(argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert warm == fresh
        assert warm[0][0].startswith(b"[") and warm[1][0].startswith(b"attack_id,")
        assert warm[2] != warm[1] and warm[3] == warm[1]

        with pytest.raises(SystemExit) as info:
            main(["audit", src, "--format", "xml"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert run(sequence[1]) == warm[1]

    def test_campaign_has_no_format_option(self, tmp_path, capsys):
        # a campaign always writes its CSV and the JSON mirror
        argv = ["campaign", str(SCENARIOS / "campaign_small.json"),
                "--format", "json", "--out", str(tmp_path / "r.csv")]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_campaign_seed_override(self, tmp_path):
        cfg = tmp_path / "camp.json"
        cfg.write_text(json.dumps({
            "grid": [[1, 1]],
            "count": 1,
            "master_seed": 5,
            "output": str(tmp_path / "r1.csv"),
            "povm_samples": 2,
        }))
        assert main(["campaign", str(cfg)]) == 0
        assert main(["campaign", str(cfg), "--seed", "6",
                     "--out", str(tmp_path / "r2.csv")]) == 0
        r1 = (tmp_path / "r1.csv").read_text().splitlines()[1]
        r2 = (tmp_path / "r2.csv").read_text().splitlines()[1]
        assert r1 != r2

    @pytest.mark.parametrize("command, document", [
        ("audit", "identity.scenario"),
        ("sweep", "probe_sweep.scenario"),
        ("campaign", "campaign_small.json"),
    ])
    def test_negative_seed_override_rejected(self, tmp_path, capsys, command, document):
        # a document seed of -1 is a ValidationError; the override follows suit
        out = tmp_path / "r.csv"
        argv = [command, str(SCENARIOS / document), "--seed", "-1", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed: seed -1 outside [0, {2**64 - 1}]\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, document", [
        ("audit", "identity.scenario"),
        ("sweep", "probe_sweep.scenario"),
        ("campaign", "campaign_small.json"),
    ])
    def test_seed_override_beyond_64_bits_rejected(self, tmp_path, capsys, command, document):
        out = tmp_path / "r.csv"
        argv = [command, str(SCENARIOS / document), "--seed", str(2**64), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --seed: seed {2**64} outside [0, {2**64 - 1}]\n"
        assert not out.exists()
