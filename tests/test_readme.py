"""The Python examples in README.md run as written."""

import re
import shlex
from pathlib import Path

import pytest

from mubeve import harness
from mubeve.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
# Shell lines of the plain code blocks that run mubeve on a shipped file, or
# list the zoo; lines with a <placeholder> are usage, not examples.
COMMANDS = [
    shlex.split(line.partition("#")[0])[1:]
    for block in re.findall(r"^```\n(.*?)^```$", README.read_text(), re.S | re.M)
    for line in block.splitlines()
    if line.startswith("mubeve ") and "<" not in line
]
SCHEMA = README.read_text().partition("### Scenario schema")[2].partition(
    "### Report format")[0]
TABLES = ("SCENARIO_FIELDS", "NAMED_ATTACK_FIELDS", "EXPLICIT_ATTACK_FIELDS",
          "CAMPAIGN_FIELDS")


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


def test_readme_has_cli_examples():
    assert {argv[0] for argv in COMMANDS} == {"audit", "sweep", "campaign", "zoo"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_cli_example_runs(argv, tmp_path, capsys):
    argv = [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv]
    if argv[0] == "campaign":  # its rows go to a temporary directory
        argv += ["--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("table", TABLES)
def test_schema_text_names_every_table_key(table):
    # the schema sections document each field table and every key in it
    assert f"`{table}`" in SCHEMA or f"`harness.{table}`" in SCHEMA
    missing = [key for key in getattr(harness, table) if f"`{key}`" not in SCHEMA]
    assert not missing
