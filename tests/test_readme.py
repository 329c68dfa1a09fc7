"""The Python examples in README.md run as written."""

import re
from pathlib import Path

import pytest

from mubeve import harness

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
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


@pytest.mark.parametrize("table", TABLES)
def test_schema_text_names_every_table_key(table):
    # the schema sections document each field table and every key in it
    assert f"`{table}`" in SCHEMA or f"`harness.{table}`" in SCHEMA
    missing = [key for key in getattr(harness, table) if f"`{key}`" not in SCHEMA]
    assert not missing
