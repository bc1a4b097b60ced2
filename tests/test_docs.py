"""The README's library example runs as written, its config schema names
every key, and the package exports every name it lists."""

import math
import re
from pathlib import Path

import inpaintlab
from inpaintlab import config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs(capsys):
    block = re.search(r"## Library use\s+```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block.group(1), str(README), "exec"), {})
    label, value = capsys.readouterr().out.rsplit(":", 1)
    assert label == "sliced W2 to the exact posterior"
    assert math.isfinite(float(value))


def test_every_public_name_resolves():
    assert [name for name in inpaintlab.__all__ if not hasattr(inpaintlab, name)] == []
    assert len(set(inpaintlab.__all__)) == len(inpaintlab.__all__)


def test_config_schema_table_names_every_key():
    table = re.search(r"## Config schema\n.*?\n(\|.*?)\n\n", README.read_text(), re.S).group(1)
    first_column = "\n".join(row.split("|")[1] for row in table.splitlines())
    named = set(re.findall(r"`([^`]+)`", first_column))
    assert set(config._GLOBAL_KEYS) | set(config._SAMPLER_KEYS) <= named
