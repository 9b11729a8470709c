"""The README's library import block runs, and its domain table is the code's."""

import pathlib
import re

from crowdtrack.bench import PROTOCOL_KEYS
from crowdtrack.cli import RUN_KEYS
from crowdtrack.rvo import DOMAINS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_import_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "import" in block
    exec(compile(block, str(README), "exec"), {})


def test_input_domain_table_lists_every_row_once():
    section = README.read_text(encoding="utf-8").split("## Input domains", 1)[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\S+)` \| `(\w+)`[^|]*\| \[(\S+), (\S+)\][^|]*\| (\S+) \|$",
                      section, re.M)
    assert sorted(name for _, name, _, _, _ in rows) == sorted(DOMAINS)
    for key, name, low, high, unit in rows:
        assert (RUN_KEYS.get(key) or PROTOCOL_KEYS[key]).path.rpartition(".")[2] == name
        assert (float(low), float(high), unit.replace("–", "")) == DOMAINS[name]
