"""README's tolerance table lists every named tolerance of the package, at its value."""

import importlib
import pkgutil
import re
from pathlib import Path

import l1paths

README = Path(__file__).resolve().parents[1] / "README.md"
NAMED_TOLERANCE = re.compile(r"^_?[A-Z][A-Z0-9_]*(_RTOL|_TOLERANCE|_FLOOR)$")


def _table():
    """{name: (module, value)} from the rows of README's Tolerances section."""
    section = README.read_text().split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|", section, re.MULTILINE)
    return {name: (module, float(value)) for name, module, value in rows}


def _modules():
    for info in pkgutil.iter_modules(l1paths.__path__):
        yield importlib.import_module(f"l1paths.{info.name}")


def test_every_named_tolerance_is_in_the_table():
    table = _table()
    missing = sorted(
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in vars(module)
        if NAMED_TOLERANCE.match(name) and name not in table
    )
    assert missing == []


def test_table_rows_name_real_constants_at_their_values():
    table = _table()
    assert {"REFRESH_EVERY", "LOSS_INCREASE_SLACK", "_MIN_ENTRY"} <= set(table)
    for name, (module, value) in table.items():
        assert getattr(importlib.import_module(f"l1paths.{module}"), name) == value, name
