"""The metric catalogue in ``docs/observability.md`` matches the code.

Two directions: every family an entry point exports has a catalogue
heading and every heading is exported (checked on the ``chaos --json``
forms that emit them), and every metric name ``src/repro`` writes as a
literal belongs to a catalogued family (checked on the source, so a
family that only a test could switch on fails here too).
"""

from __future__ import annotations

import ast
import json
import re
from pathlib import Path

from repro.cli import main
from repro.telemetry.summary import subsystem_of

REPO = Path(__file__).resolve().parents[1]
VERBS = frozenset({"count", "gauge", "event", "span", "begin"})
"""The recorder verbs that take a metric name first."""


def _catalogue_families() -> set[str]:
    doc = (REPO / "docs" / "observability.md").read_text(encoding="utf-8")
    section = doc.split("\n## Metric catalogue\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^### `([a-z0-9_]+)\.\*`", section, re.M))


def _literal_head(node: ast.expr) -> str | None:
    """The leading literal text of a string or f-string argument."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values \
            and isinstance(node.values[0], ast.Constant):
        return str(node.values[0].value)
    return None


def _named_in_source() -> dict[str, set[str]]:
    """Family -> the ``file:line`` sites that name a metric of it."""
    families: dict[str, set[str]] = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in VERBS and node.args):
                continue
            head = _literal_head(node.args[0])
            if head is not None:
                families.setdefault(subsystem_of(head), set()).add(
                    f"{path.relative_to(REPO)}:{node.lineno}")
    return families


def test_catalogue_lists_three_families():
    assert _catalogue_families() == {"chaos", "resilience", "cluster"}


def test_exports_carry_exactly_the_catalogued_families(capsys):
    exported: set[str] = set()
    for argv in (["chaos", "--scenario", "kitchen-sink", "--duration",
                  "10", "--json"],
                 ["chaos", "--ap-crash", "--duration", "10", "--json"]):
        assert main(argv) == 0
        for line in capsys.readouterr().out.splitlines():
            record = json.loads(line)
            if record["record"] != "meta":
                exported.add(subsystem_of(record["name"]))
    assert exported == _catalogue_families()


def test_source_names_only_catalogued_families():
    catalogued = _catalogue_families()
    stray = {family: sorted(sites)
             for family, sites in _named_in_source().items()
             if family not in catalogued}
    assert stray == {}, ("families named in src/repro without a heading "
                         "under 'Metric catalogue' in "
                         "docs/observability.md")
