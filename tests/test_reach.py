"""tools/reach.py: the keep file stays in step with the code it keeps.

The sweep itself runs in CI as a report; tier-1 checks only what can go
stale silently: every keep entry must still name a module or a
definition under ``src/repro``, so deleting kept code also deletes its
entry.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_DIR / "tools"))

import reach  # noqa: E402


def test_every_keep_entry_names_a_definition():
    src = REPO_DIR / "src"
    names = {d.name for d in reach.inventory(src)} | reach.modules(src)
    keep = reach.load_keep(reach.KEEP_FILE)
    assert keep
    assert sorted(set(keep) - names) == []


def test_inventory_and_keep_prefixes(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "from typing import overload\n"
        "\n"
        "@overload\n"
        "def f(x: int) -> int: ...\n"
        "@overload\n"
        "def f(x: str) -> str: ...\n"
        "def f(x):\n"
        "    def inner():\n"
        "        return x\n"
        "    return inner()\n"
        "\n"
        "class C:\n"
        "    @property\n"
        "    def p(self):\n"
        "        return 1\n")
    found = {d.name: d for d in reach.inventory(tmp_path)}
    assert sorted(found) == ["repro.mod.C", "repro.mod.C.p", "repro.mod.f",
                             "repro.mod.f.<locals>.inner"]
    assert found["repro.mod.f"].first == 7
    assert (found["repro.mod.C.p"].first, found["repro.mod.C.p"].line) \
        == (13, 14)
    keep = {"repro.mod.C": "kept class", "repro.mod": "kept module"}
    assert reach.keep_reason("repro.mod.C.p", keep) == "kept class"
    assert reach.keep_reason("repro.mod.f", keep) == "kept module"
    assert reach.keep_reason("repro.other.g", keep) is None
