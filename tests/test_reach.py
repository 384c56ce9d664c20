"""tools/reach.py: the keep file, the entry list and the gate's verdict.

The sweep itself runs in CI as a gate (about 30 s).  Tier-1 checks what
can go stale or wrong without running it: every keep entry still names
a function, method or class under ``src/repro``, never a module; the
entry list runs every leaf subcommand of the CLI; and the verdict exits
1 when a definition is neither reached nor kept, or when a keep entry
keeps nothing or names no definition.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.cli import build_parser

REPO_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_DIR / "tools"))

import reach  # noqa: E402


def test_every_keep_entry_names_a_definition():
    names = {d.name for d in reach.inventory(REPO_DIR / "src")}
    keep = reach.load_keep(reach.KEEP_FILE)
    assert keep
    assert sorted(set(keep) - names) == []


def _leaf_commands(parser: argparse.ArgumentParser,
                   path: tuple[str, ...] = ()) -> set[tuple[str, ...]]:
    """Every subcommand path that has no subcommands of its own."""
    actions = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        return {path}
    leaves: set[tuple[str, ...]] = set()
    for action in actions:
        seen: set[int] = set()
        for name, child in action.choices.items():
            if id(child) not in seen:  # an alias names the same parser
                seen.add(id(child))
                leaves |= _leaf_commands(child, (*path, name))
    return leaves


def test_entry_list_runs_every_leaf_subcommand():
    leaves = _leaf_commands(build_parser())
    assert ("telemetry", "summarize") in leaves
    missed = {leaf for leaf in leaves
              if not any(argv[:len(leaf)] == leaf for argv in reach.CLI)}
    assert missed == set()


def _package(tmp_path: Path) -> list[reach.Definition]:
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "def helper():\n"
        "    return 2\n"
        "\n"
        "class C:\n"
        "    def method(self):\n"
        "        return 3\n")
    return reach.inventory(tmp_path)


def _sweep(definitions: list[reach.Definition],
           reached: set[str]) -> reach.Sweep:
    return reach.Sweep(definitions, reached, entries=1, seconds=0.0)


def test_verdict_passes_when_everything_is_reached_or_kept(tmp_path):
    result = _sweep(_package(tmp_path), {"repro.mod.used", "repro.mod.C"})
    keep = {"repro.mod.helper": "kept helper",
            "repro.mod.C.method": "kept method"}
    verdict = reach.judge(result, keep)
    assert (verdict.left, verdict.stale) == ([], [])
    assert verdict.kept == {"kept helper": 1, "kept method": 1}
    assert verdict.status == 0


def test_verdict_fails_on_an_unreached_unkept_definition(tmp_path):
    result = _sweep(_package(tmp_path), {"repro.mod.used", "repro.mod.C"})
    verdict = reach.judge(result, {"repro.mod.C.method": "kept method"})
    assert [d.name for d in verdict.left] == ["repro.mod.helper"]
    assert verdict.stale == []
    assert verdict.status == 1
    text = reach.report(result, verdict, tmp_path)
    assert "unreached and not kept: 1 definitions" in text
    assert "repro/mod.py:4  repro.mod.helper  (2 lines)" in text


def test_verdict_fails_on_a_keep_entry_that_keeps_nothing(tmp_path):
    definitions = _package(tmp_path)
    result = _sweep(definitions, {d.name for d in definitions})
    verdict = reach.judge(result, {"repro.mod.helper": "stale reason"},
                          targets=frozenset({"repro.mod.used"}))
    assert verdict.left == []
    assert verdict.stale == ["repro.mod.helper"]
    assert verdict.status == 1
    assert "keep entries that keep nothing: 1\n  repro.mod.helper" \
        in reach.report(result, verdict, tmp_path)


def test_verdict_fails_on_a_keep_entry_that_names_a_module(tmp_path):
    result = _sweep(_package(tmp_path), {"repro.mod.used", "repro.mod.C"})
    verdict = reach.judge(result, {"repro.mod": "whole module"})
    assert [d.name for d in verdict.left] \
        == ["repro.mod.helper", "repro.mod.C.method"]
    assert verdict.stale == ["repro.mod"]
    assert verdict.status == 1


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
    keep = {"repro.mod.C": "kept class", "repro.mod.f": "kept function"}
    assert reach.keep_entry("repro.mod.C.p", keep) == "repro.mod.C"
    assert reach.keep_entry("repro.mod.f.<locals>.inner", keep) \
        == "repro.mod.f"
    assert reach.keep_entry("repro.other.g", keep) is None
