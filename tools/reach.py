"""Reachability sweep: which ``src/repro`` definitions does anything run?

Usage::

    python tools/reach.py [--root DIR] [--json OUT]

The sweep runs a fixed list of entry points -- the five bench workloads
at seed 0 (``prepare``, ``execute``, ``outputs`` and ``probe``), every
``python -m repro`` subcommand (:data:`CLI`) and every script in
``examples/`` -- in one interpreter, under a
``sys.setprofile``/``threading.setprofile`` hook that records every code
object called.  An ``ast`` inventory lists every function, method and
class under ``src/repro`` (``@overload`` stubs excluded).  A function is
*reached* when its code ran; a class is reached when code of its own
ran, when a generated ``__init__`` (a dataclass's) built an instance of
it, or when code that ran names it (how exception types and other
method-less classes are seen).

Pool workers are separate processes and are not traced.  Anything that
runs only there, and anything kept on purpose although no entry point
reaches it, is listed in the keep file (``tools/reach_keep.txt``), one
reason per entry.  An entry names a function, method or class, never a
module, so no entry can hide a module's unused definitions.  The
``bench/layers.py`` targets and the workloads' trial boundaries are
kept automatically, because the bench harness fails when one of them
disappears.

The report prints the reached count, the kept count per reason, every
definition that is neither reached nor kept, with its ``file:line`` and
line count, and every keep entry that keeps nothing (everything under
it is reached, or it names no definition).  It is a gate: the exit
status is 1 when either list is non-empty, so a definition only tests
reach is answered by deleting it or by keeping it with a reason.  An
entry point that fails also stops the sweep.  ``--root`` sweeps another
checkout with this entry list and keep file; ``--json`` writes the
reached and unreached names for comparing two checkouts.  A sweep takes
about 30 s on two cores.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dis
import importlib
import io
import json
import os
import runpy
import sys
import tempfile
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import CodeType, FrameType
from typing import Any

TOOLS_DIR = Path(__file__).resolve().parent
DEFAULT_ROOT = TOOLS_DIR.parent
KEEP_FILE = TOOLS_DIR / "reach_keep.txt"
BENCH_SEED = 0

CLI: tuple[tuple[str, ...], ...] = (
    ("list",),
    ("reproduce",),
    ("reproduce", "extensions"),
    ("reproduce", "fig09"),
    ("link",),
    ("link", "--blocked"),
    ("link", "--distance", "4", "--offset-deg", "20", "--blocked"),
    ("network", "--nodes", "10"),
    ("characterize",),
    ("chaos",),
    ("chaos", "--ap-crash"),
    ("chaos", "--ap-crash", "--seed", "0", "--json"),
    ("chaos", "--scenario", "all", "--seed", "0", "--duration", "30",
     "--json"),
    ("chaos", "--scenario", "kitchen-sink", "--seed", "1", "--duration",
     "10", "--json", ">{tmp}/chaos.jsonl"),
    ("admission", "saturate", "--nodes", "200", "--replicates", "1",
     "--json"),
    ("admission", "saturate", "--nodes", "100", "--replicates", "1",
     "--jobs", "2", "--out", "{tmp}/saturate.jsonl"),
    ("admission", "saturate", "--nodes", "100", "--replicates", "1",
     "--jobs", "2", "--out", "{tmp}/saturate.jsonl", "--resume"),
    ("energy", "compare", "--replicates", "1"),
    ("energy", "compare", "--replicates", "1", "--json"),
    ("energy", "outage", "--replicates", "1"),
    ("energy", "outage", "--replicates", "1", "--json"),
    ("campaign", "fig10"),
    ("campaign", "fig11", "--trials", "8"),
    ("campaign", "fig13", "--trials", "2"),
    ("campaign", "fig13", "--trials", "2", "--out", "{tmp}/fig13.jsonl"),
    ("campaign", "fig13", "--trials", "2", "--out", "{tmp}/fig13.jsonl",
     "--resume"),
    ("campaign", "fig11", "--trials", "4", "--jobs", "2",
     "--max-retries", "1", "--shard-timeout", "120", "--on-failure",
     "degrade"),
    ("telemetry", "summarize", "{tmp}/chaos.jsonl"),
    ("telemetry", "flame", "{tmp}/chaos.jsonl"),
    ("fsck", "{tmp}/fig13.jsonl", "{tmp}/chaos.jsonl"),
    ("fsck", "--json", "{tmp}/saturate.jsonl"),
    ("fsck", "--repair", "{tmp}/fig13.jsonl"),
)
"""``python -m repro`` invocations, run in order in one interpreter.
``{tmp}`` is a scratch directory; a final ``>PATH`` argument saves the
command's stdout there instead of passing it on."""


# --- inventory ---------------------------------------------------------


@dataclass(frozen=True)
class Definition:
    """One ``def`` or ``class`` under ``src/repro``."""

    name: str
    """Dotted: module, then ``__qualname__`` (``repro.sim.Room.add``)."""

    path: Path
    line: int
    """The ``def``/``class`` line."""

    first: int
    """The code object's first line: the first decorator, if any."""

    lines: int
    kind: str
    """``"function"`` or ``"class"``."""


def module_name(src: Path, path: Path) -> str:
    """``src/repro/phy/ber.py`` -> ``repro.phy.ber``."""
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_overload(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for deco in node.decorator_list:
        if isinstance(deco, ast.Name) and deco.id == "overload":
            return True
        if isinstance(deco, ast.Attribute) and deco.attr == "overload":
            return True
    return False


def _definitions(body: list[ast.stmt], prefix: str,
                 path: Path) -> Iterator[Definition]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_overload(node):
                continue
            kind = "function"
        elif isinstance(node, ast.ClassDef):
            kind = "class"
        else:
            continue
        first = min([node.lineno]
                    + [deco.lineno for deco in node.decorator_list])
        name = f"{prefix}.{node.name}"
        yield Definition(name=name, path=path, line=node.lineno,
                         first=first,
                         lines=(node.end_lineno or node.lineno) - first + 1,
                         kind=kind)
        inner = f"{name}.<locals>" if kind == "function" else name
        yield from _definitions(node.body, inner, path)


def inventory(src: Path) -> list[Definition]:
    """Every definition in every module under ``src/repro``."""
    found: list[Definition] = []
    for path in sorted((src / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(_definitions(tree.body, module_name(src, path),
                                  path.resolve()))
    return found


# --- keep file ---------------------------------------------------------


def load_keep(path: Path) -> dict[str, str]:
    """``name -- reason`` lines -> {name: reason}; ``#`` starts a comment."""
    keep: dict[str, str] = {}
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, reason = line.partition(" -- ")
        if not sep or not reason.strip():
            raise ValueError(f"{path}:{number}: expected 'name -- reason'")
        keep[name.strip()] = reason.strip()
    return keep


def keep_entry(name: str, keep: dict[str, str]) -> str | None:
    """The longest keep entry that is ``name`` or one of its enclosing
    modules, classes or functions."""
    parts = name.split(".")
    for end in range(len(parts), 0, -1):
        entry = ".".join(parts[:end])
        if entry in keep:
            return entry
    return None


def bench_targets(root: Path) -> set[str]:
    """Dotted names of the ``bench/layers.py`` targets and workload
    boundaries (``repro.mod:Qual.name`` -> ``repro.mod.Qual.name``)."""
    import layers  # bench/, on sys.path
    import workloads

    boundaries = tuple(path for w in workloads.WORKLOADS.values()
                       for path in w.boundaries)
    return {target.path.replace(":", ".")
            for target in layers.layer_targets(boundaries)}


# --- the sweep -----------------------------------------------------------


class CallLog:
    """The profile hook: code objects called, and the types dataclass
    ``__init__``s (compiled from ``"<string>"``) built instances of."""

    def __init__(self) -> None:
        self.codes: set[CodeType] = set()
        self.built: set[type] = set()

    def hook(self, frame: FrameType, event: str, arg: Any) -> None:
        if event != "call":
            return
        code = frame.f_code
        self.codes.add(code)
        if code.co_filename == "<string>" and code.co_name == "__init__":
            instance = frame.f_locals.get("self")
            if instance is not None:
                self.built.add(type(instance))

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)


def _cli(argv: tuple[str, ...], tmp: Path) -> None:
    from repro.cli import main

    args = [arg.format(tmp=tmp) for arg in argv]
    save = args.pop()[1:] if args[-1].startswith(">") else None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"exited {code}: {err.getvalue().strip()}")
    if save is not None:
        Path(save).write_text(out.getvalue())


def _example(script: Path) -> None:
    argv = sys.argv
    sys.argv = [str(script)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    finally:
        sys.argv = argv


def _workload(name: str, tmp: Path) -> None:
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = tmp / name
    workdir.mkdir()
    state = workload.prepare(BENCH_SEED, workdir)
    workload.outputs(state, workload.execute(state))
    workload.probe(BENCH_SEED, workdir)


def _imports() -> None:
    """``import repro``, the CLI and the bench workloads, so code that
    runs at import (registries filled by module-level calls) counts."""
    for name in ("repro", "repro.cli", "workloads"):
        importlib.import_module(name)


def entry_points(root: Path, tmp: Path
                 ) -> list[tuple[str, Callable[[], None]]]:
    """Every traced entry point after :func:`_imports`, labelled, in run
    order."""
    import workloads

    entries: list[tuple[str, Callable[[], None]]] = [
        (f"bench {name}", partial(_workload, name, tmp))
        for name in workloads.WORKLOADS]
    entries += [(f"repro {' '.join(argv)}", partial(_cli, argv, tmp))
                for argv in CLI]
    entries += [(f"example {script.name}", partial(_example, script))
                for script in sorted((root / "examples").glob("*.py"))]
    return entries


@dataclass
class Sweep:
    """What one sweep reached, against the inventory."""

    definitions: list[Definition]
    reached: set[str]
    entries: int
    seconds: float


def sweep(root: Path) -> Sweep:
    """Run every entry point under the profile hook, in a scratch
    working directory, and resolve what ran to definitions."""
    src = (root / "src").resolve()
    definitions = inventory(src)
    calls = CallLog()
    cwd = Path.cwd()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        tmp = Path(scratch)
        os.chdir(tmp)
        try:
            with calls.active():
                _imports()
            entries = entry_points(root, tmp)
            for label, run in entries:
                with calls.active():
                    try:
                        run()
                    except (Exception, SystemExit) as exc:
                        raise RuntimeError(f"entry point {label!r} "
                                           f"failed: {exc!r}") from exc
        finally:
            os.chdir(cwd)
    seconds = time.perf_counter() - start
    return Sweep(definitions, resolve(definitions, calls, root),
                 len(entries) + 1, seconds)


_LOADS = frozenset({"LOAD_GLOBAL", "LOAD_NAME", "LOAD_ATTR", "LOAD_METHOD"})


def _loaded_names(code: CodeType) -> set[str]:
    """Global and attribute names ``code`` loads (not the names a
    function-level ``import`` binds, which bind no use)."""
    return {ins.argval for ins in dis.get_instructions(code)
            if ins.opname in _LOADS}


def resolve(definitions: list[Definition], calls: CallLog,
            root: Path) -> set[str]:
    """Names of the definitions the recorded run reached."""
    by_code = {(str(d.path), d.first, d.name.rsplit(".", 1)[-1]): d
               for d in definitions}
    here = str(root.resolve()) + os.sep
    reached: set[str] = set()
    named: set[str] = set()
    for code in calls.codes:
        if code.co_name == "<module>" or not code.co_filename.startswith(here):
            continue
        found = by_code.get((code.co_filename, code.co_firstlineno,
                             code.co_name))
        if found is not None and found.kind == "class":
            continue  # a class body runs at import; that is no use
        named |= _loaded_names(code)
        if found is not None:
            reached.add(found.name)
    built = {f"{cls.__module__}.{cls.__qualname__}"
             for instance_type in calls.built
             for cls in instance_type.__mro__}
    for d in definitions:
        if d.kind != "class":
            continue
        simple = d.name.rsplit(".", 1)[-1]
        inside = d.name + "."
        if d.name in built or simple in named \
                or any(name.startswith(inside) for name in reached):
            reached.add(d.name)
    return reached


# --- verdict and report --------------------------------------------------


@dataclass
class Verdict:
    """What a sweep leaves unreached, sorted against the keep file."""

    kept: Counter[str]
    """Reason -> how many unreached definitions it keeps."""

    left: list[Definition]
    """Unreached and not kept."""

    stale: list[str]
    """Keep-file entries that keep no unreached definition."""

    @property
    def status(self) -> int:
        """The exit status: 1 when anything is left or stale."""
        return 1 if self.left or self.stale else 0


def judge(result: Sweep, keep: dict[str, str],
          targets: frozenset[str] = frozenset()) -> Verdict:
    """Sort the unreached definitions by the keep entry that keeps
    them.  ``targets`` (the bench layer targets) are kept too, but are
    never stale.  An entry that names no definition (a module, or a
    name that is gone) keeps nothing, so it is stale."""
    names = {d.name for d in result.definitions}
    everything = dict.fromkeys(targets, "bench/layers.py target")
    everything.update((name, reason) for name, reason in keep.items()
                      if name in names)
    kept: Counter[str] = Counter()
    left: list[Definition] = []
    used: set[str] = set()
    for d in result.definitions:
        if d.name in result.reached:
            continue
        entry = keep_entry(d.name, everything)
        if entry is None:
            left.append(d)
        else:
            used.add(entry)
            kept[everything[entry]] += 1
    return Verdict(kept, left, sorted(set(keep) - used))


def report(result: Sweep, verdict: Verdict, root: Path) -> str:
    """The reached count, kept counts by reason, what is left, and the
    stale keep entries."""
    total = len(result.definitions)
    lines = [f"reach: {len(result.reached)} of {total} definitions "
             f"reached by {result.entries} entry points "
             f"({result.seconds:.0f} s)",
             f"kept although unreached: {sum(verdict.kept.values())}"]
    lines += [f"  {count:5d}  {reason}"
              for reason, count in sorted(verdict.kept.items(),
                                          key=lambda kv: (-kv[1], kv[0]))]
    left = verdict.left
    lines.append(f"unreached and not kept: {len(left)} definitions, "
                 f"{sum(d.lines for d in left)} lines")
    for d in left:
        where = f"{d.path.relative_to(root.resolve())}:{d.line}"
        lines.append(f"  {where}  {d.name}  ({d.lines} lines)")
    lines.append(f"keep entries that keep nothing: {len(verdict.stale)}")
    lines += [f"  {entry}" for entry in verdict.stale]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Run the sweep, print the report, and return the verdict's exit
    status."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT,
                        help="repository checkout to sweep "
                             "(default: this one)")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write reached/unreached names here")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    keep = load_keep(KEEP_FILE)
    result = sweep(root)
    verdict = judge(result, keep, frozenset(bench_targets(root)))
    print(report(result, verdict, root))
    if args.json is not None:
        names = [d.name for d in result.definitions]
        args.json.write_text(json.dumps({
            "reached": sorted(result.reached),
            "unreached": sorted(set(names) - result.reached),
        }, indent=1) + "\n")
    return verdict.status


if __name__ == "__main__":
    sys.exit(main())
