"""Linter engine: discovery, per-file analysis, rule dispatch, suppression.

Every run analyses each file once, in process, in two layers:

* **file scope** — classic rules that see one file at a time.
  :func:`analyze_file` parses the file, distils its
  :class:`reprolint.project.ModuleSummary` and runs these rules.
* **project scope** — rules that traverse the whole-project
  :class:`reprolint.project.ProjectGraph` (``API001``, the ``PAR0xx``
  race detectors), built from every file's summary.

The engine also owns the two findings no rule emits: ``PARSE001`` for
unparsable files and ``SUP001`` for ``# reprolint: disable=`` comments
that silence nothing.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from .project import ModuleSummary, ProjectGraph, extract_summary
from .registry import all_rules

__all__ = ["AnalyzedFile", "Finding", "LintRun", "SourceUnit",
           "Suppressions", "analyze_file", "collect_files",
           "file_scope_rules", "lint_file", "lint_paths",
           "project_scope_rules", "run_lint"]

PARSE_ERROR_CODE = "PARSE001"
UNUSED_SUPPRESSION_CODE = "SUP001"

#: Engine-emitted codes: always active, never in the registry.
ENGINE_CODES = frozenset({PARSE_ERROR_CODE, UNUSED_SUPPRESSION_CODE})

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def render(self) -> str:
        """The canonical ``path:line:col: CODE message`` human line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {"code": self.code, "message": self.message,
                "path": self.path, "line": self.line, "col": self.col}


@dataclass
class _Directive:
    """One ``# reprolint: disable[-file]=...`` comment, with usage."""

    line: int
    kind: str                   # disable | disable-file
    codes: frozenset[str]       # upper-cased; may contain "ALL"
    used: set[str] = field(default_factory=set)


class Suppressions:
    """Per-line and per-file directives, tracking which ones fire.

    ``suppressed`` records usage so the engine can report directives
    that silence nothing (``SUP001``) — dead suppressions otherwise
    accumulate and hide future regressions.
    """

    def __init__(self, source: str):
        self.directives: list[_Directive] = []
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            kind, codes_text = match.groups()
            codes = frozenset(c.strip().upper()
                              for c in codes_text.split(","))
            self.directives.append(_Directive(line=lineno, kind=kind,
                                              codes=codes))

    def suppressed(self, finding: Finding) -> bool:
        """Whether a finding is silenced by a directive (marks usage)."""
        hit = False
        for directive in self.directives:
            if directive.kind == "disable" \
                    and directive.line != finding.line:
                continue
            matched = {"ALL", finding.code} & directive.codes
            if matched:
                directive.used.update(matched)
                hit = True
        return hit

    def unused(self, executed_codes: frozenset[str]
               ) -> Iterator[tuple[int, str]]:
        """(line, code) pairs for directives that silenced nothing.

        Restricted to codes whose rules actually ran this invocation:
        a ``--select RNG001`` run must not call a DET001 suppression
        dead.  Blanket ``all`` directives are never reported.
        """
        for directive in self.directives:
            for code in sorted(directive.codes - {"ALL"}):
                if code in executed_codes and code not in directive.used:
                    yield directive.line, code


@dataclass
class SourceUnit:
    """Everything a file-scope rule may need for one file."""

    path: Path
    source: str
    tree: ast.Module

    @property
    def filename(self) -> str:
        """Base name of the file under lint (e.g. ``units.py``)."""
        return self.path.name

    def finding(self, code: str, message: str, node: ast.AST) -> Finding:
        """Construct a finding anchored at an AST node."""
        return Finding(code=code, message=message, path=str(self.path),
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0))


def _instantiate(codes: Iterable[str]) -> list:
    rules = all_rules()
    return [rules[code]() for code in sorted(codes)]


def file_scope_rules() -> list:
    """Instances of every registered file-scope rule."""
    return _instantiate(code for code, cls in all_rules().items()
                        if getattr(cls, "scope", "file") == "file")


def project_scope_rules() -> list:
    """Instances of every registered project-scope rule."""
    return _instantiate(code for code, cls in all_rules().items()
                        if getattr(cls, "scope", "file") == "project")


def _selected_codes(select: Iterable[str] | None,
                    ignore: Iterable[str] | None) -> frozenset[str]:
    rules = all_rules()
    chosen = set(rules) if select is None else {c.upper() for c in select}
    chosen -= {c.upper() for c in (ignore or ())}
    unknown = chosen - set(rules)
    if unknown:
        raise KeyError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return frozenset(chosen)


def collect_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories into a deterministic list of .py files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(p for p in path.rglob("*.py")
                              if "__pycache__" not in p.parts)
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")


@dataclass
class AnalyzedFile:
    """One file's analysis products: its summary and file-scope findings.

    A file that does not parse has no summary, and its one finding is
    the ``PARSE001``.
    """

    path: Path                   # as given on the command line
    source: str
    summary: ModuleSummary | None
    findings: list[Finding]


def analyze_file(path: Path) -> AnalyzedFile:
    """Parse one file, distil its summary, run the file-scope rules."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return AnalyzedFile(path, source, None, [Finding(
            code=PARSE_ERROR_CODE,
            message=f"could not parse file: {exc.msg or 'syntax error'}",
            path=str(path), line=exc.lineno or 1, col=exc.offset or 0)])
    unit = SourceUnit(path=path, source=source, tree=tree)
    findings = [finding for rule in file_scope_rules()
                for finding in rule.check(unit)]
    return AnalyzedFile(path, source, extract_summary(tree), findings)


@dataclass
class LintRun:
    """The full result of one engine invocation."""

    findings: list[Finding]
    stats: dict[str, Any]


def run_lint(paths: Iterable[Path | str],
             select: Iterable[str] | None = None,
             ignore: Iterable[str] | None = None,
             *,
             report_paths: set[str] | None = None) -> LintRun:
    """Analyze, build the graph, run both rule scopes, filter, sort.

    ``report_paths``, when given, limits *reported* findings to those
    files while still building the project graph over everything — the
    ``--changed-only`` contract: analysis stays whole-project so
    interprocedural findings do not flicker with the diff.
    """
    selected = _selected_codes(select, ignore)
    files = list(collect_files(paths))
    analyzed = [analyze_file(path) for path in files]

    suppressions: dict[str, Suppressions] = {}
    raw: list[Finding] = []
    for item in analyzed:
        suppressions[str(item.path)] = Suppressions(item.source)
        raw.extend(finding for finding in item.findings
                   if finding.code in selected
                   or finding.code == PARSE_ERROR_CODE)

    graph = ProjectGraph(analyzed)
    for rule in project_scope_rules():
        if rule.code not in selected:
            continue
        raw.extend(rule.check_project(graph))

    kept: list[Finding] = []
    for finding in raw:
        if finding.code == PARSE_ERROR_CODE:
            kept.append(finding)     # parse errors are unsuppressable
            continue
        supp = suppressions.get(finding.path)
        if supp is not None and supp.suppressed(finding):
            continue
        kept.append(finding)

    for display, supp in suppressions.items():
        for line, code in supp.unused(selected):
            kept.append(Finding(
                code=UNUSED_SUPPRESSION_CODE,
                message=f"suppression of {code} matches no finding "
                        f"(remove the stale directive)",
                path=display, line=line, col=0))

    if report_paths is not None:
        resolved = {str(Path(p).resolve()) for p in report_paths}
        kept = [f for f in kept
                if str(Path(f.path).resolve()) in resolved]

    kept.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    stats = {
        "files": len(files),
        "rules": len(selected),
        "worker_entries": len(graph.entries),
        "worker_reachable": len(graph.reachable),
        "findings": len(kept),
    }
    return LintRun(findings=kept, stats=stats)


def lint_file(path: Path | str,
              select: Iterable[str] | None = None,
              ignore: Iterable[str] | None = None) -> list[Finding]:
    """Run the (selected) rule pack over one file."""
    return run_lint([path], select=select, ignore=ignore).findings


def lint_paths(paths: Iterable[Path | str],
               select: Iterable[str] | None = None,
               ignore: Iterable[str] | None = None) -> list[Finding]:
    """Lint every .py file reachable from ``paths``."""
    return run_lint(paths, select=select, ignore=ignore).findings
