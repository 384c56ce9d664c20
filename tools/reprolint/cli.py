"""reprolint command line: discovery, selection, output, exit codes.

Exit codes follow the same contract as ``python -m repro fsck``:

* ``0`` — no findings (the tree is clean);
* ``1`` — at least one finding;
* ``2`` — fatal error (unknown rule code, missing path, bad baseline).

v2 additions: SARIF output (``--format sarif``), baselines
(``--baseline`` / ``--write-baseline``), diff-scoped reporting
(``--changed-only``) and ``--statistics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from typing import Sequence

from .core import run_lint
from .registry import all_rules

__all__ = ["main", "build_parser"]

DEFAULT_BASELINE = ".reprolint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    """The reprolint argument parser."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=("Project-graph domain linter for the mmX "
                     "reproduction: unit discipline, RNG/determinism "
                     "discipline, façade exports, exception hygiene, "
                     "durability, and the PAR0xx parallel-safety race "
                     "detector."))
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("human", "json", "sarif"),
                        default="human", help="output format")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--ignore", metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="subtract findings fingerprinted in FILE "
                             f"(see --write-baseline; default file: "
                             f"{DEFAULT_BASELINE})")
    parser.add_argument("--write-baseline", action="store_true",
                        help="accept all current findings into the "
                             "baseline file and exit 0")
    parser.add_argument("--changed-only", action="store_true",
                        help="report findings only for files changed "
                             "vs git HEAD (analysis still covers the "
                             "whole project)")
    parser.add_argument("--statistics", action="store_true",
                        help="print file/graph statistics to stderr")
    return parser


def _split_codes(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [c.strip() for c in text.split(",") if c.strip()]


def _print_rules() -> None:
    for code, rule in sorted(all_rules().items()):
        scope = getattr(rule, "scope", "file")
        print(f"{code}  {rule.name}  [{scope}]")
        print(f"    {rule.description}")


def _changed_files() -> set[str] | None:
    """Files changed vs HEAD plus untracked files, or None on failure."""
    changed: set[str] = set()
    try:
        for args in (["git", "diff", "--name-only", "HEAD"],
                     ["git", "ls-files", "--others",
                      "--exclude-standard"]):
            proc = subprocess.run(args, capture_output=True, text=True,
                                  check=True)
            changed.update(line.strip()
                           for line in proc.stdout.splitlines()
                           if line.strip())
    except (OSError, subprocess.CalledProcessError):
        return None
    return {path for path in changed if path.endswith(".py")}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0

    report_paths: set[str] | None = None
    if args.changed_only:
        report_paths = _changed_files()
        if report_paths is None:
            print("reprolint: error: --changed-only needs a git "
                  "checkout", file=sys.stderr)
            return 2

    try:
        run = run_lint(args.paths,
                       select=_split_codes(args.select),
                       ignore=_split_codes(args.ignore),
                       report_paths=report_paths)
    except (KeyError, FileNotFoundError) as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    findings = run.findings

    baseline_path = args.baseline or DEFAULT_BASELINE
    if args.write_baseline:
        from .baseline import write_baseline
        count = write_baseline(baseline_path, findings)
        print(f"reprolint: baseline {baseline_path} accepts {count} "
              f"finding{'s' if count != 1 else ''}")
        return 0
    if args.baseline is not None:
        from .baseline import apply_baseline, load_baseline
        try:
            accepted = load_baseline(baseline_path)
        except ValueError as exc:
            print(f"reprolint: error: {exc}", file=sys.stderr)
            return 2
        findings = apply_baseline(findings, accepted)

    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    elif args.format == "sarif":
        from . import __version__
        from .sarif import to_sarif
        print(json.dumps(to_sarif(findings, __version__), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            count = len(findings)
            print(f"reprolint: {count} finding{'s' if count != 1 else ''}")
    if args.statistics:
        stats = dict(run.stats, findings=len(findings))
        print("reprolint: " + ", ".join(f"{k}={v}"
                                        for k, v in sorted(stats.items())),
              file=sys.stderr)
    return 1 if findings else 0
