"""``repro fsck``: scan, verify, and repair durable artifacts.

One verifier/repairer for every on-disk format the repo persists:

* **campaign journals** (:mod:`repro.engine.store` JSONL) — the header
  must be a structurally valid ``campaign`` record with a readable
  schema; every later line must parse, carry a matching SHA-256
  integrity hash, and be a known record kind.  A corrupt *final* line
  is a torn tail (the ordinary crash-mid-append residue); a corrupt
  *interior* line is quarantined — reported, never merged.  Repair
  salvages the valid prefix-plus-survivors into a clean journal
  (written atomically) and moves the damaged raw lines to a
  ``<path>.quarantine`` sidecar for forensics.
* **AP checkpoints** (:mod:`repro.cluster.checkpoint` JSON) — verified
  via the same canonical-JSON digest; a corrupt checkpoint cannot be
  rebuilt (there is no redundancy), so repair moves it aside to
  ``<path>.corrupt`` so recovery boots empty instead of restoring
  poison.
* **telemetry exports** (:mod:`repro.telemetry.export` JSONL) — these
  carry no per-line hashes (they are regenerable), so fsck checks that
  every line is strict JSON and repair drops the ones that are not.

The scanner (:func:`scan_journal_text`) is the *single* implementation
of journal-corruption classification: :class:`repro.engine.store.
ResultStore` resumes through it, so what the store silently survives
and what fsck reports can never disagree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .integrity import IntegrityError, verify_sealed
from .io import REAL_FS, DurableFile, FsBackend, atomic_replace

__all__ = [
    "JOURNAL_RECORD_KINDS",
    "JOURNAL_SCHEMAS",
    "FsckReport",
    "JournalScan",
    "LineIssue",
    "fsck_path",
    "fsck_paths",
    "scan_journal_text",
]

JOURNAL_SCHEMAS = frozenset({1, 2})
"""Campaign-journal schema versions this build can read.  The single
source of truth — :mod:`repro.engine.store` imports it, so the store
and fsck can never disagree about readability."""

JOURNAL_RECORD_KINDS = frozenset({"shard", "attempt", "quarantine"})
"""Record discriminators a journal body may carry (v1: shard only;
the set is the v2 superset, and hash-verified v1 files never contain
the others)."""


@dataclass(frozen=True)
class LineIssue:
    """One damaged journal/export line: where, why, and the raw bytes."""

    line: int
    reason: str
    raw: str


@dataclass(frozen=True)
class JournalScan:
    """The classification of every line of one campaign journal."""

    header: dict[str, Any] | None
    """The parsed header payload (``None`` when the header is bad)."""

    header_raw: str | None
    """The raw header line, for lossless repair rewrites."""

    header_error: str | None
    """Why the journal is unusable as a whole, or ``None``."""

    records: tuple[tuple[int, dict[str, Any], str], ...]
    """Verified body records: ``(lineno, payload-sans-integrity, raw)``."""

    corrupt: tuple[LineIssue, ...]
    """Interior lines that failed verification — quarantine, not merge."""

    torn_tail: LineIssue | None
    """A final line that failed verification: crash-mid-append residue."""

    @property
    def clean(self) -> bool:
        """Whether the journal needs no repair at all."""
        return (self.header_error is None and not self.corrupt
                and self.torn_tail is None)


def _verify_journal_line(line: str) -> dict[str, Any]:
    """One body line -> verified payload; raises ``ValueError`` if bad."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("journal line is not an object")
    payload = verify_sealed(data)
    kind = payload.get("record")
    if kind not in JOURNAL_RECORD_KINDS:
        raise ValueError(f"unexpected record {kind!r}")
    return payload


def scan_journal_text(text: str) -> JournalScan:
    """Classify every line of a journal's content.

    Never raises on corruption — corruption is the *output*.  The
    header is validated structurally (JSON, ``campaign`` record,
    readable schema); campaign-identity checks (fingerprint vs a plan)
    are the store's business, not fsck's.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return JournalScan(header=None, header_raw=None,
                           header_error="journal is empty",
                           records=(), corrupt=(), torn_tail=None)
    header_raw = lines[0]
    header: dict[str, Any] | None = None
    header_error: str | None = None
    try:
        parsed = json.loads(header_raw)
    except json.JSONDecodeError as exc:
        header_error = f"campaign header is not JSON: {exc}"
    else:
        if not isinstance(parsed, dict) \
                or parsed.get("record") != "campaign":
            header_error = ("not a campaign journal (missing header "
                            "line)")
        elif parsed.get("version") not in JOURNAL_SCHEMAS:
            header_error = (
                f"unsupported journal schema "
                f"{parsed.get('version')!r} (this build reads "
                f"{sorted(JOURNAL_SCHEMAS)})")
        else:
            header = parsed

    records: list[tuple[int, dict[str, Any], str]] = []
    corrupt: list[LineIssue] = []
    torn_tail: LineIssue | None = None
    for position, line in enumerate(lines[1:], start=2):
        try:
            payload = _verify_journal_line(line)
        except (ValueError, IntegrityError) as exc:
            issue = LineIssue(line=position, reason=str(exc), raw=line)
            if position == len(lines):
                torn_tail = issue
            else:
                corrupt.append(issue)
        else:
            records.append((position, payload, line))
    return JournalScan(header=header, header_raw=header_raw,
                       header_error=header_error,
                       records=tuple(records),
                       corrupt=tuple(corrupt), torn_tail=torn_tail)


# --- reports ---------------------------------------------------------------


@dataclass
class FsckReport:
    """What fsck found (and did) at one path."""

    path: str
    kind: str
    """``journal`` | ``checkpoint`` | ``telemetry`` | ``unknown``."""

    intact: int = 0
    """Verified records (journal), lines (telemetry), or 1 (checkpoint)."""

    issues: list[str] = field(default_factory=list)
    """Human-readable findings, one per defect."""

    repaired: bool = False
    quarantine_path: str | None = None
    fatal: str | None = None
    """Set when the artifact is unusable and unrepairable."""

    @property
    def exit_code(self) -> int:
        """0 clean · 1 corruption found (repaired or not) · 2 unusable."""
        if self.fatal is not None:
            return 2
        return 1 if self.issues else 0

    def summary(self) -> str:
        """The one-line diagnostic the CLI prints."""
        name = Path(self.path).name
        if self.fatal is not None:
            return f"{name}: {self.kind}: FATAL — {self.fatal}"
        if not self.issues:
            return (f"{name}: {self.kind} clean "
                    f"({self.intact} record"
                    f"{'' if self.intact == 1 else 's'})")
        action = "repaired" if self.repaired else "found (run --repair)"
        detail = "; ".join(self.issues)
        tail = (f"; quarantined lines -> {self.quarantine_path}"
                if self.quarantine_path else "")
        return (f"{name}: {self.kind}: {len(self.issues)} issue"
                f"{'' if len(self.issues) == 1 else 's'} {action} — "
                f"{detail}{tail}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation for ``repro fsck --json``."""
        return {"path": self.path, "kind": self.kind,
                "intact": self.intact, "issues": list(self.issues),
                "repaired": self.repaired,
                "quarantine_path": self.quarantine_path,
                "fatal": self.fatal, "exit_code": self.exit_code}


def _detect_kind(path: Path, text: str) -> str:
    """Sniff which artifact family a file belongs to."""
    first = text.split("\n", 1)[0]
    try:
        parsed = json.loads(first)
    except json.JSONDecodeError:
        parsed = None
    if isinstance(parsed, dict):
        if parsed.get("record") == "campaign":
            return "journal"
        if parsed.get("record") == "meta" \
                and parsed.get("format") == "repro-telemetry":
            return "telemetry"
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict) and "schema_version" in whole:
        return "checkpoint"
    # Content is too damaged to self-describe; fall back to suffix.
    if path.suffix == ".ckpt":
        return "checkpoint"
    return "unknown"


def _quarantine_lines(path: Path, issues: list[LineIssue],
                      fs: FsBackend | None) -> str:
    """Append damaged raw lines to the ``.quarantine`` sidecar."""
    sidecar = Path(f"{path}.quarantine")
    with DurableFile(sidecar, fs=fs, create=True) as handle:
        for issue in issues:
            handle.append(json.dumps(
                {"line": issue.line, "reason": issue.reason,
                 "raw": issue.raw},
                sort_keys=True, separators=(",", ":")) + "\n")
    return str(sidecar)


def _fsck_journal(path: Path, text: str, repair: bool,
                  fs: FsBackend | None) -> FsckReport:
    scan = scan_journal_text(text)
    report = FsckReport(path=str(path), kind="journal",
                        intact=len(scan.records))
    if scan.header_error is not None:
        report.fatal = (f"{scan.header_error}; a journal with no "
                        "trustworthy header cannot be repaired — "
                        "remove it and re-run the campaign")
        return report
    for issue in scan.corrupt:
        report.issues.append(
            f"line {issue.line}: corrupt record ({issue.reason})")
    if scan.torn_tail is not None:
        report.issues.append(
            f"line {scan.torn_tail.line}: torn tail "
            f"({scan.torn_tail.reason})")
    if report.issues and repair:
        damaged = list(scan.corrupt)
        if scan.torn_tail is not None:
            damaged.append(scan.torn_tail)
        report.quarantine_path = _quarantine_lines(path, damaged, fs)
        body = [scan.header_raw or ""]
        body += [raw for _, _, raw in scan.records]
        atomic_replace(path, "\n".join(body) + "\n", fs=fs)
        report.repaired = True
    return report


def _fsck_checkpoint(path: Path, text: str, repair: bool,
                     fs: FsBackend | None) -> FsckReport:
    report = FsckReport(path=str(path), kind="checkpoint")
    reason: str | None = None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        reason = f"not JSON ({exc})"
    else:
        try:
            verify_sealed(data)
        except IntegrityError as exc:
            reason = str(exc)
    if reason is None:
        report.intact = 1
        return report
    report.issues.append(f"corrupt checkpoint: {reason}")
    if repair:
        backend = fs if fs is not None else REAL_FS
        quarantine = f"{path}.corrupt"
        backend.replace(str(path), quarantine)
        report.quarantine_path = quarantine
        report.repaired = True
    return report


def _fsck_telemetry(path: Path, text: str, repair: bool,
                    fs: FsBackend | None) -> FsckReport:
    report = FsckReport(path=str(path), kind="telemetry")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    good: list[str] = []
    bad: list[LineIssue] = []
    for position, line in enumerate(lines, start=1):
        try:
            json.loads(line)
        except json.JSONDecodeError as exc:
            bad.append(LineIssue(line=position, reason=str(exc),
                                 raw=line))
        else:
            good.append(line)
    report.intact = len(good)
    for issue in bad:
        report.issues.append(
            f"line {issue.line}: not JSON ({issue.reason})")
    if bad and repair:
        report.quarantine_path = _quarantine_lines(path, bad, fs)
        atomic_replace(path, "\n".join(good) + "\n", fs=fs)
        report.repaired = True
    return report


def fsck_path(path: str | Path, *, repair: bool = False,
              fs: FsBackend | None = None) -> FsckReport:
    """Verify (and with ``repair=True``, fix) one artifact on disk."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        return FsckReport(path=str(path), kind="unknown",
                          fatal=f"cannot read: {exc}")
    except UnicodeDecodeError as exc:
        return FsckReport(path=str(path), kind="unknown",
                          fatal=f"not UTF-8: {exc}")
    kind = _detect_kind(path, text)
    if kind == "journal":
        return _fsck_journal(path, text, repair, fs)
    if kind == "checkpoint":
        return _fsck_checkpoint(path, text, repair, fs)
    if kind == "telemetry":
        return _fsck_telemetry(path, text, repair, fs)
    return FsckReport(path=str(path), kind="unknown",
                      fatal="not a recognised repro artifact "
                            "(journal, checkpoint, or telemetry "
                            "export)")


def fsck_paths(paths: list[str | Path] | list[str] | list[Path], *,
               repair: bool = False) -> tuple[list[FsckReport], int]:
    """fsck several paths; returns the reports and the worst exit code."""
    reports = [fsck_path(p, repair=repair) for p in paths]
    exit_code = max((r.exit_code for r in reports), default=0)
    return reports, exit_code
