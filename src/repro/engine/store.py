"""Crash-safe campaign journal: completed shards on disk, verified.

The :class:`ResultStore` is an append-only JSONL file.  Line one is the
campaign header (schema version + the plan's SHA-256 fingerprint); every
subsequent line is one record — a completed ``shard``, a failed
``attempt`` (the supervisor's retry ledger), or a ``quarantine`` notice
— sealed with its own SHA-256 integrity hash over the canonical
serialisation (:mod:`repro.durability.integrity`, the same authority
:mod:`repro.cluster.checkpoint` uses).  Only ``shard`` records affect
resume: attempt and quarantine lines are the audit trail, so a
quarantined shard is simply *absent* from the journal and re-runs on
the next resume.

All I/O goes through the :mod:`repro.durability` seam.  The failure
model:

* creation is atomic (write-temp → fsync → rename → fsync parent dir),
  so a crash right after journal creation can no longer lose the whole
  file to an unsynced directory entry;
* each shard line is appended with fsync as it lands, so the journal is
  never more than one shard behind the computation it protects;
* a campaign killed mid-append leaves at worst one torn final line; the
  loader drops it and the campaign re-runs just that shard;
* a journal whose *interior* is corrupt (bit rot, a lying short write,
  tampering) has the damaged records **quarantined** — skipped,
  reported on :attr:`ResultStore.last_scan`, and re-run — never merged
  and never silently mixed with good shards (``repro fsck`` repairs
  the file in place);
* a journal written by a *different* campaign (other seed, trial count
  or shard layout) fails the fingerprint check and is rejected with
  :class:`StoreError` rather than partially reused, as is a journal
  whose header is unreadable (with no trustworthy header, nothing
  below it can be attributed to this campaign).
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path
from typing import Any

from ..durability.fsck import (
    JOURNAL_SCHEMAS,
    JournalScan,
    scan_journal_text,
)
from ..durability.integrity import canonical_json, digest
from ..durability.io import FsBackend, append_line, atomic_replace
from .plan import CampaignPlan
from .policy import FAILURE_KINDS, FailureKind, ShardFailure
from .shard import ShardResult

__all__ = ["STORE_SCHEMA_VERSION", "ResultStore", "StoreError"]

STORE_SCHEMA_VERSION = 2
"""Bump on any change to the journal line layout; the loader refuses
newer (unknown) schemas rather than misreading them.  Version 2 added
``attempt`` and ``quarantine`` audit records; v1 journals (shard
records only) are still readable."""

_READABLE_SCHEMA_VERSIONS = JOURNAL_SCHEMAS
"""Shared with ``repro fsck`` so the store and the repair tool can
never disagree about which journals are readable."""


class StoreError(Exception):
    """Raised when a campaign journal is unreadable or mismatched."""


class ResultStore:
    """Append-only JSONL journal of one campaign's completed shards."""

    def __init__(self, path: str | Path,
                 fs: FsBackend | None = None) -> None:
        self.path = Path(path)
        self.fs = fs
        """Injectable durability backend (``None`` = the real disk);
        tests hand a :class:`repro.durability.FaultyFs` here to replay
        seeded storage chaos against the journal."""

        self.last_scan: JournalScan | None = None
        """The line-by-line classification of the most recent read —
        including any quarantined corrupt records — for forensics."""

    # --- writing ----------------------------------------------------------

    def _append(self, payload: dict[str, Any]) -> None:
        """Append one canonical line, written and fsynced via the seam."""
        append_line(self.path, canonical_json(payload) + "\n",
                    fs=self.fs)

    def create(self, plan: CampaignPlan) -> None:
        """Start a fresh journal for ``plan`` (replaces any old file).

        Atomic: the header is published by rename and the parent
        directory is fsynced, so a crash leaves either no journal or a
        complete one-line journal — never an empty or torn file.
        """
        header = {
            "record": "campaign",
            "format": "repro-engine",
            "version": STORE_SCHEMA_VERSION,
            "fingerprint": plan.fingerprint(),
            "master_seed": plan.master_seed,
            "num_trials": plan.num_trials,
            "num_shards": plan.num_shards,
        }
        atomic_replace(self.path, canonical_json(header) + "\n",
                       fs=self.fs)

    def record_shard(self, result: ShardResult) -> None:
        """Journal one completed shard with an integrity hash.

        The ``telemetry`` key is always ``null``; schema 2 keeps it so
        journals stay byte-identical across versions.
        """
        payload: dict[str, Any] = {
            "record": "shard",
            "shard_id": result.shard_id,
            "trials": [[index, seed, values]
                       for index, seed, values in result.trials],
            "telemetry": None,
        }
        try:
            payload["integrity"] = digest(payload)
        except (TypeError, ValueError) as exc:
            raise StoreError(
                f"shard {result.shard_id} values are not "
                f"JSON-serialisable: {exc}") from exc
        self._append(payload)

    def record_attempt(self, failure: ShardFailure) -> None:
        """Journal one failed shard attempt (the supervisor's ledger).

        Attempt records never feed resume — a shard is only "done" when
        a ``shard`` record lands — but they make a flaky campaign
        diagnosable from its journal alone: which shard, which attempt,
        and how the supervisor classified the failure.
        """
        payload: dict[str, Any] = {
            "record": "attempt",
            "shard_id": failure.shard_id,
            "attempt": failure.attempt,
            "kind": failure.kind,
            "detail": failure.detail,
        }
        payload["integrity"] = digest(payload)
        self._append(payload)

    def record_quarantine(self, shard_ids: tuple[int, ...]) -> None:
        """Journal the campaign's final quarantine verdict.

        Written once per supervised run that gave up on shards; a later
        resume still re-attempts them (they have no ``shard`` record),
        so quarantine is an audit fact, not a permanent sentence.
        """
        payload: dict[str, Any] = {
            "record": "quarantine",
            "shard_ids": sorted(shard_ids),
        }
        payload["integrity"] = digest(payload)
        self._append(payload)

    # --- reading ----------------------------------------------------------

    def load_or_create(self, plan: CampaignPlan
                       ) -> dict[int, ShardResult]:
        """Open the journal for ``plan``; return already-completed shards.

        Creates a fresh journal (and returns ``{}``) when the file does
        not exist.  When it does, the header's fingerprint must match
        the plan; a torn final line is dropped (the crash-safe append
        case) and corrupt interior records are quarantined — skipped
        and reported on :attr:`last_scan`, so their shards simply
        re-run.  Only an unusable header (not a journal, unreadable
        schema, wrong campaign) raises :class:`StoreError`.
        """
        if not self.path.exists():
            self.create(plan)
            return {}
        return self._load(plan)

    def _load(self, plan: CampaignPlan) -> dict[int, ShardResult]:
        """Parse and verify an existing journal against ``plan``."""
        completed: dict[int, ShardResult] = {}

        def on_shard(result: ShardResult, position: int) -> None:
            if not 0 <= result.shard_id < plan.num_shards:
                raise StoreError(
                    f"{self.path}:{position}: shard id "
                    f"{result.shard_id} outside the campaign's "
                    f"{plan.num_shards} shards")
            completed[result.shard_id] = result

        self._scan(plan, on_shard=on_shard)
        return completed

    def load_attempts(self) -> tuple[ShardFailure, ...]:
        """Every journaled failed attempt, in journal order.

        The diagnostic companion to :meth:`load_or_create`: reads the
        supervisor's audit records without needing the plan (the header
        fingerprint is not checked — this is forensics, not resume).
        """
        attempts: list[ShardFailure] = []

        def on_attempt(failure: ShardFailure, position: int) -> None:
            attempts.append(failure)

        self._scan(None, on_attempt=on_attempt)
        return tuple(attempts)

    def load_quarantined(self) -> tuple[int, ...]:
        """The union of all journaled quarantine verdicts."""
        quarantined: set[int] = set()

        def on_quarantine(shard_ids: list[int], position: int) -> None:
            quarantined.update(shard_ids)

        self._scan(None, on_quarantine=on_quarantine)
        return tuple(sorted(quarantined))

    @property
    def quarantined_lines(self) -> tuple[int, ...]:
        """Line numbers quarantined by the most recent read (forensics)."""
        if self.last_scan is None:
            return ()
        return tuple(issue.line for issue in self.last_scan.corrupt)

    def _scan(self, plan: CampaignPlan | None,
              on_shard: Callable[[ShardResult, int], None] | None = None,
              on_attempt: Callable[[ShardFailure, int], None] | None = None,
              on_quarantine: Callable[[list[int], int], None] | None = None,
              ) -> dict[str, Any]:
        """One pass over the journal, dispatching verified records.

        Returns the parsed header.  With ``plan`` set, the header must
        fingerprint-match it; without, only structural checks run.
        Classification is delegated to
        :func:`repro.durability.fsck.scan_journal_text` — the *same*
        scanner ``repro fsck`` uses — so resume and repair can never
        disagree about what is damaged: every record's integrity hash
        is verified, a torn final line is dropped, and corrupt interior
        records are quarantined (skipped, kept on :attr:`last_scan`).
        """
        try:
            text = self.path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise StoreError(
                f"{self.path}: not UTF-8 ({exc}); not a journal this "
                "build can read") from exc
        scan = scan_journal_text(text)
        self.last_scan = scan
        if scan.header_error is not None or scan.header is None:
            raise StoreError(f"{self.path}:1: {scan.header_error}")
        header = self._check_header(scan.header, plan)
        for position, payload, _raw in scan.records:
            record = payload.get("record")
            if record == "shard" and on_shard is not None:
                on_shard(self._shard_result(payload, position), position)
            elif record == "attempt" and on_attempt is not None:
                on_attempt(self._attempt(payload, position), position)
            elif record == "quarantine" and on_quarantine is not None:
                on_quarantine(self._quarantine(payload, position),
                              position)
        return header

    def _check_header(self, header: dict[str, Any],
                      plan: CampaignPlan | None) -> dict[str, Any]:
        """Campaign-identity check (the scanner did the structure)."""
        if plan is not None \
                and header.get("fingerprint") != plan.fingerprint():
            raise StoreError(
                f"{self.path} was written by a different campaign "
                f"(seed {header.get('master_seed')!r}, "
                f"{header.get('num_trials')!r} trials, "
                f"{header.get('num_shards')!r} shards); refusing to "
                "resume — remove the file or change --out")
        return header

    def _shard_result(self, payload: dict[str, Any], position: int
                      ) -> ShardResult:
        """A verified ``shard`` payload -> :class:`ShardResult`."""
        try:
            return ShardResult(
                shard_id=int(payload["shard_id"]),
                trials=tuple((int(index), int(seed), dict(values))
                             for index, seed, values
                             in payload["trials"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(
                f"{self.path}:{position}: corrupt shard record "
                f"({exc}); refusing to resume from a damaged "
                "journal") from exc

    def _attempt(self, payload: dict[str, Any], position: int
                 ) -> ShardFailure:
        """A verified ``attempt`` payload -> :class:`ShardFailure`."""
        try:
            kind = str(payload["kind"])
            if kind not in FAILURE_KINDS:
                raise ValueError(f"unknown failure kind {kind!r}")
            narrowed: FailureKind = kind  # type: ignore[assignment]
            return ShardFailure(shard_id=int(payload["shard_id"]),
                                attempt=int(payload["attempt"]),
                                kind=narrowed,
                                detail=str(payload["detail"]))
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(
                f"{self.path}:{position}: corrupt attempt record "
                f"({exc})") from exc

    def _quarantine(self, payload: dict[str, Any], position: int
                    ) -> list[int]:
        """A verified ``quarantine`` payload -> shard id list."""
        try:
            return [int(shard_id)
                    for shard_id in payload["shard_ids"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(
                f"{self.path}:{position}: corrupt quarantine record "
                f"({exc})") from exc
