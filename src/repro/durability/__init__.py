"""``repro.durability`` — one durable-state subsystem for the repo.

Million-trial campaigns (the ROADMAP's north star) run long enough
that disk faults, crashes mid-write, and ``ENOSPC`` are expected
events, not edge cases.  Before this package, every persistent
artifact had its own ad-hoc I/O: the campaign journal fsynced lines
but never its parent directory, AP checkpoints were "atomic enough for
a sim", telemetry exports were plain ``open()``-and-write.  Now they
all go through one seam:

* :mod:`~repro.durability.io` — :func:`atomic_replace` (write-temp →
  fsync → rename → fsync parent dir) and :class:`DurableFile`
  (append-with-fsync), over an injectable :class:`FsBackend`;
* :mod:`~repro.durability.integrity` — the canonical-JSON SHA-256
  sealing every hashed record in the repo shares;
* :mod:`~repro.durability.faults` — the :class:`FaultyFs` harness,
  which strikes at scripted syscall ordinals (torn write, short write,
  bit flip, ``ENOSPC``, ``EIO``, crash-at-syscall-N), mirroring the
  worker-fault harness of :mod:`repro.engine.faults`;
* :mod:`~repro.durability.fsck` — scan/verify/repair for journals,
  checkpoints, and telemetry exports, wired up as
  ``python -m repro fsck``.

The headline guarantee (gated by
``benchmarks/test_engine_crashpoints.py``): for *every* injected
crash/fault point, a resumed campaign yields either a byte-identical
full result or an explicit
:class:`~repro.engine.campaign.PartialCampaignResult` — never silent
corruption.
"""

from .faults import (
    FS_FAULT_KINDS,
    FaultyFs,
    FsFault,
    FsFaultKind,
    InjectedFsCrash,
)
from .fsck import (
    JOURNAL_RECORD_KINDS,
    JOURNAL_SCHEMAS,
    FsckReport,
    JournalScan,
    LineIssue,
    fsck_path,
    fsck_paths,
    scan_journal_text,
)
from .integrity import (
    IntegrityError,
    canonical_json,
    digest,
    verify_sealed,
)
from .io import (
    REAL_FS,
    DurableFile,
    FsBackend,
    RealFs,
    append_line,
    atomic_replace,
)

__all__ = [
    "DurableFile",
    "FS_FAULT_KINDS",
    "FaultyFs",
    "FsBackend",
    "FsFault",
    "FsFaultKind",
    "FsckReport",
    "InjectedFsCrash",
    "IntegrityError",
    "JOURNAL_RECORD_KINDS",
    "JOURNAL_SCHEMAS",
    "JournalScan",
    "LineIssue",
    "REAL_FS",
    "RealFs",
    "append_line",
    "atomic_replace",
    "canonical_json",
    "digest",
    "fsck_path",
    "fsck_paths",
    "scan_journal_text",
    "verify_sealed",
]
