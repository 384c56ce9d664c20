"""Deterministic filesystem-fault harness for durable persistence.

PR 6 chaos-tested the campaign *executor* with a seeded, picklable
:class:`~repro.engine.faults.WorkerFaultSchedule`; this module does the
same to the campaign's *storage*.  An :class:`FsFaultSchedule` is a
frozen map from syscall ordinal (1-based, counted across every mutating
operation a :class:`FaultyFs` performs) to one :class:`FsFault`:

``torn_write``   a prefix of the buffer lands, then the process dies —
                 the classic crash-mid-append
``short_write``  a prefix lands but the call *reports full success* —
                 a lying disk; execution continues and the corruption
                 is interior, not a tail
``bit_flip``     the buffer is written in full with one bit flipped —
                 silent media corruption the per-record hashes must
                 catch
``enospc``       the operation fails with ``OSError(ENOSPC)`` before
                 touching the file; the process survives to handle it
``eio``          same, with ``EIO``
``crash``        the process dies *before* the operation takes effect —
                 crash-at-syscall-N, the sweep primitive

A simulated death raises :class:`InjectedFsCrash` and freezes the
backend: every later mutating call through the same :class:`FaultyFs`
is inert (a dead process makes no syscalls), so ``finally`` blocks in
the code under test cannot tidy up state a real crash would have left
behind.  Resume the "rebooted process" with a fresh backend.

Fault decisions are keyed on the operation ordinal, never on wall time
or shared RNG state, so a faulty run replays identically — and a
:class:`FaultyFs` with an empty schedule doubles as the op counter that
enumerates every crash point for the sweep gate.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from .io import REAL_FS

__all__ = [
    "FS_FAULT_KINDS",
    "FaultyFs",
    "FsFault",
    "FsFaultKind",
    "FsFaultSchedule",
    "InjectedFsCrash",
]

FsFaultKind = Literal["torn_write", "short_write", "bit_flip",
                      "enospc", "eio", "crash"]
"""The storage-level failure modes the harness can inject."""

FS_FAULT_KINDS: tuple[FsFaultKind, ...] = (
    "torn_write", "short_write", "bit_flip", "enospc", "eio", "crash")

_ERRNO: dict[str, int] = {"enospc": errno.ENOSPC, "eio": errno.EIO}


class InjectedFsCrash(RuntimeError):
    """The crash the harness injects — the process dying at a syscall."""


@dataclass(frozen=True)
class FsFault:
    """One injected storage misbehaviour."""

    kind: FsFaultKind
    fraction: float = 0.5
    """For ``torn_write``/``short_write``: the fraction of the buffer
    that actually reaches the file (rounded down, clamped so at least
    the empty prefix and at most all-but-one byte land)."""

    bit: int = 0
    """For ``bit_flip``: which bit of the buffer flips (mod its size)."""

    def __post_init__(self) -> None:
        if self.kind not in FS_FAULT_KINDS:
            raise ValueError(f"unknown fs fault kind {self.kind!r}; "
                             f"choose from {FS_FAULT_KINDS}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.bit < 0:
            raise ValueError("bit cannot be negative")


@dataclass(frozen=True)
class FsFaultSchedule:
    """A frozen ``syscall ordinal -> FsFault`` schedule.

    Ordinals are 1-based and count every *mutating* backend call —
    ``open``, ``write``, ``fsync``, ``replace``, ``remove``,
    ``fsync_dir`` (``close`` is free: it is never a durability point).
    Plain data, so it pickles; immutable, so every replay consults the
    same script.
    """

    faults: dict[int, FsFault] = field(default_factory=dict)

    def fault_for(self, op_index: int) -> FsFault | None:
        """The fault scripted for this operation, if any."""
        return self.faults.get(op_index)

    @property
    def num_faults(self) -> int:
        """How many operations this schedule sabotages."""
        return len(self.faults)

    @classmethod
    def crash_at(cls, op_index: int) -> FsFaultSchedule:
        """Die at exactly syscall ``op_index`` — the sweep primitive."""
        if op_index < 1:
            raise ValueError("syscall ordinals are 1-based")
        return cls(faults={op_index: FsFault(kind="crash")})

    @classmethod
    def single(cls, kind: FsFaultKind, op_index: int, *,
               fraction: float = 0.5, bit: int = 0) -> FsFaultSchedule:
        """One fault of ``kind`` at syscall ``op_index``."""
        if op_index < 1:
            raise ValueError("syscall ordinals are 1-based")
        return cls(faults={op_index: FsFault(kind=kind,
                                             fraction=fraction,
                                             bit=bit)})

    @classmethod
    def build(cls, seed: int, num_ops: int, *,
              torn_write: float = 0.0, short_write: float = 0.0,
              bit_flip: float = 0.0, enospc: float = 0.0,
              eio: float = 0.0, crash: float = 0.0,
              fraction: float = 0.5) -> FsFaultSchedule:
        """A seeded random schedule: per-operation fault probabilities.

        For each of the first ``num_ops`` operations, one draw from a
        generator seeded with ``seed`` picks at most one fault kind
        (the rates must sum to at most 1).  The same seed always yields
        the same schedule.  ``bit_flip`` targets a seeded random bit.
        """
        rates: dict[FsFaultKind, float] = {
            "torn_write": torn_write, "short_write": short_write,
            "bit_flip": bit_flip, "enospc": enospc, "eio": eio,
            "crash": crash}
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1]")
        if sum(rates.values()) > 1.0:
            raise ValueError("fault rates sum to more than 1; at most "
                             "one fault fires per operation")
        if num_ops < 0:
            raise ValueError("num_ops cannot be negative")
        rng = np.random.default_rng(seed)
        faults: dict[int, FsFault] = {}
        for op_index in range(1, num_ops + 1):
            draw = float(rng.uniform())
            bit = int(rng.integers(0, 1 << 14))
            edge = 0.0
            for kind, rate in rates.items():
                edge += rate
                if draw < edge:
                    faults[op_index] = FsFault(kind=kind,
                                               fraction=fraction,
                                               bit=bit)
                    break
        return cls(faults=faults)


class FaultyFs:
    """A fault-injecting :class:`~repro.durability.io.FsBackend`.

    Wraps the real backend, counts every mutating operation, and strikes
    when the count hits a scheduled ordinal.  With an empty schedule it
    is a pure op counter/tracer: run once fault-free, read
    :attr:`op_count`, and you have enumerated every crash point the
    sweep gate must cover.

    :attr:`trace` records one ``"op:target"`` entry per counted call
    (e.g. ``"fsync_dir:/tmp/x"`` → ``"fsync_dir:x"`` uses base names),
    which is what the dir-fsync regression tests assert against.
    """

    def __init__(self, schedule: FsFaultSchedule | None = None) -> None:
        self.schedule = schedule if schedule is not None \
            else FsFaultSchedule()
        self.op_count = 0
        self.crashed = False
        self.trace: list[str] = []
        self._names: dict[int, str] = {}

    # --- bookkeeping ------------------------------------------------------

    def _arm(self, op: str, target: str) -> FsFault | None:
        """Count one operation; return the fault scripted for it."""
        if self.crashed:
            return None
        self.op_count += 1
        self.trace.append(f"{op}:{target}")
        return self.schedule.fault_for(self.op_count)

    def _strike(self, fault: FsFault, op: str) -> None:
        """Apply a non-write fault (write handles its own kinds)."""
        if fault.kind in ("enospc", "eio"):
            raise OSError(_ERRNO[fault.kind],
                          f"injected {fault.kind} at {op} "
                          f"(op {self.op_count})")
        # torn/short/bit_flip make no sense off the write path; they
        # degrade to a crash so every scheduled ordinal still faults
        # deterministically.
        self._die(op)

    def _die(self, op: str) -> None:
        """Simulate process death: freeze the backend, raise."""
        self.crashed = True
        raise InjectedFsCrash(
            f"injected crash at {op} (op {self.op_count})")

    # --- the backend surface ----------------------------------------------

    def open(self, path: str, flags: int, mode: int = 0o666) -> int:
        """Open; post-crash opens re-raise (dead processes don't open)."""
        if self.crashed:
            raise InjectedFsCrash("backend is crashed; resume with a "
                                  "fresh FaultyFs")
        fault = self._arm("open", Path(path).name)
        if fault is not None:
            self._strike(fault, "open")
        fd = REAL_FS.open(path, flags, mode)
        self._names[fd] = Path(path).name
        return fd

    def write(self, fd: int, data: bytes) -> int:
        """Write, with the full torn/short/flip repertoire available."""
        if self.crashed:
            return len(data)
        name = self._names.get(fd, "?")
        fault = self._arm("write", name)
        if fault is None:
            return REAL_FS.write(fd, data)
        if fault.kind in ("enospc", "eio"):
            raise OSError(_ERRNO[fault.kind],
                          f"injected {fault.kind} at write "
                          f"(op {self.op_count})")
        if fault.kind == "crash":
            self._die("write")
        if fault.kind == "bit_flip":
            flipped = bytearray(data)
            if flipped:
                bit = fault.bit % (len(flipped) * 8)
                flipped[bit // 8] ^= 1 << (bit % 8)
            REAL_FS.write(fd, bytes(flipped))
            return len(data)
        # torn_write / short_write: a prefix lands.
        keep = min(len(data) - 1, int(len(data) * fault.fraction))
        keep = max(keep, 0)
        if keep:
            REAL_FS.write(fd, data[:keep])
        if fault.kind == "torn_write":
            self._die("write")
        return len(data)  # short_write: the lie

    def fsync(self, fd: int) -> None:
        """Fsync (inert after a crash)."""
        if self.crashed:
            return
        fault = self._arm("fsync", self._names.get(fd, "?"))
        if fault is not None:
            self._strike(fault, "fsync")
        REAL_FS.fsync(fd)

    def close(self, fd: int) -> None:
        """Close is always real (fd hygiene) and never counted."""
        self._names.pop(fd, None)
        REAL_FS.close(fd)

    def replace(self, src: str, dst: str) -> None:
        """Atomic rename (inert after a crash)."""
        if self.crashed:
            return
        fault = self._arm(
            "replace", f"{Path(src).name}->{Path(dst).name}")
        if fault is not None:
            self._strike(fault, "replace")
        REAL_FS.replace(src, dst)

    def remove(self, path: str) -> None:
        """Unlink (inert after a crash)."""
        if self.crashed:
            return
        fault = self._arm("remove", Path(path).name)
        if fault is not None:
            self._strike(fault, "remove")
        REAL_FS.remove(path)

    def fsync_dir(self, path: str) -> None:
        """Directory fsync (inert after a crash)."""
        if self.crashed:
            return
        fault = self._arm("fsync_dir", Path(path).name)
        if fault is not None:
            self._strike(fault, "fsync_dir")
        REAL_FS.fsync_dir(path)
