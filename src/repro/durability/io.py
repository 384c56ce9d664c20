"""The durable-I/O seam: fsync-correct primitives, injectable backend.

Every persistent artifact in the repo — campaign journals, AP
checkpoints, telemetry exports — reaches the disk through this module.
Two primitives cover all of them:

* :func:`atomic_replace` — the full write-temp → fsync file → rename →
  fsync parent-directory dance.  After it returns, the file at ``path``
  is the new content *and will stay so across a crash*; if the process
  dies anywhere inside, the old content (or absence) survives intact.
  Plain ``open(path, "w")`` gives neither property: a crash mid-write
  leaves a half-file, and a crash after close can still lose the rename
  of a file whose directory entry was never fsynced.
* :class:`DurableFile` / :func:`append_line` — append-with-fsync for
  journals: each appended line is written and fsynced before the call
  returns, so the journal is never more than one torn line behind the
  computation it protects.

All syscalls go through an :class:`FsBackend`, defaulting to the real
:class:`RealFs`.  Tests inject :class:`repro.durability.faults.FaultyFs`
instead, which strikes at scripted syscall ordinals — torn writes,
short writes, bit flips, ``ENOSPC``, ``EIO``, crash-at-syscall-N — so
storage chaos is as deterministic as the worker-fault harness in
:mod:`repro.engine.faults`.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import Protocol

__all__ = ["DurableFile", "FsBackend", "REAL_FS", "RealFs",
           "append_line", "atomic_replace"]


class FsBackend(Protocol):
    """The syscall surface durable persistence needs, and nothing more.

    Read paths stay on ordinary Python I/O — corruption is injected at
    write time, and reads of corrupt bytes are what the verifiers are
    *for* — so the seam only covers mutations.
    """

    def open(self, path: str, flags: int, mode: int = 0o666) -> int:
        """``os.open``: returns a raw file descriptor."""
        ...

    def write(self, fd: int, data: bytes) -> int:
        """``os.write``: returns the byte count actually written."""
        ...

    def fsync(self, fd: int) -> None:
        """``os.fsync`` of an open descriptor."""
        ...

    def close(self, fd: int) -> None:
        """``os.close``; never a durability point, never faulted."""
        ...

    def replace(self, src: str, dst: str) -> None:
        """``os.replace``: the atomic rename."""
        ...

    def remove(self, path: str) -> None:
        """``os.unlink``: cleanup of an abandoned temp file."""
        ...

    def fsync_dir(self, path: str) -> None:
        """fsync a *directory*, persisting creates/renames inside it."""
        ...


class RealFs:
    """The production backend: thin wrappers over ``os``."""

    def open(self, path: str, flags: int, mode: int = 0o666) -> int:
        """``os.open`` verbatim."""
        return os.open(path, flags, mode)

    def write(self, fd: int, data: bytes) -> int:
        """``os.write`` verbatim (short writes are the caller's job)."""
        return os.write(fd, data)

    def fsync(self, fd: int) -> None:
        """``os.fsync`` verbatim."""
        os.fsync(fd)

    def close(self, fd: int) -> None:
        """``os.close`` verbatim."""
        os.close(fd)

    def replace(self, src: str, dst: str) -> None:
        """``os.replace`` verbatim."""
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        """``os.unlink`` verbatim."""
        os.unlink(path)

    def fsync_dir(self, path: str) -> None:
        """Open the directory read-only and fsync it.

        POSIX persists a new directory entry (create or rename) only
        once the *directory* is synced; losing this step is exactly the
        "crash right after open loses the whole file" failure the
        journal regression test pins.
        """
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


REAL_FS = RealFs()
"""The shared production backend (stateless, so one instance serves)."""


def _write_all(fs: FsBackend, fd: int, data: bytes) -> None:
    """Write every byte, looping over short writes."""
    view = memoryview(data)
    while view:
        written = fs.write(fd, bytes(view))
        if written <= 0:
            raise OSError(errno.EIO, "write returned no progress")
        view = view[written:]


def _tmp_path(path: Path) -> Path:
    """The deterministic sibling temp name ``atomic_replace`` uses.

    Deterministic on purpose: artifacts are single-writer (a campaign
    owns its journal, an AP its checkpoint), and a fixed name means the
    debris of a crashed attempt is silently overwritten by the next.
    """
    return path.parent / f".{path.name}.tmp"


def atomic_replace(path: str | Path, data: str | bytes, *,
                   fs: FsBackend | None = None) -> Path:
    """Atomically publish ``data`` as the content of ``path``.

    write temp → fsync temp → rename over ``path`` → fsync the parent
    directory.  Either the complete new content is durable at ``path``
    after a crash, or the previous state is — never a torn mixture.
    Returns the path written.
    """
    fs = fs if fs is not None else REAL_FS
    path = Path(path)
    payload = data.encode("utf-8") if isinstance(data, str) else data
    tmp = _tmp_path(path)
    try:
        fd = fs.open(str(tmp),
                     os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        try:
            _write_all(fs, fd, payload)
            fs.fsync(fd)
        finally:
            fs.close(fd)
        fs.replace(str(tmp), str(path))
    except Exception:
        # The publish never happened; leave no temp debris behind.  A
        # simulated crash makes this removal inert, exactly like a real
        # dead process.
        try:
            fs.remove(str(tmp))
        except OSError:
            pass
        raise
    fs.fsync_dir(str(path.parent))
    return path


class DurableFile:
    """An append-only handle whose every append is fsynced.

    The journal primitive: open an existing file for append (or create
    it empty with ``create=True``, which also fsyncs the parent
    directory so the new entry survives a crash), then call
    :meth:`append` per record.  Each append is written in full and
    fsynced before returning — a crash can tear at most the line being
    appended, never a previously acknowledged one.
    """

    def __init__(self, path: str | Path, *,
                 fs: FsBackend | None = None,
                 create: bool = False) -> None:
        self.path = Path(path)
        self.fs: FsBackend = fs if fs is not None else REAL_FS
        flags = os.O_WRONLY | os.O_APPEND
        if create:
            flags |= os.O_CREAT
        self._fd: int | None = self.fs.open(str(self.path), flags)
        if create:
            self.fs.fsync_dir(str(self.path.parent))

    def append(self, text: str | bytes) -> None:
        """Write ``text`` in full and fsync before returning."""
        if self._fd is None:
            raise ValueError(f"{self.path} is closed")
        payload = (text.encode("utf-8") if isinstance(text, str)
                   else text)
        _write_all(self.fs, self._fd, payload)
        self.fs.fsync(self._fd)

    def close(self) -> None:
        """Release the descriptor (idempotent)."""
        if self._fd is not None:
            self.fs.close(self._fd)
            self._fd = None

    def __enter__(self) -> DurableFile:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def append_line(path: str | Path, text: str, *,
                fs: FsBackend | None = None) -> None:
    """One-shot durable append: open, write-all, fsync, close."""
    with DurableFile(path, fs=fs) as handle:
        handle.append(text)
