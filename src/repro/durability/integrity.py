"""Canonical-JSON integrity hashing, shared by every durable artifact.

Three on-disk formats in this repo carry per-record SHA-256 hashes over
a canonical JSON serialisation: campaign journals
(:mod:`repro.engine.store`), AP checkpoints
(:mod:`repro.cluster.checkpoint`), and the quarantine sidecars
``repro fsck`` writes.  Before this module each of them hand-rolled the
same ``json.dumps(sort_keys=True) -> sha256`` idiom; now there is one
authority, so the canonical form (and therefore every digest) cannot
drift between writers and verifiers.

The canonical form is one-line JSON with sorted keys and fixed
separators — no whitespace, no encoding freedom — which makes the
digest a pure function of the payload's *content*.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["IntegrityError", "canonical_json", "digest", "verify_sealed"]


class IntegrityError(ValueError):
    """A sealed record whose integrity hash does not match its content."""


def canonical_json(payload: dict[str, Any]) -> str:
    """Canonical one-line JSON: sorted keys, fixed separators."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload: dict[str, Any]) -> str:
    """SHA-256 hex digest over the canonical serialisation."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def verify_sealed(data: dict[str, Any]) -> dict[str, Any]:
    """Check a sealed record; return the payload without its hash.

    Raises :class:`IntegrityError` when the hash is absent or does not
    match — the one signal every loader in the repo treats as "this
    record never happened" (quarantine, not merge).
    """
    if not isinstance(data, dict):
        raise IntegrityError("sealed record must be a JSON object")
    payload = dict(data)
    stored = payload.pop("integrity", None)
    if stored is None:
        raise IntegrityError("record carries no integrity hash")
    if digest(payload) != stored:
        raise IntegrityError("record integrity hash mismatch")
    return payload
