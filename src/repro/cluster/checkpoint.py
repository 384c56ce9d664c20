"""Crash-safe AP state: versioned, integrity-hashed checkpoints.

Every piece of mmX control-plane state lives in AP memory — the FDM
spectrum map (channel plans and interference blocks) and each
registered node's demodulator numerology.  A crash loses all of it and
strands every registered node (they are feedback-free; they keep
transmitting into a void).  :class:`ApCheckpoint` makes that state
durable:

* ``capture`` walks a :class:`repro.node.access_point.MmxAccessPoint`
  into a plain dataclass-of-primitives;
* ``to_dict`` / ``from_dict`` round-trip it through JSON-safe dicts
  with a ``schema_version`` and a SHA-256 ``integrity`` hash over the
  canonical serialisation, so a truncated or tampered checkpoint is
  rejected instead of restored;
* ``restore`` rebuilds an AP whose allocator plans, blocked ranges and
  registrations are *identical* to the captured one — the property the
  chaos-failover gate asserts bit-for-bit.

Schema 2 stores each channel once, in ``plans``; a registration carries
only its node ID and numerology and is re-attached to its plan on
restore.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..core.ask_fsk import AskFskConfig
from ..durability.integrity import digest as _digest
from ..durability.io import FsBackend, atomic_replace
from ..network.fdm import ChannelPlan, FdmAllocator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..node.access_point import MmxAccessPoint

__all__ = ["CHECKPOINT_SCHEMA_VERSION", "CheckpointError", "ApCheckpoint"]

CHECKPOINT_SCHEMA_VERSION = 2
"""Bump on any change to the checkpoint layout; ``from_dict`` refuses
every other schema (older or newer) rather than misreading it."""


class CheckpointError(Exception):
    """Raised when a checkpoint is unreadable, tampered, or of another
    schema."""


@dataclass(frozen=True)
class ApCheckpoint:
    """One AP's complete control-plane state, as plain primitives."""

    schema_version: int
    band: dict
    """Allocator sizing parameters (band edges, overhead, guard)."""

    plans: tuple
    """Every FDM allocation: (node_id, center_hz, bandwidth_hz)."""

    blocked: tuple
    """Interference-blocked spectrum, merged: (low_hz, high_hz)."""

    registrations: tuple
    """Per-node numerology: (node_id, bit_rate_bps, sample_rate_hz,
    fsk_deviation_hz); the node's channel is its entry in ``plans``."""

    # --- capture ----------------------------------------------------------

    @classmethod
    def capture(cls, access_point) -> ApCheckpoint:
        """Snapshot a live :class:`MmxAccessPoint`."""
        alloc = access_point.allocator
        plans = tuple(sorted(
            (p.node_id, p.center_hz, p.bandwidth_hz)
            for p in alloc.plans))
        registrations = tuple(
            (reg.node_id, reg.config.bit_rate_bps,
             reg.config.sample_rate_hz, reg.config.fsk_deviation_hz)
            for reg in (access_point.registration(n)
                        for n in access_point.registered_nodes))
        return cls(
            schema_version=CHECKPOINT_SCHEMA_VERSION,
            band={
                "band_low_hz": alloc.band_low_hz,
                "band_high_hz": alloc.band_high_hz,
                "bandwidth_per_bps": alloc.bandwidth_per_bps,
                "guard_fraction": alloc.guard_fraction,
                "min_channel_hz": alloc.min_channel_hz,
            },
            plans=plans,
            blocked=alloc.blocked_ranges,
            registrations=registrations,
        )

    # --- serialisation ----------------------------------------------------

    def _state_dict(self) -> dict:
        state = asdict(self)
        # JSON has no tuples; normalise to lists so the canonical form
        # (and therefore the digest) is encoding-independent.
        return json.loads(json.dumps(state))

    def to_dict(self) -> dict:
        """Serialise to a JSON-safe dict with an integrity hash."""
        state = self._state_dict()
        state["integrity"] = _digest(state)
        return state

    def to_json(self) -> str:
        """Serialise to a JSON string (the on-disk checkpoint format)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_dict(cls, data: dict) -> ApCheckpoint:
        """Deserialise, verifying schema version and integrity hash."""
        if not isinstance(data, dict):
            raise CheckpointError("checkpoint must be a dict")
        state = dict(data)
        stored = state.pop("integrity", None)
        if stored is None:
            raise CheckpointError("checkpoint carries no integrity hash")
        if _digest(state) != stored:
            raise CheckpointError("checkpoint integrity hash mismatch")
        version = state.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint schema {version!r} "
                f"(this build reads {CHECKPOINT_SCHEMA_VERSION})")
        try:
            return cls(
                schema_version=version,
                band=dict(state["band"]),
                plans=tuple(tuple(p) for p in state["plans"]),
                blocked=tuple(tuple(b) for b in state["blocked"]),
                registrations=tuple(tuple(r)
                                    for r in state["registrations"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> ApCheckpoint:
        """Deserialise from the JSON string format."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path, fs: FsBackend | None = None) -> None:
        """Write the checkpoint to a file, atomically and durably.

        Routed through :func:`repro.durability.atomic_replace`
        (write-temp → fsync → rename → fsync parent dir): a crash at
        any point leaves either the previous checkpoint or this one,
        never a half-written file — the property the old
        "atomic enough for a sim" ``open()``-and-write lacked.
        """
        atomic_replace(path, self.to_json() + "\n", fs=fs)

    @classmethod
    def load(cls, path) -> ApCheckpoint:
        """Read and verify a checkpoint file."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # --- restore ----------------------------------------------------------

    def restore(self) -> MmxAccessPoint:
        """Rebuild an AP with exactly this control-plane state.

        The returned :class:`MmxAccessPoint` reproduces the captured
        spectrum map (plans land via
        :meth:`FdmAllocator.restore_plan`, not a fresh first-fit — so
        allocation order cannot shift channels), registrations and
        demodulators.
        """
        from ..node.access_point import MmxAccessPoint

        band = self.band
        allocator = FdmAllocator(
            band_low_hz=band["band_low_hz"],
            band_high_hz=band["band_high_hz"],
            bandwidth_per_bps=band["bandwidth_per_bps"],
            guard_fraction=band["guard_fraction"],
            min_channel_hz=band["min_channel_hz"])
        for low_hz, high_hz in self.blocked:
            allocator.block_range(low_hz, high_hz)
        for node_id, center_hz, bandwidth_hz in self.plans:
            allocator.restore_plan(ChannelPlan(
                node_id=int(node_id), center_hz=center_hz,
                bandwidth_hz=bandwidth_hz))
        ap = MmxAccessPoint(allocator=allocator)
        for (node_id, bit_rate_bps, sample_rate_hz,
             fsk_deviation_hz) in self.registrations:
            config = AskFskConfig(bit_rate_bps=bit_rate_bps,
                                  sample_rate_hz=sample_rate_hz,
                                  fsk_deviation_hz=fsk_deviation_hz)
            ap.adopt_registration(int(node_id), config)
        return ap
