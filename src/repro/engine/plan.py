"""Deterministic campaign plans: who runs which trial with which seed.

A :class:`CampaignPlan` is the *complete* description of a Monte-Carlo
campaign's randomness and partitioning, fixed before any trial runs:

* per-trial seeds are spawned from one ``numpy`` ``SeedSequence`` rooted
  at the master seed (:meth:`CampaignPlan.child_seeds`), so every
  shard layout and executor sees identical RNG streams;
* trials are partitioned into contiguous, balanced shards in index
  order, so merging shard outputs back in shard order recovers the
  serial trial order with a plain concatenation;
* the plan's SHA-256 :meth:`~CampaignPlan.fingerprint` binds a result
  store to the exact campaign that produced it — a resume against a
  journal written by a different seed, trial count or shard layout is
  rejected instead of silently mixing results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

__all__ = ["CampaignPlan", "ShardSpec", "TrialSpec"]


@dataclass(frozen=True)
class TrialSpec:
    """One trial: its global index and the seed of its private RNG."""

    index: int
    seed: int


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous block of trials executed as one unit of work."""

    shard_id: int
    trials: tuple[TrialSpec, ...]

    @property
    def indices(self) -> tuple[int, ...]:
        """The global trial indices this shard covers."""
        return tuple(t.index for t in self.trials)


@dataclass(frozen=True)
class CampaignPlan:
    """The frozen layout of one campaign: seeds and shard partition."""

    master_seed: int
    num_trials: int
    num_shards: int
    shards: tuple[ShardSpec, ...]

    @staticmethod
    def child_seeds(master_seed: int, count: int) -> list[int]:
        """Deterministic per-trial seeds derived from ``master_seed``."""
        if count < 0:
            raise ValueError("count cannot be negative")
        ss = np.random.SeedSequence(master_seed)
        return [int(s.generate_state(1)[0]) for s in ss.spawn(count)]

    @classmethod
    def build(cls, master_seed: int = 0, num_trials: int = 1,
              num_shards: int = 1) -> CampaignPlan:
        """Partition ``num_trials`` seeded trials into balanced shards.

        ``num_shards`` is clamped to the trial count (no empty shards);
        the first ``num_trials % shards`` shards carry one extra trial,
        so shard sizes differ by at most one.
        """
        if num_trials < 0:
            raise ValueError("num_trials cannot be negative")
        if num_shards < 1:
            raise ValueError("a campaign needs at least one shard")
        seeds = cls.child_seeds(master_seed, num_trials)
        trials = tuple(TrialSpec(index=i, seed=s)
                       for i, s in enumerate(seeds))
        effective = min(num_shards, num_trials) if num_trials else 0
        shards: list[ShardSpec] = []
        start = 0
        for shard_id in range(effective):
            size = num_trials // effective \
                + (1 if shard_id < num_trials % effective else 0)
            shards.append(ShardSpec(shard_id=shard_id,
                                    trials=trials[start:start + size]))
            start += size
        return cls(master_seed=master_seed, num_trials=num_trials,
                   num_shards=effective, shards=tuple(shards))

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON form of the whole plan.

        Covers every seed and the shard partition, so any change to the
        master seed, trial count or shard layout produces a different
        fingerprint — the key a :class:`~repro.engine.store.ResultStore`
        validates on resume.
        """
        state = {
            "master_seed": self.master_seed,
            "num_trials": self.num_trials,
            "num_shards": self.num_shards,
            "shards": [[shard.shard_id,
                        [[t.index, t.seed] for t in shard.trials]]
                       for shard in self.shards],
        }
        blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()
