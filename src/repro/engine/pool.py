"""Executors: where shards actually run.

Two implementations of one tiny protocol (:class:`ShardExecutor`):

* :class:`SerialExecutor` — runs shards in-process, in shard order.
  The fallback and the reference: campaign results and telemetry under
  any other executor are pinned byte-identical to this one.
* :class:`~repro.engine.supervisor.SupervisedPool` — every
  multi-process run: fans shards out over ``jobs`` worker processes and
  yields results in *completion* order, so the campaign can journal
  each shard the moment it lands (crash-safety) while the final merge
  re-sorts by shard id (determinism).

Workers receive everything they need — the trial function, the shard's
planned seeds, the campaign trial count — as pickled arguments; they
consult no global state, no wall clock and no process-local RNG, so a
shard computes the same result on any worker, any host, any run.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from typing import Protocol

from .plan import ShardSpec
from .shard import ShardResult, TrialFn, run_shard

__all__ = ["SerialExecutor", "ShardExecutor", "default_job_count"]


def default_job_count() -> int:
    """A sensible worker count: the CPUs this process may schedule on."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)


class ShardExecutor(Protocol):
    """The executor contract :class:`~repro.engine.Campaign` drives."""

    def run_shards(self, trial_fn: TrialFn,
                   shards: Sequence[ShardSpec], of_total: int,
                   record_telemetry: bool = False
                   ) -> Iterator[ShardResult]:
        """Execute ``shards``, yielding each result as it completes."""
        ...


class SerialExecutor:
    """In-process execution, one shard after another, in shard order.

    No pickling constraints: closures and lambdas are fine as trial
    functions.  This is the default backend — and the behavioural
    reference every parallel executor is tested against.
    """

    def run_shards(self, trial_fn: TrialFn,
                   shards: Sequence[ShardSpec], of_total: int,
                   record_telemetry: bool = False
                   ) -> Iterator[ShardResult]:
        """Yield each shard's result immediately after running it."""
        for shard in shards:
            yield run_shard(trial_fn, shard, of_total,
                            record_telemetry=record_telemetry)
