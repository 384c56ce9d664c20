"""The campaign driver: plan, execute, journal, resume, merge.

:class:`Campaign` turns any ``trial_fn(rng, index) -> dict`` into a
sharded Monte-Carlo campaign:

1. a :class:`~repro.engine.plan.CampaignPlan` fixes every trial's seed
   and the shard partition up front;
2. an executor (:class:`~repro.engine.pool.SerialExecutor` by default,
   :class:`~repro.engine.supervisor.SupervisedPool` for fan-out) runs
   the shards;
3. an optional :class:`~repro.engine.store.ResultStore` journals each
   shard as it completes, so a killed campaign resumes executing *only*
   the unfinished shards;
4. the merge re-sorts shards into index order and absorbs per-shard
   telemetry snapshots in shard order — aggregate results and telemetry
   exports are byte-identical for the same master seed and shard plan,
   whichever executor ran the shards and however many times the
   campaign was interrupted and resumed.

Determinism contract: shard count changes *partitioning*, never seeds —
``num_shards=1`` and ``num_shards=64`` produce identical trial values
(and identical exports for the engine's own ``sim.trial`` telemetry,
which records no float-summed histograms across shard boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..telemetry import NullRecorder, TelemetryRecorder
from .plan import CampaignPlan
from .policy import SupervisionReport
from .pool import SerialExecutor, ShardExecutor
from .shard import ShardResult, TrialFn, TrialResult, collect
from .store import ResultStore

__all__ = ["Campaign", "CampaignResult", "EngineError",
           "PartialCampaignResult"]


class EngineError(Exception):
    """Raised when a campaign cannot run or resume coherently."""


@dataclass(frozen=True)
class CampaignResult:
    """A finished campaign: merged trial results plus provenance."""

    plan: CampaignPlan
    results: tuple[TrialResult, ...]
    executed_shards: tuple[int, ...]
    """Shards actually run by this invocation, in completion order."""

    resumed_shards: tuple[int, ...]
    """Shards recovered from the result store instead of re-run."""

    def collect(self, key: str) -> np.ndarray:
        """One scalar metric across all trials, in index order."""
        return collect(self.results, key)

    def collect_planned(self, key: str) -> np.ndarray:
        """One scalar metric for every planned trial, at its index.

        A trial missing from a partial campaign leaves NaN in its slot,
        so the array always has ``plan.num_trials`` entries and reshapes
        onto the campaign's sweep; for a full campaign it equals
        :meth:`collect`.
        """
        values = np.full(self.plan.num_trials, np.nan)
        for result in self.results:
            values[result.index] = result.values[key]
        return values

    @property
    def num_trials(self) -> int:
        """Total trials in the campaign."""
        return len(self.results)

    @property
    def is_partial(self) -> bool:
        """Whether any planned shard is missing from the merge."""
        return False


@dataclass(frozen=True)
class PartialCampaignResult(CampaignResult):
    """A campaign that completed *minus* its quarantined shards.

    Produced instead of dying when a supervised executor (policy
    ``on_failure="quarantine"`` or an unrecovered ``"degrade"``) gave
    up on some shards: every surviving trial is merged in index order
    exactly as in a full :class:`CampaignResult`, and the holes are
    explicit — :attr:`quarantined_shards` names the shards that never
    succeeded, :attr:`missing_trials` the trial indices they cover.

    Because the plan (and every seed in it) is unchanged, re-running
    the campaign against the same result store retries *only* the
    quarantined shards, and a later full result is byte-identical to
    one that never saw a fault.
    """

    quarantined_shards: tuple[int, ...] = ()
    missing_trials: tuple[int, ...] = ()

    @property
    def is_partial(self) -> bool:
        """Always true: some planned shards are missing."""
        return True


class Campaign:
    """One sharded, resumable Monte-Carlo campaign.

    ``num_shards=None`` (the default) gives one shard per executor
    worker — the executor's ``jobs``, or one for
    :class:`~repro.engine.pool.SerialExecutor`.  Results never depend
    on the shard count.
    """

    def __init__(self, trial_fn: TrialFn, num_trials: int,
                 master_seed: int = 0, num_shards: int | None = None,
                 executor: ShardExecutor | None = None,
                 store: ResultStore | str | Path | None = None,
                 telemetry: TelemetryRecorder | None = None) -> None:
        self.trial_fn = trial_fn
        self.executor: ShardExecutor = (executor if executor is not None
                                        else SerialExecutor())
        if num_shards is None:
            num_shards = max(1, getattr(self.executor, "jobs", 1))
        self.plan = CampaignPlan.build(master_seed=master_seed,
                                       num_trials=num_trials,
                                       num_shards=num_shards)
        self.store = (store if isinstance(store, ResultStore)
                      or store is None else ResultStore(store))
        self.telemetry = (telemetry if telemetry is not None
                          else NullRecorder())

    def run(self) -> CampaignResult:
        """Execute (or resume) the campaign and merge the results.

        Raises :class:`EngineError` when a telemetry-enabled campaign
        resumes from a journal written without telemetry (the merged
        export would silently miss the resumed trials).

        Under a supervised executor (one exposing a
        :class:`~repro.engine.policy.SupervisionReport` as
        ``last_report``, e.g.
        :class:`~repro.engine.supervisor.SupervisedPool`), failed
        attempts are journaled to the store as they happen, and a run
        whose shards were quarantined returns an explicit
        :class:`PartialCampaignResult` instead of raising.
        """
        record_telemetry = self.telemetry.enabled
        completed: dict[int, ShardResult] = {}
        if self.store is not None:
            completed = self.store.load_or_create(self.plan)
            attach = getattr(self.executor, "attach_failure_sink", None)
            if callable(attach):
                attach(self.store.record_attempt)
        resumed = tuple(sorted(completed))
        if record_telemetry:
            for shard_id in resumed:
                if completed[shard_id].telemetry is None:
                    raise EngineError(
                        f"shard {shard_id} in the result store was "
                        "journaled without telemetry; re-run the "
                        "campaign untraced or start a fresh store")
        pending = [shard for shard in self.plan.shards
                   if shard.shard_id not in completed]
        executed: list[int] = []
        for result in self.executor.run_shards(
                self.trial_fn, pending, self.plan.num_trials,
                record_telemetry=record_telemetry):
            if self.store is not None:
                self.store.record_shard(result)
            completed[result.shard_id] = result
            executed.append(result.shard_id)
        quarantined = self._quarantined_shards()
        if quarantined and self.store is not None:
            self.store.record_quarantine(quarantined)
        return self._merge(completed, tuple(executed), resumed,
                           quarantined)

    def _quarantined_shards(self) -> tuple[int, ...]:
        """Shards a supervised executor gave up on, per its report."""
        report = getattr(self.executor, "last_report", None)
        if not isinstance(report, SupervisionReport):
            return ()
        return report.abandoned

    def _merge(self, completed: dict[int, ShardResult],
               executed: tuple[int, ...], resumed: tuple[int, ...],
               quarantined: tuple[int, ...] = ()
               ) -> CampaignResult:
        """Deterministic merge: shard order restores serial order.

        Shards missing *without* being quarantined mean a broken
        executor or a mismatched store and still raise; quarantined
        shards produce an explicit :class:`PartialCampaignResult`.
        """
        missing = [shard.shard_id for shard in self.plan.shards
                   if shard.shard_id not in completed]
        unexplained = [shard_id for shard_id in missing
                       if shard_id not in quarantined]
        if unexplained:
            raise EngineError(
                f"campaign incomplete: shards {unexplained} never "
                "finished")
        results: list[TrialResult] = []
        expected_indices: list[int] = []
        for shard in self.plan.shards:
            if shard.shard_id not in completed:
                continue
            expected_indices.extend(shard.indices)
            shard_result = completed[shard.shard_id]
            for index, seed, values in shard_result.trials:
                results.append(TrialResult(index=index, seed=seed,
                                           values=values))
            snapshot = shard_result.telemetry
            if self.telemetry.enabled and snapshot is not None:
                self.telemetry.absorb(snapshot)
        results.sort(key=lambda r: r.index)
        if [r.index for r in results] != sorted(expected_indices):
            raise EngineError(
                "merged trial indices do not cover the completed "
                "shards' planned trials; the result store does not "
                "match this campaign")
        if not missing:
            return CampaignResult(plan=self.plan,
                                  results=tuple(results),
                                  executed_shards=executed,
                                  resumed_shards=resumed)
        missing_trials = tuple(
            index for shard in self.plan.shards
            if shard.shard_id not in completed
            for index in shard.indices)
        return PartialCampaignResult(
            plan=self.plan, results=tuple(results),
            executed_shards=executed, resumed_shards=resumed,
            quarantined_shards=tuple(sorted(missing)),
            missing_trials=missing_trials)
