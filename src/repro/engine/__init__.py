"""``repro.engine`` — sharded, resumable Monte-Carlo campaign execution.

Every paper figure is a Monte-Carlo sweep (30 placements in §9.3, 100
runs in §9.5).  This package runs them: it turns any
``trial_fn(rng, index) -> dict`` into a campaign that is

* **sharded** — a :class:`CampaignPlan` spawns every trial's seed from
  one ``SeedSequence`` and partitions trials into contiguous shards;
  :func:`~repro.engine.shard.run_trials` is the one trial loop every
  executor drives;
* **parallel** — a :class:`SupervisedPool` fans shards out across worker
  processes, with :class:`SerialExecutor` as the in-process reference;
* **crash-safe** — a :class:`ResultStore` journals each completed shard
  to JSONL with SHA-256 integrity hashes, so a killed campaign resumes
  executing only the unfinished shards;
* **deterministic** — the merge restores serial trial order, making
  aggregate results byte-identical to a serial run for the same master
  seed and plan;
* **supervised** — the :class:`SupervisedPool` survives worker crashes,
  hangs and corrupt payloads: per-attempt deadlines (absolute and
  adaptive), deterministic exponential backoff, validation of every
  payload against the plan, quarantine of poison shards (the campaign
  completes as an explicit :class:`PartialCampaignResult`), and an
  optional in-process degrade fallback — chaos-tested by the scripted
  worker-fault harness in :mod:`repro.engine.faults`.

Usage
-----
>>> from repro.engine import Campaign, SupervisedPool
>>> def trial(rng, index):
...     return {"x": float(rng.uniform())}
>>> result = Campaign(trial, num_trials=100, master_seed=7,
...                   num_shards=8, executor=SupervisedPool(jobs=4)).run()
>>> result.summary("x")["mean"]  # doctest: +SKIP
0.49...

See ``docs/scaling.md`` for the campaign model, determinism guarantees
and resume semantics.
"""

from .campaign import (
    Campaign,
    CampaignResult,
    EngineError,
    PartialCampaignResult,
)
from .faults import (
    WORKER_FAULT_KINDS,
    InjectedWorkerCrash,
    WorkerFault,
    WorkerFaultSchedule,
    corrupt_shard_result,
)
from .plan import CampaignPlan, ShardSpec, TrialSpec
from .policy import (
    FAILURE_KINDS,
    ON_FAILURE_MODES,
    ShardFailure,
    SupervisionPolicy,
    SupervisionReport,
)
from .pool import SerialExecutor, ShardExecutor, default_job_count
from .shard import ShardResult, TrialFn, TrialResult, run_shard
from .store import STORE_SCHEMA_VERSION, ResultStore, StoreError
from .supervisor import (
    ShardSupervisor,
    ShardValidationError,
    SupervisedPool,
    WorkBackend,
    seed_fingerprint,
    validate_shard_result,
)

__all__ = [
    "Campaign",
    "CampaignPlan",
    "CampaignResult",
    "EngineError",
    "FAILURE_KINDS",
    "InjectedWorkerCrash",
    "ON_FAILURE_MODES",
    "PartialCampaignResult",
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "SerialExecutor",
    "ShardExecutor",
    "ShardFailure",
    "ShardResult",
    "ShardSpec",
    "ShardSupervisor",
    "ShardValidationError",
    "StoreError",
    "SupervisedPool",
    "SupervisionPolicy",
    "SupervisionReport",
    "TrialFn",
    "TrialResult",
    "TrialSpec",
    "WORKER_FAULT_KINDS",
    "WorkBackend",
    "WorkerFault",
    "WorkerFaultSchedule",
    "corrupt_shard_result",
    "default_job_count",
    "run_shard",
    "seed_fingerprint",
    "validate_shard_result",
]
