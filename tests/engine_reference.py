"""The serial reference that every campaign is checked against.

One unsharded :func:`repro.engine.shard.run_trials` pass over the seeds
:meth:`repro.engine.CampaignPlan.child_seeds` derives: no shard
partition, no executor, no result store and no merge.  A sharded,
pooled or resumed campaign that equals it does not depend on how it was
run.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.engine import CampaignPlan, TrialFn, TrialResult, TrialSpec
from repro.engine.shard import run_trials


def serial_trials(trial_fn: TrialFn, num_trials: int,
                  master_seed: int = 0) -> Iterator[TrialResult]:
    """Yield each trial's result in index order as soon as it lands."""
    seeds = CampaignPlan.child_seeds(master_seed, num_trials)
    return run_trials(trial_fn, [TrialSpec(index=index, seed=seed)
                                 for index, seed in enumerate(seeds)])
