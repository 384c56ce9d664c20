"""Engine scaling gates: parallel == serial, and parallel is faster.

Three promises of :mod:`repro.engine`, pinned:

* sharding and the executor never change results — a 4-shard
  SupervisedPool campaign is byte-identical to the serial reference;
* on a multi-core host, fanning a fig11-class sweep over 4 supervised
  workers actually buys wall-clock (>= 2x over the in-process serial
  run);
* a campaign killed mid-run resumes from its journal executing only the
  unfinished shards.  The resumed journal is written to
  ``benchmarks/output/`` so CI archives a real checkpoint artifact.

The correctness gates run everywhere (``--benchmark-disable`` in CI);
the speedup gate needs >= 4 usable CPUs and skips elsewhere — a 1-core
container can verify determinism but not parallelism.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.engine import (
    Campaign,
    CampaignPlan,
    SupervisedPool,
    TrialSpec,
    default_job_count,
)
from repro.engine.shard import run_trials
from repro.experiments.fig11_ber_cdf import placement_trial

from conftest import OUTPUT_DIR, record

SPEEDUP_TRIALS = 600
SPEEDUP_WORKERS = 4
MIN_SPEEDUP = 2.0


def test_sharded_supervised_pool_matches_serial():
    """The determinism contract, on the real fig11 trial function.

    The reference is one unsharded trial-loop pass over the plan's
    seeds: no partition, executor or merge is involved.
    """
    trials = [TrialSpec(index=index, seed=seed) for index, seed
              in enumerate(CampaignPlan.child_seeds(7, 24))]
    serial = list(run_trials(placement_trial, trials))
    for shards, executor in ((1, None), (4, None),
                             (4, SupervisedPool(jobs=2))):
        outcome = Campaign(placement_trial, 24, master_seed=7,
                           num_shards=shards, executor=executor).run()
        assert [r.values for r in outcome.results] \
            == [r.values for r in serial], \
            f"shards={shards} executor={executor} diverged from serial"
        assert [r.seed for r in outcome.results] \
            == [r.seed for r in serial]


def test_resumed_campaign_checkpoint(tmp_path):
    """Kill a campaign after 2 of 4 shards; resume runs only the rest."""

    class Dying:
        def __init__(self, survive):
            self.survive = survive

        def run_shards(self, trial_fn, shards):
            from repro.engine import SerialExecutor

            inner = SerialExecutor().run_shards(trial_fn, shards)
            for count, result in enumerate(inner):
                if count == self.survive:
                    raise KeyboardInterrupt("killed mid-campaign")
                yield result

    store_path = tmp_path / "campaign.jsonl"
    with pytest.raises(KeyboardInterrupt):
        Campaign(placement_trial, 16, master_seed=3, num_shards=4,
                 executor=Dying(survive=2), store=store_path).run()
    assert len(store_path.read_text().splitlines()) == 3

    resumed = Campaign(placement_trial, 16, master_seed=3,
                       num_shards=4, store=store_path).run()
    assert resumed.resumed_shards == (0, 1)
    assert resumed.executed_shards == (2, 3)

    clean = Campaign(placement_trial, 16, master_seed=3,
                     num_shards=4).run()
    assert np.array_equal(resumed.collect("ber_with"),
                          clean.collect("ber_with"))
    assert np.array_equal(resumed.collect("ber_without"),
                          clean.collect("ber_without"))

    # Archive the completed journal: CI uploads it as the
    # resumed-campaign checkpoint artifact.
    OUTPUT_DIR.mkdir(exist_ok=True)
    artifact = OUTPUT_DIR / "engine-resumed-campaign.jsonl"
    artifact.write_text(store_path.read_text())
    record("engine_resume",
           f"campaign of 16 trials / 4 shards killed after 2 shards;\n"
           f"resume executed shards {list(resumed.executed_shards)} "
           f"only and matched the uninterrupted run exactly.\n"
           f"journal: {artifact.name} "
           f"({artifact.stat().st_size} bytes)")


@pytest.mark.skipif(
    default_job_count() < SPEEDUP_WORKERS,
    reason=f"speedup gate needs >= {SPEEDUP_WORKERS} usable CPUs")
def test_parallel_speedup_on_fig11_class_sweep():
    """>= 2x wall-clock win at 4 workers on a fig11-class sweep."""
    # Warm both paths so import/fork costs don't pollute the timing.
    Campaign(placement_trial, SPEEDUP_WORKERS,
             num_shards=SPEEDUP_WORKERS,
             executor=SupervisedPool(jobs=SPEEDUP_WORKERS)).run()
    Campaign(placement_trial, SPEEDUP_WORKERS,
             num_shards=SPEEDUP_WORKERS).run()

    start = time.perf_counter()
    serial = Campaign(placement_trial, SPEEDUP_TRIALS, master_seed=1,
                      num_shards=SPEEDUP_WORKERS).run()
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel = Campaign(placement_trial, SPEEDUP_TRIALS,
                        master_seed=1, num_shards=SPEEDUP_WORKERS,
                        executor=SupervisedPool(jobs=SPEEDUP_WORKERS)).run()
    parallel_s = time.perf_counter() - start

    assert [r.values for r in parallel.results] \
        == [r.values for r in serial.results]
    speedup = serial_s / parallel_s
    record("engine_scaling",
           f"fig11-class sweep, {SPEEDUP_TRIALS} trials: "
           f"serial {serial_s:.2f} s, {SPEEDUP_WORKERS} workers "
           f"{parallel_s:.2f} s -> {speedup:.1f}x")
    assert speedup >= MIN_SPEEDUP, \
        f"expected >= {MIN_SPEEDUP}x at {SPEEDUP_WORKERS} workers, " \
        f"got {speedup:.2f}x (serial {serial_s:.2f} s, " \
        f"parallel {parallel_s:.2f} s)"
