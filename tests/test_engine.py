"""repro.engine: plans, shards, executors, the store, and campaigns.

The load-bearing guarantees under test:

* the engine's seed derivation is a plain serial sweep's, so campaign
  trials see the exact RNG streams one unsharded trial loop would;
* results are byte-identical across shard counts and executors;
* a killed campaign resumes from its journal executing only the
  unfinished shards, and a journal that does not match the campaign
  (different plan, interior corruption) is rejected instead of mixed in.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.durability.integrity import canonical_json, digest
from repro.engine import (
    Campaign,
    CampaignPlan,
    EngineError,
    PartialCampaignResult,
    ResultStore,
    SerialExecutor,
    StoreError,
    SupervisedPool,
    SupervisionPolicy,
    run_shard,
)

from .engine_reference import serial_trials


def uniform_trial(rng, index):
    """Module-level so SupervisedPool workers can unpickle it."""
    return {"x": float(rng.uniform()), "index": index}


def failing_trial(rng, index):
    if index == 3:
        raise RuntimeError("trial 3 exploded")
    return {"x": float(rng.uniform())}


def non_dict_trial(rng, index):
    return 42


def marker_trial(rng, index, marker_dir):
    """Touches a per-trial marker file; trial 0 explodes immediately,
    every other trial lingers long enough for cancellation to land.
    Module-level (used via ``functools.partial``) so workers can
    unpickle it."""
    Path(marker_dir, f"trial-{index}.started").touch()
    if index == 0:
        raise RuntimeError("trial 0 exploded")
    time.sleep(0.2)
    return {"x": 1.0}


class TestCampaignPlan:
    def test_seeds_match_runner_derivation(self):
        plan = CampaignPlan.build(master_seed=7, num_trials=10,
                                  num_shards=3)
        runner_seeds = [r.seed for r in serial_trials(uniform_trial, 10,
                                                      master_seed=7)]
        plan_seeds = [t.seed for shard in plan.shards
                      for t in shard.trials]
        assert plan_seeds == runner_seeds

    def test_partition_is_contiguous_and_balanced(self):
        plan = CampaignPlan.build(num_trials=10, num_shards=3)
        sizes = [len(s.trials) for s in plan.shards]
        assert sizes == [4, 3, 3]
        indices = [i for s in plan.shards for i in s.indices]
        assert indices == list(range(10))

    def test_shards_clamped_to_trial_count(self):
        plan = CampaignPlan.build(num_trials=2, num_shards=8)
        assert plan.num_shards == 2
        assert all(len(s.trials) == 1 for s in plan.shards)

    def test_zero_trials_means_zero_shards(self):
        plan = CampaignPlan.build(num_trials=0, num_shards=4)
        assert plan.shards == ()

    def test_shard_count_never_changes_seeds(self):
        seeds_1 = [t.seed for s in CampaignPlan.build(5, 20, 1).shards
                   for t in s.trials]
        seeds_7 = [t.seed for s in CampaignPlan.build(5, 20, 7).shards
                   for t in s.trials]
        assert seeds_1 == seeds_7

    def test_fingerprint_binds_the_whole_plan(self):
        base = CampaignPlan.build(0, 10, 2).fingerprint()
        assert CampaignPlan.build(0, 10, 2).fingerprint() == base
        assert CampaignPlan.build(1, 10, 2).fingerprint() != base
        assert CampaignPlan.build(0, 11, 2).fingerprint() != base
        assert CampaignPlan.build(0, 10, 3).fingerprint() != base

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            CampaignPlan.build(num_trials=-1)
        with pytest.raises(ValueError):
            CampaignPlan.build(num_shards=0)


class TestRunShard:
    def test_values_and_specs_round_trip(self):
        plan = CampaignPlan.build(master_seed=3, num_trials=4,
                                  num_shards=2)
        result = run_shard(uniform_trial, plan.shards[1])
        assert result.shard_id == 1
        assert [index for index, _, _ in result.trials] == [2, 3]

    def test_non_dict_values_rejected(self):
        plan = CampaignPlan.build(num_trials=1, num_shards=1)
        with pytest.raises(TypeError):
            run_shard(non_dict_trial, plan.shards[0])

class TestCampaignDeterminism:
    def test_matches_plain_runner_exactly(self):
        serial = list(serial_trials(uniform_trial, 12, master_seed=11))
        for shards in (1, 4, 12):
            outcome = Campaign(uniform_trial, 12, master_seed=11,
                               num_shards=shards).run()
            assert [r.values for r in outcome.results] \
                == [r.values for r in serial]
            assert [r.seed for r in outcome.results] \
                == [r.seed for r in serial]

    def test_supervised_pool_matches_serial(self):
        reference = Campaign(uniform_trial, 10, master_seed=2,
                             num_shards=4).run()
        pooled = Campaign(uniform_trial, 10, master_seed=2,
                          num_shards=4,
                          executor=SupervisedPool(jobs=2)).run()
        assert [r.values for r in pooled.results] \
            == [r.values for r in reference.results]

    def test_collect_and_summary(self):
        outcome = Campaign(uniform_trial, 6, master_seed=1,
                           num_shards=2).run()
        xs = outcome.collect("x")
        assert xs.shape == (6,)
        assert outcome.num_trials == 6

    def test_collect_planned_puts_trials_at_their_index(self):
        full = Campaign(uniform_trial, 6, master_seed=1, num_shards=3).run()
        assert full.collect_planned("x").tobytes() \
            == full.collect("x").tobytes()
        partial = PartialCampaignResult(
            plan=full.plan, results=full.results[2:],
            executed_shards=(1, 2), resumed_shards=(),
            quarantined_shards=(0,), missing_trials=(0, 1))
        xs = partial.collect_planned("x")
        assert xs.shape == (6,)
        assert np.isnan(xs[:2]).all()
        assert xs[2:].tobytes() == full.collect("x")[2:].tobytes()

    def test_trial_failure_propagates(self):
        with pytest.raises(RuntimeError, match="trial 3"):
            Campaign(failing_trial, 6, num_shards=2).run()


class _DyingExecutor:
    """Runs shards serially but dies after ``survive`` of them."""

    def __init__(self, survive: int) -> None:
        self.survive = survive

    def run_shards(self, trial_fn, shards):
        inner = SerialExecutor().run_shards(trial_fn, shards)
        for count, result in enumerate(inner):
            if count == self.survive:
                raise KeyboardInterrupt("killed mid-campaign")
            yield result


class TestResultStore:
    def test_resume_runs_only_unfinished_shards(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        with pytest.raises(KeyboardInterrupt):
            Campaign(uniform_trial, 8, master_seed=9, num_shards=4,
                     executor=_DyingExecutor(survive=2),
                     store=store_path).run()
        journal = store_path.read_text().splitlines()
        assert len(journal) == 3  # header + the two surviving shards

        resumed = Campaign(uniform_trial, 8, master_seed=9,
                           num_shards=4, store=store_path).run()
        assert resumed.resumed_shards == (0, 1)
        assert resumed.executed_shards == (2, 3)

        clean = Campaign(uniform_trial, 8, master_seed=9,
                         num_shards=4).run()
        assert [r.values for r in resumed.results] \
            == [r.values for r in clean.results]

    def test_finished_store_reruns_nothing(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        Campaign(uniform_trial, 6, num_shards=3, store=store_path).run()
        again = Campaign(uniform_trial, 6, num_shards=3,
                         store=store_path).run()
        assert again.executed_shards == ()
        assert again.resumed_shards == (0, 1, 2)

    def test_torn_final_line_is_dropped(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        Campaign(uniform_trial, 6, num_shards=3, store=store_path).run()
        torn = store_path.read_text()[:-20]
        store_path.write_text(torn)
        outcome = Campaign(uniform_trial, 6, num_shards=3,
                           store=store_path).run()
        assert outcome.resumed_shards == (0, 1)
        assert outcome.executed_shards == (2,)

    def test_interior_corruption_quarantined_and_rerun(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        Campaign(uniform_trial, 6, num_shards=3, store=store_path).run()
        lines = store_path.read_text().splitlines()
        lines[1] = lines[1].replace('"record":"shard"',
                                    '"record":"sharf"')
        store_path.write_text("\n".join(lines) + "\n")
        store = ResultStore(store_path)
        outcome = Campaign(uniform_trial, 6, num_shards=3,
                           store=store).run()
        # The damaged record was quarantined (reported, never merged)
        # and its shard re-ran; the others resumed untouched.
        assert store.quarantined_lines == (2,)
        assert outcome.resumed_shards == (1, 2)
        assert outcome.executed_shards == (0,)
        clean = Campaign(uniform_trial, 6, num_shards=3).run()
        assert [r.values for r in outcome.results] \
            == [r.values for r in clean.results]

    def test_corrupt_header_rejected(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        Campaign(uniform_trial, 6, num_shards=3, store=store_path).run()
        text = store_path.read_text()
        store_path.write_text("garbage" + text)
        with pytest.raises(StoreError, match="not JSON"):
            Campaign(uniform_trial, 6, num_shards=3,
                     store=store_path).run()

    def test_different_campaign_rejected(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        Campaign(uniform_trial, 6, master_seed=0, num_shards=3,
                 store=store_path).run()
        with pytest.raises(StoreError, match="different campaign"):
            Campaign(uniform_trial, 6, master_seed=1, num_shards=3,
                     store=store_path).run()
        with pytest.raises(StoreError, match="different campaign"):
            Campaign(uniform_trial, 7, master_seed=0, num_shards=3,
                     store=store_path).run()

    def test_non_json_values_rejected_at_journal_time(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"

        with pytest.raises(StoreError, match="JSON-serialisable"):
            Campaign(lambda rng, i: {"x": object()}, 2,
                     num_shards=1, store=store_path).run()

    def test_header_is_canonical_json_with_fingerprint(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        plan = CampaignPlan.build(master_seed=4, num_trials=6,
                                  num_shards=2)
        ResultStore(store_path).create(plan)
        header = json.loads(store_path.read_text().splitlines()[0])
        assert header["record"] == "campaign"
        assert header["fingerprint"] == plan.fingerprint()
        assert header["master_seed"] == 4

    def test_shard_records_keep_a_null_telemetry_key(self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        Campaign(uniform_trial, 4, num_shards=2, store=store_path).run()
        lines = store_path.read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        assert [record["telemetry"] for record in records] == [None, None]
        # Older traced campaigns journaled a snapshot under the key;
        # such a journal still resumes, because the loader ignores it.
        payload = {key: value for key, value in records[0].items()
                   if key != "integrity"}
        payload["telemetry"] = {"schema_version": 1, "spans": []}
        payload["integrity"] = digest(payload)
        lines[1] = canonical_json(payload)
        store_path.write_text("\n".join(lines) + "\n")
        again = Campaign(uniform_trial, 4, num_shards=2,
                         store=store_path).run()
        assert again.resumed_shards == (0, 1)
        assert again.executed_shards == ()


class _SkippingExecutor:
    """Silently drops every shard — a broken executor."""

    def run_shards(self, trial_fn, shards):
        return iter(())


class TestEngineErrors:
    def test_incomplete_campaign_detected(self):
        with pytest.raises(EngineError, match="never finished"):
            Campaign(uniform_trial, 4, num_shards=2,
                     executor=_SkippingExecutor()).run()

    def test_failed_campaign_cancels_pending_shards(self, tmp_path):
        # One worker, six single-trial shards, one attempt each and
        # "fail" on exhaustion: shard 0 explodes immediately, so the
        # campaign must die without burning through the queued tail.
        trial = functools.partial(marker_trial,
                                  marker_dir=str(tmp_path))
        pool = SupervisedPool(jobs=1, policy=SupervisionPolicy(
            max_attempts=1, on_failure="fail"))
        with pytest.raises(EngineError, match="trial 0"):
            Campaign(trial, 6, num_shards=6, executor=pool).run()
        started = {p.name for p in tmp_path.iterdir()}
        assert "trial-0.started" in started
        assert not started & {"trial-4.started", "trial-5.started"}


class TestSerialCampaign:
    """A one-shard in-process campaign: the default front door."""

    def test_deterministic_across_runs(self):
        a = Campaign(uniform_trial, 10, master_seed=7).run()
        b = Campaign(uniform_trial, 10, master_seed=7).run()
        assert [r["x"] for r in a.results] == [r["x"] for r in b.results]

    def test_trials_independent(self):
        results = Campaign(uniform_trial, 20).run().results
        assert len({r["x"] for r in results}) == 20

    def test_collect(self):
        outcome = Campaign(uniform_trial, 3).run()
        assert list(outcome.collect("index")) == [0, 1, 2]

    def test_non_dict_trial_rejected(self):
        with pytest.raises(TypeError):
            Campaign(non_dict_trial, 1).run()


class TestExperimentCampaigns:
    """The figure sweeps honour the executor/shard contract."""

    def test_fig11_values_independent_of_shards(self):
        from repro.experiments import fig11_ber_cdf

        serial = fig11_ber_cdf.run(seed=0, num_placements=6)
        sharded = fig11_ber_cdf.run(seed=0, num_placements=6,
                                    num_shards=3,
                                    executor=SerialExecutor())
        assert np.array_equal(serial.ber_with_otam,
                              sharded.ber_with_otam)
        assert np.array_equal(serial.ber_without_otam,
                              sharded.ber_without_otam)

    def test_fig13_values_independent_of_shards(self):
        from repro.experiments import fig13_multinode

        serial = fig13_multinode.run(seed=0, trials_per_count=2,
                                     node_counts=(1, 2))
        sharded = fig13_multinode.run(seed=0, trials_per_count=2,
                                      node_counts=(1, 2), num_shards=2,
                                      executor=SerialExecutor())
        assert np.array_equal(serial.mean_sinr_db, sharded.mean_sinr_db)
        assert np.array_equal(serial.std_sinr_db, sharded.std_sinr_db)

    def test_chaos_sweep_independent_of_executor(self):
        from repro.experiments import chaos

        serial = chaos.run_all(seed=1, duration_s=4.0,
                               quiet_tail_s=1.0)
        sharded = chaos.run_all(seed=1, duration_s=4.0,
                                quiet_tail_s=1.0,
                                executor=SerialExecutor(), num_shards=2)
        assert [r.scenario for r in sharded] \
            == [r.scenario for r in serial]
        assert [r.result.adaptive_delivery_ratio for r in sharded] \
            == [r.result.adaptive_delivery_ratio for r in serial]
