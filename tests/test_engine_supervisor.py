"""repro.engine supervision: deadlines, retries, quarantine, degrade.

The load-bearing guarantees under test:

* the supervision loop (:class:`~repro.engine.ShardSupervisor`) is
  backend-agnostic, so a scripted virtual-clock backend can exercise
  every failure path — retry/backoff, absolute and adaptive deadlines,
  quarantine, the in-process degrade fallback — with zero real sleeps;
* a supervised campaign in which no fault fires is byte-identical to
  the serial reference (values and seeds);
* under any scripted worker-fault map the supervisor terminates with
  either a full result or an *explicit* partial one — never a silent
  hole, never a hang;
* failed attempts and quarantine decisions are journaled, and a
  quarantined campaign resumes from its journal to completion.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    WORKER_FAULT_KINDS,
    Campaign,
    CampaignPlan,
    EngineError,
    InjectedWorkerCrash,
    PartialCampaignResult,
    ResultStore,
    SerialExecutor,
    ShardResult,
    ShardSupervisor,
    ShardValidationError,
    SupervisedPool,
    SupervisionPolicy,
    WorkerFault,
    WorkerFaultSchedule,
    corrupt_shard_result,
    run_shard,
    seed_fingerprint,
    validate_shard_result,
)
from repro.engine.supervisor import AttemptCompletion

from .engine_reference import serial_trials


def uniform_trial(rng, index):
    """Module-level so SupervisedPool workers can unpickle it."""
    return {"x": float(rng.uniform()), "index": index}


def _payload(shard):
    """A valid ShardResult for ``shard`` without running any trials."""
    return ShardResult(
        shard_id=shard.shard_id,
        trials=tuple((t.index, t.seed, {"v": float(t.index)})
                     for t in shard.trials))


class ScriptedBackend:
    """A WorkBackend on a virtual clock with scripted attempt outcomes.

    ``script`` maps ``(shard_id, attempt)`` to one of ``("ok", runtime)``,
    ``("error", runtime)``, ``("corrupt", runtime)`` or ``("hang",)``
    (never finishes); unscripted attempts are ``("ok", 1.0)``.  Time only
    advances inside ``wait``/``sleep``, so every supervisor decision is
    replayed deterministically and instantly.
    """

    def __init__(self, script=None, slots=2, inline_fail=()):
        self.script = dict(script or {})
        self._slots = slots
        self.inline_fail = set(inline_fail)
        self.now = 0.0
        self.running = {}
        self.submissions = []
        self.abandoned = []
        self.inline_runs = []
        self.closed = 0
        self._counter = 0

    @property
    def slots(self):
        return self._slots

    def now_s(self):
        return self.now

    def submit(self, shard, attempt):
        self._counter += 1
        token = f"attempt-{self._counter}"
        outcome = self.script.get((shard.shard_id, attempt), ("ok", 1.0))
        finish = (math.inf if outcome[0] == "hang"
                  else self.now + outcome[1])
        self.running[token] = (finish, outcome, shard, attempt)
        self.submissions.append((self.now, shard.shard_id, attempt))
        return token

    def wait(self, timeout_s):
        horizon = math.inf if timeout_s is None else self.now + timeout_s
        next_finish = min((f for f, *_ in self.running.values()),
                          default=math.inf)
        if next_finish > horizon:
            # A hung attempt with no deadline would block forever;
            # surface that as a test failure instead of spinning.
            assert horizon < math.inf, \
                "supervisor blocked forever on a hung attempt"
            self.now = horizon
            return []
        self.now = next_finish
        done = []
        for token, (finish, outcome, shard, attempt) \
                in list(self.running.items()):
            if finish <= self.now:
                del self.running[token]
                done.append(self._complete(token, outcome, shard, attempt))
        return done

    def _complete(self, token, outcome, shard, attempt):
        if outcome[0] == "error":
            return AttemptCompletion(
                token=token,
                error=RuntimeError(
                    f"scripted crash: shard {shard.shard_id} "
                    f"attempt {attempt}"))
        result = _payload(shard)
        if outcome[0] == "corrupt":
            result = corrupt_shard_result(result)
        return AttemptCompletion(token=token, result=result)

    def sleep(self, duration_s):
        self.now += duration_s

    def abandon(self, token):
        self.running.pop(token, None)
        self.abandoned.append(token)

    def run_inline(self, shard):
        self.inline_runs.append(shard.shard_id)
        if shard.shard_id in self.inline_fail:
            raise RuntimeError(
                f"scripted inline failure: shard {shard.shard_id}")
        return _payload(shard)

    def close(self):
        self.closed += 1


def _shards(num_trials=6, num_shards=3):
    return CampaignPlan.build(master_seed=0, num_trials=num_trials,
                              num_shards=num_shards).shards


def _drive(policy, backend, shards, **kwargs):
    supervisor = ShardSupervisor(policy, **kwargs)
    results = list(supervisor.run(backend, shards))
    assert supervisor.report is not None
    return results, supervisor.report


class TestSupervisionPolicy:
    def test_backoff_is_deterministic_and_exponential(self):
        policy = SupervisionPolicy(backoff_base_s=0.05,
                                   backoff_factor=2.0, backoff_max_s=5.0)
        assert [policy.backoff_s(a) for a in (1, 2, 3, 4)] \
            == [0.05, 0.1, 0.2, 0.4]
        assert policy.backoff_s(1) == policy.backoff_s(1)

    def test_backoff_is_capped(self):
        policy = SupervisionPolicy(backoff_base_s=1.0,
                                   backoff_factor=10.0, backoff_max_s=3.0)
        assert policy.backoff_s(5) == 3.0

    @pytest.mark.parametrize("cap", [5.0, 1e308])
    @pytest.mark.parametrize("factor", [2.0, 10.0, 1e200])
    def test_backoff_caps_instead_of_overflowing(self, factor, cap):
        # 2.0 ** 1024 and 1e200 ** 2 overflow a float; the cap must win
        # before the power is evaluated, even a cap near the float range.
        policy = SupervisionPolicy(backoff_base_s=0.05,
                                   backoff_factor=factor, backoff_max_s=cap)
        delays = [policy.backoff_s(a) for a in (1, 2, 3, 1025, 10**6)]
        assert all(math.isfinite(d) and d <= cap for d in delays)
        assert delays == sorted(delays)
        assert delays[-1] == cap

    def test_zero_base_never_backs_off(self):
        policy = SupervisionPolicy(backoff_base_s=0.0)
        assert [policy.backoff_s(a) for a in (1, 1025, 10**6)] \
            == [0.0, 0.0, 0.0]

    def test_backoff_rejects_zero_based_attempts(self):
        with pytest.raises(ValueError, match="1-based"):
            SupervisionPolicy().backoff_s(0)

    def test_deadline_none_when_nothing_armed(self):
        policy = SupervisionPolicy(shard_timeout_s=None,
                                   adaptive_timeout_factor=None)
        assert policy.deadline_s([1.0] * 10) is None

    def test_absolute_deadline_applies_immediately(self):
        policy = SupervisionPolicy(shard_timeout_s=7.5,
                                   adaptive_timeout_factor=None)
        assert policy.deadline_s([]) == 7.5

    def test_adaptive_deadline_needs_min_samples(self):
        policy = SupervisionPolicy(shard_timeout_s=None,
                                   adaptive_timeout_factor=4.0,
                                   adaptive_min_samples=3)
        assert policy.deadline_s([1.0, 1.0]) is None
        assert policy.deadline_s([1.0, 1.0, 1.0]) == 4.0

    def test_adaptive_deadline_has_a_floor(self):
        policy = SupervisionPolicy(shard_timeout_s=None,
                                   adaptive_timeout_factor=2.0,
                                   adaptive_min_samples=1,
                                   adaptive_floor_s=0.5)
        assert policy.deadline_s([1e-6, 1e-6, 1e-6]) == 0.5

    def test_deadline_takes_the_tighter_bound(self):
        policy = SupervisionPolicy(shard_timeout_s=3.0,
                                   adaptive_timeout_factor=8.0,
                                   adaptive_min_samples=1)
        assert policy.deadline_s([1.0]) == 3.0
        assert policy.deadline_s([0.1]) == pytest.approx(0.8)

    @pytest.mark.parametrize("bad", [
        {"max_attempts": 0},
        {"backoff_base_s": -0.1},
        {"backoff_factor": 0.5},
        {"backoff_max_s": -1.0},
        {"shard_timeout_s": 0.0},
        {"adaptive_timeout_factor": 0.9},
        {"adaptive_timeout_percentile": 0.0},
        {"adaptive_timeout_percentile": 101.0},
        {"adaptive_min_samples": 0},
        {"adaptive_floor_s": -0.1},
        {"on_failure": "explode"},
    ])
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            SupervisionPolicy(**bad)

    @pytest.mark.parametrize("knob", [
        "backoff_base_s", "backoff_factor", "backoff_max_s",
        "shard_timeout_s", "adaptive_timeout_factor",
        "adaptive_timeout_percentile", "adaptive_floor_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_knobs_rejected(self, knob, value):
        # An infinite deadline overflows the pool's wait, and a NaN one
        # never fires while the supervisor polls wait(0) in a busy loop.
        with pytest.raises(ValueError):
            SupervisionPolicy(**{knob: value})


class TestValidation:
    def test_fingerprint_is_stable_and_order_sensitive(self):
        pairs = [(0, 11), (1, 22)]
        assert seed_fingerprint(pairs) == seed_fingerprint(list(pairs))
        assert seed_fingerprint(pairs) \
            != seed_fingerprint(list(reversed(pairs)))

    def test_genuine_shard_result_validates(self):
        shard = _shards()[1]
        validate_shard_result(run_shard(uniform_trial, shard), shard)

    def test_wrong_shard_id_rejected(self):
        shards = _shards()
        with pytest.raises(ShardValidationError, match="shard 0 for"):
            validate_shard_result(_payload(shards[0]), shards[1])

    def test_truncated_trials_rejected(self):
        shard = _shards()[0]
        honest = _payload(shard)
        truncated = ShardResult(shard_id=shard.shard_id,
                                trials=honest.trials[:-1])
        with pytest.raises(ShardValidationError, match="planned 2"):
            validate_shard_result(truncated, shard)

    def test_corrupted_payload_fails_the_fingerprint(self):
        shard = _shards()[2]
        with pytest.raises(ShardValidationError,
                           match="fingerprint mismatch"):
            validate_shard_result(corrupt_shard_result(_payload(shard)),
                                  shard)

    def test_non_dict_values_rejected(self):
        shard = _shards()[0]
        bad = ShardResult(
            shard_id=shard.shard_id,
            trials=tuple((t.index, t.seed, 42) for t in shard.trials))
        with pytest.raises(ShardValidationError, match="not dict"):
            validate_shard_result(bad, shard)


class TestWorkerFaultSchedule:
    def test_fault_kinds_validated(self):
        with pytest.raises(ValueError, match="unknown worker fault"):
            WorkerFault(kind="meltdown")
        with pytest.raises(ValueError, match="negative"):
            WorkerFault(kind="hang", delay_s=-1.0)

    @pytest.mark.parametrize("delay_s", [math.nan, math.inf])
    def test_delay_must_be_finite(self, delay_s):
        # time.sleep raises on either, which would turn a scripted hang
        # into an error attempt instead of a timeout.
        with pytest.raises(ValueError, match="finite"):
            WorkerFault(kind="hang", delay_s=delay_s)

    def test_crash_raises_on_cue(self):
        schedule = WorkerFaultSchedule(
            faults={(1, 1): WorkerFault(kind="crash")})
        schedule.apply_before(0, 1)  # not scripted: no-op
        schedule.apply_before(1, 2)  # later attempt: no-op
        with pytest.raises(InjectedWorkerCrash, match="shard 1 attempt 1"):
            schedule.apply_before(1, 1)

    def test_corrupt_tampers_only_on_cue(self):
        shard = _shards()[1]
        schedule = WorkerFaultSchedule(
            faults={(1, 1): WorkerFault(kind="corrupt")})
        honest = _payload(shard)
        assert schedule.apply_after(honest, 2) is honest
        tampered = schedule.apply_after(honest, 1)
        with pytest.raises(ShardValidationError):
            validate_shard_result(tampered, shard)
        validate_shard_result(honest, shard)  # original untouched


class TestShardSupervisor:
    """The supervision loop on the scripted virtual-clock backend."""

    def test_fault_free_run_yields_every_shard(self):
        backend = ScriptedBackend()
        results, report = _drive(SupervisionPolicy(), backend, _shards())
        assert sorted(r.shard_id for r in results) == [0, 1, 2]
        assert report.attempts == 3
        assert report.retries == 0
        assert report.quarantined == ()
        assert report.failures == ()
        assert backend.closed == 1

    def test_error_is_retried_after_backoff(self):
        backend = ScriptedBackend(script={(1, 1): ("error", 1.0)})
        policy = SupervisionPolicy(backoff_base_s=0.5)
        results, report = _drive(policy, backend, _shards())
        assert sorted(r.shard_id for r in results) == [0, 1, 2]
        assert report.retries == 1
        assert [f.kind for f in report.failures] == ["error"]
        first, second = [(t, a) for t, s, a in backend.submissions
                         if s == 1]
        assert first[1] == 1 and second[1] == 2
        # failed at t=1.0; the retry obeys the deterministic backoff
        assert second[0] >= 1.0 + policy.backoff_s(1)

    def test_corrupt_payload_is_invalid_and_retried(self):
        backend = ScriptedBackend(script={(2, 1): ("corrupt", 1.0)})
        results, report = _drive(SupervisionPolicy(), backend, _shards())
        assert sorted(r.shard_id for r in results) == [0, 1, 2]
        assert [f.kind for f in report.failures] == ["invalid"]
        assert "fingerprint" in report.failures[0].detail
        for result in results:  # nothing tampered was merged
            validate_shard_result(result, _shards()[result.shard_id])

    def test_hung_attempt_times_out_and_retries(self):
        backend = ScriptedBackend(script={(0, 1): ("hang",)})
        policy = SupervisionPolicy(shard_timeout_s=2.0,
                                   adaptive_timeout_factor=None)
        results, report = _drive(policy, backend, _shards())
        assert sorted(r.shard_id for r in results) == [0, 1, 2]
        assert [f.kind for f in report.failures] == ["timeout"]
        assert "2.000 s deadline" in report.failures[0].detail
        assert len(backend.abandoned) == 1

    def test_poison_shard_is_quarantined(self):
        backend = ScriptedBackend(
            script={(1, a): ("error", 0.1) for a in (1, 2, 3)})
        policy = SupervisionPolicy(max_attempts=3,
                                   on_failure="quarantine",
                                   backoff_base_s=0.01)
        results, report = _drive(policy, backend, _shards())
        assert sorted(r.shard_id for r in results) == [0, 2]
        assert report.quarantined == (1,)
        assert report.abandoned == (1,)
        assert report.degraded == ()
        assert report.attempts == 5
        assert report.retries == 2

    def test_fail_mode_raises_after_exhaustion(self):
        backend = ScriptedBackend(
            script={(1, a): ("error", 0.1) for a in (1, 2)})
        supervisor = ShardSupervisor(
            SupervisionPolicy(max_attempts=2, on_failure="fail",
                              backoff_base_s=0.01))
        with pytest.raises(EngineError, match="shard 1 failed 2"):
            list(supervisor.run(backend, _shards()))
        assert supervisor.report is not None  # ledger survives the death
        assert supervisor.report.retries == 1
        assert backend.closed == 1

    def test_degrade_recovers_quarantined_shards_inline(self):
        backend = ScriptedBackend(
            script={(1, a): ("error", 0.1) for a in (1, 2)})
        policy = SupervisionPolicy(max_attempts=2, on_failure="degrade",
                                   backoff_base_s=0.01)
        results, report = _drive(policy, backend, _shards())
        assert sorted(r.shard_id for r in results) == [0, 1, 2]
        assert backend.inline_runs == [1]
        assert report.quarantined == (1,)
        assert report.degraded == (1,)
        assert report.abandoned == ()

    def test_degrade_keeps_genuinely_broken_shards_quarantined(self):
        backend = ScriptedBackend(
            script={(1, a): ("error", 0.1) for a in (1, 2)},
            inline_fail={1})
        policy = SupervisionPolicy(max_attempts=2, on_failure="degrade",
                                   backoff_base_s=0.01)
        results, report = _drive(policy, backend, _shards())
        assert sorted(r.shard_id for r in results) == [0, 2]
        assert report.abandoned == (1,)
        assert "degrade fallback" in report.failures[-1].detail

    def test_adaptive_deadline_arms_from_completed_runtimes(self):
        # slots=1 serialises the shards: two 1.0 s completions arm the
        # adaptive deadline (factor 4 => 4.0 s) before the hang starts.
        backend = ScriptedBackend(script={(2, 1): ("hang",)}, slots=1)
        policy = SupervisionPolicy(shard_timeout_s=None,
                                   adaptive_timeout_factor=4.0,
                                   adaptive_min_samples=2,
                                   adaptive_floor_s=0.1,
                                   backoff_base_s=0.0)
        results, report = _drive(policy, backend, _shards())
        assert sorted(r.shard_id for r in results) == [0, 1, 2]
        assert [f.kind for f in report.failures] == ["timeout"]
        assert "4.000 s deadline" in report.failures[0].detail
        # 1.0 + 1.0 serial, 4.0 timed-out hang, 1.0 retry
        assert backend.now == pytest.approx(7.0)

    def test_failure_sink_sees_every_failure(self):
        seen = []
        backend = ScriptedBackend(
            script={(0, 1): ("error", 0.1), (2, 1): ("corrupt", 0.1)})
        _drive(SupervisionPolicy(backoff_base_s=0.01), backend,
               _shards(), failure_sink=seen.append)
        assert sorted((f.shard_id, f.kind) for f in seen) \
            == [(0, "error"), (2, "invalid")]

    def test_supervision_report_counts_the_faults(self):
        backend = ScriptedBackend(
            script={(0, 1): ("error", 0.1), (1, 1): ("hang",),
                    (2, 1): ("error", 0.1), (2, 2): ("error", 0.1)})
        policy = SupervisionPolicy(max_attempts=2, shard_timeout_s=1.0,
                                   adaptive_timeout_factor=None,
                                   backoff_base_s=0.01,
                                   on_failure="quarantine")
        _, report = _drive(policy, backend, _shards())
        assert report.attempts == 6
        assert len(report.failures) == 4
        assert report.retries == 3
        assert [f.kind for f in report.failures].count("timeout") == 1
        assert report.quarantined == (2,)


_SCRIPTED_OUTCOME = {
    "crash": ("error", 0.2),
    "hang": ("hang",),
    "slow": ("ok", 1.5),
    "corrupt": ("corrupt", 0.3),
}


@st.composite
def _fault_scripts(draw):
    """A shard count and a ``(shard, attempt) -> fault kind`` map over
    its shards' first three attempts."""
    num_shards = draw(st.integers(min_value=1, max_value=4))
    attempts = st.tuples(st.integers(0, num_shards - 1),
                         st.integers(1, 3))
    kinds = st.sampled_from(WORKER_FAULT_KINDS)
    return num_shards, draw(st.dictionaries(attempts, kinds))


class TestSupervisorFuzz:
    """Scripted fault maps: the supervisor always ends explicitly."""

    @settings(max_examples=40, deadline=None)
    @given(case=_fault_scripts(),
           on_failure=st.sampled_from(["quarantine", "degrade"]))
    def test_terminates_with_full_or_explicit_partial(self, case,
                                                      on_failure):
        num_shards, kinds = case
        script = {key: _SCRIPTED_OUTCOME[kind]
                  for key, kind in kinds.items()}
        shards = _shards(num_trials=2 * num_shards,
                         num_shards=num_shards)
        backend = ScriptedBackend(script=script)
        policy = SupervisionPolicy(max_attempts=3, shard_timeout_s=2.0,
                                   backoff_base_s=0.01,
                                   on_failure=on_failure)
        results, report = _drive(policy, backend, shards)

        yielded = sorted(r.shard_id for r in results)
        assert len(set(yielded)) == len(yielded)  # no duplicates
        # every shard is accounted for: yielded or explicitly abandoned
        assert sorted(yielded + list(report.abandoned)) \
            == list(range(num_shards))
        for result in results:  # nothing invalid ever escapes
            validate_shard_result(result, shards[result.shard_id])
        assert report.attempts == len(backend.submissions)
        assert report.attempts == num_shards + report.retries
        assert backend.closed == 1


class _DyingExecutor:
    """Runs shards serially but dies after ``survive`` of them."""

    def __init__(self, survive):
        self.survive = survive

    def run_shards(self, trial_fn, shards):
        inner = SerialExecutor().run_shards(trial_fn, shards)
        for count, result in enumerate(inner):
            if count == self.survive:
                raise KeyboardInterrupt("killed mid-campaign")
            yield result


class TestKillResumeByteIdentity:
    """Satellite: kill at a random shard boundary, resume, compare."""

    @settings(max_examples=12, deadline=None)
    @given(master_seed=st.integers(min_value=0, max_value=2**32 - 1),
           survive=st.integers(min_value=0, max_value=3))
    def test_resumed_campaign_matches_uninterrupted(
            self, tmp_path_factory, master_seed, survive):
        store_path = tmp_path_factory.mktemp("resume") / "campaign.jsonl"

        direct = Campaign(uniform_trial, 8, master_seed=master_seed,
                          num_shards=4).run()

        with pytest.raises(KeyboardInterrupt):
            Campaign(uniform_trial, 8, master_seed=master_seed,
                     num_shards=4,
                     executor=_DyingExecutor(survive=survive),
                     store=store_path).run()

        resumed = Campaign(uniform_trial, 8,
                           master_seed=master_seed, num_shards=4,
                           store=store_path).run()
        assert len(resumed.resumed_shards) == survive
        assert [(r.index, r.seed, r.values) for r in resumed.results] \
            == [(r.index, r.seed, r.values) for r in direct.results]


class TestSupervisedPool:
    """The production process backend, end to end (kept tiny)."""

    def test_fault_free_supervised_matches_serial_exactly(self):
        serial = list(serial_trials(uniform_trial, 8, master_seed=5))
        pooled = Campaign(uniform_trial, 8, master_seed=5,
                          num_shards=4,
                          executor=SupervisedPool(jobs=2)).run()
        assert not pooled.is_partial
        assert [(r.seed, r.values) for r in pooled.results] \
            == [(r.seed, r.values) for r in serial]

    def test_injected_crash_is_retried_to_a_full_result(self):
        faults = WorkerFaultSchedule(
            faults={(0, 1): WorkerFault(kind="crash")})
        pool = SupervisedPool(
            jobs=2, faults=faults,
            policy=SupervisionPolicy(max_attempts=2,
                                     backoff_base_s=0.01))
        outcome = Campaign(uniform_trial, 6, master_seed=3,
                           num_shards=3, executor=pool).run()
        assert not outcome.is_partial
        reference = Campaign(uniform_trial, 6, master_seed=3,
                             num_shards=3).run()
        assert [r.values for r in outcome.results] \
            == [r.values for r in reference.results]
        assert pool.last_report is not None
        assert pool.last_report.retries == 1
        assert pool.last_report.quarantined == ()

    def test_poison_shard_quarantines_journals_and_resumes(
            self, tmp_path):
        store_path = tmp_path / "campaign.jsonl"
        faults = WorkerFaultSchedule(
            faults={(1, a): WorkerFault(kind="crash")
                    for a in (1, 2)})
        pool = SupervisedPool(
            jobs=2, faults=faults,
            policy=SupervisionPolicy(max_attempts=2,
                                     backoff_base_s=0.01,
                                     on_failure="quarantine"))
        partial = Campaign(uniform_trial, 6, master_seed=9,
                           num_shards=3, executor=pool,
                           store=store_path).run()
        assert isinstance(partial, PartialCampaignResult)
        assert partial.is_partial
        assert partial.quarantined_shards == (1,)
        assert partial.missing_trials == (2, 3)
        assert [r.index for r in partial.results] == [0, 1, 4, 5]

        store = ResultStore(store_path)
        attempts = store.load_attempts()
        assert [(f.shard_id, f.attempt, f.kind) for f in attempts] \
            == [(1, 1, "error"), (1, 2, "error")]
        assert "InjectedWorkerCrash" in attempts[0].detail
        assert store.load_quarantined() == (1,)

        # A fault-free re-run resumes the journal and completes.
        resumed = Campaign(uniform_trial, 6, master_seed=9,
                           num_shards=3, store=store_path).run()
        assert not resumed.is_partial
        assert resumed.resumed_shards == (0, 2)
        assert resumed.executed_shards == (1,)
        reference = Campaign(uniform_trial, 6, master_seed=9,
                             num_shards=3).run()
        assert [r.values for r in resumed.results] \
            == [r.values for r in reference.results]

    def test_pool_validates_jobs_and_reports_empty_runs(self):
        with pytest.raises(ValueError):
            SupervisedPool(jobs=0)
        pool = SupervisedPool(jobs=2)
        assert list(pool.run_shards(uniform_trial, [])) == []
        assert pool.last_report is not None
        assert pool.last_report.attempts == 0
