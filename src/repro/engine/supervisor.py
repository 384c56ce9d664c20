"""Supervised shard execution: deadlines, retries, quarantine, degrade.

:class:`SupervisedPool` is the engine's multi-process executor, and it
never assumes workers behave: they may crash, hang, or return garbage.
This module is the supervision layer that handles each of those while
preserving the engine's determinism contract:

* every attempt runs under a **deadline** — the tighter of the policy's
  absolute ``shard_timeout_s`` and an adaptive bound derived from
  completed-shard runtime percentiles
  (:meth:`~repro.engine.policy.SupervisionPolicy.deadline_s`);
* a failed attempt (worker raised, deadline expired, or the payload
  failed validation) is **retried** after a deterministic exponential
  backoff, up to ``max_attempts``;
* results are **validated on the way in** — shard id, trial count, and
  the seed fingerprint must match the plan, so a corrupt worker payload
  is rejected and retried instead of merged;
* a shard that exhausts its attempts is **quarantined**: under
  ``on_failure="quarantine"`` the campaign completes as an explicit
  :class:`~repro.engine.campaign.PartialCampaignResult`; under
  ``"degrade"`` quarantined shards get one last in-process serial
  attempt; under ``"fail"`` the campaign dies with a diagnosable
  :class:`~repro.engine.campaign.EngineError`.

Determinism: supervision never touches seeds or merge order.  A retry
re-runs the *same* :class:`~repro.engine.plan.ShardSpec` — same seeds,
same trial indices — and the campaign merge still sorts by shard id, so
a supervised campaign in which no fault fires is byte-identical to the
:class:`~repro.engine.pool.SerialExecutor` reference.

The wall clock appears in exactly one place (the process backend's
``now_s``/``sleep``): deadlines and backoff are *executor* concerns,
measured in real seconds, and never leak into results or sim-time
telemetry.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import time
from collections import deque
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Protocol

from ..telemetry import NullRecorder, TelemetryRecorder
from .campaign import EngineError
from .faults import WorkerFaultSchedule
from .plan import ShardSpec
from .policy import (
    FailureKind,
    ShardFailure,
    SupervisionPolicy,
    SupervisionReport,
    _ReportBuilder,
)
from .pool import default_job_count
from .shard import ShardResult, TrialFn, run_shard

__all__ = [
    "ShardSupervisor",
    "ShardValidationError",
    "SupervisedPool",
    "SupervisionReport",
    "WorkBackend",
    "seed_fingerprint",
    "validate_shard_result",
]


class ShardValidationError(EngineError):
    """A worker payload does not match the shard the plan describes."""


def seed_fingerprint(pairs: Sequence[tuple[int, int]]) -> str:
    """SHA-256 over canonical ``(index, seed)`` pairs.

    The same hash-the-canonical-JSON pattern the
    :class:`~repro.engine.store.ResultStore` uses; comparing fingerprints
    (rather than echoing every seed) keeps validation errors and journal
    records compact at million-trial scale.
    """
    blob = json.dumps([[index, seed] for index, seed in pairs],
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def validate_shard_result(result: ShardResult, shard: ShardSpec) -> None:
    """Reject a worker payload that does not match its shard spec.

    Checks, in order: shard id, trial count, the seed fingerprint over
    ``(index, seed)`` pairs, and that every trial's values landed as a
    dict.  Raises :class:`ShardValidationError` on the first mismatch —
    the supervisor treats that as a failed (``"invalid"``) attempt, so
    a corrupt payload is retried, never merged.
    """
    if result.shard_id != shard.shard_id:
        raise ShardValidationError(
            f"worker returned shard {result.shard_id} for shard "
            f"{shard.shard_id}")
    if len(result.trials) != len(shard.trials):
        raise ShardValidationError(
            f"shard {shard.shard_id} returned {len(result.trials)} "
            f"trials, planned {len(shard.trials)}")
    expected = seed_fingerprint([(t.index, t.seed) for t in shard.trials])
    actual = seed_fingerprint([(index, seed)
                               for index, seed, _ in result.trials])
    if actual != expected:
        raise ShardValidationError(
            f"shard {shard.shard_id} seed fingerprint mismatch: "
            f"planned {expected[:12]}…, got {actual[:12]}… (a worker "
            "perturbed trial indices or seeds)")
    for index, _, values in result.trials:
        if not isinstance(values, dict):
            raise ShardValidationError(
                f"shard {shard.shard_id} trial {index} values are "
                f"{type(values).__name__}, not dict")


@dataclass(frozen=True)
class AttemptCompletion:
    """One finished attempt as a backend reports it back."""

    token: object
    result: ShardResult | None = None
    error: BaseException | None = None


class WorkBackend(Protocol):
    """Where supervised attempts actually run.

    The supervisor is a pure scheduling loop over this seam: the
    production implementation is a process pool on the wall clock; tests
    drive the same loop with a scripted backend on a virtual clock.
    """

    @property
    def slots(self) -> int:
        """How many attempts may run concurrently."""
        ...

    def now_s(self) -> float:
        """The backend's monotonic clock (virtual in tests)."""
        ...

    def submit(self, shard: ShardSpec, attempt: int) -> object:
        """Start one attempt; return an opaque completion token."""
        ...

    def wait(self, timeout_s: float | None) -> list[AttemptCompletion]:
        """Block up to ``timeout_s`` for completions (``None`` = forever)."""
        ...

    def sleep(self, duration_s: float) -> None:
        """Idle with nothing running (e.g. all retries backing off)."""
        ...

    def abandon(self, token: object) -> None:
        """Stop caring about an attempt that outlived its deadline."""
        ...

    def run_inline(self, shard: ShardSpec) -> ShardResult:
        """The degrade fallback: run ``shard`` in-process, unfaulted."""
        ...

    def close(self) -> None:
        """Release backend resources; called exactly once per run."""
        ...


class _ProcessBackend:
    """The production backend: a process pool on the wall clock.

    A timed-out attempt cannot be preempted mid-task (a
    ``ProcessPoolExecutor`` future stops being cancellable once it
    starts), so ``abandon`` cancels when possible and otherwise just
    stops listening: the stuck task keeps its worker busy until it
    returns, and its eventual (late) result is dropped.  The supervisor
    keeps submitting regardless — the pool queues excess attempts — so
    a hung worker costs throughput, never correctness.
    """

    def __init__(self, jobs: int, trial_fn: TrialFn, of_total: int,
                 record_telemetry: bool,
                 faults: WorkerFaultSchedule | None) -> None:
        self.jobs = jobs
        self.trial_fn = trial_fn
        self.of_total = of_total
        self.record_telemetry = record_telemetry
        self.faults = faults
        self._executor = ProcessPoolExecutor(max_workers=jobs)
        self._live: set[Future[ShardResult]] = set()

    @property
    def slots(self) -> int:
        return self.jobs

    def now_s(self) -> float:
        # The one sanctioned wall-clock read in the engine: deadlines
        # supervise real worker processes, not simulated time.
        return time.monotonic()  # reprolint: disable=DET001

    def submit(self, shard: ShardSpec, attempt: int) -> object:
        future = self._executor.submit(
            _execute_attempt, self.trial_fn, shard, self.of_total,
            self.record_telemetry, attempt, self.faults)
        self._live.add(future)
        return future

    def wait(self, timeout_s: float | None) -> list[AttemptCompletion]:
        done, _ = futures_wait(self._live, timeout=timeout_s,
                               return_when=FIRST_COMPLETED)
        completions: list[AttemptCompletion] = []
        for future in done:
            self._live.discard(future)
            # A worker failure arrives as the future's exception; keep
            # it as data for the retry ledger instead of letting it
            # propagate (narrowing here would silently re-kill the
            # campaign on any fault kind we did not anticipate).
            try:
                completions.append(AttemptCompletion(
                    token=future, result=future.result()))
            except Exception as exc:  # reprolint: disable=EXC001
                completions.append(AttemptCompletion(
                    token=future, error=exc))
        return completions

    def sleep(self, duration_s: float) -> None:
        time.sleep(duration_s)

    def abandon(self, token: object) -> None:
        if isinstance(token, Future):
            token.cancel()
            self._live.discard(token)

    def run_inline(self, shard: ShardSpec) -> ShardResult:
        return run_shard(self.trial_fn, shard, self.of_total,
                         record_telemetry=self.record_telemetry)

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


def _execute_attempt(trial_fn: TrialFn, shard: ShardSpec, of_total: int,
                     record_telemetry: bool, attempt: int,
                     faults: WorkerFaultSchedule | None) -> ShardResult:
    """Worker-process entry point: apply scripted faults, run the shard.

    With ``faults=None`` (or a schedule that skips this attempt) this is
    exactly :func:`~repro.engine.shard.run_shard` — the fault-free
    supervised path computes the same bytes as the serial one.
    """
    if faults is not None:
        faults.apply_before(shard.shard_id, attempt)
    result = run_shard(trial_fn, shard, of_total,
                       record_telemetry=record_telemetry)
    if faults is not None:
        result = faults.apply_after(result, attempt)
    return result


@dataclass
class _Running:
    """Book-keeping for one in-flight attempt."""

    shard: ShardSpec
    attempt: int
    started_s: float
    deadline_s: float | None


class ShardSupervisor:
    """The supervision loop, backend-agnostic.

    Drives a :class:`WorkBackend` through a set of shards under a
    :class:`~repro.engine.policy.SupervisionPolicy`, yielding each
    validated :class:`~repro.engine.shard.ShardResult` as it lands.
    After the iterator is exhausted (or the run dies), :attr:`report`
    holds the :class:`~repro.engine.policy.SupervisionReport`.
    """

    def __init__(self, policy: SupervisionPolicy,
                 telemetry: TelemetryRecorder | None = None,
                 failure_sink: Callable[[ShardFailure], None] | None = None
                 ) -> None:
        self.policy = policy
        self.telemetry = (telemetry if telemetry is not None
                          else NullRecorder())
        self.failure_sink = failure_sink
        self.report: SupervisionReport | None = None

    def run(self, backend: WorkBackend, shards: Sequence[ShardSpec]
            ) -> Iterator[ShardResult]:
        """Supervise ``shards`` on ``backend``; yield validated results."""
        ledger = _ReportBuilder()
        self.report = None
        tel = self.telemetry
        span = tel.begin("engine.supervisor.run",
                         shards=len(shards)) if tel.enabled else None
        try:
            yield from self._supervise(backend, shards, ledger)
        finally:
            self.report = ledger.build()
            if span is not None:
                tel.end(span)
            backend.close()

    def _supervise(self, backend: WorkBackend,
                   shards: Sequence[ShardSpec],
                   ledger: _ReportBuilder) -> Iterator[ShardResult]:
        policy = self.policy
        tel = self.telemetry
        ready: deque[tuple[ShardSpec, int]] = deque(
            (shard, 1) for shard in shards)
        retry: list[tuple[float, int, ShardSpec, int]] = []
        retry_seq = 0
        running: dict[object, _Running] = {}
        runtimes: list[float] = []
        quarantined: dict[int, ShardSpec] = {}

        def fail_attempt(shard: ShardSpec, attempt: int,
                         kind: FailureKind, detail: str, now: float
                         ) -> None:
            nonlocal retry_seq
            failure = ShardFailure(shard_id=shard.shard_id,
                                   attempt=attempt, kind=kind,
                                   detail=detail)
            ledger.failures.append(failure)
            if self.failure_sink is not None:
                self.failure_sink(failure)
            if tel.enabled:
                tel.count("engine.supervisor.failures")
                if kind == "timeout":
                    tel.count("engine.shard.timeouts")
                tel.event("engine.supervisor.failure",
                          shard=shard.shard_id, attempt=attempt,
                          kind=kind)
            if attempt >= policy.max_attempts:
                if policy.on_failure == "fail":
                    raise EngineError(
                        f"shard {shard.shard_id} failed "
                        f"{policy.max_attempts} attempt(s); last "
                        f"failure: {kind} ({detail})")
                quarantined[shard.shard_id] = shard
                ledger.quarantined.append(shard.shard_id)
                tel.count("engine.shard.quarantined")
            else:
                ledger.retries += 1
                tel.count("engine.shard.retries")
                retry_seq += 1
                heapq.heappush(
                    retry, (now + policy.backoff_s(attempt),
                            retry_seq, shard, attempt + 1))

        while ready or retry or running:
            now = backend.now_s()
            while retry and retry[0][0] <= now:
                _, _, shard, attempt = heapq.heappop(retry)
                ready.append((shard, attempt))
            while ready and len(running) < backend.slots:
                shard, attempt = ready.popleft()
                timeout = policy.deadline_s(runtimes)
                token = backend.submit(shard, attempt)
                running[token] = _Running(
                    shard=shard, attempt=attempt, started_s=now,
                    deadline_s=None if timeout is None
                    else now + timeout)
                ledger.attempts += 1
                tel.count("engine.supervisor.attempts")
            wait_s = self._wait_budget(running, retry, backend, now)
            if running:
                completions = backend.wait(wait_s)
            else:
                # Nothing in flight: everything is backing off.  Idle
                # until the earliest retry is due.
                backend.sleep(wait_s if wait_s is not None else 0.0)
                completions = []
            now = backend.now_s()
            for completion in completions:
                state = running.pop(completion.token)
                if completion.error is not None:
                    fail_attempt(state.shard, state.attempt, "error",
                                 repr(completion.error), now)
                    continue
                assert completion.result is not None
                try:
                    validate_shard_result(completion.result, state.shard)
                except ShardValidationError as exc:
                    fail_attempt(state.shard, state.attempt, "invalid",
                                 str(exc), now)
                    continue
                runtimes.append(max(0.0, now - state.started_s))
                if tel.enabled:
                    # Wall-clock attempt runtime: the supervisor's own
                    # recorder is wall-time territory (it measures the
                    # executor, not the simulation) and is kept apart
                    # from sim-time campaign telemetry for exactly that
                    # reason.
                    tel.observe("engine.supervisor.attempt_runtime_s",
                                runtimes[-1], least=1e-3)
                yield completion.result
            expired = [token for token, state in running.items()
                       if state.deadline_s is not None
                       and now >= state.deadline_s]
            for token in expired:
                state = running.pop(token)
                backend.abandon(token)
                budget = (state.deadline_s or now) - state.started_s
                fail_attempt(
                    state.shard, state.attempt, "timeout",
                    f"attempt exceeded its {budget:.3f} s deadline", now)

        if quarantined and policy.on_failure == "degrade":
            yield from self._degrade(backend, quarantined, ledger)

    @staticmethod
    def _wait_budget(running: dict[object, _Running],
                     retry: list[tuple[float, int, ShardSpec, int]],
                     backend: WorkBackend, now: float) -> float | None:
        """How long the loop may block before it must act again.

        Bounded by the earliest running-attempt deadline and, when a
        slot is free for it, the earliest pending retry.  ``None``
        means block until a completion arrives.
        """
        bounds: list[float] = []
        deadlines = [state.deadline_s for state in running.values()
                     if state.deadline_s is not None]
        if deadlines:
            bounds.append(min(deadlines) - now)
        if retry and len(running) < backend.slots:
            bounds.append(retry[0][0] - now)
        if not bounds:
            return None
        return max(0.0, min(bounds))

    def _degrade(self, backend: WorkBackend,
                 quarantined: dict[int, ShardSpec],
                 ledger: _ReportBuilder) -> Iterator[ShardResult]:
        """Last resort: re-run quarantined shards in-process, serially.

        The fallback bypasses the worker-fault harness (it is not a
        worker) but not validation — a shard whose trial function is
        genuinely broken stays quarantined.
        """
        tel = self.telemetry
        for shard_id in sorted(quarantined):
            shard = quarantined[shard_id]
            # The fallback must outlive any trial-function failure: a
            # broken shard stays quarantined instead of killing the
            # campaign we just rescued.
            try:
                result = backend.run_inline(shard)
                validate_shard_result(result, shard)
            except Exception as exc:  # reprolint: disable=EXC001
                failure = ShardFailure(
                    shard_id=shard_id,
                    attempt=self.policy.max_attempts + 1,
                    kind="error", detail=f"degrade fallback: {exc!r}")
                ledger.failures.append(failure)
                if self.failure_sink is not None:
                    self.failure_sink(failure)
                continue
            ledger.degraded.append(shard_id)
            if tel.enabled:
                tel.count("engine.supervisor.degraded")
                tel.event("engine.supervisor.degraded", shard=shard_id)
            yield result


class SupervisedPool:
    """The multi-process :class:`~repro.engine.pool.ShardExecutor`.

    Same ``run_shards`` contract and determinism as
    :class:`~repro.engine.pool.SerialExecutor` (identical results when
    no fault fires), but shards run across ``jobs`` worker processes,
    and worker crashes, hangs and corrupt payloads are retried,
    quarantined, or degraded per ``policy`` instead of killing the
    campaign.  ``faults`` attaches a
    :class:`~repro.engine.faults.WorkerFaultSchedule` for chaos testing
    the supervisor itself.

    After each ``run_shards`` drive, :attr:`last_report` carries the
    run's :class:`~repro.engine.policy.SupervisionReport`;
    :class:`~repro.engine.Campaign` reads it to decide between a full
    and a :class:`~repro.engine.campaign.PartialCampaignResult`.
    """

    def __init__(self, jobs: int | None = None,
                 policy: SupervisionPolicy | None = None,
                 faults: WorkerFaultSchedule | None = None,
                 telemetry: TelemetryRecorder | None = None) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("a supervised pool needs at least one "
                             "worker")
        self.jobs = jobs if jobs is not None else default_job_count()
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.faults = faults
        self.telemetry = (telemetry if telemetry is not None
                          else NullRecorder())
        self.last_report: SupervisionReport | None = None
        self._failure_sink: Callable[[ShardFailure], None] | None = None

    def attach_failure_sink(
            self, sink: Callable[[ShardFailure], None] | None) -> None:
        """Route every :class:`~repro.engine.policy.ShardFailure` to
        ``sink`` as it happens — the hook
        :class:`~repro.engine.Campaign` uses to journal failed attempts
        into the :class:`~repro.engine.store.ResultStore`."""
        self._failure_sink = sink

    def run_shards(self, trial_fn: TrialFn,
                   shards: Sequence[ShardSpec], of_total: int,
                   record_telemetry: bool = False
                   ) -> Iterator[ShardResult]:
        """Supervised shard fan-out; yields results in completion order.

        A worker failure does not propagate (unless
        ``policy.on_failure`` is ``"fail"`` and a shard exhausts its
        attempts): failed attempts retry with backoff, and shards that
        never succeed are reported via :attr:`last_report` rather than
        raised.
        """
        self.last_report = None
        workers = min(self.jobs, len(shards)) if shards else 0
        if workers == 0:
            self.last_report = _ReportBuilder().build()
            return
        backend = _ProcessBackend(workers, trial_fn, of_total,
                                  record_telemetry, self.faults)
        supervisor = ShardSupervisor(self.policy,
                                     telemetry=self.telemetry,
                                     failure_sink=self._failure_sink)
        try:
            yield from supervisor.run(backend, shards)
        finally:
            self.last_report = supervisor.report
