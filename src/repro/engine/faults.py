"""Deterministic worker-fault harness for the campaign supervisor.

PR 1 chaos-tested the simulated radio link with seeded fault processes
(:mod:`repro.faults`); this module does the same to the campaign
*executor*.  A :class:`WorkerFaultSchedule` is a frozen, picklable map
from ``(shard_id, attempt)`` to one :class:`WorkerFault`, built either
explicitly (pin exactly which attempt misbehaves, for gates) or from a
seed and per-kind rates (for fuzzing).  The supervisor ships the
schedule to every worker; the worker consults it *before* running its
shard and misbehaves on cue:

``crash``    raise :class:`InjectedWorkerCrash` instead of returning
``hang``     sleep past any sane deadline, then return normally — the
             supervisor must have timed the attempt out by then
``slow``     sleep briefly, then return normally — exercises adaptive
             deadlines without tripping them
``corrupt``  compute the shard honestly, then hand back a tampered
             payload (wrong seed fingerprint) that validation must
             reject

Fault decisions are keyed on the *attempt*, never on wall time or a
worker-local RNG, so a faulty campaign replays identically: the same
attempts fail the same way, every run.  A fault-free schedule (or no
schedule) leaves the worker path byte-identical to the serial one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .shard import ShardResult

__all__ = [
    "WORKER_FAULT_KINDS",
    "InjectedWorkerCrash",
    "WorkerFault",
    "WorkerFaultKind",
    "WorkerFaultSchedule",
    "corrupt_shard_result",
]

WorkerFaultKind = Literal["crash", "hang", "slow", "corrupt"]
"""The executor-level failure modes the harness can inject."""

WORKER_FAULT_KINDS: tuple[WorkerFaultKind, ...] = (
    "crash", "hang", "slow", "corrupt")


class InjectedWorkerCrash(RuntimeError):
    """The crash the harness injects — a worker dying mid-shard."""


@dataclass(frozen=True)
class WorkerFault:
    """One injected misbehaviour: what happens, and for how long."""

    kind: WorkerFaultKind
    delay_s: float = 0.0
    """Wall-clock sleep for ``hang``/``slow`` faults (ignored for
    ``crash`` and ``corrupt``)."""

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ValueError(f"unknown worker fault kind {self.kind!r}; "
                             f"choose from {WORKER_FAULT_KINDS}")
        if self.delay_s < 0.0:
            raise ValueError("delay_s cannot be negative")


@dataclass(frozen=True)
class WorkerFaultSchedule:
    """A frozen ``(shard_id, attempt) -> WorkerFault`` schedule.

    Attempts are 1-based, matching
    :class:`~repro.engine.policy.ShardFailure`.  The schedule is plain
    data — picklable, so a :class:`~concurrent.futures.ProcessPoolExecutor`
    can ship it to workers — and immutable, so every attempt of every
    run consults the same script.
    """

    faults: dict[tuple[int, int], WorkerFault] = field(
        default_factory=dict)

    def fault_for(self, shard_id: int, attempt: int
                  ) -> WorkerFault | None:
        """The fault scripted for this attempt, if any."""
        return self.faults.get((shard_id, attempt))

    @property
    def num_faults(self) -> int:
        """How many attempts this schedule sabotages."""
        return len(self.faults)

    def worst_attempt(self, shard_id: int) -> int:
        """The highest attempt number scripted to fail for ``shard_id``
        (0 when the shard is never sabotaged) — handy for sizing
        ``max_attempts`` so a test campaign is guaranteed to recover."""
        return max((attempt for sid, attempt in self.faults
                    if sid == shard_id), default=0)

    @classmethod
    def build(cls, seed: int, num_shards: int, *,
              crash: float = 0.0, hang: float = 0.0,
              slow: float = 0.0, corrupt: float = 0.0,
              max_faulty_attempts: int = 2,
              hang_s: float = 30.0, slow_s: float = 0.05
              ) -> WorkerFaultSchedule:
        """A seeded random schedule: per-attempt fault probabilities.

        For each of the first ``max_faulty_attempts`` attempts of each
        shard, one draw from a generator seeded with ``seed`` picks at
        most one fault kind (probabilities ``crash``/``hang``/``slow``/
        ``corrupt``, which must sum to at most 1).  The same seed always
        yields the same schedule; later attempts are never sabotaged,
        so any shard survives ``max_faulty_attempts + 1`` attempts.
        """
        rates: dict[WorkerFaultKind, float] = {
            "crash": crash, "hang": hang, "slow": slow,
            "corrupt": corrupt}
        for kind, rate in rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1]")
        if sum(rates.values()) > 1.0:
            raise ValueError("fault rates sum to more than 1; at most "
                             "one fault fires per attempt")
        if max_faulty_attempts < 0:
            raise ValueError("max_faulty_attempts cannot be negative")
        delays: dict[WorkerFaultKind, float] = {
            "crash": 0.0, "hang": hang_s, "slow": slow_s,
            "corrupt": 0.0}
        rng = np.random.default_rng(seed)
        faults: dict[tuple[int, int], WorkerFault] = {}
        for shard_id in range(num_shards):
            for attempt in range(1, max_faulty_attempts + 1):
                draw = float(rng.uniform())
                edge = 0.0
                for kind, rate in rates.items():
                    edge += rate
                    if draw < edge:
                        faults[(shard_id, attempt)] = WorkerFault(
                            kind=kind, delay_s=delays[kind])
                        break
        return cls(faults=faults)

    def apply_before(self, shard_id: int, attempt: int) -> None:
        """Run the pre-execution half of any scripted fault.

        Called by the worker before the shard's trials run: a ``crash``
        raises here, ``hang``/``slow`` sleep here (wall-clock sleep is
        the point — the supervisor's deadline machinery is what's under
        test), ``corrupt`` waits for :meth:`apply_after`.
        """
        fault = self.fault_for(shard_id, attempt)
        if fault is None:
            return
        if fault.kind in ("hang", "slow"):
            time.sleep(fault.delay_s)
        if fault.kind == "crash":
            raise InjectedWorkerCrash(
                f"injected crash: shard {shard_id} attempt {attempt}")

    def apply_after(self, result: ShardResult, attempt: int
                    ) -> ShardResult:
        """Run the post-execution half: corrupt the payload on cue."""
        fault = self.fault_for(result.shard_id, attempt)
        if fault is not None and fault.kind == "corrupt":
            return corrupt_shard_result(result)
        return result


def corrupt_shard_result(result: ShardResult) -> ShardResult:
    """A deterministically-tampered copy of ``result``.

    Every trial's seed is perturbed by one (and the first trial's index
    is offset past the campaign), so the payload fails the supervisor's
    seed-fingerprint validation no matter which single check it runs
    first.  The original is untouched.
    """
    tampered = tuple(
        (index + (1_000_000_007 if position == 0 else 0), seed + 1,
         dict(values))
        for position, (index, seed, values) in enumerate(result.trials))
    return ShardResult(shard_id=result.shard_id, trials=tampered)
