"""Deterministic worker-fault harness for the campaign supervisor.

:mod:`repro.faults` chaos-tests the simulated radio link with seeded
fault processes; this module does the same to the campaign *executor*.
A :class:`WorkerFaultSchedule` is a frozen, picklable map from
``(shard_id, attempt)`` to one :class:`WorkerFault`, which pins exactly
which attempt misbehaves.  The supervisor ships the schedule to every
worker; the worker consults it *before* running its shard and
misbehaves on cue:

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

import math
import time
from dataclasses import dataclass, field
from typing import Literal

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
        if not 0.0 <= self.delay_s < math.inf:
            raise ValueError("delay_s must be finite and non-negative")


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
