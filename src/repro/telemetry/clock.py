"""The telemetry clock is *simulation* time, never wall time.

Every timestamp telemetry ever records — metric events, span edges —
comes from a :class:`SimClock` that only moves when a simulation driver
advances it.  That is the property the whole subsystem hangs on:

* exports are byte-identical across runs of the same seed (reprolint's
  DET001 stays clean — there is no ``time.time()`` anywhere to leak
  host jitter into a trace);
* a recorder shared across trials accumulates a single monotone
  timeline, so per-trial spans stack into a flamegraph-style profile of
  *simulated* seconds.

The stepping simulations own the clock:
:class:`repro.resilience.ChaosSimulation` and
:class:`repro.cluster.FailoverSimulation` each advance the recorder's
clock by their own time step as they run.  Leaf components (supervisors,
the cluster) never touch it — they just record against whatever instant
the simulation has established.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """A monotone simulated-seconds counter advanced by sim drivers.

    The clock never consults the host: it starts at ``start_s`` and
    moves only through :meth:`advance`.  Reading it is a plain
    attribute access, cheap enough for hot loops.
    """

    __slots__ = ("now_s",)

    def __init__(self, start_s: float = 0.0) -> None:
        if start_s < 0.0:
            raise ValueError("clock cannot start before t=0")
        self.now_s: float = float(start_s)

    def advance(self, dt_s: float) -> float:
        """Move forward by ``dt_s`` simulated seconds; returns the new now."""
        if dt_s < 0.0:
            raise ValueError("simulated time cannot run backwards")
        self.now_s += float(dt_s)
        return self.now_s
