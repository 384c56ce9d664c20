"""The energy store and the harvest → charge → wake → transmit → sleep
state machine that duty-cycles a harvesting-powered node.

Two invariants rule this module and are property-tested in
``tests/test_energy.py``:

* **energy is never negative** — a withdrawal can only take what the
  store holds; a node that runs dry mid-state goes *dormant* instead
  of going into debt;
* **conservation** — at every step,
  ``initial + harvested == level + consumed + spilled`` (spill is
  harvest arriving into a full store), within float tolerance.

The machine is deliberately dumb and deterministic: given the same
per-step harvest series and offered traffic it walks the same states.
All stochastic inputs (harvest shadowing, MAC delivery) are drawn
*outside* by the caller from seeded :mod:`repro.rng` streams, so a
trajectory depends only on its seed — the campaign determinism
contract.

Dormancy semantics matter downstream: a dormant node is **not dead**.
:mod:`repro.resilience` holds its recovery ladder instead of tearing
down the link, and :mod:`repro.cluster` classifies its silence as
``dormant`` rather than counting it toward AP failure suspicion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.power import PowerStateProfile
from ..telemetry import NullRecorder, TelemetryRecorder

__all__ = [
    "ENERGY_STATES",
    "EnergyStateMachine",
    "EnergyStep",
    "EnergyStore",
]

ENERGY_STATES = ("charge", "wake", "transmit", "sleep")
"""The duty cycle, in the order the machine walks it.

``charge``    below the wake threshold: everything gated off except
              the harvester; pays only the sleep draw.
``wake``      the controller boots (idle draw for one step) before the
              radio may key up.
``transmit``  the radio is up and draining the store at the tx draw.
``sleep``     awake-capable but no pending traffic; sleep draw.
"""


@dataclass
class EnergyStore:
    """A capacitor/battery: a bounded, never-negative energy ledger.

    Tracks lifetime totals so conservation can be *checked*, not
    assumed: ``initial + harvested = level + consumed + spilled``.
    """

    capacity_j: float
    initial_j: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_j <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= self.initial_j <= self.capacity_j:
            raise ValueError("initial charge must fit the capacity")
        self._level_j = float(self.initial_j)
        self._harvested_j = 0.0
        self._consumed_j = 0.0
        self._spilled_j = 0.0

    @property
    def level_j(self) -> float:
        """Stored energy [J]; always in ``[0, capacity_j]``."""
        return self._level_j

    @property
    def conservation_error_j(self) -> float:
        """``initial + harvested - level - consumed - spilled``.

        Zero (to float tolerance) by construction; exposed so tests
        assert it rather than trust it.
        """
        return (self.initial_j + self._harvested_j
                - self._level_j - self._consumed_j - self._spilled_j)

    def deposit(self, amount_j: float) -> float:
        """Harvest in; returns what was *stored* (excess spills)."""
        if amount_j < 0:
            raise ValueError("cannot deposit negative energy")
        stored = min(amount_j, self.capacity_j - self._level_j)
        self._level_j += stored
        self._harvested_j += amount_j
        self._spilled_j += amount_j - stored
        return stored

    def withdraw(self, amount_j: float) -> float:
        """Drain; returns what was actually drawn (never overdrafts)."""
        if amount_j < 0:
            raise ValueError("cannot withdraw negative energy")
        drawn = min(amount_j, self._level_j)
        self._level_j -= drawn
        self._consumed_j += drawn
        return drawn


@dataclass(frozen=True)
class EnergyStep:
    """What one :meth:`EnergyStateMachine.step` did."""

    state: str
    """The state the machine occupied *during* this step."""

    harvested_j: float
    consumed_j: float
    level_j: float
    frames_sent: int
    dormant: bool
    """True while the machine is energy-gated (charging): the node is
    silent but alive — the liveness code the cluster layer consumes."""


class EnergyStateMachine:
    """Walks harvest → charge → wake → transmit → sleep.

    Parameters
    ----------
    store:
        The energy ledger this machine charges and drains.
    profile:
        Per-state draw (:class:`~repro.hardware.power
        .PowerStateProfile`).
    wake_threshold_j:
        Stored energy required before the controller may boot out of
        ``charge`` — the classic harvesting hysteresis upper rail.
    reserve_j:
        Floor below which the machine drops back to ``charge``
        (hysteresis lower rail); must be below the wake threshold.
    frame_energy_j:
        Energy to push one frame (tx draw × frame airtime), *in
        addition to* the tx-state floor draw for the step.
    frames_per_step:
        MAC budget: at most this many frames leave per transmit step.
    telemetry:
        Optional ``energy.*`` recorder (defaults to the null sink).
    """

    def __init__(self, store: EnergyStore, profile: PowerStateProfile, *,
                 wake_threshold_j: float, reserve_j: float = 0.0,
                 frame_energy_j: float = 0.0, frames_per_step: int = 1,
                 telemetry: TelemetryRecorder | None = None) -> None:
        if not 0.0 <= reserve_j < wake_threshold_j:
            raise ValueError("need 0 <= reserve < wake threshold")
        if wake_threshold_j > store.capacity_j:
            raise ValueError("wake threshold cannot exceed capacity")
        if frame_energy_j < 0:
            raise ValueError("frame energy cannot be negative")
        if frames_per_step < 1:
            raise ValueError("need at least one frame per step")
        self.store = store
        self.profile = profile
        self.wake_threshold_j = wake_threshold_j
        self.reserve_j = reserve_j
        self.frame_energy_j = frame_energy_j
        self.frames_per_step = frames_per_step
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()
        self.state = "charge" if store.level_j < wake_threshold_j \
            else "sleep"
        self.steps = 0
        self.state_steps: dict[str, int] = {s: 0 for s in ENERGY_STATES}

    @property
    def dormant(self) -> bool:
        """Whether the node is energy-gated (charging) right now."""
        return self.state == "charge"

    def duty_cycle(self) -> float:
        """Fraction of elapsed steps spent in ``transmit``."""
        if self.steps == 0:
            return 0.0
        return self.state_steps["transmit"] / self.steps

    def step(self, dt_s: float, harvest_w: float,
             pending_frames: int = 0) -> EnergyStep:
        """Advance one timestep.

        Harvest is credited first (a rectenna charges regardless of
        state), then the current state's draw is paid, then the
        transition fires.  If the store cannot cover the state's floor
        draw the machine browns out to ``charge`` immediately — energy
        never goes negative.
        """
        if dt_s <= 0:
            raise ValueError("timestep must be positive")
        if harvest_w < 0:
            raise ValueError("harvest power cannot be negative")
        if pending_frames < 0:
            raise ValueError("pending frames cannot be negative")

        harvested = self.store.deposit(harvest_w * dt_s)
        state = self.state
        floor_j = self.profile.energy_j(
            "sleep" if state == "charge" else
            "idle" if state == "wake" else
            "tx" if state == "transmit" else "sleep", dt_s)

        frames_sent = 0
        want_j = floor_j
        if state == "transmit":
            budget = self.store.level_j - self.reserve_j - floor_j
            if budget > 0 and self.frame_energy_j > 0:
                frames_sent = min(pending_frames, self.frames_per_step,
                                  int(budget / self.frame_energy_j))
            elif budget > 0:
                frames_sent = min(pending_frames, self.frames_per_step)
            want_j += frames_sent * self.frame_energy_j
        consumed = self.store.withdraw(want_j)
        browned_out = consumed < want_j - 1e-15

        level = self.store.level_j
        if browned_out or level <= self.reserve_j:
            next_state = "charge"
        elif state == "charge":
            next_state = "wake" if level >= self.wake_threshold_j \
                else "charge"
        elif state == "wake":
            next_state = "transmit" if pending_frames > 0 else "sleep"
        elif state == "transmit":
            next_state = "transmit" if pending_frames - frames_sent > 0 \
                else "sleep"
        else:  # sleep
            next_state = "wake" if pending_frames > 0 else "sleep"

        self.steps += 1
        self.state_steps[state] += 1
        self.telemetry.count("energy.steps")
        self.telemetry.count(f"energy.state.{state}")
        self.telemetry.gauge("energy.level_j", level)
        if frames_sent:
            self.telemetry.count("energy.frames_sent", frames_sent)
        if next_state == "charge" and state != "charge":
            self.telemetry.count("energy.brownouts")
            self.telemetry.event("energy.dormant", state_from=state,
                                 level_j=level)
        self.state = next_state
        return EnergyStep(state=state, harvested_j=harvested,
                          consumed_j=consumed, level_j=level,
                          frames_sent=frames_sent,
                          dormant=next_state == "charge")
