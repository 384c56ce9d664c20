"""Energy accounting: power ledgers and energy-per-bit (Table 1, §9.1).

Two granularities live here:

* the paper's single **aggregate** figure (1.1 W while transmitting,
  :class:`EnergyModel`) — unchanged, and still
  what Table 1 reports for the active node class;
* a **per-state** ledger (:class:`PowerStateProfile`) splitting the
  draw across tx / rx / idle / sleep, which is what the
  :mod:`repro.energy` battery state machine integrates.  The active
  class's profile puts the full 1.1 W on the tx state, so the aggregate
  numbers are reproduced exactly when the node never sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from .chains import NodeHardware

__all__ = ["EnergyModel", "POWER_STATES", "PowerStateProfile",
           "active_node_profile"]

POWER_STATES = ("tx", "rx", "idle", "sleep")
"""The four operating states a node's power ledger distinguishes."""

CONTROLLER_SLEEP_POWER_W = 0.005
"""Deep-sleep draw of a Pi-class controller with the RTC alarm armed
[W] — the residual the battery state machine pays while dormant."""


@dataclass(frozen=True)
class PowerStateProfile:
    """Per-state power draw [W]: the ledger duty cycling integrates.

    States are ordered by hunger — transmitting can never cost less
    than receiving, receiving less than idling, idling less than
    sleeping — which the constructor enforces so a mis-keyed profile
    cannot silently make sleep the expensive state.
    """

    tx_w: float
    """Draw while the mmWave section radiates (the paper's 1.1 W)."""

    rx_w: float
    """Draw while listening on the side channel (mmWave gated off)."""

    idle_w: float
    """Draw while awake but neither transmitting nor receiving."""

    sleep_w: float
    """Deep-sleep draw (controller RTC only)."""

    def __post_init__(self) -> None:
        if self.sleep_w < 0:
            raise ValueError("sleep power cannot be negative")
        if not self.tx_w >= self.rx_w >= self.idle_w >= self.sleep_w:
            raise ValueError(
                "power states must satisfy tx >= rx >= idle >= sleep")

    def draw_w(self, state: str) -> float:
        """Power draw [W] for one named operating state."""
        if state == "tx":
            return self.tx_w
        if state == "rx":
            return self.rx_w
        if state == "idle":
            return self.idle_w
        if state == "sleep":
            return self.sleep_w
        raise ValueError(
            f"unknown power state {state!r}; choose from {POWER_STATES}")

    def energy_j(self, state: str, duration_s: float) -> float:
        """Energy [J] one state consumes over a duration."""
        if duration_s < 0:
            raise ValueError("duration cannot be negative")
        return self.draw_w(state) * duration_s


def active_node_profile(
        hardware: "NodeHardware | None" = None) -> PowerStateProfile:
    """The always-on active node's per-state ledger.

    Derived from the same :class:`~repro.hardware.chains.NodeHardware`
    ledger Table 1 uses: the full measured draw lands on the tx state
    (the prototype transmits whenever it is on), rx/idle keep only the
    controller running (mmWave section gated off — the assumption
    :class:`EnergyModel` already documents), and sleep is the
    controller's RTC-only deep-sleep residual.
    """
    from .chains import NodeHardware

    hw = hardware if hardware is not None else NodeHardware()
    controller_w = float(hw.controller_power_w or 0.0)
    sleep_w = min(CONTROLLER_SLEEP_POWER_W, controller_w)
    return PowerStateProfile(tx_w=hw.total_power_w,
                             rx_w=controller_w,
                             idle_w=controller_w,
                             sleep_w=sleep_w)


@dataclass
class EnergyModel:
    """Duty-cycled energy ledger for a transmitting node.

    IoT sensors rarely transmit continuously; this model splits time
    between active transmission (full node power) and idle (controller
    keeps running, mmWave section gated off) to estimate battery life —
    the kind of budget a camera integrator would actually run.
    """

    active_power_w: float
    idle_power_w: float
    bitrate_bps: float

    def __post_init__(self):
        if self.active_power_w < self.idle_power_w:
            raise ValueError("active power must be >= idle power")
        if self.idle_power_w < 0:
            raise ValueError("idle power cannot be negative")
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate must be positive")

    def duty_cycle_for_load(self, offered_load_bps: float) -> float:
        """Fraction of time spent transmitting to carry an offered load."""
        if offered_load_bps < 0:
            raise ValueError("offered load cannot be negative")
        if offered_load_bps > self.bitrate_bps:
            raise ValueError("offered load exceeds the link bitrate")
        return offered_load_bps / self.bitrate_bps

    def average_power_w(self, offered_load_bps: float) -> float:
        """Mean power [W] at a given offered load."""
        duty = self.duty_cycle_for_load(offered_load_bps)
        return duty * self.active_power_w + (1.0 - duty) * self.idle_power_w

    def battery_life_hours(self, battery_wh: float,
                           offered_load_bps: float) -> float:
        """Runtime [h] on a battery for a sustained offered load."""
        if battery_wh <= 0:
            raise ValueError("battery capacity must be positive")
        return battery_wh / self.average_power_w(offered_load_bps)
