"""AP-side illumination carrier scheduling for backscatter tags.

A passive tag is only audible while the AP *shines a carrier on it*,
so admitting a tag consumes a resource no FDM slot models: fractions
of the AP's illumination airtime.  The AP has one illumination chain;
every granted tag pre-books a duty fraction of it, and the sum of
grants can never exceed the configured capacity — an AP that granted
130 % of its airtime would simply be promising illumination it cannot
deliver.

:class:`CarrierScheduler` is that budget: a deliberately small,
deterministic ledger (no RNG, no wall clock) that
:class:`repro.node.MmxAccessPoint` and
:class:`repro.admission.AdmissionController` consult as an extra
admission rung.  Grants are **not** part of AP checkpoints: after a
failover the standby AP re-illuminates from its own (empty) budget as
tags re-register, exactly like demodulator state.
"""

from __future__ import annotations

from ..telemetry import NullRecorder, TelemetryRecorder

__all__ = ["CarrierScheduler"]


class CarrierScheduler:
    """Fractional illumination-airtime budget for one AP.

    Parameters
    ----------
    airtime_capacity:
        Total schedulable illumination duty, in ``(0, 1]``.  The
        default reserves nothing for the AP's other duties; real
        deployments cap below 1 so active-node receive windows always
        exist.
    telemetry:
        Optional ``energy.carrier.*`` sink.
    """

    def __init__(self, airtime_capacity: float = 1.0,
                 telemetry: TelemetryRecorder | None = None) -> None:
        if not 0.0 < airtime_capacity <= 1.0:
            raise ValueError("airtime capacity must be in (0, 1]")
        self.airtime_capacity = airtime_capacity
        self.telemetry = telemetry if telemetry is not None \
            else NullRecorder()
        self._grants: dict[int, float] = {}
        self._granted = 0.0

    def __len__(self) -> int:
        return len(self._grants)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._grants

    @property
    def granted_airtime(self) -> float:
        """Sum of all granted duty fractions."""
        return self._granted

    @property
    def free_airtime(self) -> float:
        """Illumination duty still schedulable (never negative)."""
        return max(0.0, self.airtime_capacity - self._granted)

    @property
    def utilization(self) -> float:
        """Granted / capacity, in [0, 1]."""
        return self._granted / self.airtime_capacity

    def reserve(self, node_id: int, duty_fraction: float) -> bool:
        """Try to book illumination airtime for one tag.

        Returns ``False`` (and books nothing) when the budget cannot
        take the grant — the admission ladder's "blocked" signal.
        A tolerance-free comparison keeps the ledger deterministic.
        """
        if node_id in self._grants:
            raise ValueError(f"node {node_id} already holds a carrier "
                             "grant")
        if not 0.0 < duty_fraction <= 1.0:
            raise ValueError("duty fraction must be in (0, 1]")
        if self._granted + duty_fraction > self.airtime_capacity:
            if self.telemetry.enabled:
                self.telemetry.count("energy.carrier.rejected")
            return False
        self._grants[node_id] = duty_fraction
        self._granted += duty_fraction
        if self.telemetry.enabled:
            self.telemetry.count("energy.carrier.granted")
            self.telemetry.gauge("energy.carrier.utilization",
                                 self.utilization)
        return True

    def release(self, node_id: int) -> None:
        """Return one tag's airtime to the budget."""
        duty = self._grants.pop(node_id, None)
        if duty is None:
            raise KeyError(f"node {node_id} holds no carrier grant")
        # Re-sum instead of subtracting: float subtraction drift could
        # otherwise leak airtime over long churn runs.
        self._granted = sum(self._grants.values())
        if self.telemetry.enabled:
            self.telemetry.count("energy.carrier.released")
            self.telemetry.gauge("energy.carrier.utilization",
                                 self.utilization)
