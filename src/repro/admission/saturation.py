"""Offered-load saturation study: blocking probability vs load.

The dense-deployment MAC literature (Shokri-Ghadikolaei et al.,
PAPERS.md) characterises an admission scheme by its *saturation curve*:
drive the band with Poisson arrivals at a controlled offered load and
measure the blocking probability, the rung mix (FDM vs SDM) and the
spectrum occupancy.  This module packages that experiment as a
:mod:`repro.engine` campaign preset:

* one **trial** simulates a full arrival/departure process at one
  offered-load point — every random draw (interarrival, holding time,
  rate class, bearing) comes from the trial's own seeded
  :mod:`repro.rng` stream, so a trial depends only on its seed;
* the **campaign** fans (load × replicate) trials across shards;
  because each trial is hermetic, serial and supervised-parallel runs
  are byte-identical at a fixed master seed (asserted in the tests);
* the aggregate is the blocking-probability-vs-load curve plus per-load
  churn and occupancy statistics, rendered as a table or JSON and
  uploaded as a CI artifact by ``benchmarks/test_admission_scaling.py``.

Offered load is normalised the Erlang way: ``load = 1.0`` means the
expected in-flight bandwidth demand (arrival rate × mean holding time ×
mean provisioned channel width) equals the whole managed band.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from ..engine import Campaign, CampaignResult, ResultStore, ShardExecutor
from ..network.fdm import FdmAllocator
from .controller import AdmissionController

__all__ = ["SaturationConfig", "SaturationResult", "default_config",
           "saturation_trial", "run_saturation", "render"]

DEFAULT_LOADS = (0.25, 0.5, 1.0, 1.5, 2.5, 4.0, 6.0)
"""Offered-load sweep: below band saturation, through the SDM
escalation regime (load > 1 spills onto spatial reuse), and beyond the
spatial capacity where blocking finally appears."""

DEFAULT_RATE_CLASSES = ((5e5, 0.6), (2e6, 0.3), (8e6, 0.1))
"""(rate_bps, weight) mix — mostly sensors, some cameras (§2)."""


@dataclass(frozen=True)
class SaturationConfig:
    """Everything one saturation campaign depends on (all hashable)."""

    loads: tuple[float, ...] = DEFAULT_LOADS
    replicates: int = 4
    """Independent trials per load point."""

    arrivals: int = 600
    """Poisson arrivals simulated per trial."""

    warmup_fraction: float = 0.25
    """Leading fraction of arrivals excluded from the statistics (the
    empty-band transient would otherwise understate blocking)."""

    mean_hold_s: float = 60.0
    """Mean exponential session holding time."""

    rate_classes: tuple[tuple[float, float], ...] = DEFAULT_RATE_CLASSES
    band_low_hz: float | None = None
    band_high_hz: float | None = None
    """Managed band edges; ``None`` keeps the 24 GHz ISM defaults."""

    bandwidth_per_bps: float = 2.0
    guard_fraction: float = 0.25
    min_channel_hz: float = 1e6
    sdm_channels: int = 8
    sdm_max_probes: int = 16

    def __post_init__(self) -> None:
        if not self.loads or any(not (lo > 0 and math.isfinite(lo))
                                 for lo in self.loads):
            raise ValueError("loads must be finite and positive")
        if self.replicates < 1 or self.arrivals < 1:
            raise ValueError("need at least one replicate and arrival")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup fraction must be in [0, 1)")
        if self.mean_hold_s <= 0:
            raise ValueError("holding time must be positive")
        if not self.rate_classes or any(
                r <= 0 or w <= 0 for r, w in self.rate_classes):
            raise ValueError("rate classes need positive rates/weights")

    @property
    def num_trials(self) -> int:
        """Campaign size: one trial per (load, replicate) pair."""
        return len(self.loads) * self.replicates

    def build_controller(self) -> AdmissionController:
        """A fresh controller per trial — trials must be hermetic for
        the serial/parallel determinism contract."""
        kwargs: dict[str, Any] = {}
        if self.band_low_hz is not None:
            kwargs["band_low_hz"] = self.band_low_hz
        if self.band_high_hz is not None:
            kwargs["band_high_hz"] = self.band_high_hz
        allocator = FdmAllocator(bandwidth_per_bps=self.bandwidth_per_bps,
                                 guard_fraction=self.guard_fraction,
                                 min_channel_hz=self.min_channel_hz,
                                 **kwargs)
        return AdmissionController(allocator=allocator,
                                   sdm_channels=self.sdm_channels,
                                   sdm_max_probes=self.sdm_max_probes)

    def mean_width_hz(self) -> float:
        """Weight-averaged provisioned channel width (guards excluded)."""
        total_w = sum(w for _, w in self.rate_classes)
        return sum(max(self.min_channel_hz, r * self.bandwidth_per_bps) * w
                   for r, w in self.rate_classes) / total_w


def default_config(loads: tuple[float, ...] = DEFAULT_LOADS,
                   replicates: int = 4,
                   arrivals: int = 600) -> SaturationConfig:
    """The stock sweep (CLI and benchmark entry point)."""
    return SaturationConfig(loads=tuple(float(lo) for lo in loads),
                            replicates=replicates, arrivals=arrivals)


def saturation_trial(rng: np.random.Generator, index: int, *,
                     config: SaturationConfig) -> dict[str, Any]:
    """One offered-load point: Poisson arrivals vs the admission ladder.

    The flat trial index maps load-major:
    ``loads[index // replicates]``.  Module-level (parameterised with
    :func:`functools.partial`) so it pickles into process-pool workers.
    """
    load = float(config.loads[index // config.replicates])
    controller = config.build_controller()
    band_hz = controller.allocator.total_bandwidth_hz
    # Erlang normalisation: at load L the expected in-flight demand is
    # L x band, so lambda = L x band / (E[hold] x E[width]).
    arrival_rate = load * band_hz / (config.mean_hold_s
                                     * config.mean_width_hz())
    rates = np.asarray([r for r, _ in config.rate_classes])
    weights = np.asarray([w for _, w in config.rate_classes])
    cum_weights = np.cumsum(weights / weights.sum())

    departures: list[tuple[float, int]] = []
    warmup = int(config.arrivals * config.warmup_fraction)
    now = 0.0
    offered = blocked = fdm = sdm = churn = 0
    occupancy_sum = fragmentation_sum = 0.0
    for arrival_index in range(config.arrivals):
        now += float(rng.exponential(1.0 / arrival_rate))
        while departures and departures[0][0] <= now:
            _, node_id = heapq.heappop(departures)
            controller.release(node_id)
            churn += 1
        rate = float(rates[int(np.searchsorted(cum_weights,
                                               rng.random()))])
        bearing = float(rng.uniform(-math.pi, math.pi))
        decision = controller.admit(arrival_index, rate,
                                    bearing_rad=bearing)
        churn += 1
        if decision.admitted:
            hold = float(rng.exponential(config.mean_hold_s))
            heapq.heappush(departures, (now + hold, arrival_index))
        if arrival_index >= warmup:
            offered += 1
            if not decision.admitted:
                blocked += 1
            elif decision.state == "fdm":
                fdm += 1
            else:
                sdm += 1
            occupancy_sum += controller.occupancy
            fragmentation_sum += controller.fragmentation
    measured = max(1, offered)
    return {
        "offered_load": load,
        "blocking_probability": blocked / measured,
        "fdm_share": fdm / measured,
        "sdm_share": sdm / measured,
        "mean_occupancy": occupancy_sum / measured,
        "mean_fragmentation": fragmentation_sum / measured,
        "churn_ops": float(churn),
    }


@dataclass(frozen=True)
class SaturationResult:
    """The saturation curve: per-load aggregates over replicates."""

    config: SaturationConfig
    campaign: CampaignResult
    loads: tuple[float, ...]
    blocking_probability: np.ndarray
    fdm_share: np.ndarray
    sdm_share: np.ndarray
    mean_occupancy: np.ndarray
    mean_fragmentation: np.ndarray
    churn_ops: float
    """Total admit/release operations across every trial."""

    def curve(self) -> list[dict[str, float]]:
        """JSON-friendly per-load rows (CLI ``--json``, CI artifact)."""
        return [
            {"offered_load": float(lo),
             "blocking_probability": float(self.blocking_probability[i]),
             "fdm_share": float(self.fdm_share[i]),
             "sdm_share": float(self.sdm_share[i]),
             "mean_occupancy": float(self.mean_occupancy[i]),
             "mean_fragmentation": float(self.mean_fragmentation[i])}
            for i, lo in enumerate(self.loads)]


def run_saturation(config: SaturationConfig | None = None,
                   master_seed: int = 0,
                   executor: ShardExecutor | None = None,
                   num_shards: int | None = None,
                   store: ResultStore | str | None = None
                   ) -> SaturationResult:
    """Run the saturation campaign and aggregate the curve.

    Serial by default; pass a :class:`~repro.engine.SupervisedPool` to
    fan out, and ``store=`` for crash-safe resume.
    The aggregate depends only on ``master_seed`` and ``config``.
    """
    cfg = config if config is not None else default_config()
    trial_fn = partial(saturation_trial, config=cfg)
    outcome = Campaign(trial_fn, cfg.num_trials,
                       master_seed=master_seed,
                       num_shards=num_shards, executor=executor,
                       store=store).run()
    n_loads = len(cfg.loads)

    def per_load(key: str) -> np.ndarray:
        samples = outcome.collect_planned(key).reshape(n_loads,
                                                       cfg.replicates)
        return np.asarray([row.mean() for row in samples])

    return SaturationResult(
        config=cfg,
        campaign=outcome,
        loads=cfg.loads,
        blocking_probability=per_load("blocking_probability"),
        fdm_share=per_load("fdm_share"),
        sdm_share=per_load("sdm_share"),
        mean_occupancy=per_load("mean_occupancy"),
        mean_fragmentation=per_load("mean_fragmentation"),
        churn_ops=float(outcome.collect("churn_ops").sum()),
    )


def render(result: SaturationResult) -> str:
    """The saturation curve as a text table."""
    from ..experiments.report import format_table

    rows = [[f"{lo:.2f}",
             f"{result.blocking_probability[i]:.3f}",
             f"{result.fdm_share[i]:.3f}",
             f"{result.sdm_share[i]:.3f}",
             f"{result.mean_occupancy[i]:.3f}",
             f"{result.mean_fragmentation[i]:.3f}"]
            for i, lo in enumerate(result.loads)]
    return format_table(
        ["offered load", "P(block)", "FDM share", "SDM share",
         "occupancy", "fragmentation"],
        rows, title="Admission saturation — blocking vs offered load")
