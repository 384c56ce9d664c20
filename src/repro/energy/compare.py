"""Node-class comparison campaign: Table 1, extended down-market.

The paper's Table 1 compares the mmX prototype against WiFi/BLE on
cost, power and rate.  This module runs the same comparison *within*
the mmX family — the always-on active node, the passive backscatter
tag and the harvesting duty-cycled node — and measures what the static
columns cannot: each class's BER through the actual sample-level
receive path, the realised duty cycle, and the fleet-relevant delivery
ratio once energy gating and illumination airtime are accounted for.

Packaged as a :mod:`repro.engine` campaign preset (the
:mod:`repro.admission.saturation` pattern): one hermetic trial per
(class, replicate), every random draw from the trial's own seeded
stream, so serial and supervised-parallel runs are byte-identical at a
fixed master seed — asserted by ``benchmarks/test_energy_nodes.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Any

import numpy as np

from ..core.link import facing_link
from ..engine import Campaign, CampaignResult, ResultStore, ShardExecutor
from ..hardware.power import PowerStateProfile
from ..phy.preamble import default_preamble_bits
from .backscatter import BackscatterLink
from .battery import EnergyStateMachine, EnergyStore
from .classes import (
    ACTIVE_CLASS,
    BACKSCATTER_CLASS,
    HARVESTING_CLASS,
    NodeClassSpec,
    node_class,
)
from .harvest import HarvestModel
from .scheduler import DutyCycleScheduler

__all__ = ["CompareConfig", "CompareResult", "compare_trial",
           "default_config", "run_compare", "render"]

DEFAULT_CLASSES = (ACTIVE_CLASS, BACKSCATTER_CLASS, HARVESTING_CLASS)

BURST_AIRTIME_FRACTION = 1e-3
"""Fraction of a transmit *step* the harvesting radio actually keys up.

The machine steps on the harvest timescale (seconds); a 100 Mbps radio
empties a sensor report in microseconds, so within one transmit step
the front end burns its 1.1 W for only this sliver and sleeps the
rest.  The per-state draws handed to the battery machine are
step-averaged accordingly."""


@dataclass(frozen=True)
class CompareConfig:
    """Everything one comparison campaign depends on (all hashable)."""

    classes: tuple[str, ...] = DEFAULT_CLASSES
    replicates: int = 4
    """Independent trials per node class."""

    num_bits: int = 400
    """Bits pushed through the sample-level receive path per trial."""

    active_distance_m: float = 4.0
    """Active/harvesting eval range (the paper's mid-room regime)."""

    backscatter_distance_m: float = 1.0
    """Tag eval range — bistatic loss confines tags to short reach."""

    illumination_duty: float = 0.2
    """Carrier-airtime fraction the AP grants an illuminated tag."""

    frame_bits: int = 2048
    harvest_distance_m: float = 1.0
    sim_steps: int = 400
    dt_s: float = 1.0
    offered_frames_per_step: int = 1
    frame_success_probability: float = 0.98
    capacity_j: float = 50e-3
    wake_threshold_j: float = 10e-3
    reserve_j: float = 1e-3
    max_retries: int = 3

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("need at least one node class")
        for name in self.classes:
            node_class(name)  # raises on unknown names, at config time
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.num_bits < 1 or self.frame_bits < 1:
            raise ValueError("bit counts must be positive")
        for name in ("active_distance_m", "backscatter_distance_m",
                     "harvest_distance_m"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.illumination_duty <= 1.0:
            raise ValueError("illumination duty must be in (0, 1]")
        if self.sim_steps < 1 or not 0 < self.dt_s < math.inf:  # NaN fails too
            raise ValueError("need a positive simulation horizon")
        if not 0.0 <= self.frame_success_probability <= 1.0:
            raise ValueError("frame success must be a probability")

    @property
    def num_trials(self) -> int:
        """Campaign size: one trial per (class, replicate) pair."""
        return len(self.classes) * self.replicates


def default_config(replicates: int = 4,
                   num_bits: int = 400) -> CompareConfig:
    """The stock comparison (CLI and benchmark entry point)."""
    return CompareConfig(replicates=replicates, num_bits=num_bits)


def burst_profile(spec: NodeClassSpec,
                  airtime_fraction: float = BURST_AIRTIME_FRACTION
                  ) -> PowerStateProfile:
    """Step-averaged draws for a bursty radio on the harvest timescale.

    Scaling every rail by the same airtime fraction (plus the sleep
    floor, which is paid regardless) preserves the profile's
    ``tx >= rx >= idle >= sleep`` ordering.
    """
    if not 0.0 < airtime_fraction <= 1.0:
        raise ValueError("airtime fraction must be in (0, 1]")
    p = spec.power
    return PowerStateProfile(
        tx_w=p.tx_w * airtime_fraction + p.sleep_w,
        rx_w=p.rx_w * airtime_fraction + p.sleep_w,
        idle_w=p.idle_w * airtime_fraction + p.sleep_w,
        sleep_w=p.sleep_w)


def _frame_delivery(ber: float, frame_bits: int) -> float:
    """Uncoded frame-survival probability at a measured BER."""
    return float((1.0 - ber) ** frame_bits)


def _harvesting_metrics(rng: np.random.Generator,
                        config: CompareConfig,
                        spec: NodeClassSpec) -> dict[str, float]:
    """Run the duty-cycle rig for one harvesting replicate."""
    model = HarvestModel()
    series = model.harvest_series(config.harvest_distance_m,
                                  config.sim_steps, rng)
    store = EnergyStore(capacity_j=config.capacity_j, initial_j=0.0)
    machine = EnergyStateMachine(
        store, burst_profile(spec),
        wake_threshold_j=config.wake_threshold_j,
        reserve_j=config.reserve_j,
        frame_energy_j=spec.energy_per_bit_j * config.frame_bits,
        frames_per_step=max(1, config.offered_frames_per_step * 4))
    scheduler = DutyCycleScheduler(
        machine,
        frame_success_probability=config.frame_success_probability,
        max_retries=config.max_retries)
    for i in range(config.sim_steps):
        scheduler.offer(config.offered_frames_per_step)
        scheduler.step(config.dt_s, float(series[i]), rng)
    stats = scheduler.stats()
    assert abs(store.conservation_error_j) < 1e-9
    return {
        "duty_cycle": stats.duty_cycle,
        "delivery_ratio": stats.delivery_ratio,
        "harvested_uw": float(series.mean()) * 1e6,
        "dormant_steps": float(stats.dormant_steps),
    }


def compare_trial(rng: np.random.Generator, index: int, *,
                  config: CompareConfig) -> dict[str, Any]:
    """One (class, replicate) cell of the comparison.

    The flat trial index maps class-major:
    ``classes[index // replicates]``.  Module-level (parameterised
    with :func:`functools.partial`) so it pickles into process-pool
    workers; the registry is read-only from here.
    """
    name = config.classes[index // config.replicates]
    spec = node_class(name)
    # Every real mmX burst leads with the preamble — without it the
    # demodulator's ASK polarity resolution is guessing against random
    # payload and can false-match an inverted pattern.
    bits = np.concatenate([
        default_preamble_bits(),
        rng.integers(0, 2, size=config.num_bits, dtype=np.uint8)])

    if spec.modulation == "backscatter-ask":
        tag = BackscatterLink(downlink_m=config.backscatter_distance_m,
                              spec=spec)
        report = tag.simulate_transmission(bits, rng)
        ber = report.ber
        duty = config.illumination_duty
        delivery = _frame_delivery(ber, config.frame_bits) * duty
        harvested_uw = 0.0
        dormant_steps = 0.0
    else:
        link = facing_link(config.active_distance_m)
        report = link.simulate_transmission(bits, rng=rng)
        ber = report.ber
        if spec.duty_model == "duty-cycled":
            energy = _harvesting_metrics(rng, config, spec)
            duty = energy["duty_cycle"]
            delivery = energy["delivery_ratio"]
            harvested_uw = energy["harvested_uw"]
            dormant_steps = energy["dormant_steps"]
        else:
            duty = 1.0
            delivery = _frame_delivery(ber, config.frame_bits)
            harvested_uw = 0.0
            dormant_steps = 0.0

    return {
        "cost_usd": spec.cost_usd,
        "active_power_w": spec.active_power_w,
        "energy_per_bit_j": spec.energy_per_bit_j,
        "bitrate_bps": spec.bitrate_bps,
        "range_m": spec.range_m,
        "measured_ber": float(ber),
        "duty_cycle": float(duty),
        "delivery_ratio": float(delivery),
        "harvested_uw": float(harvested_uw),
        "dormant_steps": float(dormant_steps),
    }


@dataclass(frozen=True)
class CompareResult:
    """Per-class aggregates over replicates (Table-1 extension)."""

    config: CompareConfig
    campaign: CampaignResult
    classes: tuple[str, ...]
    cost_usd: np.ndarray
    active_power_w: np.ndarray
    energy_per_bit_j: np.ndarray
    bitrate_bps: np.ndarray
    range_m: np.ndarray
    measured_ber: np.ndarray
    duty_cycle: np.ndarray
    delivery_ratio: np.ndarray
    harvested_uw: np.ndarray

    def rows(self) -> list[dict[str, float | str]]:
        """JSON-friendly per-class rows (CLI ``--json``, CI artifact)."""
        return [
            {"node_class": name,
             "cost_usd": float(self.cost_usd[i]),
             "active_power_w": float(self.active_power_w[i]),
             "energy_per_bit_j": float(self.energy_per_bit_j[i]),
             "bitrate_bps": float(self.bitrate_bps[i]),
             "range_m": float(self.range_m[i]),
             "measured_ber": float(self.measured_ber[i]),
             "duty_cycle": float(self.duty_cycle[i]),
             "delivery_ratio": float(self.delivery_ratio[i]),
             "harvested_uw": float(self.harvested_uw[i])}
            for i, name in enumerate(self.classes)]


def run_compare(config: CompareConfig | None = None,
                master_seed: int = 0,
                executor: ShardExecutor | None = None,
                num_shards: int | None = None,
                store: ResultStore | str | None = None
                ) -> CompareResult:
    """Run the node-class comparison campaign and aggregate the table.

    Serial by default; pass a :class:`~repro.engine.SupervisedPool`
    to fan out, and ``store=`` for crash-safe resume.  The aggregate
    depends only on ``master_seed`` and ``config``.
    """
    cfg = config if config is not None else default_config()
    trial_fn = partial(compare_trial, config=cfg)
    outcome = Campaign(trial_fn, cfg.num_trials,
                       master_seed=master_seed,
                       num_shards=num_shards, executor=executor,
                       store=store).run()
    n_classes = len(cfg.classes)

    def per_class(key: str) -> np.ndarray:
        samples = outcome.collect_planned(key).reshape(n_classes,
                                                       cfg.replicates)
        return np.asarray([row.mean() for row in samples])

    return CompareResult(
        config=cfg,
        campaign=outcome,
        classes=cfg.classes,
        cost_usd=per_class("cost_usd"),
        active_power_w=per_class("active_power_w"),
        energy_per_bit_j=per_class("energy_per_bit_j"),
        bitrate_bps=per_class("bitrate_bps"),
        range_m=per_class("range_m"),
        measured_ber=per_class("measured_ber"),
        duty_cycle=per_class("duty_cycle"),
        delivery_ratio=per_class("delivery_ratio"),
        harvested_uw=per_class("harvested_uw"),
    )


def _si(value: float, unit: str) -> str:
    """Short engineering formatting for the table cells.

    NaN (a class whose trials a partial campaign lost) prints as nan.
    """
    if math.isnan(value):
        return f"nan {unit}"
    for scale, prefix in ((1.0, ""), (1e-3, "m"), (1e-6, "µ"),
                          (1e-9, "n"), (1e-12, "p")):
        if abs(value) >= scale:
            return f"{value / scale:.3g} {prefix}{unit}"
    return f"0 {unit}"


def render(result: CompareResult) -> str:
    """The node-class comparison as a Table-1-style text table."""
    from ..experiments.report import format_table

    rows = []
    for i, name in enumerate(result.classes):
        spec = node_class(name)
        rows.append([
            name,
            f"${result.cost_usd[i]:.0f}",
            _si(float(result.active_power_w[i]), "W"),
            _si(float(result.energy_per_bit_j[i]), "J/b"),
            f"{result.bitrate_bps[i] / 1e6:.3g} Mbps",
            f"{result.range_m[i]:.0f} m",
            spec.duty_model,
            f"{result.duty_cycle[i]:.3f}",
            f"{result.delivery_ratio[i]:.3f}",
            f"{result.measured_ber[i]:.2e}",
        ])
    return format_table(
        ["class", "cost", "power", "energy/bit", "bitrate", "range",
         "duty model", "duty cycle", "delivery", "BER"],
        rows,
        title="Node-class comparison — Table 1 extended down-market")
