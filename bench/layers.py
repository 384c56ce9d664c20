"""The layer map: which public ``repro`` callables each layer is timed at.

Layers are named after modules.  Each layer yields three per-layer
metrics (``<layer>.calls``, ``<layer>.self_s``, ``<layer>.self_share``);
:data:`RATIOS` and the fixed names in :func:`per_layer_metric_names`
add the rest.  ``bench/README.md`` says which end-to-end metric and
workload each layer should move.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from tracer import Target, TraceSummary

__all__ = ["LAYERS", "RATIOS", "layer_targets", "layer_metrics",
           "per_layer_metric_names"]


def _paths(paths: Any) -> float:
    return float(len(paths))


def _admitted(decision: Any) -> float:
    return float(decision.admitted)


def _fitted(assignment: Any) -> float:
    return float(assignment is not None)


LAYERS: dict[str, tuple[str, ...]] = {
    "channel.raytrace": ("repro.channel.raytrace:trace_paths",),
    "channel.multipath": ("repro.channel.multipath:two_beam_gains",
                          "repro.channel.multipath:beam_channel_gain"),
    "antenna": ("repro.antenna.orthogonal:ParametricBeam.power_db",
                "repro.antenna.orthogonal:ParametricBeam.field",
                "repro.antenna.orthogonal:OrthogonalBeamPair.field",
                "repro.antenna.orthogonal:OrthogonalBeamPair.__post_init__",
                "repro.antenna.orthogonal:measured_mmx_beams",
                "repro.antenna.element:DipoleElement.field"),
    "sim.geometry": ("repro.sim.geometry:segment_intersection",
                     "repro.sim.geometry:reflect_point_across_line"),
    "sim.placement": ("repro.sim.placement:PlacementSampler.sample",
                      "repro.sim.placement:PlacementSampler.sample_many"),
    "channel.pathloss": ("repro.channel.pathloss:free_space_path_loss_db",
                         "repro.channel.pathloss:oxygen_absorption_db",
                         "repro.channel.pathloss:friis_received_power_dbm"),
    "units": tuple(f"repro.units:{name}" for name in (
        "db_to_linear", "linear_to_db", "dbm_to_watts", "watts_to_dbm",
        "dbm_to_milliwatts", "milliwatts_to_dbm", "dbm_to_db_ratio",
        "amplitude_to_db", "db_to_amplitude", "wavelength")),
    "core.link": ("repro.core.link:OtamLink.__post_init__",
                  "repro.core.link:OtamLink.snr_breakdown",
                  "repro.core.link:OtamLink.simulate_transmission",
                  "repro.core.link:perturb_breakdown",
                  "repro.core.link:bistatic_breakdown"),
    "core.throughput": ("repro.core.throughput:frame_success_probability",),
    "phy.ber": ("repro.phy.ber:ber_ask_table",
                "repro.phy.ber:ber_fsk_noncoherent"),
    "faults": ("repro.faults.injector:FaultSchedule.disturbance_at",),
    "resilience": ("repro.resilience.supervisor:LinkSupervisor.step",
                   "repro.resilience.health:LinkHealthMonitor.observe"),
    # occupancy/fragmentation are read after every arrival of the
    # saturation loop, so they belong to the controller's hot path.
    "admission.controller": (
        "repro.admission.controller:AdmissionController.admit",
        "repro.admission.controller:AdmissionController.release",
        "repro.admission.controller:AdmissionController.mark_interference",
        "repro.admission.controller:AdmissionController.occupancy",
        "repro.admission.controller:AdmissionController.fragmentation"),
    "admission.book": ("repro.admission.book:SpectrumBook.place",
                       "repro.admission.book:SpectrumBook.commit",
                       "repro.admission.book:SpectrumBook.release"),
    "admission.sdm": ("repro.admission.sdm:SdmPacker.admit",
                      "repro.admission.sdm:SdmPacker.release"),
    "network.fdm": ("repro.network.fdm:FdmAllocator.allocate",
                    "repro.network.fdm:FdmAllocator.release"),
    "phy.waveform": ("repro.phy.waveform:two_level_waveform",
                     "repro.core.otam:OtamModulator.received_waveform"),
    "channel.noise": ("repro.channel.noise:complex_awgn",),
    "core.demodulator": ("repro.core.demodulator:JointDemodulator.demodulate",),
    "energy": ("repro.energy.harvest:HarvestModel.harvest_series",
               "repro.energy.scheduler:DutyCycleScheduler.step",
               "repro.energy.backscatter:BackscatterLink.simulate_transmission"),
    "network": ("repro.network.network:MultiNodeNetwork.evaluate",
                "repro.network.sdm_scheduler:AngularSdmScheduler.assign"),
    "engine": ("repro.engine.campaign:Campaign.run",
               "repro.engine.shard:run_shard",
               "repro.engine.supervisor:SupervisedPool.run_shards"),
    "engine.store": ("repro.engine.store:ResultStore.record_shard",
                     "repro.engine.store:ResultStore.load_or_create"),
    "durability.io": ("repro.durability.io:append_line",
                      "repro.durability.io:atomic_replace"),
}
"""Layer name -> the targets timed for it, in report order."""

RATIOS: dict[str, tuple[str, Callable[[Any], float], str]] = {
    "channel.raytrace.paths_per_call": (
        "repro.channel.raytrace:trace_paths", _paths, "paths/call"),
    "admission.controller.admit_ratio": (
        "repro.admission.controller:AdmissionController.admit", _admitted,
        "ratio"),
    "admission.sdm.fit_ratio": (
        "repro.admission.sdm:SdmPacker.admit", _fitted, "ratio"),
}
"""Ratio metric -> (target, what one call's return value counts, unit).
The metric is the counted total over the target's calls."""

WAIT_TARGET = "repro.engine.supervisor:SupervisedPool.run_shards"
"""Its ``next()`` spans are the campaign's wait on pool workers."""


def layer_targets(boundaries: tuple[str, ...] = ()) -> list[Target]:
    """Every layer target, plus the workload's trial-function boundaries."""
    counts = {path: count for path, count, _ in RATIOS.values()}
    targets = [Target(path, layer, counts.get(path))
               for layer, paths in LAYERS.items() for path in paths]
    targets.extend(Target(path, None) for path in boundaries)
    return targets


def per_layer_metric_names() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    names: dict[str, str] = {}
    for layer in LAYERS:
        names[f"{layer}.calls"] = "count"
        names[f"{layer}.self_s"] = "s"
        names[f"{layer}.self_share"] = "ratio"
    for name, (_, _, unit) in RATIOS.items():
        names[name] = unit
    names["engine.wait_s"] = "s"
    names["setup.import_s"] = "s"
    names["setup.first_unit_s"] = "s"
    names["unattributed.self_share"] = "ratio"
    names["trace.overhead_ratio"] = "ratio"
    return names


def layer_metrics(summary: TraceSummary, repeats: int) -> dict[str, float]:
    """Per-repeat layer metrics from ``repeats`` traced repeats.

    Counts and seconds are per traced repeat; shares are of the traced
    wall time.  The setup and overhead metrics come from elsewhere.
    """
    wall = summary.wall_s
    metrics: dict[str, float] = {}
    attributed = 0.0
    for layer in LAYERS:
        self_s = summary.layer_self_s.get(layer, 0.0)
        attributed += self_s
        metrics[f"{layer}.calls"] = summary.layer_calls.get(layer, 0) / repeats
        metrics[f"{layer}.self_s"] = self_s / repeats
        metrics[f"{layer}.self_share"] = self_s / wall
    for name, (path, _, _) in RATIOS.items():
        calls = summary.calls.get(path, 0)
        metrics[name] = summary.counted.get(path, 0.0) / calls if calls else 0.0
    metrics["engine.wait_s"] = summary.total_s.get(WAIT_TARGET, 0.0) / repeats
    metrics["unattributed.self_share"] = (wall - attributed) / wall
    return metrics
