"""``repro.admission`` — million-node spectrum/SDM admission control.

The paper's MAC hands out spectrum with a first-fit scan and falls back
to TMA spatial reuse when the band fills (§7) — fine for a lab room,
quadratic for "billions of things".  This package turns allocation into
an admission-control engine:

* :class:`SpectrumBook` — interval-indexed free/occupied bookkeeping
  with O(√n)-per-op allocate/release, first-fit results
  **byte-identical** to the seed :class:`repro.network.fdm.FdmAllocator`
  scan (which now runs on the book), and the only record of the
  channel plans and blocked ranges;
* :class:`SdmPacker` — online, harmonic-collision-aware packing of
  arrival bearings into spatial channels;
* :class:`AdmissionController` — the policy ladder (FDM first, SDM
  escalation, reject) with batched re-admission under interferer
  sweeps;
* :func:`run_saturation` — the offered-load saturation study
  (blocking probability vs load) as a deterministic, resumable
  :mod:`repro.engine` campaign preset.

``benchmarks/test_admission_scaling.py`` gates the scale claims (10⁶
nodes, sub-linear per-op growth); ``python -m repro admission
saturate`` runs the study from the CLI.
"""

from .book import SpectrumBook
from .controller import (
    AdmissionController,
    AdmissionDecision,
    ReadmissionReport,
)
from .saturation import (
    SaturationConfig,
    SaturationResult,
    default_config,
    render,
    run_saturation,
    saturation_trial,
)
from .sdm import SdmAssignment, SdmPacker

__all__ = [
    "SpectrumBook",
    "SdmAssignment",
    "SdmPacker",
    "AdmissionController",
    "AdmissionDecision",
    "ReadmissionReport",
    "SaturationConfig",
    "SaturationResult",
    "default_config",
    "render",
    "run_saturation",
    "saturation_trial",
]
