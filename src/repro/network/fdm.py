"""Frequency-division multiplexing: the AP's channel allocator (§7a).

"mmX divides the available spectrum between nodes depending on their data
rate demand" — a camera needing 10 Mbps gets a few MHz; the 250 MHz ISM
band carries many such channels.  Allocation happens once, at
initialization, over the WiFi/Bluetooth side link.

Placement is first-fit over the free spectrum.  The seed implementation
re-sorted every occupied interval on every call (quadratic under
registration churn); placement now runs on the interval-indexed
:class:`repro.admission.book.SpectrumBook`, which keeps the free gaps
sorted and prunes non-fitting ones in bulk — O(√n)-per-op with C-level
constants, byte-identical results (proven by the hypothesis equivalence
suite in ``tests/test_admission.py``).  The book is also the only record
of the spectrum map: the allocator holds its sizing parameters and reads
plans and blocked ranges back from the book.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..constants import ISM_24GHZ_HIGH_HZ, ISM_24GHZ_LOW_HZ

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from ..admission.book import SpectrumBook

__all__ = ["ChannelPlan", "FdmAllocator", "SpectrumExhausted"]


class SpectrumExhausted(Exception):
    """No contiguous spectrum left for a requested channel.

    The caller should fall back to SDM (spatial reuse of an existing
    channel via the TMA) — exactly the escalation section 7(b) describes.
    """


@dataclass(frozen=True)
class ChannelPlan:
    """One allocated channel."""

    node_id: int
    center_hz: float
    bandwidth_hz: float

    @property
    def low_hz(self) -> float:
        """Lower channel edge."""
        return self.center_hz - self.bandwidth_hz / 2.0

    @property
    def high_hz(self) -> float:
        """Upper channel edge."""
        return self.center_hz + self.bandwidth_hz / 2.0


class FdmAllocator:
    """First-fit contiguous allocator over the 24 GHz ISM band.

    Channel bandwidth is provisioned from the demanded bit rate times a
    spectral overhead factor: OTAM's ASK-FSK occupies roughly twice the
    bit rate (two tones plus main lobes), plus a guard fraction.
    """

    def __init__(self,
                 band_low_hz: float = ISM_24GHZ_LOW_HZ,
                 band_high_hz: float = ISM_24GHZ_HIGH_HZ,
                 bandwidth_per_bps: float = 2.0,
                 guard_fraction: float = 0.25,
                 min_channel_hz: float = 1e6):
        if band_high_hz <= band_low_hz:
            raise ValueError("invalid band edges")
        if bandwidth_per_bps <= 0 or min_channel_hz <= 0:
            raise ValueError("invalid sizing parameters")
        if guard_fraction < 0:
            raise ValueError("guard fraction cannot be negative")
        self.band_low_hz = band_low_hz
        self.band_high_hz = band_high_hz
        self.bandwidth_per_bps = bandwidth_per_bps
        self.guard_fraction = guard_fraction
        self.min_channel_hz = min_channel_hz
        # Deferred import: repro.admission.controller imports this
        # module back, so a top-level import would cycle.
        from ..admission.book import SpectrumBook

        self._book: SpectrumBook = SpectrumBook(band_low_hz, band_high_hz)
        """The spectrum map itself — every plan and blocked range.  The
        allocator holds only the sizing policy around it."""

    @property
    def total_bandwidth_hz(self) -> float:
        """Width of the managed band (250 MHz for the 24 GHz ISM band)."""
        return self.band_high_hz - self.band_low_hz

    @property
    def allocated_bandwidth_hz(self) -> float:
        """Spectrum currently committed (guards included)."""
        return sum(p.bandwidth_hz * (1.0 + self.guard_fraction)
                   for p in self._book.committed())

    def channel_bandwidth_for_rate(self, rate_bps: float) -> float:
        """Provisioned channel width for a demanded bit rate."""
        if rate_bps <= 0:
            raise ValueError("demanded rate must be positive")
        return max(self.min_channel_hz, rate_bps * self.bandwidth_per_bps)

    def allocate(self, node_id: int, demanded_rate_bps: float) -> ChannelPlan:
        """Assign the lowest free channel that fits the demand.

        The gap search runs on the spectrum book; the cursor it returns
        is bit-identical to the seed's sorted-scan cursor.  Raises
        :class:`SpectrumExhausted` when the band cannot fit the request
        — the signal to switch that node to SDM.
        """
        if node_id in self._book:
            raise ValueError(f"node {node_id} already holds a channel")
        width = self.channel_bandwidth_for_rate(demanded_rate_bps)
        cursor = self._book.place(width, self.guard_fraction)
        if cursor is None:
            raise SpectrumExhausted(
                f"no room for a {width/1e6:.1f} MHz channel")
        plan = ChannelPlan(node_id=node_id, center_hz=cursor + width / 2.0,
                           bandwidth_hz=width)
        self._book.commit(plan)
        return plan

    # --- interference avoidance ------------------------------------------

    def block_range(self, low_hz: float, high_hz: float) -> None:
        """Mark a spectrum range as unusable (a detected interferer).

        Blocked ranges are skipped by :meth:`allocate`; existing
        allocations stay where they are —
        :meth:`~repro.admission.AdmissionController.mark_interference`
        is the one path that moves the nodes a block hits.
        """
        if high_hz <= low_hz:
            raise ValueError("invalid blocked range")
        self._book.block(float(low_hz), float(high_hz))

    @property
    def blocked_ranges(self) -> tuple[tuple[float, float], ...]:
        """Blocked spectrum, merged into sorted disjoint ranges."""
        return self._book.blocked_ranges

    def restore_plan(self, plan: ChannelPlan) -> None:
        """Re-install an exact channel plan (checkpoint restore path).

        Unlike :meth:`allocate`, no placement search runs: the plan is
        inserted verbatim so a restored AP reproduces its pre-crash
        spectrum map bit-for-bit.  Rejects duplicates, plans outside
        the band and overlaps with existing plans — a corrupt
        checkpoint must not silently build an inconsistent spectrum
        map.  Both checks allow the rounding of ``center ± width / 2``
        (:meth:`SpectrumBook.edge_tolerance`): a first-fit plan's edges
        can land an ulp past the band edge or into its neighbour.
        """
        if plan.node_id in self._book:
            raise ValueError(f"node {plan.node_id} already holds a channel")
        tol = self._book.edge_tolerance(plan.bandwidth_hz)
        low, high = plan.low_hz, plan.high_hz
        if low < self.band_low_hz - tol or high > self.band_high_hz + tol:
            raise ValueError("restored plan falls outside the managed band")
        hit = self._book.overlapping_plans(low + tol, high - tol)
        if hit:
            raise ValueError(
                f"restored plan for node {plan.node_id} overlaps "
                f"node {hit[0].node_id}")
        self._book.commit(plan)

    def release(self, node_id: int) -> None:
        """Return a node's channel to the pool."""
        self._book.release(node_id)

    def plan_for(self, node_id: int) -> ChannelPlan:
        """Look up a node's channel."""
        return self._book.plan_for(node_id)

    @property
    def plans(self) -> list[ChannelPlan]:
        """All current allocations, sorted by center frequency."""
        return self._book.plans

    # --- indexed queries (admission-control fast paths) -------------------

    def plans_overlapping(self, low_hz: float,
                          high_hz: float) -> list[ChannelPlan]:
        """Plans overlapping ``(low_hz, high_hz)``, by frequency.

        An indexed range query — O(√n + hits) instead of a scan over
        every plan — used by the
        :class:`repro.admission.AdmissionController` batched
        re-admission pass.  Overlap is strict: a plan that only touches
        ``low_hz`` or ``high_hz`` is not returned.
        """
        return self._book.overlapping_plans(low_hz, high_hz)

    @property
    def free_bandwidth_hz(self) -> float:
        """Spectrum neither committed to a plan nor blocked."""
        return self._book.free_hz

    @property
    def fragmentation(self) -> float:
        """1 − (largest free gap / total free spectrum), in [0, 1].

        0.0 means all free spectrum is one contiguous run (or the band
        is completely full); values near 1.0 mean the free spectrum is
        shredded into slivers no wide channel can use.
        """
        free = self._book.free_hz
        if free <= 0.0:
            return 0.0
        return 1.0 - self._book.largest_gap_hz / free
