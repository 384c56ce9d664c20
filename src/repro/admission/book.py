"""Interval-indexed spectrum bookkeeping for million-node admission.

The seed :class:`repro.network.fdm.FdmAllocator` re-sorted every
occupied interval on every ``allocate`` — O(n log n) per call, so
registration churn over many nodes was quadratic.  The
:class:`SpectrumBook` replaces that scan with an explicit *gap index*:
the free spectrum is stored as a sorted sequence of maximal free
intervals, and first-fit placement walks only the gaps that could
possibly fit the request.

Equivalence, not approximation
------------------------------

The book is **byte-identical** to the seed scan, not merely
order-equivalent.  The original placement loop was::

    cursor = band_low
    for low, high in sorted(occupied):
        if cursor + pitch <= low:
            break
        cursor = max(cursor, high + width * guard_fraction)
    if cursor + width > band_high:
        raise SpectrumExhausted(...)

Every float the book produces reproduces that loop's floats exactly.
Each gap record therefore carries two extra coordinates beyond its
``(start, end)`` extent:

* ``base`` — the highest occupied edge at or left of the gap (``None``
  when no occupied interval exists to the left).  The scan's cursor for
  this gap is ``max(band_low, base + width * guard_fraction)``; carrying
  ``base`` explicitly reproduces the cursor push even for interferer
  blocks that lie *below* the managed band (their guard margin still
  leans into it).
* ``limit`` — the lowest occupied edge at or right of the gap (``None``
  when the gap runs to the true top of the band).  The scan admits a
  placement only when ``cursor + pitch <= limit``; carrying ``limit``
  reproduces the rejection caused by blocks *above* the band, whose
  guard pitch would not fit even though the raw width does.

The structural invariant: gaps are exactly the complement of the union
of committed plan intervals and blocked ranges, clipped to the managed
band.  ``tests/test_admission.py`` proves the equivalence with
hypothesis sequences against a verbatim copy of the seed scan.

The book is the only record of the spectrum map: every committed
:class:`~repro.network.fdm.ChannelPlan` and every blocked range lives
here once, and the allocator, the access point and checkpoints read it
back from the book rather than keeping copies that could drift apart.

Complexity
----------

Gaps and plans live in :class:`_SqrtList` — an order-maintained list of
√n-sized blocks (the classic "SortedList" layout): point queries are
O(√n) worst case with C-speed ``bisect``/``memmove`` constants, far
below the per-op Python overhead at 10⁶ intervals.  First-fit placement
additionally prunes whole blocks through a per-block max-gap-length
vector (a numpy array, scanned in C), so a full band with only
guard-sliver gaps costs microseconds, not a million comparisons.
``benchmarks/test_admission_scaling.py`` gates the resulting ≪10×
per-op growth for 10× nodes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import-cycle guard
    from ..network.fdm import ChannelPlan

__all__ = ["SpectrumBook"]

_DEFAULT_BLOCK = 64
"""Target records per √n block; splits at 2x, merges below half.

Small on purpose: the two hot paths — the in-block record scan of
:meth:`SpectrumBook.place` and the max-span recompute after a block-max
removal — are both O(block), and at 10⁶ gaps a 64-record block
benchmarks ~6x faster end-to-end than 1024 (the block *count* costs
are vectorised numpy / bisect and stay cheap)."""


def _key0(rec: tuple) -> float:
    return float(rec[0])


class _SqrtList:
    """Sorted tuples keyed by element 0, stored in √n-sized blocks.

    Supports O(√n) insert/remove/floor/ceil/range queries with C-level
    constants (``bisect`` + list ``memmove``).  When ``spans`` is true
    the structure additionally maintains a per-block maximum of
    ``rec[1] - rec[0]`` in a numpy vector so callers can prune whole
    blocks during first-fit scans.
    """

    __slots__ = ("_blocks", "_firsts", "_spans", "_maxlen", "_target")

    def __init__(self, records: list[tuple] | None = None, *,
                 spans: bool = False, target: int = _DEFAULT_BLOCK):
        self._target = target
        self._spans = spans
        recs = sorted(records, key=_key0) if records else []
        self._blocks: list[list[tuple]] = [
            recs[i:i + target] for i in range(0, len(recs), target)]
        self._firsts: list[float] = [b[0][0] for b in self._blocks]
        if spans:
            self._maxlen = np.array(
                [max(r[1] - r[0] for r in b) for b in self._blocks],
                dtype=np.float64)
        else:
            self._maxlen = np.empty(0, dtype=np.float64)

    def __len__(self) -> int:
        return sum(len(b) for b in self._blocks)

    def __iter__(self):
        for b in self._blocks:
            yield from b

    def _locate(self, key: float) -> int:
        i = bisect_right(self._firsts, key) - 1
        return i if i > 0 else 0

    # --- mutation ---------------------------------------------------------

    def insert(self, rec: tuple) -> None:
        if not self._blocks:
            self._blocks.append([rec])
            self._firsts.append(rec[0])
            if self._spans:
                self._maxlen = np.array([rec[1] - rec[0]])
            return
        i = self._locate(rec[0])
        b = self._blocks[i]
        j = bisect_left(b, rec[0], key=_key0)
        b.insert(j, rec)
        if j == 0:
            self._firsts[i] = rec[0]
        if self._spans:
            span = rec[1] - rec[0]
            if span > self._maxlen[i]:
                self._maxlen[i] = span
        if len(b) > 2 * self._target:
            mid = len(b) // 2
            right = b[mid:]
            del b[mid:]
            self._blocks.insert(i + 1, right)
            self._firsts.insert(i + 1, right[0][0])
            if self._spans:
                self._maxlen = np.insert(self._maxlen, i + 1, 0.0)
                self._maxlen[i] = max(r[1] - r[0] for r in b)
                self._maxlen[i + 1] = max(r[1] - r[0] for r in right)

    def remove(self, key: float) -> tuple:
        i = self._locate(key)
        b = self._blocks[i]
        j = bisect_left(b, key, key=_key0)
        if j >= len(b) or b[j][0] != key:
            raise KeyError(f"no record keyed {key!r}")
        rec = b.pop(j)
        if not b:
            del self._blocks[i]
            del self._firsts[i]
            if self._spans:
                self._maxlen = np.delete(self._maxlen, i)
            return rec
        if j == 0:
            self._firsts[i] = b[0][0]
        if self._spans and rec[1] - rec[0] >= self._maxlen[i]:
            self._maxlen[i] = max(r[1] - r[0] for r in b)
        if len(b) < self._target // 2 and i + 1 < len(self._blocks) \
                and len(b) + len(self._blocks[i + 1]) <= self._target:
            b.extend(self._blocks[i + 1])
            del self._blocks[i + 1]
            del self._firsts[i + 1]
            if self._spans:
                self._maxlen[i] = max(self._maxlen[i], self._maxlen[i + 1])
                self._maxlen = np.delete(self._maxlen, i + 1)
        return rec

    def replace(self, key: float, rec: tuple) -> None:
        """Swap the record keyed ``key`` for ``rec`` (same key, same
        extent — only the auxiliary fields may change)."""
        i = self._locate(key)
        b = self._blocks[i]
        j = bisect_left(b, key, key=_key0)
        if j >= len(b) or b[j][0] != key:
            raise KeyError(f"no record keyed {key!r}")
        b[j] = rec

    # --- queries ----------------------------------------------------------

    def floor(self, key: float) -> tuple | None:
        """Greatest record with ``rec[0] <= key``."""
        if not self._blocks:
            return None
        i = self._locate(key)
        b = self._blocks[i]
        j = bisect_right(b, key, key=_key0)
        if j:
            return b[j - 1]
        if i:
            return self._blocks[i - 1][-1]
        return None

    def ceil(self, key: float) -> tuple | None:
        """Least record with ``rec[0] >= key``."""
        if not self._blocks:
            return None
        i = self._locate(key)
        b = self._blocks[i]
        j = bisect_left(b, key, key=_key0)
        if j < len(b):
            return b[j]
        if i + 1 < len(self._blocks):
            return self._blocks[i + 1][0]
        return None

    def overlapping(self, lo: float, hi: float) -> list[tuple]:
        """Records with ``rec[0] < hi and rec[1] > lo``, in key order.

        Correct for disjoint (or at most edge/ulp-overlapping) interval
        sets, where only the immediate predecessor can span ``lo``.
        """
        out: list[tuple] = []
        if not self._blocks:
            return out
        i = self._locate(lo)
        b = self._blocks[i]
        j = bisect_left(b, lo, key=_key0)
        if j > 0:
            r = b[j - 1]
            if r[1] > lo:
                out.append(r)
        elif i > 0:
            r = self._blocks[i - 1][-1]
            if r[1] > lo:
                out.append(r)
        while i < len(self._blocks):
            b = self._blocks[i]
            while j < len(b):
                r = b[j]
                if r[0] >= hi:
                    return out
                if r[1] > lo:
                    out.append(r)
                j += 1
            i += 1
            j = 0
        return out


class SpectrumBook:
    """Gap-indexed free/occupied accounting over one frequency band.

    The book tracks three interval families:

    * **gaps** — maximal free intervals, each ``(start, end, base,
      limit)`` (see the module docstring for ``base``/``limit``);
    * **plans** — committed channels, each held once as a ``(low,
      high, plan)`` record in a frequency-ordered index and reached by
      node ID through a map to that same record;
    * **blocks** — interference-blocked ranges, merged into a sorted
      disjoint set.

    Plan edges are the exact floats ``ChannelPlan.low_hz``/``high_hz``
    compute, so comparisons reproduce the seed allocator bit-for-bit.
    """

    def __init__(self, band_low_hz: float, band_high_hz: float, *,
                 block_size: int = _DEFAULT_BLOCK):
        if band_high_hz <= band_low_hz:
            raise ValueError("invalid band edges")
        self._low = band_low_hz
        self._high = band_high_hz
        self._gaps = _SqrtList(
            [(band_low_hz, band_high_hz, None, None)],
            spans=True, target=block_size)
        self._plans = _SqrtList(target=block_size)
        self._by_node: dict[int, tuple[float, float, ChannelPlan]] = {}
        self._blk_lows: list[float] = []
        self._blk_highs: list[float] = []
        self._free_hz = band_high_hz - band_low_hz

    # --- introspection ----------------------------------------------------

    @property
    def free_hz(self) -> float:
        """Total free (unoccupied, unblocked) spectrum in the band."""
        return self._free_hz

    @property
    def largest_gap_hz(self) -> float:
        """Width of the widest free interval (0.0 when the band is full)."""
        ml = self._gaps._maxlen
        return float(ml.max()) if ml.size else 0.0

    def edge_tolerance(self, width: float) -> float:
        """Bound on the rounding of a plan edge computed as
        ``center ± width / 2`` in this band (a few ulps of the band
        magnitude): a placed plan's edges may sit this far outside the
        gap that was found for it."""
        return 4e-16 * (abs(self._low) + abs(self._high) + width)

    # --- first-fit placement ----------------------------------------------

    def place(self, width: float, guard_fraction: float) -> float | None:
        """Lowest cursor where a ``width`` channel fits, or ``None``.

        Byte-identical to the seed scan: for each gap the cursor is
        ``max(band_low, base + width * guard_fraction)`` (or
        ``max(band_low, start)`` when nothing is occupied to the left —
        released plan edges can sit an ulp below the band, exactly like
        the seed's implicit ``cursor = band_low`` start), and the fit
        test is the seed's two literal checks: ``cursor + pitch <=
        limit`` (skipped when nothing is occupied to the right) and
        ``cursor + width <= band_high``.  Expressions are evaluated in
        exactly the seed's operand order so every rounding matches.
        """
        pitch = width * (1.0 + guard_fraction)
        wstep = width * guard_fraction
        gi = self._gaps
        ml = gi._maxlen
        if not ml.size:
            return None
        # Conservative block-level prune: a fitting gap satisfies
        # fl(start + width) <= end, hence its recorded span is at least
        # width minus a few ulps of the band magnitude.
        slack = width - self.edge_tolerance(width)
        for bi in np.nonzero(ml >= slack)[0]:
            for rec in gi._blocks[bi]:
                start, end, base, limit = rec
                if start + width > end:
                    continue
                cursor = start if base is None else base + wstep
                if cursor < self._low:
                    cursor = self._low
                if limit is None:
                    if cursor + width <= self._high:
                        return float(cursor)
                elif cursor + pitch <= limit \
                        and cursor + width <= self._high:
                    return float(cursor)
        return None

    # --- occupation -------------------------------------------------------

    def _occupy(self, lo: float, hi: float) -> None:
        """Carve ``(lo, hi)`` out of the free space and propagate the
        new occupied edges into the neighbouring gaps' base/limit."""
        gi = self._gaps
        for g in gi.overlapping(lo, hi):
            gi.remove(g[0])
            s, e, base, limit = g
            self._free_hz -= e - s
            if s < lo:
                gi.insert((s, lo, base, lo))
                self._free_hz += lo - s
            if e > hi:
                gi.insert((hi, e, hi, limit))
                self._free_hz += e - hi
        succ = gi.ceil(hi)
        if succ is not None and (succ[2] is None or succ[2] < hi):
            gi.replace(succ[0], (succ[0], succ[1], hi, succ[3]))
        pred = gi.floor(lo)
        if pred is not None and pred[1] <= lo \
                and (pred[3] is None or pred[3] > lo):
            gi.replace(pred[0], (pred[0], pred[1], pred[2], lo))

    def commit(self, plan: ChannelPlan) -> None:
        """Record a channel plan and mark its extent occupied."""
        rec = (plan.low_hz, plan.high_hz, plan)
        self._plans.insert(rec)
        self._by_node[plan.node_id] = rec
        self._occupy(rec[0], rec[1])

    def block(self, low: float, high: float) -> None:
        """Mark an interference range unusable (merged into the
        disjoint block set, carved out of the free space)."""
        lows, highs = self._blk_lows, self._blk_highs
        i = bisect_left(lows, low)
        start, end = low, high
        if i > 0 and highs[i - 1] >= low:
            i -= 1
            start = lows[i]
            end = max(end, highs[i])
        j = i
        while j < len(lows) and lows[j] <= end:
            end = max(end, highs[j])
            j += 1
        lows[i:j] = [start]
        highs[i:j] = [end]
        self._occupy(low, high)

    # --- release ----------------------------------------------------------

    def _left_base(self, pos: float) -> float | None:
        """Highest occupied edge at or below ``pos`` (``None`` if the
        spectrum left of ``pos`` is untouched)."""
        best: float | None = None
        i = bisect_left(self._blk_lows, pos) - 1
        if i >= 0 and self._blk_highs[i] <= pos:
            best = self._blk_highs[i]
        rec = self._plans.floor(pos)
        if rec is not None and rec[0] < pos and rec[1] <= pos:
            best = rec[1] if best is None else max(best, rec[1])
        return best

    def _right_limit(self, pos: float) -> float | None:
        """Lowest occupied edge at or above ``pos`` (``None`` if the
        spectrum right of ``pos`` is untouched)."""
        best: float | None = None
        i = bisect_left(self._blk_lows, pos)
        if i < len(self._blk_lows):
            best = self._blk_lows[i]
        rec = self._plans.ceil(pos)
        if rec is not None:
            best = rec[0] if best is None else min(best, rec[0])
        return best

    def _free_piece(self, plo: float, phi: float) -> None:
        """Return ``(plo, phi)`` to the free pool, merging with any
        adjacent gaps and restoring base/limit from the surroundings."""
        gi = self._gaps
        left = gi.floor(plo)
        right = gi.ceil(phi)
        if left is not None and left[1] == plo:
            gi.remove(left[0])
            self._free_hz -= left[1] - left[0]
            start, base = left[0], left[2]
        else:
            start, base = plo, self._left_base(plo)
        if right is not None and right[0] == phi:
            gi.remove(right[0])
            self._free_hz -= right[1] - right[0]
            end, limit = right[1], right[3]
        else:
            end, limit = phi, self._right_limit(phi)
        gi.insert((start, end, base, limit))
        self._free_hz += end - start

    def release(self, node_id: int) -> None:
        """Drop a node's plan and return its extent to the pool, minus
        whatever blocked ranges or (ulp-overlapping) neighbour plans
        still occupy it."""
        rec = self._by_node.pop(node_id, None)
        if rec is None:
            raise KeyError(f"node {node_id} holds no channel")
        low, high = rec[0], rec[1]
        self._plans.remove(low)
        pieces = [(low, high)]
        for blo, bhi in zip(self._blk_lows, self._blk_highs):
            if blo >= high:
                break
            if bhi <= low:
                continue
            pieces = self._subtract(pieces, blo, bhi)
        for other in self._plans.overlapping(low, high):
            pieces = self._subtract(pieces, other[0], other[1])
        for plo, phi in pieces:
            if phi > plo:
                self._free_piece(plo, phi)

    @staticmethod
    def _subtract(pieces: list[tuple[float, float]], lo: float,
                  hi: float) -> list[tuple[float, float]]:
        out: list[tuple[float, float]] = []
        for plo, phi in pieces:
            if hi <= plo or lo >= phi:
                out.append((plo, phi))
                continue
            if plo < lo:
                out.append((plo, lo))
            if hi < phi:
                out.append((hi, phi))
        return out

    # --- queries ----------------------------------------------------------

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_node

    def plan_for(self, node_id: int) -> ChannelPlan:
        """The plan committed for one node."""
        rec = self._by_node.get(node_id)
        if rec is None:
            raise KeyError(f"node {node_id} holds no channel")
        return rec[2]

    @property
    def plans(self) -> list[ChannelPlan]:
        """Every committed plan, by frequency."""
        return [rec[2] for rec in self._plans]

    def committed(self) -> Iterator[ChannelPlan]:
        """Every committed plan, in commit order."""
        return (rec[2] for rec in self._by_node.values())

    def overlapping_plans(self, low: float, high: float) -> list[ChannelPlan]:
        """Plans overlapping ``(low, high)``, by frequency."""
        return [rec[2] for rec in self._plans.overlapping(low, high)]

    @property
    def blocked_ranges(self) -> tuple[tuple[float, float], ...]:
        """Blocked spectrum as sorted, disjoint ``(low, high)`` ranges."""
        return tuple(zip(self._blk_lows, self._blk_highs))
