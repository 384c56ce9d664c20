"""Pattern metrics: beamwidth, nulls, peaks, orthogonality, directivity.

These are the quantities the paper reads off its measured Fig. 8 pattern:
Beam 1 peak at broadside, Beam 0 peaks at ±30°, mutual nulls, and a 40°
azimuth 3-dB beamwidth.  The benchmarks assert exactly these properties.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "half_power_beamwidth_deg",
    "peak_direction_deg",
    "pattern_orthogonality_db",
]

_GRID_DEG = np.linspace(-180.0, 180.0, 7201)


def _power_db_on_grid(pattern, grid_deg=None) -> tuple[np.ndarray, np.ndarray]:
    grid = _GRID_DEG if grid_deg is None else np.asarray(grid_deg, dtype=float)
    return grid, np.asarray(pattern.power_db(np.radians(grid)), dtype=float)


def peak_direction_deg(pattern) -> float:
    """Azimuth of the pattern's global maximum [deg].

    When a pattern has several directions tied at the maximum (a
    symmetric array factor repeats its broadside value at ±180°), the
    one closest to boresight is reported.
    """
    grid, p = _power_db_on_grid(pattern)
    peak = float(np.max(p))
    tied = grid[p >= peak - 1e-9]
    return float(tied[int(np.argmin(np.abs(tied)))])


def half_power_beamwidth_deg(pattern, around_deg: float | None = None) -> float:
    """3-dB beamwidth of the lobe containing ``around_deg`` (default: peak).

    Walks outward from the lobe peak until the pattern first drops 3 dB on
    each side and returns the angular distance between those crossings.
    """
    grid, p = _power_db_on_grid(pattern)
    if around_deg is None:
        centre = int(np.argmax(p))
    else:
        # Find the local peak nearest the requested direction.
        idx = int(np.argmin(np.abs(grid - around_deg)))
        centre = idx
        while 0 < centre < p.size - 1:
            if p[centre + 1] > p[centre]:
                centre += 1
            elif p[centre - 1] > p[centre]:
                centre -= 1
            else:
                break
    level = p[centre] - 3.0
    left = centre
    while left > 0 and p[left] > level:
        left -= 1
    right = centre
    while right < p.size - 1 and p[right] > level:
        right += 1
    return float(grid[right] - grid[left])


def pattern_orthogonality_db(pattern_a, pattern_b) -> float:
    """How deep pattern B is at pattern A's peak direction [dB].

    The paper's orthogonality requirement (section 6.2): "each beam has
    nulls at the main direction of the other".  A strongly negative number
    means the pair is orthogonal in this sense.
    """
    peak_a = peak_direction_deg(pattern_a)
    value = pattern_b.power_db(np.radians(peak_a))
    return float(np.asarray(value))
