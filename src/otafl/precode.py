"""Channel-inversion precoding and the shared power-control factor."""

from __future__ import annotations

import numpy as np

from .csi import ChannelEstimate
from .grid import ResourceGrid

# Default inversion floor as a fraction of the median estimated magnitude.
# Chosen empirically on per-subcarrier Rayleigh fading at 20 dB receive SNR:
# the aggregation error is flat between 0.10 and 0.20 and degrades on both
# sides (noise amplification below, truncation bias above).
DEFAULT_FLOOR_REL = 0.15
# Every client transmits under one unit peak power per resource element and
# backs off from it by a fixed margin.  Both are constants, not knobs: the
# receiver noise follows the received power, so the absolute transmit scale
# cancels out of every result except alpha.
PEAK_POWER = 1.0
MARGIN = 0.9


def inversion_floor(estimate: ChannelEstimate, floor_rel: float = DEFAULT_FLOOR_REL) -> float:
    """Magnitude floor: ``floor_rel`` times the median estimated |H| over the
    subcarriers."""
    if floor_rel < 0:
        raise ValueError("floor_rel must be >= 0")
    return floor_rel * float(np.median(np.abs(estimate.gains)))


def inversion_divisor(estimate: ChannelEstimate, floor: float) -> np.ndarray:
    """The channel estimate with magnitudes below ``floor`` raised to it.

    Clamped estimates keep their phase, which caps the inversion gain at
    1/floor in deep fades.  A zero estimate with a positive floor becomes
    the (real) floor itself; a zero estimate with floor = 0 is an error.
    When nothing is clamped the result is the estimate's own array, so
    callers must not write to it.
    """
    if floor < 0:
        raise ValueError("floor must be >= 0")
    h = estimate.gains
    mag = np.abs(h)
    if np.any(mag == 0) and floor == 0:
        raise ValueError("zero channel estimate cannot be inverted without a floor")
    divisor = h
    if floor > 0:
        weak = mag < floor
        dead = mag == 0
        if np.any(weak):
            safe_mag = np.where(dead, 1.0, mag)
            divisor = np.where(weak, floor * h / safe_mag, divisor)
            divisor = np.where(dead, floor, divisor)
    return divisor


def channel_invert(
    grids: list[ResourceGrid],
    estimate: ChannelEstimate,
    floor: float,
) -> list[ResourceGrid]:
    """Divide every symbol of the payload grids by :func:`inversion_divisor`,
    one gain per subcarrier."""
    divisor = inversion_divisor(estimate, floor)
    out = []
    for g in grids:
        if g.data.shape[1:] != divisor.shape:
            raise ValueError(f"payload grid shape {g.data.shape} does not end in the "
                             f"estimate's {divisor.shape}")
        out.append(ResourceGrid(g.data / divisor))
    return out


def compute_alpha(precoded_per_ue: list[ResourceGrid]) -> float:
    """Largest shared scaling every UE can transmit within ``PEAK_POWER``.

    alpha = MARGIN * min over UEs of sqrt(PEAK_POWER / max |precoded|^2),
    so after scaling no resource element of any UE exceeds the peak power
    (strictly below it, as MARGIN < 1).  Each UE brings one grid holding all
    of its precoded symbols.  UEs whose payload is entirely zero impose no
    constraint; all UEs zero is an error.
    """
    if not precoded_per_ue:
        raise ValueError("need at least one UE")
    alpha = np.inf
    for grid in precoded_per_ue:
        peak = float(np.max(np.abs(grid.data) ** 2))
        if peak > 0:
            alpha = min(alpha, MARGIN * np.sqrt(PEAK_POWER / peak))
    if not np.isfinite(alpha):
        raise ValueError("all precoded payloads are zero; alpha undefined")
    return float(alpha)
