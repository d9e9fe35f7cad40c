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
DEFAULT_MARGIN = 0.9


def inversion_floor(estimate: ChannelEstimate, floor_rel: float = DEFAULT_FLOOR_REL) -> float:
    """Magnitude floor: ``floor_rel`` times the median estimated |H|."""
    if floor_rel < 0:
        raise ValueError("floor_rel must be >= 0")
    return floor_rel * float(np.median(np.abs(estimate.full_grid)))


def channel_invert(
    grids: list[ResourceGrid],
    estimate: ChannelEstimate,
    floor: float,
) -> list[ResourceGrid]:
    """Divide payload grids elementwise by the channel estimate.

    Estimates with magnitude below ``floor`` are clamped to the floor while
    keeping their phase, which caps the inversion gain at 1/floor in deep
    fades.  A zero estimate with a positive floor divides by the (real)
    floor itself; a zero estimate with floor = 0 is an error.
    """
    if floor < 0:
        raise ValueError("floor must be >= 0")
    h = estimate.full_grid
    mag = np.abs(h)
    if np.any(mag == 0) and floor == 0:
        raise ValueError("zero channel estimate cannot be inverted without a floor")
    divisor = h.copy()
    if floor > 0:
        weak = mag < floor
        dead = mag == 0
        if np.any(weak):
            safe_mag = np.where(dead, 1.0, mag)
            divisor = np.where(weak, floor * h / safe_mag, divisor)
            divisor = np.where(dead, floor, divisor)
    out = []
    for g in grids:
        if g.data.shape != h.shape:
            raise ValueError(f"payload grid shape {g.data.shape} != estimate {h.shape}")
        out.append(ResourceGrid(g.data / divisor))
    return out


def compute_alpha(
    precoded_per_ue: list[list[ResourceGrid]],
    peak_power: float,
    margin: float = DEFAULT_MARGIN,
) -> float:
    """Largest shared scaling every UE can transmit within ``peak_power``.

    alpha = margin * min over UEs of sqrt(peak_power / max |precoded|^2),
    so after scaling no resource element of any UE exceeds the peak power
    (strictly below it for margin < 1).  UEs whose payload is entirely zero
    impose no constraint; all UEs zero is an error.
    """
    if peak_power <= 0:
        raise ValueError("peak_power must be positive")
    if not 0 < margin <= 1:
        raise ValueError("margin must lie in (0, 1]")
    if not precoded_per_ue:
        raise ValueError("need at least one UE")
    alpha = np.inf
    for grids in precoded_per_ue:
        peak = max((float(np.max(np.abs(g.data) ** 2)) for g in grids), default=0.0)
        if peak > 0:
            alpha = min(alpha, margin * np.sqrt(peak_power / peak))
    if not np.isfinite(alpha):
        raise ValueError("all precoded payloads are zero; alpha undefined")
    return float(alpha)
