"""Channel-inversion precoding and the shared power-control factor."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .csi import ChannelEstimate

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


def inversion_floor(
    estimate: ChannelEstimate, floor_rel: float = DEFAULT_FLOOR_REL
) -> float | np.ndarray:
    """Magnitude floor: ``floor_rel`` times the median estimated |H| over the
    subcarriers, one floor per row of the estimate (a scalar for one row)."""
    if floor_rel < 0:
        raise ValueError("floor_rel must be >= 0")
    return floor_rel * np.median(np.abs(estimate.gains), axis=-1)


def inversion_divisor(estimate: ChannelEstimate, floor: float | np.ndarray) -> np.ndarray:
    """The channel estimate with magnitudes below ``floor`` raised to it.

    ``floor`` is a scalar or one value per row of the estimate, as
    :func:`inversion_floor` returns it.  Clamped estimates keep their phase,
    which caps the inversion gain at 1/floor in deep fades.  A zero estimate
    with a positive floor becomes the (real) floor itself; a zero estimate
    in a row whose floor is 0 is an error.  When nothing is clamped the
    result is the estimate's own array, so callers must not write to it.
    """
    floor = np.asarray(floor, dtype=np.float64)[..., np.newaxis]
    if np.any(floor < 0):
        raise ValueError("floor must be >= 0")
    h = estimate.gains
    mag = np.abs(h)
    dead = mag == 0
    if np.any(dead & (floor == 0)):
        raise ValueError("zero channel estimate cannot be inverted without a floor")
    weak = mag < floor
    if not np.any(weak):
        return h
    safe_mag = np.where(dead, 1.0, mag)
    divisor = np.where(weak, floor * h / safe_mag, h)
    return np.where(dead, floor, divisor)


def channel_invert(
    block: np.ndarray,
    estimate: ChannelEstimate,
    floor: float | np.ndarray,
) -> np.ndarray:
    """Divide every symbol of a payload block by :func:`inversion_divisor`,
    one gain per subcarrier: a ``(symbols, subcarriers)`` block by a one-row
    estimate, or a ``(clients, symbols, subcarriers)`` block by one row per
    client."""
    divisor = inversion_divisor(estimate, floor)[..., np.newaxis, :]
    block = np.asarray(block, dtype=np.complex128)
    if block.ndim != divisor.ndim or block.shape[-1] != divisor.shape[-1]:
        raise ValueError(f"payload block shape {block.shape} does not end in the "
                         f"estimate's {divisor.shape[-1]} subcarriers")
    return block / divisor


def compute_alpha(rows: Iterable[np.ndarray], divisor: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest shared scaling every UE can transmit within ``PEAK_POWER``,
    and each UE's precoded peak magnitude.

    ``rows`` yields one UE's payload block at a time and ``divisor`` holds
    one floored estimate row per UE, as :func:`inversion_divisor` returns
    it.  Each block is read before the next is asked for, so the caller
    may reuse one buffer.  A UE's peak is its largest |x| / |d|: the
    per-subcarrier peaks of its block, max |x| over its symbols, read
    against |divisor|, so no block is divided.

    alpha = MARGIN * min over UEs of sqrt(PEAK_POWER / peak^2), so after
    scaling no resource element of any UE exceeds the peak power (strictly
    below it, as MARGIN < 1).  No rows, a row count other than the
    divisor's, or a non-finite entry is an error.  UEs whose payload is
    entirely zero impose no constraint; all UEs zero is an error.
    """
    largest = np.array([np.max(np.max(np.abs(row), axis=0) / np.abs(d))
                        for row, d in zip(rows, divisor, strict=True)])
    if largest.size == 0:
        raise ValueError("need at least one UE")
    if not np.all(np.isfinite(largest)):
        raise ValueError("precoded resource grid entries must be finite")
    peaks = largest * largest
    active = peaks[peaks > 0]
    if active.size == 0:
        raise ValueError("all precoded payloads are zero; alpha undefined")
    return float(np.min(MARGIN * np.sqrt(PEAK_POWER / active))), largest
