"""Channel-inversion precoding and the shared power-control factor."""

from __future__ import annotations

import numpy as np

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
    estimate: np.ndarray, floor_rel: float = DEFAULT_FLOOR_REL, *,
    magnitude: np.ndarray | None = None,
) -> float | np.ndarray:
    """Magnitude floor: ``floor_rel`` times the median estimated |H| over the
    subcarriers, one floor per row of the estimate (a scalar for one row).
    ``magnitude``, when given, is ``np.abs(estimate)``, read once by a caller
    that passes it to :func:`inversion_divisor` too.
    ``PhyConfig`` owns this check for a scenario; it stays for direct callers."""
    if not floor_rel >= 0:
        raise ValueError("floor_rel must be >= 0")
    # np.median's partition, middle order statistics and NaN rule, without
    # the numpy.ma import that its NaN check pulls in.
    mag = np.abs(estimate) if magnitude is None else magnitude
    half, odd = divmod(mag.shape[-1], 2)
    middle = [half] if odd else [half - 1, half]
    part = np.partition(mag, [*middle, -1], axis=-1)
    median = part[..., half] if odd else (part[..., half - 1] + part[..., half]) / 2
    last = part[..., -1]  # the largest, or NaN if the row holds one
    return floor_rel * np.where(np.isnan(last), last, median)


def inversion_divisor(estimate: np.ndarray, floor: float | np.ndarray, *,
                      magnitude: np.ndarray | None = None) -> np.ndarray:
    """The channel estimate with magnitudes below ``floor`` raised to it.

    ``floor`` is a scalar or one value per row of the estimate, as
    :func:`inversion_floor` returns it, and ``magnitude``, when given, is
    ``np.abs(estimate)``.  Clamped estimates keep their phase,
    which caps the inversion gain at 1/floor in deep fades.  A zero estimate
    with a positive floor becomes the (real) floor itself; a zero estimate
    in a row whose floor is 0 is an error.  When nothing is clamped the
    result is the estimate's own array, so callers must not write to it.
    """
    floor = np.asarray(floor, dtype=np.float64)[..., np.newaxis]
    h = estimate
    mag = np.abs(h) if magnitude is None else magnitude
    positive = floor > 0
    if not positive.all():
        if not (floor >= 0).all():
            raise ValueError("floor must be >= 0")
        if ((mag == 0) & ~positive).any():
            raise ValueError("zero channel estimate cannot be inverted without a floor")
    weak = mag < floor
    if not weak.any():
        return h
    dead = mag == 0
    safe_mag = np.where(dead, 1.0, mag)
    divisor = np.where(weak, floor * h / safe_mag, h)
    return np.where(dead, floor, divisor)


def channel_invert(
    block: np.ndarray,
    estimate: np.ndarray,
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


def compute_alpha(peaks: np.ndarray, divisor: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest shared scaling every UE can transmit within ``PEAK_POWER``,
    and each UE's precoded peak magnitude.

    ``peaks`` holds one row per UE: the per-subcarrier peaks of its payload
    block, max |x| over its symbols.  ``divisor`` holds one floored estimate
    row per UE, as :func:`inversion_divisor` returns it.  A UE's precoded
    peak is its largest peak / |d|, so no block is divided.  alpha is common
    to every UE, so a caller may scale the superposed payload by it once
    instead of scaling each UE's block.

    alpha = MARGIN * min over UEs of sqrt(PEAK_POWER / peak^2), so after
    scaling no resource element of any UE exceeds the peak power (strictly
    below it, as MARGIN < 1).  No rows, a shape other than the divisor's,
    or a non-finite entry is an error.  UEs whose payload is entirely zero
    impose no constraint; all UEs zero is an error.
    """
    peaks = np.asarray(peaks, dtype=np.float64)
    if peaks.shape != np.shape(divisor) or peaks.ndim != 2:
        raise ValueError(f"peaks of shape {peaks.shape} need a divisor of the same "
                         f"(UEs, subcarriers) shape, not {np.shape(divisor)}")
    if peaks.shape[0] == 0:
        raise ValueError("need at least one UE")
    largest = (peaks / np.abs(divisor)).max(axis=1)
    if not np.isfinite(largest).all():
        raise ValueError("precoded resource grid entries must be finite")
    squared = largest * largest
    active = squared[squared > 0]
    if active.size == 0:
        raise ValueError("all precoded payloads are zero; alpha undefined")
    return float((MARGIN * np.sqrt(PEAK_POWER / active)).min()), largest
