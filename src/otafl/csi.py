"""Least-squares channel estimation, interpolation and the NMSE metric."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridConfig

# Reporting floor: ratios at or below 1e-30 (including exact equality) are
# clamped to -300 dB so traces stay finite.
NMSE_FLOOR_DB = -300.0


@dataclass
class ChannelEstimate:
    """One complex gain per subcarrier, held for every symbol of the round
    (block fading)."""

    gains: np.ndarray


def ls_estimate(received: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Least squares on known pilots: H_hat = Y / X elementwise.

    For unit-modulus pilots the division rotates but never amplifies the
    observation noise, so the estimate variance equals the channel noise
    variance.
    """
    y = np.asarray(received, dtype=np.complex128)
    x = np.asarray(known, dtype=np.complex128)
    if y.shape != x.shape:
        raise ValueError("received and known pilots must have equal shape")
    if np.any(np.abs(x) == 0):
        raise ValueError("known pilot values must be nonzero")
    return y / x


def interpolate(
    pilot_estimates: np.ndarray,
    pilot_positions: np.ndarray,
    cfg: GridConfig,
) -> ChannelEstimate:
    """Fill one gain per subcarrier from pilot positions.

    Linear interpolation in frequency (real and imaginary parts separately,
    ends held at the outermost pilot value).  Under block fading that one
    row is the estimate for every symbol of the round.
    """
    est = np.asarray(pilot_estimates, dtype=np.complex128)
    pos = np.asarray(pilot_positions, dtype=np.int64)
    if est.ndim != 1 or pos.shape != est.shape or est.size == 0:
        raise ValueError("pilot estimates/positions must be matching 1-D arrays")
    if np.any(pos < 0) or np.any(pos >= cfg.subcarriers):
        raise ValueError("pilot positions outside the subcarrier range")
    if np.any(np.diff(pos) <= 0):
        raise ValueError("pilot positions must be strictly increasing")
    grid_pos = np.arange(cfg.subcarriers)
    return ChannelEstimate(
        np.interp(grid_pos, pos, est.real) + 1j * np.interp(grid_pos, pos, est.imag))


def nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mean squared error in dB, pooled over all elements.

    10*log10( sum|est - truth|^2 / sum|truth|^2 ), clamped below at
    -300 dB; an exact match reports the floor, an all-zero estimate
    reports 0 dB.
    """
    e = np.asarray(estimate, dtype=np.complex128)
    t = np.asarray(truth, dtype=np.complex128)
    if e.shape != t.shape:
        raise ValueError("estimate and truth must have equal shape")
    denom = float(np.sum(np.abs(t) ** 2))
    if denom == 0.0:
        raise ValueError("truth has zero energy; NMSE undefined")
    ratio = float(np.sum(np.abs(e - t) ** 2)) / denom
    if ratio <= 1e-30:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(ratio), NMSE_FLOOR_DB)


def quantize_estimate(estimate: ChannelEstimate, bits: int) -> ChannelEstimate:
    """Optional feedback quantization: symmetric per-part uniform grid.

    ``bits`` = 0 means lossless feedback (returned unchanged).  Real and
    imaginary parts are quantized independently with a shared full-scale
    equal to the largest magnitude present.
    """
    if bits < 0:
        raise ValueError("bits must be >= 0")
    if bits == 0:
        return estimate
    levels = 2 ** (bits - 1) - 1
    if levels < 1:
        raise ValueError("need at least 2 bits for a nonzero quantizer")
    h = estimate.gains
    scale = max(np.max(np.abs(h.real)), np.max(np.abs(h.imag)), 1e-300)
    step = scale / levels
    return ChannelEstimate((np.round(h.real / step) + 1j * np.round(h.imag / step)) * step)
