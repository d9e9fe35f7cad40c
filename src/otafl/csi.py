"""Least-squares channel estimation, interpolation and the NMSE metric."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import GridConfig

# Reporting floor: ratios at or below 1e-30 (including exact equality) are
# clamped to -300 dB so traces stay finite.
NMSE_FLOOR_DB = -300.0


@dataclass
class ChannelEstimate:
    """One complex gain per subcarrier, held for every symbol of the round
    (block fading): a ``(subcarriers,)`` row for one client, or one row per
    client as ``(clients, subcarriers)``."""

    gains: np.ndarray


def ls_estimate(received: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Least squares on known pilots: H_hat = Y / X elementwise.

    ``received`` may hold one row per client; ``known`` then matches either
    its shape or its last axis.  For unit-modulus pilots the division
    rotates but never amplifies the observation noise, so the estimate
    variance equals the channel noise variance.
    """
    y = np.asarray(received, dtype=np.complex128)
    x = np.asarray(known, dtype=np.complex128)
    if x.shape not in (y.shape, y.shape[-1:]):
        raise ValueError("known pilots must match the received shape or its last axis")
    if np.any(np.abs(x) == 0):
        raise ValueError("known pilot values must be nonzero")
    return y / x


def interpolate(
    pilot_estimates: np.ndarray | Sequence[np.ndarray],
    pilot_positions: np.ndarray | Sequence[np.ndarray],
    cfg: GridConfig,
) -> ChannelEstimate:
    """Fill one gain per subcarrier from pilot positions.

    Linear interpolation in frequency (real and imaginary parts separately,
    ends held at the outermost pilot value).  Under block fading that one
    row is the estimate for every symbol of the round.

    A 1-D estimate and position array is one client and gives one row.  A
    2-D array, or a sequence of 1-D rows whose lengths may differ, is one
    client per row and gives ``(clients, subcarriers)``.  Every client's
    pilots are shifted into their own range of ``subcarriers`` positions,
    and each query is clipped to its client's outermost pilots, so one
    ``np.interp`` per part serves all clients and returns exactly what a
    call per client would.
    """
    one = isinstance(pilot_positions, np.ndarray) and pilot_positions.ndim == 1
    est_rows = [pilot_estimates] if one else pilot_estimates
    pos_rows = [pilot_positions] if one else pilot_positions
    sizes = [len(p) for p in pos_rows]
    if not sizes or 0 in sizes or [len(e) for e in est_rows] != sizes:
        raise ValueError("pilot estimates/positions must be matching nonempty rows")
    est = np.concatenate(est_rows).astype(np.complex128, copy=False)
    pos = np.concatenate(pos_rows).astype(np.int64, copy=False)
    if est.ndim != 1 or pos.ndim != 1:
        raise ValueError("pilot estimates/positions must be matching 1-D arrays")
    if pos.min() < 0 or pos.max() >= cfg.subcarriers:
        raise ValueError("pilot positions outside the subcarrier range")
    # Row r's positions move to r * subcarriers + p.  In-range positions then
    # always rise across a row boundary, so one comparison checks every row.
    shift = np.repeat(np.arange(len(sizes)) * cfg.subcarriers, sizes)
    pos += shift
    if (pos[1:] <= pos[:-1]).any():
        raise ValueError("pilot positions must be strictly increasing")
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    query = shift[first, np.newaxis] + np.arange(cfg.subcarriers, dtype=np.float64)
    np.maximum(query, pos[first, np.newaxis], out=query)
    np.minimum(query, pos[last, np.newaxis], out=query)
    nodes = pos.astype(np.float64)
    gains = np.interp(query, nodes, est.real) + 1j * np.interp(query, nodes, est.imag)
    return ChannelEstimate(gains[0] if one else gains)


def nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mean squared error in dB, pooled over all elements.

    10*log10( sum|est - truth|^2 / sum|truth|^2 ), clamped below at
    -300 dB; an exact match reports the floor, an all-zero estimate
    reports 0 dB.  Real inputs are not cast to complex.
    """
    dtype = np.complex128 if np.iscomplexobj(estimate) or np.iscomplexobj(truth) else np.float64
    e, t = np.asarray(estimate, dtype=dtype), np.asarray(truth, dtype=dtype)
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
    imaginary parts are quantized independently with a full scale shared by
    both parts of a row: the largest magnitude in that row, so every client
    quantizes against its own estimate.
    """
    if bits < 0:
        raise ValueError("bits must be >= 0")
    if bits == 0:
        return estimate
    levels = 2 ** (bits - 1) - 1
    if levels < 1:
        raise ValueError("need at least 2 bits for a nonzero quantizer")
    h = estimate.gains
    scale = np.maximum(np.maximum(np.max(np.abs(h.real), axis=-1, keepdims=True),
                                  np.max(np.abs(h.imag), axis=-1, keepdims=True)), 1e-300)
    step = scale / levels
    return ChannelEstimate((np.round(h.real / step) + 1j * np.round(h.imag / step)) * step)
