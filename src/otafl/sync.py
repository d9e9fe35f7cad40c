"""Timing-offset models for the uplink and correlation-peak diagnostics.

With PTP synchronization the residual host clock error is bounded by about
one microsecond, which at 3.84 MS/s is at most four samples -- safely inside
a 16-sample cyclic prefix.  Without PTP the offsets are drawn from a
configurable spread to study how aggregation degrades once symbols slide
past the prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import TimeSignal, detect_frame

MODES = ("ptp_on", "ptp_off")
DISTRIBUTIONS = ("uniform", "trunc_gauss")

# Residual PTP error budget for COTS hosts (seconds).
DEFAULT_PTP_BOUND_S = 1e-6


@dataclass(frozen=True)
class SyncConfig:
    """How per-UE integer sample offsets are drawn each round."""

    mode: str = "ptp_on"
    ptp_bound_s: float = DEFAULT_PTP_BOUND_S
    off_spread: int = 0
    distribution: str = "uniform"
    phase_offset_rad: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown sync mode {self.mode!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown offset distribution {self.distribution!r}")
        if self.ptp_bound_s < 0 or self.off_spread < 0 or self.phase_offset_rad < 0:
            raise ValueError("sync parameters must be >= 0")


def offset_bound(cfg: SyncConfig, sample_rate: float) -> int:
    """Largest offset the configuration can draw, in samples."""
    if cfg.mode == "ptp_on":
        return math.ceil(cfg.ptp_bound_s * sample_rate)
    return cfg.off_spread


def draw_offsets(cfg: SyncConfig, num_ues: int, sample_rate: float, seed) -> np.ndarray:
    """Per-UE nonnegative integer sample offsets for one round.

    Uniform offsets are drawn as floor(u * (bound + 1)) from a shared
    uniform variate, so sweeping the bound with a fixed seed yields offsets
    that scale monotonically with the bound (common random numbers).
    """
    if num_ues < 1:
        raise ValueError("num_ues must be >= 1")
    bound = offset_bound(cfg, sample_rate)
    rng = np.random.default_rng(seed)
    if bound == 0:
        # keep the draw count stable so downstream streams do not shift
        rng.random(num_ues)
        return np.zeros(num_ues, dtype=np.int64)
    if cfg.distribution == "uniform":
        u = rng.random(num_ues)
        offs = np.floor(u * (bound + 1)).astype(np.int64)
        return np.minimum(offs, bound)
    g = np.abs(rng.standard_normal(num_ues)) * (bound / 2.0)
    return np.clip(np.round(g), 0, bound).astype(np.int64)


def draw_phase_offsets(cfg: SyncConfig, num_ues: int, seed) -> np.ndarray:
    """Static per-UE carrier phase offsets, uniform in the configured range."""
    if num_ues < 1:
        raise ValueError("num_ues must be >= 1")
    if cfg.phase_offset_rad == 0.0:
        return np.zeros(num_ues)
    rng = np.random.default_rng(seed)
    return rng.uniform(-cfg.phase_offset_rad, cfg.phase_offset_rad, size=num_ues)


def peak_spread(signal: TimeSignal, preambles: list[np.ndarray]) -> list[tuple[int, int]]:
    """Correlation argmax offset for each UE's preamble in a composite signal.

    Returns (ue_id, offset) pairs in UE order; the spread max - min of the
    offsets measures how far apart the uplink arrivals landed.
    """
    if not preambles:
        raise ValueError("need at least one preamble")
    out = []
    for ue, p in enumerate(preambles):
        offset, _ = detect_frame(signal, p)
        out.append((ue, offset))
    return out


def spread_of(offsets: list[tuple[int, int]]) -> int:
    """max - min helper over (ue, offset) pairs."""
    vals = [o for _, o in offsets]
    return max(vals) - min(vals)
