"""Timing-offset models for the uplink.

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

from .errors import FieldError, check_choice

MODES = ("ptp_on", "ptp_off")

# Residual PTP error budget for COTS hosts (seconds).
DEFAULT_PTP_BOUND_S = 1e-6


@dataclass(frozen=True)
class SyncConfig:
    """How per-UE integer sample offsets are drawn each round."""

    mode: str = "ptp_on"
    ptp_bound_s: float = DEFAULT_PTP_BOUND_S
    off_spread: int = 0

    def __post_init__(self):
        check_choice("mode", self.mode, MODES)
        for name in ("ptp_bound_s", "off_spread"):
            if not 0 <= getattr(self, name) < math.inf:
                raise FieldError(name, "must be finite and >= 0")


def offset_reach(cfg: SyncConfig, sample_rate: float) -> tuple[str, float]:
    """The field that sets the largest offset, and that offset in samples
    before rounding up: ``ptp_bound_s`` times the sample rate with PTP,
    else ``off_spread``.  The product is a float, so it may be inf."""
    if cfg.mode == "ptp_on":
        return "ptp_bound_s", cfg.ptp_bound_s * sample_rate
    return "off_spread", cfg.off_spread


def offset_bound(cfg: SyncConfig, sample_rate: float) -> int:
    """Largest offset the configuration can draw, in samples."""
    return math.ceil(offset_reach(cfg, sample_rate)[1])


def draw_offsets(cfg: SyncConfig, num_ues: int, sample_rate: float, seed) -> np.ndarray:
    """Per-UE nonnegative integer sample offsets for one round.

    Offsets are uniform, drawn as floor(u * (bound + 1)) from a shared
    uniform variate, so sweeping the bound with a fixed seed yields offsets
    that scale monotonically with the bound (common random numbers).
    ``ota.check_run`` owns the ``num_ues`` check for a scenario; it stays for direct callers.
    """
    if num_ues < 1:
        raise ValueError("num_ues must be >= 1")
    bound = offset_bound(cfg, sample_rate)
    rng = np.random.default_rng(seed)
    u = rng.random(num_ues)
    offs = np.floor(u * (bound + 1)).astype(np.int64)
    return np.minimum(offs, bound)

