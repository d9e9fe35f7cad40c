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


def draw_offsets(cfg: SyncConfig, uniforms: np.ndarray, sample_rate: float) -> np.ndarray:
    """Per-UE nonnegative integer sample offsets for one round, one per
    uniform variate in ``uniforms``.

    Offsets are uniform, mapped as min(floor(u * (bound + 1)), bound), so
    one round's uniforms under every bound give offsets that scale
    monotonically with the bound (common random numbers).  A round draws
    its uniforms once, in its ``ota.RoundShare``, and every spread of a
    sync sweep maps the same ones.  ``ota.check_run`` owns the client-count
    check for a scenario; an empty ``uniforms`` is still rejected here for
    direct callers.
    """
    if uniforms.size < 1:
        raise ValueError("draw_offsets needs at least one uniform variate")
    bound = offset_bound(cfg, sample_rate)
    offs = np.floor(uniforms * (bound + 1)).astype(np.int64)
    return np.minimum(offs, bound)
