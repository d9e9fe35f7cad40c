"""Mapping between model-update vectors and OFDM resource grids.

A real update vector is peak-normalized per I/Q component, packed two reals
per complex symbol (even positions become real parts, odd positions become
imaginary parts) and written row-major into as many payload slots as the
parameter count requires.  The receiver walks the same path backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridConfig, ResourceGrid


@dataclass
class ScaledUpdate:
    """Peak-normalized update plus the scales needed to undo it."""

    values: np.ndarray
    scale_i: float
    scale_q: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("scaled update must be a nonempty vector")
        if self.scale_i <= 0 or self.scale_q <= 0:
            raise ValueError("scales must be positive")


@dataclass(frozen=True)
class SlotPlan:
    """How many payload slots a parameter count occupies and the padding."""

    slots: int
    pad: int

    def __post_init__(self):
        if self.slots < 1 or self.pad < 0:
            raise ValueError("slot plan needs slots >= 1 and pad >= 0")

    def param_count(self, cfg: GridConfig) -> int:
        return 2 * self.slots * cfg.res_per_slot - self.pad


def shared_peaks(deltas: list[np.ndarray]) -> tuple[float, float]:
    """Common (I, Q) peak magnitudes of raw updates, with zero guards.

    Each rail takes the largest peak over all clients and falls back to 1.0
    only when that largest peak is zero or the rail is empty, so a client
    whose rail is all zero does not force the shared scale to 1.0.
    """
    peaks_i, peaks_q = [], []
    for d in deltas:
        magnitude = np.abs(np.asarray(d, dtype=np.float64))
        if magnitude.size > 0:
            peaks_i.append(float(magnitude[0::2].max()))
        if magnitude.size > 1:
            peaks_q.append(float(magnitude[1::2].max()))
    peak_i, peak_q = max(peaks_i, default=0.0), max(peaks_q, default=0.0)
    return (peak_i if peak_i > 0.0 else 1.0), (peak_q if peak_q > 0.0 else 1.0)


def component_peaks(delta: np.ndarray) -> tuple[float, float]:
    """(I, Q) peak magnitudes of one raw update, with zero guards."""
    return shared_peaks([delta])


def scale_updates(delta: np.ndarray, shared_scale: tuple[float, float] | None = None) -> ScaledUpdate:
    """Normalize an update so both I and Q streams peak at most at 1.

    Even-indexed entries feed the real (I) rail, odd-indexed entries the
    imaginary (Q) rail.  With ``shared_scale`` the caller supplies a common
    (scale_i, scale_q) pair negotiated across UEs so the analog sum can be
    descaled without bias; otherwise the update's own peaks are used.
    """
    d = np.asarray(delta, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("update must be a nonempty 1-D vector")
    if shared_scale is None:
        scale_i, scale_q = component_peaks(d)
    else:
        scale_i, scale_q = float(shared_scale[0]), float(shared_scale[1])
        if scale_i <= 0 or scale_q <= 0:
            raise ValueError("shared scales must be positive")
    out = d.copy()
    out[0::2] /= scale_i
    out[1::2] /= scale_q
    return ScaledUpdate(out, scale_i, scale_q)


def unscale_updates(update: ScaledUpdate) -> np.ndarray:
    """Inverse of :func:`scale_updates` for a known scale pair."""
    out = update.values.copy()
    out[0::2] *= update.scale_i
    out[1::2] *= update.scale_q
    return out


def pack_complex(values: np.ndarray) -> np.ndarray:
    """Pair consecutive reals into complex symbols, zero-padding odd tails."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-D vector")
    odd = np.zeros((v.size + 1) // 2)
    odd[:v.size // 2] = v[1::2]
    return v[0::2] + 1j * odd


def unpack_complex(symbols: np.ndarray, count: int) -> np.ndarray:
    """Inverse of :func:`pack_complex`, truncated to ``count`` reals."""
    s = np.asarray(symbols, dtype=np.complex128)
    out = np.empty(2 * s.size, dtype=np.float64)
    out[0::2] = s.real
    out[1::2] = s.imag
    return out[:count]


def slot_plan(param_count: int, cfg: GridConfig) -> SlotPlan:
    """Slots needed for ``param_count`` reals at 2 reals per resource element."""
    if param_count < 1:
        raise ValueError("param_count must be >= 1")
    capacity = 2 * cfg.res_per_slot
    slots = math.ceil(param_count / capacity)
    return SlotPlan(slots=slots, pad=slots * capacity - param_count)


def map_to_grids(symbols: np.ndarray, plan: SlotPlan, cfg: GridConfig) -> list[ResourceGrid]:
    """Write complex symbols row-major into ``plan.slots`` payload grids."""
    s = np.asarray(symbols, dtype=np.complex128)
    total = plan.slots * cfg.res_per_slot
    if s.ndim != 1 or s.size > total:
        raise ValueError(f"{s.size} symbols exceed a {plan.slots}-slot plan")
    flat = np.zeros(total, dtype=np.complex128)
    flat[:s.size] = s
    cube = flat.reshape(plan.slots, cfg.symbols_per_slot, cfg.subcarriers)
    return [ResourceGrid(cube[k]) for k in range(plan.slots)]


def unmap_from_grids(
    grids: list[ResourceGrid],
    plan: SlotPlan,
    scales: tuple[float, float],
    cfg: GridConfig,
) -> np.ndarray:
    """Inverse of the map: flatten, unpack and restore the component scales."""
    if len(grids) != plan.slots:
        raise ValueError(f"expected {plan.slots} grids, got {len(grids)}")
    flat = np.concatenate([g.data.reshape(-1) for g in grids])
    count = plan.param_count(cfg)
    symbols = flat[:math.ceil(count / 2)]
    out = unpack_complex(symbols, count)
    out[0::2] *= scales[0]
    out[1::2] *= scales[1]
    return out
