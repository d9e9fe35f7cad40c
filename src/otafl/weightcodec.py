"""Mapping between model-update vectors and OFDM payload blocks.

A real update vector is divided by one ``(scale_i, scale_q)`` pair of I/Q
peak scales (``peak_scales``) and packed two reals per resource element
(even positions real, odd imaginary), row-major into one client's
``(payload_symbols, subcarriers)`` block: its float64 view is the scaled
update, then zeros to the end of its last symbol.  The transmitter builds
the pair once per aggregation as one length-P divisor vector
``[scale_i, scale_q, scale_i, ...]`` (``rail_divisors``), so packing an
update is one contiguous division.  Both link ends use the layout; the
frame still spans whole slots (``slot_plan``), and the symbols after the
block carry nothing.
"""

from __future__ import annotations

import numpy as np

from .grid import GridConfig


def rail_peaks(deltas: list[np.ndarray]) -> np.ndarray:
    """Each client's raw (I, Q) peak magnitudes, one ``(I, Q)`` row per
    client: an empty rail reads 0, and a non-finite entry gives a NaN or
    infinite peak, so a caller can reject the client by its own row."""
    peaks = np.zeros((len(deltas), 2))
    for row, d in zip(peaks, deltas):
        d = np.asarray(d, dtype=np.float64)
        # each rail's magnitudes from its own strided view: no |d| copy
        if d.size > 0:
            row[0] = np.abs(d[0::2]).max()
        if d.size > 1:
            row[1] = np.abs(d[1::2]).max()
    return peaks


def peak_scales(peaks: np.ndarray) -> tuple[float, float]:
    """(I, Q) scales from rows of :func:`rail_peaks`: each rail's largest
    peak over the rows, or 1.0 when that peak is zero or there are no rows.

    A zero rail of one row therefore does not force the scale to 1.0 while
    another row is nonzero.  NaN propagates through the maximum whatever
    the row order, and a non-finite scale is returned as it is.
    """
    largest = np.max(np.reshape(peaks, (-1, 2)), axis=0, initial=0.0)
    peak_i, peak_q = float(largest[0]), float(largest[1])
    return (1.0 if peak_i == 0.0 else peak_i), (1.0 if peak_q == 0.0 else peak_q)


def scale_updates(
    delta: np.ndarray, shared_scale: tuple[float, float] | None = None
) -> tuple[np.ndarray, tuple[float, float]]:
    """Normalize an update so both I and Q streams peak at most at 1; return
    it with the ``(scale_i, scale_q)`` pair that undoes it.

    Even-indexed entries feed the real (I) rail, odd-indexed entries the
    imaginary (Q) rail.  With ``shared_scale`` the caller supplies a common
    (scale_i, scale_q) pair negotiated across UEs so the analog sum can be
    descaled without bias; otherwise the update's own peaks are used.  A
    scale that is not positive, NaN included, is rejected by name.
    """
    d = np.asarray(delta, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("update must be a nonempty 1-D vector")
    if shared_scale is None:
        scales, source = peak_scales(rail_peaks([d])), "the update's peak"
    else:
        scales, source = (float(shared_scale[0]), float(shared_scale[1])), "shared_scale's"
    for name, scale in zip(("scale_i", "scale_q"), scales):
        if not scale > 0:
            raise ValueError(f"{source} {name} must be positive, got {scale}")
    out = d.copy()
    out[0::2] /= scales[0]
    out[1::2] /= scales[1]
    return out, scales


def pack_complex(values: np.ndarray) -> np.ndarray:
    """Pair consecutive reals into complex symbols, zero-padding odd tails."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-D vector")
    odd = np.zeros((v.size + 1) // 2)
    odd[:v.size // 2] = v[1::2]
    return v[0::2] + 1j * odd


def payload_symbols(param_count: int, cfg: GridConfig) -> int:
    """OFDM symbols that hold ``param_count`` reals at 2 reals per resource
    element: the payload symbols both link ends work on.  The rest of the
    last slot is zero and is never built, precoded or read."""
    if param_count < 1:
        raise ValueError("param_count must be >= 1")
    return -(-param_count // (2 * cfg.subcarriers))


def slot_plan(param_count: int, cfg: GridConfig) -> int:
    """Payload slots needed for ``param_count`` reals at 2 reals per resource element."""
    return -(-payload_symbols(param_count, cfg) // cfg.symbols_per_slot)


def rail_divisors(scales: tuple[float, float], param_count: int) -> np.ndarray:
    """The (I, Q) ``scales`` laid over ``param_count`` reals as
    :func:`pack_payload` divides by them: ``[scale_i, scale_q, scale_i, ...]``."""
    divisors = np.empty(param_count)
    divisors[0::2], divisors[1::2] = scales
    return divisors


def pack_payload(delta: np.ndarray, divisors: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write one client's update, divided elementwise by ``divisors`` (the
    :func:`rail_divisors` of its (I, Q) scales), into the caller's
    C-contiguous payload block ``out`` and return it: its float64 view
    interleaves real and imaginary parts as :func:`pack_complex` pairs them
    (even -> I, odd -> Q), and every real after the last parameter is zero,
    so one block serves every client in turn.
    """
    d = np.asarray(delta, dtype=np.float64)
    reals = out.reshape(-1).view(np.float64)
    np.divide(d, divisors, out=reals[:d.size])
    reals[d.size:] = 0.0
    return out


def map_to_grids(symbols: np.ndarray, slots: int, cfg: GridConfig) -> np.ndarray:
    """Write complex symbols row-major into a ``(slots * symbols_per_slot,
    subcarriers)`` payload block, zero after the last symbol."""
    s = np.asarray(symbols, dtype=np.complex128)
    block = np.zeros((slots * cfg.symbols_per_slot, cfg.subcarriers), dtype=np.complex128)
    if s.ndim != 1 or s.size > block.size:
        raise ValueError(f"{s.size} symbols exceed a {slots}-slot payload")
    block.reshape(-1)[:s.size] = s
    return block


def unmap_from_grids(
    block: np.ndarray, param_count: int, scales: tuple[float, float]
) -> np.ndarray:
    """The first ``param_count`` reals of a payload block's float64 view
    (even -> I, odd -> Q), multiplied back by the component scales."""
    reals = np.ascontiguousarray(block, dtype=np.complex128).reshape(-1).view(np.float64)
    if not 1 <= param_count <= reals.size:
        raise ValueError(f"a block of {reals.size} reals cannot hold {param_count} parameters")
    out = reals[:param_count].copy()
    out[0::2] *= scales[0]
    out[1::2] *= scales[1]
    return out
