"""Least-squares channel estimation, comb interpolation and the NMSE metric.

Comb interpolation walks every client in one pass: each client's pilot
nodes and queries sit on one axis at their own offset, so two ``np.interp``
calls (real and imaginary parts) serve all of them, and each client's held
ends are copied in after.  The layout that places them depends only on the
pilot masks; ``ota`` builds it once per client count and grid.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Reporting floor: ratios at or below 1e-30 (including exact equality) are
# clamped to -300 dB so traces stay finite.
NMSE_FLOOR_DB = -300.0


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
    if np.any(x == 0):
        raise ValueError("known pilot values must be nonzero")
    return y / x


class CombLayout(NamedTuple):
    """Where every client's pilots sit on one pilot row, for
    :func:`interpolate`; :func:`comb_layout` builds it from the masks.

    Client ``ue``'s pilot nodes and its ``width`` queries share one axis,
    offset by ``ue * 2 * width``, so one ``np.interp`` call walks every
    client.  ``pilots`` is the subcarrier of each node, client by client;
    ``first`` and ``last`` index each client's outermost pilots in it; and
    ``below`` and ``above`` are the ``(clients, width)`` subcarriers each
    client holds at its first or last pilot value.
    """

    width: int
    pilots: np.ndarray
    nodes: np.ndarray
    queries: np.ndarray
    first: np.ndarray
    last: np.ndarray
    below: np.ndarray
    above: np.ndarray


def comb_layout(masks: np.ndarray) -> CombLayout:
    """The read-only :class:`CombLayout` of the boolean pilot ``masks``,
    one row per client, true on the subcarriers that carry its pilots."""
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2:
        raise ValueError("the pilot masks must be one row per client")
    counts = masks.sum(axis=1)
    if not counts.all():
        raise ValueError("every client needs at least one pilot")
    clients, width = masks.shape
    ues, pilots = np.nonzero(masks)
    stride = 2 * width  # any offset of at least width keeps each client's nodes apart
    last = np.cumsum(counts) - 1
    first = last - (counts - 1)
    subcarriers = np.arange(width)
    layout = CombLayout(
        width, pilots,
        (pilots + ues * stride).astype(np.float64),
        (subcarriers + stride * np.arange(clients)[:, np.newaxis]).ravel().astype(np.float64),
        first, last,
        subcarriers < pilots[first][:, np.newaxis],
        subcarriers > pilots[last][:, np.newaxis],
    )
    for array in layout[1:]:
        array.flags.writeable = False
    return layout


def interpolate(row: np.ndarray, layout: CombLayout) -> np.ndarray:
    """Fill one gain per subcarrier for every client from one pilot row.

    ``row`` is the comb event's least-squares estimate on every subcarrier;
    ``layout``, built once from the pilot masks by :func:`comb_layout`,
    says where each client's pilots sit.  Each client is interpolated
    linearly in frequency between its own pilots, real and imaginary parts
    separately, with the ends held at its outermost pilot values.  Under
    block fading a client's row is its estimate for every symbol of the
    round.  The result is ``(clients, subcarriers)``.

    One pass serves every client: one ``np.interp`` call for the real parts
    and one for the imaginary parts, on the layout's offset axis, so
    numpy's own loop computes every value between a client's pilots from
    the operands a call for that client alone would use.  Each client's
    held ends are then copied in, and the parts are combined as one
    client's are, so every client gets the bits of a call of its own.
    """
    row = np.asarray(row, dtype=np.complex128)
    if row.shape != (layout.width,):
        raise ValueError("the pilot row must be as long as each client's mask")
    shape = layout.below.shape
    if not shape[0]:
        return np.empty(shape, dtype=np.complex128)  # np.interp takes no empty node list
    values = row[layout.pilots]
    re, im = (_held_interp(layout, part) for part in (values.real, values.imag))
    return re + 1j * im


def _held_interp(layout: CombLayout, values: np.ndarray) -> np.ndarray:
    """Every client's interpolation of its pilot ``values``, one real part,
    with the ends held at its outermost pilot values."""
    out = np.interp(layout.queries, layout.nodes, values).reshape(layout.below.shape)
    np.copyto(out, values[layout.first][:, np.newaxis], where=layout.below)
    np.copyto(out, values[layout.last][:, np.newaxis], where=layout.above)
    return out


def energy(values: np.ndarray) -> float:
    """sum|values|^2, the denominator of :func:`nmse`."""
    power = np.abs(values)
    power *= power
    return float(power.sum())


def nmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mean squared error in dB, pooled over all elements.

    10*log10( sum|est - truth|^2 / sum|truth|^2 ), clamped below at
    -300 dB; an exact match reports the floor, an all-zero estimate
    reports 0 dB.  Real inputs are not cast to complex.  A nonzero truth
    too small to square, whose energy is zero or subnormal, is first
    scaled with the estimate by the power of two that brings its largest
    magnitude into [0.5, 1), which is exact for finite values, so it gets
    an NMSE too.  An all-zero truth has none and is an error.
    """
    dtype = np.complex128 if np.iscomplexobj(estimate) or np.iscomplexobj(truth) else np.float64
    e, t = np.asarray(estimate, dtype=dtype), np.asarray(truth, dtype=dtype)
    if e.shape != t.shape:
        raise ValueError("estimate and truth must have equal shape")
    denom = energy(t)
    if denom < np.finfo(np.float64).tiny:
        if not t.any():
            raise ValueError("truth has zero energy; NMSE undefined")
        # max|t| < 2**-511 here, so each half of the power of two stays in
        # float range, and scaling finite values up by it is exact.
        exponent = int(np.frexp(np.abs(t).max())[1])
        for step in (exponent // 2, exponent - exponent // 2):
            e, t = e * 2.0**-step, t * 2.0**-step
        denom = energy(t)
    ratio = energy(e - t) / denom
    if ratio <= 1e-30:
        return NMSE_FLOOR_DB
    return max(10.0 * np.log10(ratio), NMSE_FLOOR_DB)
