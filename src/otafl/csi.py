"""Least-squares channel estimation, comb interpolation and the NMSE metric."""

from __future__ import annotations

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
    if np.any(np.abs(x) == 0):
        raise ValueError("known pilot values must be nonzero")
    return y / x


def interpolate(row: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Fill one gain per subcarrier for every client from one pilot row.

    ``row`` is the comb event's least-squares estimate on every subcarrier;
    client ``ue``'s pilots are where the boolean row ``masks[ue]`` is true.
    Each client is interpolated linearly in frequency between its own
    pilots, real and imaginary parts separately, with the ends held at its
    outermost pilot values.  Under block fading a client's row is its
    estimate for every symbol of the round.  The result is ``(clients,
    subcarriers)``.
    """
    row = np.asarray(row, dtype=np.complex128)
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or row.shape != masks.shape[1:]:
        raise ValueError("the pilot row must be as long as each client's mask")
    if not masks.any(axis=1).all():
        raise ValueError("every client needs at least one pilot")
    query = np.arange(row.size)
    out = np.empty(masks.shape, dtype=np.complex128)
    for ue, mask in enumerate(masks):
        nodes, pilots = query[mask], row[mask]
        out[ue] = np.interp(query, nodes, pilots.real) + 1j * np.interp(query, nodes, pilots.imag)
    return out


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

