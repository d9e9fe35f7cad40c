"""Channel estimation: least squares, interpolation and NMSE."""

import numpy as np
import pytest

from otafl import ota
from otafl.csi import (
    NMSE_FLOOR_DB,
    comb_layout,
    energy,
    interpolate,
    ls_estimate,
    nmse,
)
from otafl.grid import GridConfig
from oracles import interpolate_each_client

CFG = GridConfig(subcarriers=16, symbols_per_slot=3)


def test_ls_is_exact_without_noise():
    h = np.array([1 + 2j, -0.5j, 3.0])
    x = np.exp(1j * np.array([0.1, 0.2, 0.3]))
    np.testing.assert_allclose(ls_estimate(h * x, x), h, atol=1e-14)


def test_ls_noise_passthrough_for_unit_pilots():
    """Dividing by unit-modulus pilots rotates the noise without changing
    its magnitude, so per-pilot error equals the raw observation error."""
    rng = np.random.default_rng(0)
    h = rng.normal(size=64) + 1j * rng.normal(size=64)
    x = np.exp(1j * rng.uniform(0, 2 * np.pi, size=64))
    noise = 0.1 * (rng.normal(size=64) + 1j * rng.normal(size=64))
    est = ls_estimate(h * x + noise, x)
    np.testing.assert_allclose(np.abs(est - h), np.abs(noise), atol=1e-12)


def test_ls_validation():
    with pytest.raises(ValueError):
        ls_estimate(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        ls_estimate(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        ls_estimate(np.ones(3), np.array([1.0, 0.0, 1.0]))


# ---------------------------------------------------------- interpolation


def _mask(pos, width=CFG.subcarriers):
    mask = np.zeros((1, width), dtype=bool)
    mask[0, pos] = True
    return mask


def test_interpolate_exact_at_pilots_and_holds_ends():
    pos = np.array([4, 8, 12])
    vals = np.array([1 + 1j, 2 - 1j, -3 + 0.5j])
    row = np.full(16, 99.0 - 99j)  # off-pilot entries are never read
    row[pos] = vals
    est = interpolate(row, comb_layout(_mask(pos)))[0]
    assert est.shape == (16,)
    np.testing.assert_array_equal(est[pos], vals)
    # outside the pilot span the nearest pilot value is held
    np.testing.assert_array_equal(est[:4], np.full(4, vals[0]))
    np.testing.assert_array_equal(est[13:], np.full(3, vals[-1]))


def test_interpolate_recovers_linear_ramp_exactly():
    """Linear-in-frequency channels are reconstructed exactly from any comb
    whose pilots bracket the band (outside the span the end value is held,
    so the edges must carry pilots)."""
    n = CFG.subcarriers
    truth = (0.5 + 0.25j) * np.arange(n) + (1 - 2j)
    est = interpolate(truth, comb_layout(_mask([0, 5, 10, n - 1])))[0]
    np.testing.assert_allclose(est, truth, atol=1e-12)


def test_interpolate_gives_one_gain_per_subcarrier():
    """Block fading holds one gain per subcarrier for the whole round, so
    the estimate is a single row whatever the symbols per slot."""
    row = np.zeros(CFG.subcarriers, dtype=complex)
    row[7] = 1.0
    est = interpolate(row, comb_layout(_mask([7])))[0]
    assert est.shape == (CFG.subcarriers,)
    np.testing.assert_array_equal(est, np.ones(CFG.subcarriers, dtype=complex))


def test_interpolate_validation():
    """A boolean mask cannot be out of range, unsorted or ragged, so only a
    width mismatch, masks that are not one row per client and a client
    without pilots are left to reject."""
    with pytest.raises(ValueError, match="as long as"):
        interpolate(np.ones(15), comb_layout(_mask([3])))
    with pytest.raises(ValueError, match="one row per client"):
        comb_layout(_mask([3])[0])
    with pytest.raises(ValueError, match="at least one pilot"):
        comb_layout(np.vstack([_mask([1, 2]), _mask([])]))


# ------------------------------------------------- one row per client, bit for bit
#
# Each stage called once on every client's row must give the same bits as
# one call per row, and as the per-row formula written out here.

WIDE = GridConfig(subcarriers=256)


def _bits(a):
    return np.asarray(a, dtype=np.complex128).view(np.uint64)


def _rows(num, width, seed):
    """Random complex rows with some weak and some dead (zero) entries."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(num, width)) + 1j * rng.normal(size=(num, width))
    rows[rng.random((num, width)) < 0.1] *= 1e-3
    rows[rng.random((num, width)) < 0.05] = 0.0
    return rows


def _special_rows(count, width, seed):
    """Random complex rows whose real and imaginary parts each hold some
    +0.0, -0.0, NaN, +inf and -inf entries."""
    rows = _rows(count, width, seed)
    rng = np.random.default_rng(seed + 100)
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf])
    for part in (rows.real, rows.imag):
        hit = rng.random(part.shape) < 0.15
        part[hit] = rng.choice(specials, size=int(hit.sum()))
    return rows


def _assert_matches_the_loop(rows, masks, layout):
    """Each row's interpolation, in one call and per client, gives the
    per-client loop's bits.  ``1j * inf`` warns, so the inf rows run
    with the invalid flag ignored on both sides."""
    with np.errstate(invalid="ignore"):
        for row in rows:
            got = interpolate(row, layout)
            want = interpolate_each_client(row, masks)
            assert got.shape == want.shape == masks.shape
            np.testing.assert_array_equal(_bits(got), _bits(want))
            for ue in range(len(masks)):
                alone = interpolate(row, comb_layout(masks[ue:ue + 1]))
                np.testing.assert_array_equal(_bits(got[ue]), _bits(alone[0]))


@pytest.mark.parametrize("num_ues", [1, 2, 5, 12, 60])
def test_ls_estimate_rows_match_per_row_calls(num_ues):
    received = _rows(num_ues, WIDE.subcarriers, seed=num_ues)
    known = np.exp(1j * np.linspace(0, 6, WIDE.subcarriers))
    got = ls_estimate(received, known)
    assert got.shape == received.shape
    for ue in range(num_ues):
        np.testing.assert_array_equal(_bits(got[ue]), _bits(ls_estimate(received[ue], known)))
        np.testing.assert_array_equal(_bits(got[ue]), _bits(received[ue] / known))


@pytest.mark.parametrize("num_ues", [1, 3, 5, 12, 20, 60])
def test_comb_interpolation_rows_match_per_row_calls(num_ues):
    """Comb pilot sets of unequal length (256 = 12 * 21 + 4), so every
    client holds different ends, on rows with signed zeros, NaN and inf:
    the one pass on the cached layout gives the per-client loop's bits."""
    masks = ota._pilot_masks(num_ues, WIDE, "fdm_comb")
    _assert_matches_the_loop(_special_rows(4, WIDE.subcarriers, seed=num_ues), masks,
                             ota._comb_layout(num_ues, WIDE))


def test_ragged_interpolation_rows_match_per_row_calls():
    """Arbitrary pilot sets on two widths: a single pilot, pilots at both
    ends, uneven counts, a client with only its top subcarrier and one
    with every subcarrier; an all-true mask returns the row unchanged."""
    rng = np.random.default_rng(4)
    for width in (WIDE.subcarriers, 37):
        masks = np.zeros((9, width), dtype=bool)
        for ue, k in enumerate((1, 2, 7, width // 6, width)):
            masks[ue, rng.choice(width, size=k, replace=False)] = True
        masks[5, [0, width - 1]] = True
        masks[6, [0, 3, 4, width - 1]] = True
        masks[7, width - 1] = True
        masks[8, :width // 2:3] = True
        rows = _special_rows(4, width, seed=width)
        _assert_matches_the_loop(rows, masks, comb_layout(masks))
        finite = _rows(1, width, seed=9)[0]
        np.testing.assert_array_equal(_bits(interpolate(finite, comb_layout(masks))[4]),
                                      _bits(finite))


def test_interpolation_of_no_client_is_an_empty_block():
    """A mask set with no client gives a (0, subcarriers) block, as the
    per-client loop does."""
    masks = np.zeros((0, WIDE.subcarriers), dtype=bool)
    row = _rows(1, WIDE.subcarriers, seed=2)[0]
    got = interpolate(row, comb_layout(masks))
    assert got.shape == interpolate_each_client(row, masks).shape == (0, WIDE.subcarriers)
    assert got.dtype == np.complex128


@pytest.mark.parametrize("num_ues", [1, 5, 60])
def test_interpolation_makes_two_interp_calls_whatever_the_client_count(monkeypatch, num_ues):
    """One call for the real parts of every client and one for the
    imaginary parts."""
    calls = []
    interp = np.interp

    def counting(*args, **kwargs):
        calls.append(args)
        return interp(*args, **kwargs)

    monkeypatch.setattr(np, "interp", counting)
    interpolate(_rows(1, WIDE.subcarriers, seed=1)[0], ota._comb_layout(num_ues, WIDE))
    assert len(calls) == 2


# ------------------------------------------------------------------ nmse


def test_nmse_hand_values():
    t = np.array([1.0, 1.0, 1.0, 1.0])
    assert nmse(t, t) == NMSE_FLOOR_DB
    # doubling the truth: |2t - t|^2 / |t|^2 = 1 -> 0 dB
    assert nmse(2 * t, t) == pytest.approx(0.0, abs=1e-12)
    # |e - t|^2 = 0.01 * |t|^2 -> -20 dB
    assert nmse(t * 1.1, t) == pytest.approx(-20.0, abs=1e-9)


def test_nmse_pools_over_all_elements():
    t = np.ones((2, 3))
    e = t.copy()
    e[0, 0] = 1.0 + np.sqrt(6) * 0.1  # single-element error of 0.06 total
    assert nmse(e, t) == pytest.approx(10 * np.log10(0.01), abs=1e-9)


@pytest.mark.parametrize("size", [1, 2, 64, 10_001])
def test_nmse_of_real_vectors_matches_the_complex_cast(size):
    """Real inputs are not cast to complex, and the result keeps its bits,
    also when the caller hands the truth's energy in."""
    rng = np.random.default_rng(size)
    t = rng.normal(size=size)
    e = t + 0.1 * rng.normal(size=size)
    assert nmse(e, t) == nmse(e.astype(complex), t.astype(complex))
    assert nmse(e, t, energy(t)) == nmse(e, t)
    assert energy(t) == float(np.sum(np.abs(t) ** 2))
    assert nmse(t, t) == NMSE_FLOOR_DB


def test_nmse_validation():
    with pytest.raises(ValueError):
        nmse(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        nmse(np.ones(3), np.zeros(3))
