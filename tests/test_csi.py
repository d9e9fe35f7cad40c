"""Channel estimation: least squares, interpolation, NMSE and feedback quantization."""

import numpy as np
import pytest

from otafl import ota
from otafl.csi import (
    NMSE_FLOOR_DB,
    interpolate,
    ls_estimate,
    nmse,
    quantize_estimate,
    quantizer_levels,
)
from otafl.grid import GridConfig

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
    est = interpolate(row, _mask(pos))[0]
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
    est = interpolate(truth, _mask([0, 5, 10, n - 1]))[0]
    np.testing.assert_allclose(est, truth, atol=1e-12)


def test_interpolate_gives_one_gain_per_subcarrier():
    """Block fading holds one gain per subcarrier for the whole round, so
    the estimate is a single row whatever the symbols per slot."""
    row = np.zeros(CFG.subcarriers, dtype=complex)
    row[7] = 1.0
    est = interpolate(row, _mask([7]))[0]
    assert est.shape == (CFG.subcarriers,)
    np.testing.assert_array_equal(est, np.ones(CFG.subcarriers, dtype=complex))


def test_interpolate_validation():
    """A boolean mask cannot be out of range, unsorted or ragged, so only a
    width mismatch and a client without pilots are left to reject."""
    with pytest.raises(ValueError, match="as long as"):
        interpolate(np.ones(15), _mask([3]))
    with pytest.raises(ValueError, match="as long as"):
        interpolate(np.ones(16), _mask([3])[0])
    with pytest.raises(ValueError, match="at least one pilot"):
        interpolate(np.ones(16), np.vstack([_mask([1, 2]), _mask([])]))


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


def _interp_reference(row, mask):
    grid_pos = np.arange(row.size)
    values, positions = row[mask], grid_pos[mask]
    return np.interp(grid_pos, positions, values.real) + 1j * np.interp(
        grid_pos, positions, values.imag)


@pytest.mark.parametrize("num_ues", [1, 2, 5, 12, 60])
def test_ls_estimate_rows_match_per_row_calls(num_ues):
    received = _rows(num_ues, WIDE.subcarriers, seed=num_ues)
    known = np.exp(1j * np.linspace(0, 6, WIDE.subcarriers))
    got = ls_estimate(received, known)
    assert got.shape == received.shape
    for ue in range(num_ues):
        np.testing.assert_array_equal(_bits(got[ue]), _bits(ls_estimate(received[ue], known)))
        np.testing.assert_array_equal(_bits(got[ue]), _bits(received[ue] / known))


@pytest.mark.parametrize("num_ues", [1, 3, 5, 12, 60])
def test_comb_interpolation_rows_match_per_row_calls(num_ues):
    """Comb pilot sets of unequal length (256 = 12 * 21 + 4), so every
    client holds different ends."""
    masks = ota._pilot_masks(num_ues, WIDE, "fdm_comb")
    full = _rows(1, WIDE.subcarriers, seed=num_ues)[0]
    got = interpolate(full, masks)
    assert got.shape == (num_ues, WIDE.subcarriers)
    for ue in range(num_ues):
        row = interpolate(full, masks[ue:ue + 1])[0]
        np.testing.assert_array_equal(_bits(got[ue]), _bits(row))
        np.testing.assert_array_equal(_bits(got[ue]), _bits(_interp_reference(full, masks[ue])))


def test_ragged_interpolation_rows_match_per_row_calls():
    """Arbitrary pilot sets, one of a single pilot and one of every
    subcarrier; an all-true mask returns the row unchanged."""
    rng = np.random.default_rng(4)
    width = WIDE.subcarriers
    masks = np.zeros((5, width), dtype=bool)
    for ue, k in enumerate((1, 2, 7, 40, width)):
        masks[ue, rng.choice(width, size=k, replace=False)] = True
    full = _rows(1, width, seed=9)[0]
    got = interpolate(full, masks)
    for ue, mask in enumerate(masks):
        np.testing.assert_array_equal(_bits(got[ue]), _bits(interpolate(full, mask[None])[0]))
        np.testing.assert_array_equal(_bits(got[ue]), _bits(_interp_reference(full, mask)))
    np.testing.assert_array_equal(_bits(got[-1]), _bits(full))


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_quantize_rows_match_per_row_calls(bits):
    """Each row is quantized against its own full scale, an all-zero row
    included."""
    rows = _rows(6, WIDE.subcarriers, seed=bits)
    rows[2] *= 100.0
    rows[4] = 0.0
    got = quantize_estimate(rows, bits)
    levels = 2 ** (bits - 1) - 1
    for ue, h in enumerate(rows):
        row = quantize_estimate(h, bits)
        np.testing.assert_array_equal(_bits(got[ue]), _bits(row))
        step = max(np.max(np.abs(h.real)), np.max(np.abs(h.imag)), 1e-300) / levels
        want = (np.round(h.real / step) + 1j * np.round(h.imag / step)) * step
        np.testing.assert_array_equal(_bits(got[ue]), _bits(want))


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
    """Real inputs are not cast to complex, and the result keeps its bits."""
    rng = np.random.default_rng(size)
    t = rng.normal(size=size)
    e = t + 0.1 * rng.normal(size=size)
    assert nmse(e, t) == nmse(e.astype(complex), t.astype(complex))
    assert nmse(t, t) == NMSE_FLOOR_DB


def test_nmse_validation():
    with pytest.raises(ValueError):
        nmse(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        nmse(np.ones(3), np.zeros(3))


# ---------------------------------------------------------- quantization


def _estimate_fixture():
    rng = np.random.default_rng(5)
    row = np.zeros(16, dtype=complex)
    row[::2] = rng.normal(size=8) + 1j * rng.normal(size=8)
    return interpolate(row, _mask(np.arange(0, 16, 2)))[0]


def test_quantize_zero_bits_is_identity():
    est = _estimate_fixture()
    assert quantize_estimate(est, 0) is est


def test_quantize_error_bound():
    """Uniform mid-tread quantization keeps each part within half a step."""
    est = _estimate_fixture()
    for bits in (4, 8, 12):
        q = quantize_estimate(est, bits)
        levels = 2 ** (bits - 1) - 1
        scale = max(
            np.max(np.abs(est.real)), np.max(np.abs(est.imag))
        )
        step = scale / levels
        assert q.shape == est.shape == (CFG.subcarriers,)
        err = q - est
        assert np.max(np.abs(err.real)) <= step / 2 + 1e-12
        assert np.max(np.abs(err.imag)) <= step / 2 + 1e-12


def test_quantize_error_shrinks_with_bits():
    est = _estimate_fixture()
    errs = [
        np.max(np.abs(quantize_estimate(est, b) - est))
        for b in (3, 6, 10)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_quantize_validation():
    est = _estimate_fixture()
    with pytest.raises(ValueError):
        quantize_estimate(est, -1)
    with pytest.raises(ValueError):
        quantize_estimate(est, 1)  # one bit leaves no nonzero level
    with pytest.raises(ValueError, match="float range"):
        quantize_estimate(est, 1025)  # 2 ** 1024 - 1 levels is past float range
    assert np.isfinite(quantize_estimate(est, 1024)).all()
    # the step, not the full scale, is floored: an all-zero row at 80 bits
    # and a 1e-295 row at 1024 bits used to quantize to NaN
    zero = quantize_estimate(np.zeros((1, 3), dtype=complex), 80)
    assert np.isfinite(zero).all() and not zero.any()
    small = quantize_estimate(np.full((1, 3), 1e-295 - 1e-295j), 1024)
    assert np.isfinite(small).all()
    np.testing.assert_allclose(small, 1e-295 - 1e-295j, rtol=1e-12)


@pytest.mark.parametrize("bits, levels", [(0, 0.0), (2, 1.0), (8, 127.0), (1024, 2.0**1023 - 1)])
def test_quantizer_levels(bits, levels):
    assert quantizer_levels(bits) == levels


@pytest.mark.parametrize("bits", [-1, 1, 1025])
def test_quantizer_levels_rejects_bits_without_a_level_in_float_range(bits):
    with pytest.raises(ValueError):
        quantizer_levels(bits)
