"""Channel inversion with a magnitude floor and the shared power scaling."""

import numpy as np
import pytest

from otafl.csi import interpolate
from otafl.grid import GridConfig, ResourceGrid
from otafl.precode import (
    DEFAULT_FLOOR_REL,
    MARGIN,
    PEAK_POWER,
    channel_invert,
    compute_alpha,
    inversion_divisor,
    inversion_floor,
)

CFG = GridConfig(subcarriers=8, symbols_per_slot=2, fft_size=8, cp_len=2)


def _estimate(values):
    vals = np.asarray(values, dtype=complex)
    return interpolate(vals, np.arange(vals.size), CFG)


def _grid(data):
    return ResourceGrid(np.asarray(data, dtype=complex).reshape(2, 8))


def test_inversion_is_exact_above_floor():
    h = _estimate(np.linspace(1.0, 2.0, 8) * np.exp(1j * 0.3))
    x = _grid(np.random.default_rng(0).normal(size=16))
    out = channel_invert([x], h, floor=0.1)
    # transmit * channel should reproduce the payload exactly
    np.testing.assert_allclose(out[0].data * h.gains, x.data, atol=1e-12)


def test_floor_clamps_magnitude_keeps_phase():
    """Estimates weaker than the floor divide by floor * e^{j arg(h)}: the
    inversion gain is capped at 1/floor but the phase is still corrected."""
    h_weak = 0.01 * np.exp(1j * np.pi / 3)
    h = _estimate([h_weak] + [1.0] * 7)
    x = _grid(np.ones(16))
    out = channel_invert([x], h, floor=0.5)
    want_weak = 1.0 / (0.5 * np.exp(1j * np.pi / 3))
    np.testing.assert_allclose(out[0].data[:, 0], want_weak, atol=1e-12)
    np.testing.assert_allclose(out[0].data[:, 1:], 1.0, atol=1e-12)


def test_zero_estimate_divides_by_real_floor():
    h = _estimate([0.0] + [1.0] * 7)
    x = _grid(np.ones(16))
    out = channel_invert([x], h, floor=0.25)
    np.testing.assert_allclose(out[0].data[:, 0], 4.0, atol=1e-12)


def test_zero_estimate_without_floor_raises():
    h = _estimate([0.0] + [1.0] * 7)
    with pytest.raises(ValueError):
        channel_invert([_grid(np.ones(16))], h, floor=0.0)
    with pytest.raises(ValueError):
        inversion_divisor(h, floor=0.0)


def test_invert_validation():
    h = _estimate(np.ones(8))
    with pytest.raises(ValueError):
        channel_invert([_grid(np.ones(16))], h, floor=-0.1)
    wrong = ResourceGrid(np.ones((2, 7), dtype=complex))
    with pytest.raises(ValueError):
        channel_invert([wrong], h, floor=0.1)
    # one gain per subcarrier divides every symbol, however many there are
    three = channel_invert([ResourceGrid(np.ones((3, 8), dtype=complex))], h, floor=0.1)
    np.testing.assert_array_equal(three[0].data, np.ones((3, 8), dtype=complex))


def test_inversion_floor_tracks_median():
    h = _estimate([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    assert h.gains.shape == (8,)
    med = np.median(np.abs(h.gains))
    assert inversion_floor(h, 0.2) == pytest.approx(0.2 * med, rel=1e-12)
    assert inversion_floor(h, 0.0) == 0.0
    with pytest.raises(ValueError):
        inversion_floor(h, -0.5)
    # the default is deliberately mid-range: strong enough to cap deep-fade
    # noise amplification, weak enough to leave typical gains untouched
    assert 0.0 < DEFAULT_FLOOR_REL < 0.5


@pytest.mark.parametrize("symbols", [1, 2, 13, 14])
@pytest.mark.parametrize("subcarriers", [1, 2, 7, 8, 255, 256])
def test_row_median_equals_the_replicated_grid_median(subcarriers, symbols):
    """The floor of one gain per subcarrier is bit-equal to the floor of
    that row copied into every symbol of a slot."""
    rng = np.random.default_rng(subcarriers * 100 + symbols)
    row = np.abs(rng.normal(size=subcarriers) + 1j * rng.normal(size=subcarriers))
    assert np.median(row) == np.median(np.tile(row, (symbols, 1)))


# ---------------------------------------------------------------- alpha


def test_alpha_hand_oracle():
    # single UE, peak |x|^2 = 4, unit peak power, margin 0.9 -> 0.9 * 1/2
    assert (PEAK_POWER, MARGIN) == (1.0, 0.9)
    g = _grid([2.0] + [0.0] * 15)
    assert compute_alpha([g]) == pytest.approx(0.45, rel=1e-12)


def test_alpha_minimum_over_ues():
    weak = _grid([4.0] + [0.0] * 15)   # needs alpha <= 0.9 * 1/4
    mild = _grid([1.0] + [0.0] * 15)   # would allow 0.9
    alpha = compute_alpha([mild, weak])
    assert alpha == pytest.approx(0.225, rel=1e-12)


def test_alpha_enforces_peak_power_property():
    rng = np.random.default_rng(3)
    ues = [_grid(rng.normal(size=16) * rng.uniform(0.1, 10)) for _ in range(5)]
    alpha = compute_alpha(ues)
    worst = max(np.max(np.abs(alpha * g.data) ** 2) for g in ues)
    assert worst <= PEAK_POWER * MARGIN**2 + 1e-12


def test_alpha_ignores_all_zero_ues():
    active = _grid([1.0] + [0.0] * 15)
    silent = _grid(np.zeros(16))
    alpha = compute_alpha([active, silent])
    assert alpha == pytest.approx(MARGIN, rel=1e-12)


def test_alpha_validation():
    g = _grid(np.ones(16))
    with pytest.raises(ValueError):
        compute_alpha([])
    with pytest.raises(ValueError):
        compute_alpha([_grid(np.zeros(16))])
    # the power budget and the margin are constants, not arguments
    with pytest.raises(TypeError):
        compute_alpha([g], 1.0)
    with pytest.raises(TypeError):
        compute_alpha([g], margin=0.5)
