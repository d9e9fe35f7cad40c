"""Channel inversion with a magnitude floor and the shared power scaling."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otafl

from otafl.precode import (
    DEFAULT_FLOOR_REL,
    MARGIN,
    PEAK_POWER,
    channel_invert,
    compute_alpha,
    inversion_divisor,
    inversion_floor,
)


def _estimate(values):
    return np.asarray(values, dtype=complex)


def _grid(data):
    return np.asarray(data, dtype=complex).reshape(2, 8)


def test_inversion_is_exact_above_floor():
    h = _estimate(np.linspace(1.0, 2.0, 8) * np.exp(1j * 0.3))
    x = _grid(np.random.default_rng(0).normal(size=16))
    out = channel_invert(x, h, floor=0.1)
    # transmit * channel should reproduce the payload exactly
    np.testing.assert_allclose(out * h, x, atol=1e-12)


def test_floor_clamps_magnitude_keeps_phase():
    """Estimates weaker than the floor divide by floor * e^{j arg(h)}: the
    inversion gain is capped at 1/floor but the phase is still corrected."""
    h_weak = 0.01 * np.exp(1j * np.pi / 3)
    h = _estimate([h_weak] + [1.0] * 7)
    x = _grid(np.ones(16))
    out = channel_invert(x, h, floor=0.5)
    want_weak = 1.0 / (0.5 * np.exp(1j * np.pi / 3))
    np.testing.assert_allclose(out[:, 0], want_weak, atol=1e-12)
    np.testing.assert_allclose(out[:, 1:], 1.0, atol=1e-12)


def test_zero_estimate_divides_by_real_floor():
    h = _estimate([0.0] + [1.0] * 7)
    x = _grid(np.ones(16))
    out = channel_invert(x, h, floor=0.25)
    np.testing.assert_allclose(out[:, 0], 4.0, atol=1e-12)


def test_zero_estimate_without_floor_raises():
    h = _estimate([0.0] + [1.0] * 7)
    with pytest.raises(ValueError):
        channel_invert(_grid(np.ones(16)), h, floor=0.0)
    with pytest.raises(ValueError):
        inversion_divisor(h, floor=0.0)


def test_invert_validation():
    h = _estimate(np.ones(8))
    with pytest.raises(ValueError):
        channel_invert(_grid(np.ones(16)), h, floor=-0.1)
    wrong = np.ones((2, 7), dtype=complex)
    with pytest.raises(ValueError):
        channel_invert(wrong, h, floor=0.1)
    # one gain per subcarrier divides every symbol, however many there are
    three = channel_invert(np.ones((3, 8), dtype=complex), h, floor=0.1)
    np.testing.assert_array_equal(three, np.ones((3, 8), dtype=complex))


def test_inversion_floor_tracks_median():
    h = _estimate([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    assert h.shape == (8,)
    med = np.median(np.abs(h))
    assert inversion_floor(h, 0.2) == pytest.approx(0.2 * med, rel=1e-12)
    assert inversion_floor(h, 0.0) == 0.0
    with pytest.raises(ValueError):
        inversion_floor(h, -0.5)
    # the default is deliberately mid-range: strong enough to cap deep-fade
    # noise amplification, weak enough to leave typical gains untouched
    assert 0.0 < DEFAULT_FLOOR_REL < 0.5


@pytest.mark.parametrize("rows", [None, 5])
@pytest.mark.parametrize("width", [1, 2, 7, 256])
@pytest.mark.parametrize("nan", [False, True])
def test_inversion_floor_is_the_scaled_median_bit_for_bit(width, rows, nan):
    """The partition-based floor equals ``floor_rel * np.median`` bit for
    bit, as a scalar for one row and one value per row otherwise; a row
    holding a NaN reads NaN, as ``np.median`` reads it."""
    rng = np.random.default_rng(width)
    shape = (width,) if rows is None else (rows, width)
    h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if nan:
        h[..., width // 2] = np.nan
        if rows is not None:
            h[1::2, width // 2] = 0.5  # NaN rows and finite rows in one estimate
    floor = inversion_floor(h, 0.15)
    want = 0.15 * np.median(np.abs(h), axis=-1)
    assert type(floor) is type(want)
    assert np.asarray(floor).tobytes() == np.asarray(want).tobytes()
    assert np.isnan(floor).any() == nan


def test_an_aggregation_does_not_import_numpy_ma():
    """``np.median`` imports ``numpy.ma`` for its NaN check, about 1 MiB of
    modules that nothing else in the package needs; the floor does without
    them.  A fresh interpreter shows it, since this one may hold them."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from otafl import ota\n"
        "deltas = [0.1 * np.random.default_rng(ue).standard_normal(300) for ue in range(3)]\n"
        "report = ota.ota_aggregate(deltas, ota.PhyConfig())\n"
        "assert not report.aborted\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')))\n"
    )
    env = dict(os.environ)
    src = str(Path(otafl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"


def test_inversion_floor_rejects_a_nan_floor_rel():
    """NaN compares false both ways, so a plain ``< 0`` check would pass it
    through as a NaN floor."""
    with pytest.raises(ValueError, match="floor_rel must be >= 0"):
        inversion_floor(_estimate(np.ones(8)), np.nan)


def test_inversion_divisor_rejects_a_nan_floor():
    """A NaN floor clamps nothing, so a plain ``< 0`` check would hand back
    the estimate unfloored."""
    h = _estimate(np.full(8, 0.01))
    with pytest.raises(ValueError, match="floor must be >= 0"):
        inversion_divisor(h, np.nan)
    with pytest.raises(ValueError, match="floor must be >= 0"):
        inversion_divisor(np.stack([h, h]), np.array([0.1, np.nan]))


@pytest.mark.parametrize("symbols", [1, 2, 13, 14])
@pytest.mark.parametrize("subcarriers", [1, 2, 7, 8, 255, 256])
def test_row_median_equals_the_replicated_grid_median(subcarriers, symbols):
    """The floor of one gain per subcarrier is bit-equal to the floor of
    that row copied into every symbol of a slot."""
    rng = np.random.default_rng(subcarriers * 100 + symbols)
    row = np.abs(rng.normal(size=subcarriers) + 1j * rng.normal(size=subcarriers))
    assert np.median(row) == np.median(np.tile(row, (symbols, 1)))


# ------------------------------------------------- one row per client, bit for bit


def _bits(a):
    return np.asarray(a, dtype=np.complex128).view(np.uint64)


def _estimate_rows(num, width=256, seed=0):
    """Random estimate rows with weak and dead (zero) subcarriers."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(num, width)) + 1j * rng.normal(size=(num, width))
    rows[rng.random((num, width)) < 0.2] *= 1e-2
    rows[rng.random((num, width)) < 0.05] = 0.0
    return rows


@pytest.mark.parametrize("num_ues", [1, 2, 5, 60])
@pytest.mark.parametrize("floor_rel", [0.15, 0.8])
def test_floor_and_divisor_rows_match_per_row_calls(num_ues, floor_rel):
    """Per-row medians and divisors equal one call per row, and the
    divisor equals the clamp written out with a scalar floor.  Handing both
    the estimate's magnitude, read once, gives the same bits, and handing
    alpha the divisor's magnitude gives the same alpha and peaks."""
    est = _estimate_rows(num_ues, seed=num_ues)
    floors = inversion_floor(est, floor_rel)
    divisor = inversion_divisor(est, floors)
    assert floors.shape == (num_ues,) and divisor.shape == est.shape
    magnitude = np.abs(est)
    assert inversion_floor(est, floor_rel, magnitude=magnitude).tobytes() == floors.tobytes()
    np.testing.assert_array_equal(_bits(inversion_divisor(est, floors, magnitude=magnitude)),
                                  _bits(divisor))
    peaks = np.abs(_estimate_rows(num_ues, seed=num_ues + 1)) + 0.5
    alpha, largest = compute_alpha(peaks, divisor)
    given_alpha, given_largest = compute_alpha(peaks, divisor, magnitude=np.abs(divisor))
    assert np.float64(given_alpha).tobytes() == np.float64(alpha).tobytes()
    assert given_largest.tobytes() == largest.tobytes()
    for ue, h in enumerate(est):
        floor = inversion_floor(h, floor_rel)
        assert np.float64(floor).view(np.uint64) == floors[ue].view(np.uint64)
        assert floor == floor_rel * float(np.median(np.abs(h)))
        row = inversion_divisor(h, floor)
        np.testing.assert_array_equal(_bits(divisor[ue]), _bits(row))
        mag = np.abs(h)
        want = np.where(mag < floor, floor * h / np.where(mag == 0, 1.0, mag), h)
        want = np.where(mag == 0, floor, want)
        np.testing.assert_array_equal(_bits(divisor[ue]), _bits(want))


def test_divisor_rows_leave_unclamped_rows_alone():
    est = np.ones((3, 8), dtype=complex)
    assert inversion_divisor(est, np.array([0.5, 0.0, 0.9])) is est


def test_zero_row_without_floor_raises():
    """A client whose whole estimate is zero gets a zero floor from the
    median at any ``floor_rel``, and at ``floor_rel = 0`` the other rows
    cannot clamp it either."""
    est = _estimate_rows(4, seed=7)
    est[2] = 0.0
    floors = inversion_floor(est, 0.0)
    np.testing.assert_array_equal(floors, np.zeros(4))
    with pytest.raises(ValueError, match="without a floor"):
        inversion_divisor(est, floors)
    with pytest.raises(ValueError, match="without a floor"):
        inversion_divisor(est, inversion_floor(est, 0.15))
    with pytest.raises(ValueError):
        inversion_divisor(est, np.array([0.1, 0.1, 0.1, -0.1]))


def _unit(block):
    """A divisor of ones: one row per UE of the block."""
    return np.ones((len(block), block.shape[-1]))


def _peaks(block):
    """Each UE's per-subcarrier peaks, max |x| over its symbols."""
    return np.max(np.abs(block), axis=1)


def _alpha(block):
    return compute_alpha(_peaks(block), _unit(block))[0]


@pytest.mark.parametrize("num_ues", [1, 2, 5, 60])
def test_alpha_of_the_block_matches_per_row_peaks(num_ues):
    """alpha of the whole block is the minimum of each row's alpha, each
    from max |x|^2 as the per-client formula takes it, a silent row
    included; the peaks come back as each row's max |x|."""
    rng = np.random.default_rng(num_ues)
    block = (rng.normal(size=(num_ues, 3, 16)) + 1j * rng.normal(size=(num_ues, 3, 16))
             ) * rng.uniform(0.01, 10.0, size=(num_ues, 1, 1))
    if num_ues > 1:
        block[1] = 0.0
    alpha, largest = compute_alpha(_peaks(block), _unit(block))
    per_row = [_alpha(block[ue:ue + 1]) for ue in range(num_ues) if block[ue].any()]
    assert alpha == min(per_row)
    peaks = [float(np.max(np.abs(row) ** 2)) for row in block]
    want = min(MARGIN * np.sqrt(PEAK_POWER / p) for p in peaks if p > 0)
    assert np.float64(alpha).view(np.uint64) == np.float64(want).view(np.uint64)
    np.testing.assert_array_equal(largest, [np.max(np.abs(row)) for row in block])


@pytest.mark.parametrize("floor_rel", [0.0, 0.15, 0.8])
def test_alpha_against_the_divisor_matches_the_divided_block(floor_rel):
    """Reading each row's per-subcarrier peaks against |divisor| gives the
    alpha and peaks of the block divided by the floored estimate, to
    rounding, without dividing the block."""
    rng = np.random.default_rng(9)
    block = rng.normal(size=(6, 14, 32)) + 1j * rng.normal(size=(6, 14, 32))
    est = rng.normal(size=(6, 32)) + 1j * rng.normal(size=(6, 32))
    divisor = inversion_divisor(est, inversion_floor(est, floor_rel))
    alpha, largest = compute_alpha(_peaks(block), divisor)
    divided = block / divisor[:, np.newaxis, :]
    want_alpha, want_largest = compute_alpha(_peaks(divided), _unit(divided))
    assert alpha == pytest.approx(want_alpha, rel=1e-15)
    np.testing.assert_allclose(largest, want_largest, rtol=1e-15, atol=0)


@pytest.mark.parametrize("num_ues", [1, 5, 60])
def test_alpha_of_peaks_matches_the_per_row_oracle(num_ues):
    """alpha and the precoded peaks from the ``(UEs, subcarriers)`` peak
    array equal, bit for bit, each row's max(max |row| / |d|) read one UE's
    block at a time, a silent UE included."""
    rng = np.random.default_rng(num_ues)
    shape = (num_ues, 14, 32)
    block = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
             ) * rng.uniform(0.01, 10.0, size=(num_ues, 1, 1))
    if num_ues > 1:
        block[-1] = 0.0
    divisor = rng.normal(size=(num_ues, 32)) + 1j * rng.normal(size=(num_ues, 32))
    alpha, largest = compute_alpha(_peaks(block), divisor)
    want = np.array([np.max(np.max(np.abs(row), axis=0) / np.abs(d))
                     for row, d in zip(block, divisor)])
    assert largest.tobytes() == want.tobytes()
    active = want[want > 0]
    assert alpha == float(np.min(MARGIN * np.sqrt(PEAK_POWER / (active * active))))
    with pytest.raises(ValueError):  # one divisor row per UE
        compute_alpha(_peaks(block), np.ones((num_ues + 1, 32)))


# ---------------------------------------------------------------- alpha


def _block(*rows):
    """One precoded ``(2, 8)`` payload per UE, stacked as the pipeline holds them."""
    return np.stack([np.asarray(r, dtype=complex).reshape(2, 8) for r in rows])


def test_alpha_hand_oracle():
    # single UE, peak |x|^2 = 4, unit peak power, margin 0.9 -> 0.9 * 1/2
    assert (PEAK_POWER, MARGIN) == (1.0, 0.9)
    assert _alpha(_block([2.0] + [0.0] * 15)) == pytest.approx(0.45, rel=1e-12)


def test_alpha_hand_oracle_with_a_divisor():
    # peak |x| / |d| = 2 / 0.5 = 4 on the second subcarrier -> 0.9 / 4
    block = _block([0.0, 2.0] + [0.0] * 14)
    divisor = np.ones((1, 8), dtype=complex)
    divisor[0, 1] = 0.3 + 0.4j
    alpha, largest = compute_alpha(_peaks(block), divisor)
    assert largest.tolist() == [4.0]
    assert alpha == pytest.approx(0.225, rel=1e-12)


def test_alpha_minimum_over_ues():
    weak = [4.0] + [0.0] * 15   # needs alpha <= 0.9 * 1/4
    mild = [1.0] + [0.0] * 15   # would allow 0.9
    alpha = _alpha(_block(mild, weak))
    assert alpha == pytest.approx(0.225, rel=1e-12)


def test_alpha_enforces_peak_power_property():
    rng = np.random.default_rng(3)
    ues = _block(*(rng.normal(size=16) * rng.uniform(0.1, 10) for _ in range(5)))
    alpha = _alpha(ues)
    worst = np.max(np.abs(alpha * ues) ** 2)
    assert worst <= PEAK_POWER * MARGIN**2 + 1e-12


def test_alpha_ignores_all_zero_ues():
    alpha = _alpha(_block([1.0] + [0.0] * 15, np.zeros(16)))
    assert alpha == pytest.approx(MARGIN, rel=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 1.0), complex(1.0, -np.inf)])
def test_alpha_rejects_non_finite_entries(bad):
    """A non-finite entry anywhere in a UE's row makes its largest |x|
    non-finite, so no alpha is computed from it."""
    rows = _block(np.ones(16), np.ones(16))
    rows[1, 1, 5] = bad
    with pytest.raises(ValueError, match="must be finite"):
        _alpha(rows)


def test_alpha_validation():
    g = _block(np.ones(16))
    with pytest.raises(ValueError):
        compute_alpha(np.empty((0, 8)), np.empty((0, 8)))
    with pytest.raises(ValueError):
        _alpha(_block(np.zeros(16)))
    with pytest.raises(ValueError):  # one divisor row per UE
        compute_alpha(_peaks(_block(np.ones(16), np.ones(16))), np.ones((1, 8)))
    # the power budget and the margin are constants, not arguments
    with pytest.raises(TypeError):
        compute_alpha(_peaks(g), _unit(g), 1.0)
    with pytest.raises(TypeError):
        compute_alpha(_peaks(g), _unit(g), margin=0.5)
