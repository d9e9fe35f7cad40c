"""Update-vector <-> payload-block codec: bijection and slot arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otafl.grid import GridConfig
from otafl.weightcodec import (
    ScaledUpdate,
    component_peaks,
    map_to_grids,
    pack_complex,
    pack_payload,
    rail_peaks,
    scale_updates,
    shared_peaks,
    slot_plan,
    unmap_from_grids,
    unscale_updates,
)

CFG = GridConfig()

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
vectors = hnp.arrays(np.float64, st.integers(1, 300), elements=finite_floats)


# ------------------------------------------------------------- slot plan


@pytest.mark.parametrize(
    "params,slots,pad",
    [
        (71666, 10, 14),
        (7168, 1, 0),
        (7169, 2, 7167),
        (2, 1, 7166),
        (1, 1, 7167),
    ],
)
def test_slot_plan_defaults(params, slots, pad):
    assert slot_plan(params, CFG) == slots
    assert slots * 2 * CFG.res_per_slot - params == pad


def test_slot_plan_capacity_identity():
    # slots * (2 reals per resource element) covers params plus padding
    for p in (1, 100, 3584, 7168, 50_000):
        pad = slot_plan(p, CFG) * 2 * CFG.res_per_slot - p
        assert 0 <= pad < 2 * CFG.res_per_slot


def test_slot_plan_validation():
    with pytest.raises(ValueError):
        slot_plan(0, CFG)


# ----------------------------------------------------------- pack/unpack


@given(vectors)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_bijection(v):
    symbols = pack_complex(v)
    assert symbols.size == (v.size + 1) // 2
    np.testing.assert_array_equal(unmap_from_grids(symbols, v.size, (1.0, 1.0)), v)


def test_pack_layout():
    s = pack_complex(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    np.testing.assert_array_equal(s, [1 + 2j, 3 + 4j, 5 + 0j])


def test_pack_validation():
    with pytest.raises(ValueError):
        pack_complex(np.empty(0))
    with pytest.raises(ValueError):
        pack_complex(np.zeros((2, 2)))


@pytest.mark.parametrize("size", [1, 2, 7, 8])
def test_pack_complex_pairs_reals_bit_for_bit(size):
    """Packing gives the paired reals bit for bit, signed zeros included,
    with an odd tail paired with zero."""
    v = np.random.default_rng(size).normal(size=size)
    v[::3] = -0.0
    want = (np.concatenate([v, [0.0]]) if size % 2 else v)
    want = want[0::2] + 1j * want[1::2]
    assert pack_complex(v).tobytes() == want.tobytes()


# --------------------------------------------------------- scale/unscale


@given(vectors)
@settings(max_examples=60, deadline=None)
def test_scale_unscale_round_trip(v):
    scaled = scale_updates(v)
    assert np.max(np.abs(scaled.values)) <= 1.0 + 1e-12
    np.testing.assert_allclose(unscale_updates(scaled), v, atol=1e-12, rtol=1e-12)


def test_scale_rails_are_independent():
    v = np.array([4.0, 0.5, -2.0, 0.25])
    scaled = scale_updates(v)
    assert scaled.scale_i == 4.0  # peak of even entries
    assert scaled.scale_q == 0.5  # peak of odd entries
    np.testing.assert_allclose(scaled.values, [1.0, 1.0, -0.5, 0.5])


def test_component_peaks_zero_guard():
    assert component_peaks(np.zeros(4)) == (1.0, 1.0)
    assert component_peaks(np.array([0.0, 3.0])) == (1.0, 3.0)


def test_shared_peaks_take_the_max_over_clients():
    # one client's Q rail is all zero; it must not force the shared Q scale to 1
    a = np.array([0.5, 0.0, -2.0, 0.0])
    b = np.array([1.0, -0.3, 0.25, 0.1])
    assert shared_peaks([a, b]) == (2.0, 0.3)
    assert shared_peaks([np.zeros(4), np.zeros(4)]) == (1.0, 1.0)
    assert shared_peaks([np.array([3.0])]) == (3.0, 1.0)  # empty Q rail


def test_shared_peaks_do_not_depend_on_client_order():
    """A NaN rail gives a NaN shared scale whichever client comes first,
    and each client's own rail peaks name the client that carries it."""
    a = np.array([0.3, 0.3])
    b = np.array([np.nan, 0.1])
    for deltas in ([a, b], [b, a]):
        peak_i, peak_q = shared_peaks(deltas)
        assert np.isnan(peak_i) and peak_q == 0.3
    np.testing.assert_array_equal(rail_peaks([a, b]), [[0.3, 0.3], [np.nan, 0.1]])


@pytest.mark.parametrize("params", [1, 2, 3, 64, 10_001])
def test_shared_peaks_match_the_full_magnitude_oracle(params):
    """Each rail's peak is, bit for bit, the largest entry of that rail in
    a full |d| copy, at odd and even P and with signed zeros about."""
    rng = np.random.default_rng(params)
    deltas = [rng.normal(size=params) * 10.0 ** rng.uniform(-3, 3) for _ in range(4)]
    deltas[1][::3] = -0.0
    want_i = max(float(np.abs(d)[0::2].max()) for d in deltas)
    want_q = max((float(np.abs(d)[1::2].max()) for d in deltas if d.size > 1), default=1.0)
    assert shared_peaks(deltas) == (want_i, want_q)


def test_shared_scale_overrides_own_peaks():
    v = np.array([1.0, 1.0])
    scaled = scale_updates(v, shared_scale=(2.0, 4.0))
    np.testing.assert_allclose(scaled.values, [0.5, 0.25])
    np.testing.assert_allclose(unscale_updates(scaled), v, atol=1e-15)


def test_scale_validation():
    with pytest.raises(ValueError):
        scale_updates(np.empty(0))
    with pytest.raises(ValueError):
        scale_updates(np.ones(2), shared_scale=(0.0, 1.0))
    with pytest.raises(ValueError):
        ScaledUpdate(np.ones(2), 1.0, -1.0)


def test_scaled_update_rejects_a_nan_scale():
    with pytest.raises(ValueError, match="scale_i"):
        ScaledUpdate(np.ones(2), np.nan, 1.0)
    with pytest.raises(ValueError, match="scale_q"):
        ScaledUpdate(np.ones(2), 1.0, np.nan)


def test_scale_updates_rejects_a_nan_shared_scale():
    """Rejected before the update is divided, naming the argument."""
    with pytest.raises(ValueError, match="shared_scale's scale_i"):
        scale_updates(np.ones(2), shared_scale=(np.nan, 1.0))
    with pytest.raises(ValueError, match="shared_scale's scale_q"):
        scale_updates(np.ones(2), shared_scale=(1.0, np.nan))


# ------------------------------------------------------------- map/unmap


@pytest.mark.parametrize("params", [1, 2, 500, 7168, 7169, 20_000])
def test_map_unmap_round_trip(params):
    rng = np.random.default_rng(params)
    delta = rng.normal(size=params)
    slots = slot_plan(params, CFG)
    scaled = scale_updates(delta)
    block = map_to_grids(pack_complex(scaled.values), slots, CFG)
    assert block.shape == (slots * CFG.symbols_per_slot, CFG.subcarriers)
    back = unmap_from_grids(block, params, (scaled.scale_i, scaled.scale_q))
    np.testing.assert_allclose(back, delta, atol=1e-12, rtol=1e-12)


def test_map_unmap_small_grid_config():
    cfg = GridConfig(subcarriers=8, symbols_per_slot=2, fft_size=8, cp_len=2)
    rng = np.random.default_rng(1)
    delta = rng.normal(size=77)
    slots = slot_plan(77, cfg)
    assert slots == 3  # 32 reals per slot
    scaled = scale_updates(delta)
    block = map_to_grids(pack_complex(scaled.values), slots, cfg)
    back = unmap_from_grids(block, 77, (scaled.scale_i, scaled.scale_q))
    np.testing.assert_allclose(back, delta, atol=1e-12, rtol=1e-12)


def test_padding_symbols_are_zero():
    block = map_to_grids(pack_complex(np.ones(10)), slot_plan(10, CFG), CFG)
    flat = block.reshape(-1)
    assert np.all(flat[5:] == 0)


def test_map_validation():
    too_many = np.ones(CFG.res_per_slot + 1, dtype=complex)
    with pytest.raises(ValueError):
        map_to_grids(too_many, slot_plan(10, CFG), CFG)
    with pytest.raises(ValueError):
        unmap_from_grids(np.zeros((1, 2), dtype=complex), 5, (1.0, 1.0))
    with pytest.raises(ValueError):
        unmap_from_grids(np.zeros((1, 2), dtype=complex), 0, (1.0, 1.0))


# ------------------------------------------------------- payload blocks

SMALL = GridConfig(subcarriers=8, symbols_per_slot=2, fft_size=8, cp_len=2)


def _buffer(params):
    """An uninitialized payload block of one client on the SMALL grid."""
    symbols = slot_plan(params, SMALL) * SMALL.symbols_per_slot
    return np.empty((symbols, SMALL.subcarriers), dtype=complex)


@pytest.mark.parametrize("params", [1, 2, 31, 32, 33, 77])
def test_block_decoder_matches_the_unscale_oracle(params):
    """The decoder reads the first P reals of a packed block, padding and
    all, and gives the scale -> unscale oracle's bits for odd and even P."""
    rng = np.random.default_rng(params)
    deltas = [rng.normal(size=params) for _ in range(3)]
    deltas[1][::4] = -0.0
    scales = [(0.75, 3.0), shared_peaks(deltas), component_peaks(deltas[2])]
    for d, sc in zip(deltas, scales):
        row = pack_payload(d, sc, _buffer(params))
        want = unscale_updates(scale_updates(d, sc))
        assert unmap_from_grids(row, params, sc).tobytes() == want.tobytes()
        # the padding is zero and the decoder never reads it
        reals = row.reshape(-1).view(np.float64)
        assert reals[params:].tobytes() == bytes(8 * (reals.size - params))
        noisy = row.copy()
        noisy.reshape(-1).view(np.float64)[params:] = 5.0
        assert unmap_from_grids(noisy, params, sc).tobytes() == want.tobytes()


@pytest.mark.parametrize("params", [1, 2, 31, 32, 77])
def test_packed_rows_equal_the_packed_scaled_updates(params):
    """A packed block holds pack_complex(scale_updates(...)) bit for bit in
    the slots map_to_grids fills, zeros after it, whatever the buffer held
    before: one buffer packs every client in turn, starting from NaNs."""
    rng = np.random.default_rng(100 + params)
    deltas = [rng.normal(size=params) for _ in range(2)]
    scales = [(2.0, 0.5), (0.3, 7.0)]
    reused = _buffer(params)
    reused.fill(complex(np.nan, np.nan))
    for d, sc in zip(deltas, scales):
        row = pack_payload(d, sc, reused)
        assert row is reused
        want = map_to_grids(pack_complex(scale_updates(d, sc).values),
                            slot_plan(params, SMALL), SMALL)
        assert row.tobytes() == want.tobytes()
