"""Update-vector <-> resource-grid codec: bijection and slot arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from otafl.grid import GridConfig
from otafl.weightcodec import (
    ScaledUpdate,
    SlotPlan,
    component_peaks,
    map_to_grids,
    pack_complex,
    scale_updates,
    shared_peaks,
    slot_plan,
    unmap_from_grids,
    unpack_complex,
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
    plan = slot_plan(params, CFG)
    assert (plan.slots, plan.pad) == (slots, pad)
    assert plan.param_count(CFG) == params


def test_slot_plan_capacity_identity():
    # slots * (2 reals per resource element) covers params plus padding
    for p in (1, 100, 3584, 7168, 50_000):
        plan = slot_plan(p, CFG)
        assert plan.slots * 2 * CFG.res_per_slot == p + plan.pad
        assert plan.pad < 2 * CFG.res_per_slot


def test_slot_plan_validation():
    with pytest.raises(ValueError):
        slot_plan(0, CFG)
    with pytest.raises(ValueError):
        SlotPlan(slots=0, pad=0)
    with pytest.raises(ValueError):
        SlotPlan(slots=1, pad=-1)


# ----------------------------------------------------------- pack/unpack


@given(vectors)
@settings(max_examples=60, deadline=None)
def test_pack_unpack_bijection(v):
    symbols = pack_complex(v)
    assert symbols.size == (v.size + 1) // 2
    np.testing.assert_array_equal(unpack_complex(symbols, v.size), v)


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


# ------------------------------------------------------------- map/unmap


@pytest.mark.parametrize("params", [1, 2, 500, 7168, 7169, 20_000])
def test_map_unmap_round_trip(params):
    rng = np.random.default_rng(params)
    delta = rng.normal(size=params)
    plan = slot_plan(params, CFG)
    scaled = scale_updates(delta)
    grids = map_to_grids(pack_complex(scaled.values), plan, CFG)
    assert len(grids) == plan.slots
    back = unmap_from_grids(grids, plan, (scaled.scale_i, scaled.scale_q), CFG)
    np.testing.assert_allclose(back, delta, atol=1e-12, rtol=1e-12)


def test_map_unmap_small_grid_config():
    cfg = GridConfig(subcarriers=8, symbols_per_slot=2, fft_size=8, cp_len=2)
    rng = np.random.default_rng(1)
    delta = rng.normal(size=77)
    plan = slot_plan(77, cfg)
    assert plan.slots == 3  # 32 reals per slot
    scaled = scale_updates(delta)
    grids = map_to_grids(pack_complex(scaled.values), plan, cfg)
    back = unmap_from_grids(grids, plan, (scaled.scale_i, scaled.scale_q), cfg)
    np.testing.assert_allclose(back, delta, atol=1e-12, rtol=1e-12)


def test_padding_symbols_are_zero():
    plan = slot_plan(10, CFG)
    grids = map_to_grids(pack_complex(np.ones(10)), plan, CFG)
    flat = grids[0].data.reshape(-1)
    assert np.all(flat[5:] == 0)


def test_map_validation():
    plan = slot_plan(10, CFG)
    too_many = np.ones(CFG.res_per_slot + 1, dtype=complex)
    with pytest.raises(ValueError):
        map_to_grids(too_many, plan, CFG)
    with pytest.raises(ValueError):
        unmap_from_grids([], plan, (1.0, 1.0), CFG)
