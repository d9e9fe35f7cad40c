"""Fading draws, link budget arithmetic and the analog multiple-access sum."""

import numpy as np
import pytest

from otafl.channel import (
    ChannelModel,
    ChannelRealization,
    LinkBudget,
    decorrelate,
    pathloss_amplitude,
    realize_channel,
    superpose,
)
from otafl.grid import TimeSignal

BUDGET = LinkBudget()  # 20 dBm, 20 m, -174 dBm/Hz, 3.84 MHz


def _pathloss_db_oracle(dist, exponent, carrier, ref=1.0):
    lam = 299_792_458.0 / carrier
    fs_ref = 20.0 * np.log10(4.0 * np.pi * ref / lam)
    return fs_ref + 10.0 * exponent * np.log10(max(dist, ref) / ref)


def test_link_budget_noise_floor():
    # -174 dBm/Hz over 3.84 MHz: 10**(-20.4) W/Hz * 3.84e6 Hz
    assert BUDGET.noise_variance_w == pytest.approx(1.52873e-14, rel=1e-5)
    assert BUDGET.tx_power_w == pytest.approx(0.1, rel=1e-12)


def test_link_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(distance_m=0.0)
    with pytest.raises(ValueError):
        LinkBudget(bandwidth_hz=-1.0)


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(kind="two_ray")
    with pytest.raises(ValueError):
        ChannelModel(pathloss_exponent=0.0)
    with pytest.raises(ValueError):
        ChannelRealization(np.ones((2, 2)), 0.0)
    with pytest.raises(ValueError):
        ChannelRealization(np.ones(4), -1.0)


def test_ideal_channel_is_transparent():
    r = realize_channel(ChannelModel("ideal"), BUDGET, 64, seed=0)
    np.testing.assert_array_equal(r.gains, np.ones(64))
    assert r.noise_variance == 0.0


def test_flat_block_shares_one_gain():
    r = realize_channel(ChannelModel("flat_block"), BUDGET, 64, seed=1)
    assert np.all(r.gains == r.gains[0])
    assert r.gains[0] != 1.0
    assert r.noise_variance == BUDGET.noise_variance_w


def test_rayleigh_gains_vary_per_subcarrier():
    r = realize_channel(ChannelModel("rayleigh_per_subcarrier"), BUDGET, 64, seed=2)
    assert np.unique(r.gains).size == 64


def test_rayleigh_unit_mean_power():
    model = ChannelModel("rayleigh_per_subcarrier")
    powers = []
    for seed in range(200):
        powers.append(np.abs(realize_channel(model, BUDGET, 256, seed).gains) ** 2)
    assert np.mean(powers) == pytest.approx(1.0, rel=0.03)


def test_realization_is_seed_deterministic():
    model = ChannelModel("flat_block")
    a = realize_channel(model, BUDGET, 16, seed=123, ue_id=3)
    b = realize_channel(model, BUDGET, 16, seed=123, ue_id=3)
    np.testing.assert_array_equal(a.gains, b.gains)
    assert a.ue_id == 3


# ------------------------------------------------------------- pathloss


def test_pathloss_matches_log_distance_oracle():
    model = ChannelModel("pathloss_fading", pathloss_exponent=3.0, carrier=3.5e9)
    for d in (1.0, 5.0, 20.0, 150.0):
        want = 10.0 ** (-_pathloss_db_oracle(d, 3.0, 3.5e9) / 20.0)
        assert pathloss_amplitude(model, d) == pytest.approx(want, rel=1e-12)


def test_pathloss_slope_is_exponent():
    """A decade of distance costs 10*n dB of power."""
    model = ChannelModel("pathloss_fading", pathloss_exponent=3.0)
    ratio = pathloss_amplitude(model, 100.0) / pathloss_amplitude(model, 10.0)
    assert ratio**2 == pytest.approx(10.0**-3.0, rel=1e-9)


def test_pathloss_clamps_below_reference_distance():
    model = ChannelModel("pathloss_fading")
    assert pathloss_amplitude(model, 0.1) == pathloss_amplitude(model, 1.0)


def test_pathloss_fading_scales_mean_power():
    model = ChannelModel("pathloss_fading", pathloss_exponent=3.0)
    amp = pathloss_amplitude(model, BUDGET.distance_m)
    powers = []
    for seed in range(200):
        powers.append(np.abs(realize_channel(model, BUDGET, 256, seed).gains) ** 2)
    assert np.mean(powers) == pytest.approx(amp**2, rel=0.03)


# ----------------------------------------------------------- decorrelate


def test_decorrelate_zero_mix_is_identity():
    model = ChannelModel("rayleigh_per_subcarrier")
    r = realize_channel(model, BUDGET, 32, seed=0)
    assert decorrelate(r, model, BUDGET, 0.0, seed=1) is r


def test_decorrelate_blend_formula():
    model = ChannelModel("rayleigh_per_subcarrier")
    r = realize_channel(model, BUDGET, 32, seed=0)
    fresh = realize_channel(model, BUDGET, 32, seed=99)
    mixed = decorrelate(r, model, BUDGET, 0.3, seed=99)
    want = np.sqrt(1 - 0.3**2) * r.gains + 0.3 * fresh.gains
    np.testing.assert_allclose(mixed.gains, want, atol=1e-15)


def test_decorrelate_preserves_second_moment():
    model = ChannelModel("rayleigh_per_subcarrier")
    powers = []
    for seed in range(300):
        r = realize_channel(model, BUDGET, 64, seed)
        m = decorrelate(r, model, BUDGET, 0.6, seed=seed + 10_000)
        powers.append(np.abs(m.gains) ** 2)
    assert np.mean(powers) == pytest.approx(1.0, rel=0.03)


def test_decorrelate_mix_range():
    model = ChannelModel("flat_block")
    r = realize_channel(model, BUDGET, 8, seed=0)
    with pytest.raises(ValueError):
        decorrelate(r, model, BUDGET, 1.5, seed=0)


# ------------------------------------------------------------ superpose


def test_superpose_is_linear():
    rng = np.random.default_rng(0)
    a = TimeSignal(rng.normal(size=50) + 0j, 1.0)
    b = TimeSignal(rng.normal(size=50) + 0j, 1.0)
    both = superpose([(a, 0), (b, 0)], 0.0, seed=0)
    np.testing.assert_allclose(both.samples, a.samples + b.samples, atol=1e-15)


def test_superpose_places_delays():
    a = TimeSignal(np.ones(3, dtype=complex), 1.0)
    b = TimeSignal(2.0 * np.ones(2, dtype=complex), 1.0)
    out = superpose([(a, 0), (b, 4)], 0.0, seed=0)
    np.testing.assert_array_equal(out.samples, [1, 1, 1, 0, 2, 2])


def test_superpose_output_spans_latest_arrival():
    a = TimeSignal(np.ones(10, dtype=complex), 1.0)
    out = superpose([(a, 0), (a, 25)], 0.0, seed=0)
    assert out.samples.size == 35


def test_superpose_noise_variance():
    silent = TimeSignal(np.zeros(20_000, dtype=complex), 1.0)
    out = superpose([(silent, 0)], 0.5, seed=3)
    assert np.mean(np.abs(out.samples) ** 2) == pytest.approx(0.5, rel=0.03)


def test_superpose_determinism():
    sig = TimeSignal(np.ones(64, dtype=complex), 1.0)
    x = superpose([(sig, 2)], 0.1, seed=42)
    y = superpose([(sig, 2)], 0.1, seed=42)
    np.testing.assert_array_equal(x.samples, y.samples)


def test_superpose_validation():
    sig = TimeSignal(np.ones(4, dtype=complex), 1.0)
    other_rate = TimeSignal(np.ones(4, dtype=complex), 2.0)
    with pytest.raises(ValueError):
        superpose([], 0.0, seed=0)
    with pytest.raises(ValueError):
        superpose([(sig, -1)], 0.0, seed=0)
    with pytest.raises(ValueError):
        superpose([(sig, 1.5)], 0.0, seed=0)
    with pytest.raises(ValueError):
        superpose([(sig, 0), (other_rate, 0)], 0.0, seed=0)
    with pytest.raises(ValueError):
        superpose([(sig, 0)], -0.1, seed=0)
