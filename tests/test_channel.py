"""Fading draws and the analog multiple-access sum."""

import numpy as np
import pytest

from otafl.channel import ChannelModel, realize_channel, superpose
from otafl.errors import FieldError
from otafl.grid import TimeSignal


def test_model_validation():
    with pytest.raises(ValueError):
        ChannelModel(kind="two_ray")
    with pytest.raises(ValueError):
        realize_channel(ChannelModel(), 0, seed=0)


def test_ideal_channel_is_transparent():
    g = realize_channel(ChannelModel("ideal"), 64, seed=0)
    np.testing.assert_array_equal(g, np.ones(64))


def test_flat_block_shares_one_gain():
    g = realize_channel(ChannelModel("flat_block"), 64, seed=1)
    assert np.all(g == g[0])
    assert g[0] != 1.0


def test_rayleigh_gains_vary_per_subcarrier():
    g = realize_channel(ChannelModel("rayleigh_per_subcarrier"), 64, seed=2)
    assert np.unique(g).size == 64


def test_rayleigh_unit_mean_power():
    model = ChannelModel("rayleigh_per_subcarrier")
    powers = []
    for seed in range(200):
        powers.append(np.abs(realize_channel(model, 256, seed)) ** 2)
    assert np.mean(powers) == pytest.approx(1.0, rel=0.03)


def test_realization_is_seed_deterministic():
    model = ChannelModel("flat_block")
    a = realize_channel(model, 16, seed=123)
    b = realize_channel(model, 16, seed=123)
    np.testing.assert_array_equal(a, b)


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


def test_superpose_rejects_a_nan_noise_variance():
    sig = TimeSignal(np.ones(4, dtype=complex), 1.0)
    with pytest.raises(ValueError, match="noise_variance"):
        superpose([(sig, 0)], np.nan, seed=0)


def test_channel_model_names_its_kind():
    with pytest.raises(FieldError, match="^kind 'two_ray' is not one of ideal, ") as exc:
        ChannelModel("two_ray")
    assert exc.value.field == "kind"
