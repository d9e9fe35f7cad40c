"""Timing-offset draws and correlation-peak spread diagnostics."""

import numpy as np
import pytest

from otafl.channel import superpose
from otafl.errors import FieldError
from otafl.grid import TimeSignal, gold_sequence
from otafl.sync import (
    DEFAULT_PTP_BOUND_S,
    SyncConfig,
    draw_offsets,
    offset_bound,
    offset_reach,
)
from oracles import peak_spread, spread_of

RATE = 3.84e6


def _uniforms(n, seed):
    """A round's sync uniforms, drawn as ``ota.RoundShare`` draws them."""
    return np.random.default_rng(seed).random(n)


def test_ptp_bound_in_samples():
    # ceil(1e-6 s * 3.84e6 S/s) = 4 samples, inside a 16-sample prefix
    cfg = SyncConfig(mode="ptp_on")
    assert offset_bound(cfg, RATE) == 4
    assert DEFAULT_PTP_BOUND_S == 1e-6


def test_ptp_off_bound_is_spread():
    cfg = SyncConfig(mode="ptp_off", off_spread=100)
    assert offset_bound(cfg, RATE) == 100


def test_offsets_respect_bound_and_dtype():
    for mode, kw in (("ptp_on", {}), ("ptp_off", {"off_spread": 64})):
        cfg = SyncConfig(mode=mode, **kw)
        offs = draw_offsets(cfg, _uniforms(50, 3), RATE)
        bound = offset_bound(cfg, RATE)
        assert offs.dtype == np.int64
        assert np.all(offs >= 0) and np.all(offs <= bound)


def test_offsets_map_each_uniform_and_clamp_to_the_bound():
    """Offset = min(floor(u * (bound + 1)), bound), in the uniforms' order."""
    cfg = SyncConfig(mode="ptp_off", off_spread=4)
    u = np.array([0.0, 0.5, 0.2, 1 - 2**-53, 1.0])
    assert draw_offsets(cfg, u, RATE).tolist() == [0, 2, 1, 4, 4]


def test_zero_bound_draws_zeros():
    cfg = SyncConfig(mode="ptp_off", off_spread=0)
    np.testing.assert_array_equal(draw_offsets(cfg, _uniforms(8, 0), RATE), np.zeros(8))


def test_uniform_offsets_couple_monotonically_across_bounds():
    """Common random numbers: with one seed, shrinking the spread never
    increases any UE's offset, which makes sweep curves smooth."""
    seeds = range(20)
    spreads = [256, 64, 16, 4, 0]
    for seed in seeds:
        prev = None
        for s in spreads:
            cfg = SyncConfig(mode="ptp_off", off_spread=s)
            offs = draw_offsets(cfg, _uniforms(10, seed), RATE)
            if prev is not None:
                assert np.all(offs <= prev)
            prev = offs


def test_uniform_offsets_cover_range():
    cfg = SyncConfig(mode="ptp_off", off_spread=4)
    offs = draw_offsets(cfg, _uniforms(4000, 1), RATE)
    # floor(u * 5) hits each of 0..4 with probability 1/5
    counts = np.bincount(offs, minlength=5)
    assert counts.min() > 0
    np.testing.assert_allclose(counts / 4000, 0.2, atol=0.03)


def test_offsets_deterministic_per_seed():
    cfg = SyncConfig(mode="ptp_off", off_spread=32)
    np.testing.assert_array_equal(
        draw_offsets(cfg, _uniforms(6, 7), RATE), draw_offsets(cfg, _uniforms(6, 7), RATE)
    )


def test_sync_config_validation():
    with pytest.raises(ValueError):
        SyncConfig(mode="gps")
    with pytest.raises(ValueError):
        SyncConfig(off_spread=-1)
    with pytest.raises(ValueError):
        draw_offsets(SyncConfig(), np.empty(0), RATE)
    # a static carrier phase is absorbed by the channel estimate, so it is no field
    with pytest.raises(TypeError):
        SyncConfig(phase_offset_rad=0.5)


@pytest.mark.parametrize("field", ["ptp_bound_s", "off_spread"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sync_config_rejects_non_finite_values(field, bad):
    """A NaN or infinite bound would only fail later, as an integer
    conversion in ``offset_bound``."""
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SyncConfig(**{field: bad})


# -------------------------------------------------------- peak diagnostics


def test_peak_spread_recovers_injected_delays():
    """Staggered preambles on a clean superposed uplink are located exactly
    at their injected delays."""
    delays = [0, 150, 400, 611]
    preambles = [gold_sequence(k) for k in range(len(delays))]
    signals = [
        (TimeSignal(p.astype(complex), RATE), d) for p, d in zip(preambles, delays)
    ]
    rx = superpose(signals, 0.0, seed=0)
    pairs = peak_spread(rx, preambles)
    assert pairs == [(ue, d) for ue, d in enumerate(delays)]
    assert spread_of(pairs) == 611


def test_peak_spread_with_noise_and_gains():
    rng = np.random.default_rng(5)
    delays = [10, 300]
    preambles = [gold_sequence(k) for k in (2, 9)]
    signals = []
    for p, d, amp in zip(preambles, delays, (1.0, 0.4)):
        signals.append((TimeSignal(amp * p.astype(complex), RATE), d))
    rx = superpose(signals, 1e-3, seed=11)
    pairs = peak_spread(rx, preambles)
    assert pairs == [(0, 10), (1, 300)]
    assert spread_of(pairs) == 290


def test_peak_spread_validation():
    with pytest.raises(ValueError):
        peak_spread(TimeSignal(np.zeros(200, dtype=complex), RATE), [])


@pytest.mark.parametrize("field, bad", [
    ("mode", "gps"), ("ptp_bound_s", -1e-6),
    ("off_spread", -1),
])
def test_sync_config_names_the_field_it_rejects(field, bad):
    with pytest.raises(FieldError) as exc:
        SyncConfig(**{field: bad})
    assert exc.value.field == field


def test_offset_reach_is_the_float_bound_and_its_field():
    """The bound before rounding up, so an infinite sample rate gives inf
    instead of an OverflowError in ``math.ceil``."""
    assert offset_reach(SyncConfig(), RATE) == ("ptp_bound_s", DEFAULT_PTP_BOUND_S * RATE)
    assert offset_reach(SyncConfig(), np.inf) == ("ptp_bound_s", np.inf)
    assert offset_reach(SyncConfig(mode="ptp_off", off_spread=7), np.inf) == ("off_spread", 7)
    assert offset_bound(SyncConfig(), RATE) == 4
