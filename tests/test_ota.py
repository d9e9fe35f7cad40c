"""End-to-end analog aggregation: transport fidelity, aborts, experiments."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from otafl import fl, grid, ota
from otafl.channel import ChannelModel, superpose
from otafl.grid import GridConfig, TimeSignal, ofdm_demodulate
from otafl.ota import (
    DETECT_THRESHOLD,
    PREAMBLE_DEGREE,
    PREAMBLE_LEN,
    PhyConfig,
    data_seeds,
    derive_seed,
    initial_state,
    ota_aggregate,
    round_updates,
    run_experiment,
    run_ota_round,
    train_configs,
)
from otafl.sync import SyncConfig, draw_offsets, offset_bound
from otafl.weightcodec import component_peaks, pack_complex, scale_updates, shared_peaks

SMALL_GRID = GridConfig(subcarriers=32, symbols_per_slot=4, fft_size=32, cp_len=8)


def _ideal_phy(**kw):
    """No fading, no noise, no offsets: the transport-identity regime."""
    base = dict(
        grid=SMALL_GRID,
        channel=ChannelModel("ideal"),
        sync=SyncConfig(mode="ptp_off", off_spread=0),
        uplink_snr_db=None,
    )
    base.update(kw)
    return PhyConfig(**base)


def _random_deltas(num_ues, params, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return [scale * rng.normal(size=params) for _ in range(num_ues)]


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


# ------------------------------------------------------ transport identity


@pytest.mark.parametrize("num_ues", [1, 2, 5])
def test_transport_identity_ideal_channel(num_ues):
    deltas = _random_deltas(num_ues, 300, seed=num_ues)
    report = ota_aggregate(deltas, _ideal_phy(), master_seed=1)
    assert not report.aborted
    assert _rel_err(report.recovered, report.exact_avg) <= 1e-9
    np.testing.assert_allclose(report.exact_avg, np.mean(deltas, axis=0), atol=1e-15)
    assert report.agg_nmse_db <= -180.0
    assert report.alpha > 0


def test_single_ue_recovers_its_own_delta():
    deltas = _random_deltas(1, 64, seed=3)
    report = ota_aggregate(deltas, _ideal_phy(), master_seed=0)
    assert _rel_err(report.recovered, deltas[0]) <= 1e-9


def test_perfect_csi_with_offsets_is_transparent():
    """The genie branch folds the true timing ramps and phases into the
    effective channel, so inversion cancels them exactly."""
    phy = _ideal_phy(
        channel=ChannelModel("flat_block"),
        sync=SyncConfig(mode="ptp_on", phase_offset_rad=0.5),
        csi_mode="perfect",
    )
    deltas = _random_deltas(4, 500, seed=4)
    report = ota_aggregate(deltas, phy, master_seed=7)
    assert not report.aborted
    assert _rel_err(report.recovered, report.exact_avg) <= 1e-9


def test_estimated_csi_with_offsets_clean_channel():
    """Noise-free sounding on a flat channel with full-band pilots: the
    least-squares estimate captures both the gain and each user's residual
    timing ramp exactly, so recovery error stays at numerical-precision
    level even with ptp-bounded offsets in play."""
    phy = _ideal_phy(
        channel=ChannelModel("flat_block"),
        sync=SyncConfig(mode="ptp_on"),
        pilot_allocation="tdm_full",
    )
    deltas = _random_deltas(5, 400, seed=5)
    report = ota_aggregate(deltas, phy, master_seed=3)
    assert not report.aborted
    assert report.agg_nmse_db < -100.0
    assert np.all(report.offsets >= 0) and np.all(report.offsets <= 1)
    assert np.all(report.peak_metrics >= DETECT_THRESHOLD)


def test_comb_pilots_exact_without_offsets():
    """With zero timing offsets there is no phase ramp to interpolate, so
    comb sounding is exact on a frequency-flat channel too."""
    phy = _ideal_phy(channel=ChannelModel("flat_block"))
    deltas = _random_deltas(5, 400, seed=5)
    report = ota_aggregate(deltas, phy, master_seed=3)
    assert report.agg_nmse_db < -100.0


def test_tdm_pilot_allocation_matches_comb_on_flat_channel():
    deltas = _random_deltas(3, 200, seed=6)
    phy_comb = _ideal_phy(channel=ChannelModel("flat_block"))
    phy_tdm = _ideal_phy(channel=ChannelModel("flat_block"), pilot_allocation="tdm_full")
    a = ota_aggregate(deltas, phy_comb, master_seed=2)
    b = ota_aggregate(deltas, phy_tdm, master_seed=2)
    np.testing.assert_allclose(a.recovered, b.recovered, atol=1e-9)


# ------------------------------------------------------------- power rail


def test_transmitted_power_stays_under_peak():
    phy = PhyConfig(
        grid=SMALL_GRID,
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        sync=SyncConfig(mode="ptp_on"),
        uplink_snr_db=20.0,
    )
    for seed in range(10):
        deltas = _random_deltas(4, 256, seed=seed)
        report = ota_aggregate(deltas, phy, master_seed=seed)
        assert np.all(report.max_re_power <= phy.peak_power + 1e-12)


# ----------------------------------------------------------- scale modes


def test_per_client_scaling_bias_oracle():
    """Per-client peaks cannot be undone after the analog sum; the receiver
    descales by their mean.  For deltas [2,0,0,0] and [0,0,4,0] the even
    rail sees peaks 2 and 4 (mean 3), both normalized entries reach 1, so
    the recovery is [1.5, 0, 1.5, 0] instead of the exact [1, 0, 2, 0]."""
    deltas = [np.array([2.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 4.0, 0.0])]
    phy = _ideal_phy(scale_mode="per_client")
    report = ota_aggregate(deltas, phy, master_seed=0)
    np.testing.assert_allclose(report.recovered, [1.5, 0.0, 1.5, 0.0], atol=1e-9)
    assert report.shared_scales == pytest.approx((3.0, 1.0))


def test_common_scaling_is_unbiased_for_same_case():
    deltas = [np.array([2.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 4.0, 0.0])]
    report = ota_aggregate(deltas, _ideal_phy(), master_seed=0)
    np.testing.assert_allclose(report.recovered, [1.0, 0.0, 2.0, 0.0], atol=1e-9)


# ------------------------------------------------------- degraded regimes


def test_stale_csi_degrades_recovery():
    deltas = _random_deltas(3, 300, seed=8)
    kw = dict(
        grid=SMALL_GRID,
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        sync=SyncConfig(mode="ptp_off", off_spread=0),
        uplink_snr_db=None,
    )
    fresh = ota_aggregate(deltas, PhyConfig(**kw), master_seed=5)
    stale = ota_aggregate(deltas, PhyConfig(decorrelation=0.5, **kw), master_seed=5)
    assert stale.agg_nmse_db > fresh.agg_nmse_db + 10.0


def test_feedback_quantization_degrades_recovery():
    deltas = _random_deltas(3, 300, seed=9)
    kw = dict(
        grid=SMALL_GRID,
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        sync=SyncConfig(mode="ptp_off", off_spread=0),
        uplink_snr_db=None,
    )
    exact = ota_aggregate(deltas, PhyConfig(**kw), master_seed=6)
    coarse = ota_aggregate(deltas, PhyConfig(feedback_quant_bits=4, **kw), master_seed=6)
    assert coarse.agg_nmse_db > exact.agg_nmse_db


@pytest.mark.parametrize("allocation", ["fdm_comb", "tdm_full"])
def test_abort_on_undetectable_preambles(allocation):
    phy = _ideal_phy(uplink_snr_db=-30.0, channel=ChannelModel("flat_block"),
                     pilot_allocation=allocation)
    deltas = _random_deltas(3, 100, seed=10)
    report = ota_aggregate(deltas, phy, master_seed=4)
    assert report.aborted
    assert report.abort_reason == "sounding detection failed"
    assert report.offsets.shape == (3,)
    assert report.peak_metrics.shape == (3,)
    assert np.all(report.peak_metrics < DETECT_THRESHOLD)
    # every client still sent its preamble and pilots at the reference power
    np.testing.assert_array_equal(report.max_re_power, np.full(3, phy.reference_amplitude**2))
    np.testing.assert_array_equal(report.recovered, np.zeros(100))
    assert report.agg_nmse_db == 0.0  # zero estimate of a nonzero truth


# ------------------------------------------------------ preamble search windows


@pytest.mark.parametrize("sync", [
    SyncConfig(mode="ptp_on"),
    SyncConfig(mode="ptp_off", off_spread=64),
], ids=["ptp_on", "ptp_off_64"])
def test_receive_finds_a_preamble_at_the_offset_bound(sync):
    """The last lag of a client's search window is its offset bound; a
    client arriving exactly that late is still found at its true delay,
    even when the delay runs past the guard gap into the next slot."""
    phy = PhyConfig(channel=ChannelModel("flat_block"), sync=sync, uplink_snr_db=20.0)
    bound = offset_bound(sync, phy.grid.sample_rate)
    delays = [0, bound, 1]
    gains = np.ones((3, phy.grid.subcarriers), dtype=complex)
    masks = np.ones((3, phy.grid.subcarriers))
    rx, _ = ota._superposed_frame([0, 1, 2], 3, phy, gains, np.zeros(3), masks,
                                  np.array(delays), 2)
    _, offsets, metrics = ota._receive(rx, [0, 1, 2], phy, phy.preamble_region_len(3), 5)
    np.testing.assert_array_equal(offsets, delays)
    assert np.all(metrics >= DETECT_THRESHOLD)


@pytest.mark.parametrize("allocation", ["fdm_comb", "tdm_full"])
@pytest.mark.parametrize("spread", [64, 256])
def test_windowed_offsets_match_a_full_frame_scan(monkeypatch, allocation, spread):
    """At the sync-stress shape, with offsets well past the cyclic prefix,
    every detected client's windowed offset equals the full-frame argmax
    minus its slot start."""
    calls = []
    original = ota._receive

    def recording(sent, ues, phy, info_start, seed):
        rx, offsets, metrics = original(sent, ues, phy, info_start, seed)
        calls.append((rx, list(ues), offsets, metrics))
        return rx, offsets, metrics

    monkeypatch.setattr(ota, "_receive", recording)
    phy = PhyConfig(
        channel=ChannelModel("flat_block"),
        sync=SyncConfig(mode="ptp_off", off_spread=spread),
        pilot_allocation=allocation,
        uplink_snr_db=60.0,
    )
    for seed in range(4):
        ota_aggregate(_random_deltas(5, 65, seed=seed), phy, master_seed=seed)
    checked = 0
    for rx, ues, offsets, metrics in calls:
        for ue, off, metric in zip(ues, offsets, metrics):
            if metric < DETECT_THRESHOLD:
                continue
            preamble = grid.gold_sequence(PREAMBLE_DEGREE, ue, PREAMBLE_LEN)
            full, _ = grid.detect_frame(rx, preamble)
            assert off == full - ue * phy.preamble_slot_len
            checked += 1
    assert checked >= 20


def test_detection_scans_only_the_search_windows(monkeypatch):
    """No preamble search may grow back to the whole received frame."""
    sizes = []
    original = ota.detect_frame

    def counting(signal, preamble):
        sizes.append(signal.samples.size)
        return original(signal, preamble)

    monkeypatch.setattr(ota, "detect_frame", counting)
    phy = PhyConfig(
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        uplink_snr_db=20.0,
    )
    report = ota_aggregate(_random_deltas(20, 100, seed=8), phy, master_seed=8)
    assert not report.aborted
    assert len(sizes) == 2 * 20  # one sounding and one payload search per client
    assert max(sizes) <= offset_bound(phy.sync, phy.grid.sample_rate) + PREAMBLE_LEN


# ---------------------------------------------------------- receive buffer

# Narrower than the FFT, so the empty bins are exercised too.
ORACLE_GRID = GridConfig(subcarriers=24, symbols_per_slot=4, fft_size=32, cp_len=8)


def _oracle_inputs(num_ues, allocation, seed=11):
    """Random gains, phases, pilot masks and two slots of precoded payload."""
    sub = ORACLE_GRID.subcarriers
    rows = 2 * ORACLE_GRID.symbols_per_slot
    rng = np.random.default_rng(seed)
    gains = np.stack([rng.normal(size=sub) + 1j * rng.normal(size=sub)
                      for _ in range(num_ues)])
    phases = rng.uniform(-np.pi, np.pi, size=num_ues)
    masks = np.zeros((num_ues, sub))
    for ue in range(num_ues):
        masks[ue, ota._pilot_positions(ue, num_ues, ORACLE_GRID, allocation)] = 1.0
    precoded = np.stack([rng.normal(size=(rows, sub)) + 1j * rng.normal(size=(rows, sub))
                         for _ in range(num_ues)])
    return gains, phases, masks, precoded


def _payload(precoded):
    return precoded.copy()


def test_single_client_frame_oracle():
    """A client's frame built alone at delay 0 carries its Gold chips in its
    own preamble slot and nothing else in the preamble region, then pilot
    symbols that demodulate to amp * pilot * mask * gains * rot and payload
    symbols that demodulate to alpha * precoded * gains * rot.  The
    receiver's demodulator is the oracle."""
    cfg = ORACLE_GRID
    phy = PhyConfig(grid=cfg)
    num_ues, pilot_symbols, sub = 3, 2, cfg.subcarriers
    gains, phases, masks, precoded = _oracle_inputs(num_ues, "fdm_comb")
    alpha = 0.5
    region = phy.preamble_region_len(num_ues)
    amp = phy.reference_amplitude
    pilot_cfg = replace(cfg, symbols_per_slot=pilot_symbols)
    payload_cfg = replace(cfg, symbols_per_slot=len(precoded[0]))
    for ue in range(num_ues):
        row, peaks = ota._superposed_frame([ue], num_ues, phy, gains, phases, masks,
                                           np.zeros(num_ues, dtype=np.int64), pilot_symbols,
                                           _payload(precoded), alpha)
        assert row.shape == (region + (pilot_symbols + len(precoded[ue])) * cfg.symbol_len,)
        rot = np.exp(1j * phases[ue])
        start = ue * phy.preamble_slot_len
        chips = grid.gold_sequence(PREAMBLE_DEGREE, ue, PREAMBLE_LEN)
        rms = np.sqrt(np.mean(np.abs(gains[ue]) ** 2))
        np.testing.assert_allclose(row[start:start + PREAMBLE_LEN], amp * rms * chips * rot,
                                   rtol=0, atol=1e-12)
        assert not np.delete(row[:region], np.arange(start, start + PREAMBLE_LEN)).any()

        signal = TimeSignal(row, cfg.sample_rate)
        want_pilot = amp * grid.make_pilot_values(sub) * masks[ue] * gains[ue] * rot
        got_pilot = ofdm_demodulate(signal, pilot_cfg, region).data
        np.testing.assert_allclose(got_pilot, np.tile(want_pilot, (pilot_symbols, 1)),
                                   rtol=0, atol=1e-12)
        got = ofdm_demodulate(signal, payload_cfg, region + pilot_symbols * cfg.symbol_len).data
        np.testing.assert_allclose(got, alpha * precoded[ue] * gains[ue] * rot,
                                   rtol=0, atol=1e-12)
        symbols = row[region:].reshape(-1, cfg.symbol_len)
        np.testing.assert_array_equal(symbols[:, :cfg.cp_len], symbols[:, -cfg.cp_len:])
        want_peak = max(np.max(np.abs(alpha * precoded[ue]) ** 2), amp**2)
        assert peaks.shape == (1,)
        assert peaks[0] == want_peak  # max |x| squared is max(|x|^2), bit for bit


def test_sounding_frame_carries_only_preamble_and_pilots():
    """A sounding frame repeats one modulated pilot symbol and sends nothing
    in the preamble region outside the client's slot, shifted by its delay."""
    cfg = SMALL_GRID
    phy = PhyConfig(grid=cfg)
    gains = np.full((4, cfg.subcarriers), 0.5 + 0.5j)
    masks = np.ones((4, cfg.subcarriers))
    delays = np.array([0, 0, 7, 0])
    rx, peaks = ota._superposed_frame([2], 4, phy, gains, np.zeros(4), masks, delays, 3)
    region = phy.preamble_region_len(4)
    assert rx.shape == (7 + region + 3 * cfg.symbol_len,)
    np.testing.assert_array_equal(peaks, [phy.reference_amplitude**2])
    start = 7 + 2 * phy.preamble_slot_len
    assert np.flatnonzero(rx[:7 + region]).tolist() == list(range(start, start + PREAMBLE_LEN))
    symbols = rx[7 + region:].reshape(3, cfg.symbol_len)
    np.testing.assert_array_equal(symbols[1:], np.broadcast_to(symbols[0], (2, cfg.symbol_len)))


@pytest.mark.parametrize("allocation", ["fdm_comb", "tdm_full"])
@pytest.mark.parametrize("event", ["sounding", "payload"])
@pytest.mark.parametrize("spread", [0, 4, 64, 256])
def test_superposed_frame_matches_superpose_of_single_frames(allocation, event, spread):
    """The receive buffer equals ``channel.superpose`` over each client's
    frame built alone at delay 0, bit for bit.  Offsets up to 256 samples run
    late preambles and bodies into the next clients' samples, so this pins
    the ascending order in which every sample sums its clients."""
    cfg = ORACLE_GRID
    phy = PhyConfig(grid=cfg, pilot_allocation=allocation)
    num_ues = 5
    gains, phases, masks, precoded = _oracle_inputs(num_ues, allocation, seed=spread)
    offsets = draw_offsets(SyncConfig(mode="ptp_off", off_spread=spread), num_ues,
                           cfg.sample_rate, seed=spread)
    if spread >= 64:  # some preamble runs past its guard gap into the next slot
        assert offsets.max() > phy.preamble_slot_len - PREAMBLE_LEN
    sounding = event == "sounding"
    pilot_symbols = cfg.symbols_per_slot if sounding else 1

    def payload():  # a fresh copy per build: the payload is scaled in place
        return None if sounding else _payload(precoded)

    ues = list(range(num_ues))
    rx, peaks = ota._superposed_frame(ues, num_ues, phy, gains, phases, masks, offsets,
                                      pilot_symbols, payload(), 0.7)
    singles, single_peaks = [], []
    for ue in ues:
        frame, peak = ota._superposed_frame([ue], num_ues, phy, gains, phases, masks,
                                            np.zeros(num_ues, dtype=np.int64),
                                            pilot_symbols, payload(), 0.7)
        singles.append((TimeSignal(frame, cfg.sample_rate), int(offsets[ue])))
        single_peaks.append(peak[0])
    want = superpose(singles, 0.0, 0).samples
    assert rx.shape == want.shape
    np.testing.assert_array_equal(rx.view(np.float64), want.view(np.float64))
    np.testing.assert_array_equal(peaks, single_peaks)


@pytest.mark.parametrize("snr_db", [20.0, -5.0])
def test_receive_adds_noise_in_place(snr_db):
    """The in-place noise equals ``rx + sqrt(v/2) * (a + 1j*b)`` bit for bit,
    with ``a`` and ``b`` the next real draws of the event's generator and
    ``v`` the noise variance referenced from ``info_start``."""
    cfg = ORACLE_GRID
    phy = PhyConfig(grid=cfg, uplink_snr_db=snr_db)
    gains, phases, masks, precoded = _oracle_inputs(3, "fdm_comb")
    offsets = np.array([0, 3, 1])
    rx, _ = ota._superposed_frame([0, 1, 2], 3, phy, gains, phases, masks, offsets, 1,
                                  _payload(precoded), 0.7)
    info_start = phy.preamble_region_len(3) + cfg.symbol_len
    clean = rx.copy()
    got, _, _ = ota._receive(rx, [0, 1, 2], phy, info_start, derive_seed(5, 1))
    assert got.samples is rx  # no second buffer
    variance = np.mean(np.abs(clean[info_start:]) ** 2) / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(derive_seed(5, 1))
    n = rng.standard_normal(clean.size) + 1j * rng.standard_normal(clean.size)
    want = clean + np.sqrt(variance / 2.0) * n
    np.testing.assert_array_equal(got.samples.view(np.float64), want.view(np.float64))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_update_is_rejected_before_transmission(bad, monkeypatch):
    """A non-finite entry makes the client's precoded grid non-finite, which
    must raise before any payload frame is built."""
    payload_frames = []
    original = ota._superposed_frame

    def recording(*args, **kwargs):
        payload_frames.append(len(args) > 8 or "payload" in kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(ota, "_superposed_frame", recording)
    deltas = _random_deltas(3, 200, seed=12)
    deltas[1][17] = bad
    with pytest.raises(ValueError, match="resource grid entries must be finite"):
        ota_aggregate(deltas, _ideal_phy(), master_seed=0)
    assert payload_frames == [False]  # the sounding event only


STAGES = ("ls_estimate", "interpolate", "quantize_estimate", "inversion_floor",
          "inversion_divisor", "compute_alpha")


@pytest.mark.parametrize("allocation", ["fdm_comb", "tdm_full"])
def test_each_array_stage_runs_once_per_aggregation(monkeypatch, allocation):
    """Estimation and precoding take every client's row in one call, however
    many clients there are."""
    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        def counting(*args, _stage=getattr(ota, name), _name=name, **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)
        monkeypatch.setattr(ota, name, counting)
    phy = PhyConfig(channel=ChannelModel("flat_block"), pilot_allocation=allocation,
                    feedback_quant_bits=8, uplink_snr_db=30.0)
    report = ota_aggregate(_random_deltas(12, 301, seed=3), phy, master_seed=3)
    assert not report.aborted
    assert calls == dict.fromkeys(STAGES, 1)


@pytest.mark.parametrize("scale_mode", ["common", "per_client"])
@pytest.mark.parametrize("params", [1, 2, 301, 2 * 32 * 4])
def test_payload_rows_hold_the_packed_scaled_updates(monkeypatch, scale_mode, params):
    """Before the division, each client's payload row is the codec's packed,
    scaled update (even -> I, odd -> Q) followed by zeros, to the last
    symbol of its last slot."""
    seen = []
    monkeypatch.setattr(ota, "inversion_divisor",
                        lambda est, floor: np.ones_like(est.gains))
    original = ota.compute_alpha

    def recording(block):
        seen.append(block.copy())
        return original(block)

    monkeypatch.setattr(ota, "compute_alpha", recording)
    deltas = _random_deltas(3, params, seed=params)
    ota_aggregate(deltas, _ideal_phy(scale_mode=scale_mode), master_seed=0)
    (block,) = seen
    slots = ota.slot_plan(params, SMALL_GRID).slots
    assert block.shape == (3, slots * SMALL_GRID.symbols_per_slot, SMALL_GRID.subcarriers)
    shared = shared_peaks(deltas)
    for d, row in zip(deltas, block):
        scales = shared if scale_mode == "common" else component_peaks(d)
        want = pack_complex(scale_updates(d, scales).values)
        np.testing.assert_array_equal(row.reshape(-1)[:want.size], want)
        assert not row.reshape(-1)[want.size:].any()


# Peak traced allocation of one aggregation at M = 20, P = 71 666,
# `tdm_full`, as a multiple of the deltas' own bytes.  One receive buffer
# per event, one payload block for all clients and the sounding buffers
# freed before it measure 1.78; a `(clients x frame_len)` transmit matrix
# walked again by `superpose`, plus a stacked copy of the deltas for their
# mean, measured 3.19.
AGGREGATE_MEMORY_MULTIPLE = 2.5


def test_aggregate_memory_stays_near_the_updates_size():
    deltas = _random_deltas(20, 71_666, seed=13)
    phy = PhyConfig(
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        uplink_snr_db=20.0,
    )
    tracemalloc.start()
    try:
        report = ota_aggregate(deltas, phy, master_seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.aborted
    assert peak <= AGGREGATE_MEMORY_MULTIPLE * sum(d.nbytes for d in deltas)


def test_all_zero_updates_skip_the_air_interface():
    deltas = [np.zeros(50) for _ in range(3)]
    report = ota_aggregate(deltas, _ideal_phy(), master_seed=0)
    assert not report.aborted
    assert report.agg_nmse_db == -300.0
    np.testing.assert_array_equal(report.recovered, np.zeros(50))
    assert report.alpha == 0.0


def test_rayleigh_regression_bound():
    """Frozen Monte Carlo baseline: per-subcarrier Rayleigh fading at 20 dB
    receive SNR, five clients, ptp-bounded offsets.  The seed-averaged
    aggregation NMSE must stay at or below -15 dB (measured -17.4 with
    sigma 0.45 over these seeds)."""
    phy = PhyConfig(
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        sync=SyncConfig(mode="ptp_on"),
        uplink_snr_db=20.0,
    )
    vals = []
    for seed in range(20):
        deltas = _random_deltas(5, 7168, seed=seed, scale=0.05)
        vals.append(ota_aggregate(deltas, phy, master_seed=seed).agg_nmse_db)
    assert np.mean(vals) <= -15.0


def test_nmse_improves_monotonically_with_snr():
    phy0 = dict(
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        sync=SyncConfig(mode="ptp_on"),
    )
    means = []
    for snr in (0.0, 10.0, 20.0, 30.0):
        phy = PhyConfig(uplink_snr_db=snr, **phy0)
        vals = [
            ota_aggregate(_random_deltas(5, 1024, seed=s, scale=0.05), phy, s).agg_nmse_db
            for s in range(20)
        ]
        means.append(np.mean(vals))
    assert all(b < a for a, b in zip(means, means[1:])), means


# ----------------------------------------------------------- determinism


def test_aggregate_is_seed_deterministic():
    phy = PhyConfig(
        grid=SMALL_GRID,
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        uplink_snr_db=15.0,
    )
    deltas = _random_deltas(4, 200, seed=1)
    a = ota_aggregate(deltas, phy, master_seed=9, round_index=2)
    b = ota_aggregate(deltas, phy, master_seed=9, round_index=2)
    np.testing.assert_array_equal(a.recovered, b.recovered)
    c = ota_aggregate(deltas, phy, master_seed=9, round_index=3)
    assert not np.array_equal(a.recovered, c.recovered)


def test_thread_count_does_not_change_bits(monkeypatch):
    phy = PhyConfig(
        grid=SMALL_GRID,
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        uplink_snr_db=15.0,
    )
    deltas = _random_deltas(5, 300, seed=2)
    monkeypatch.setenv("OTAFL_THREADS", "1")
    serial = ota_aggregate(deltas, phy, master_seed=1)
    monkeypatch.setenv("OTAFL_THREADS", "4")
    threaded = ota_aggregate(deltas, phy, master_seed=1)
    np.testing.assert_array_equal(serial.recovered, threaded.recovered)


def test_aggregate_validation():
    with pytest.raises(ValueError):
        ota_aggregate([], _ideal_phy())
    with pytest.raises(ValueError):
        ota_aggregate([np.ones(4), np.ones(5)], _ideal_phy())
    grid8 = GridConfig(subcarriers=8, symbols_per_slot=2, fft_size=8, cp_len=2)
    tiny = _ideal_phy(grid=grid8)
    with pytest.raises(ValueError):  # comb pilots need one subcarrier per UE
        ota_aggregate([np.ones(4)] * 9, tiny)
    with pytest.raises(ValueError):  # preamble family exhausted
        ota_aggregate([np.ones(4)] * 130, _ideal_phy())


# ------------------------------------------------------------ experiments


def _make_tasks(num_ues, master=0, samples=64, features=16):
    tasks = []
    for ue in range(num_ues):
        shared, client = data_seeds(master, ue)
        tasks.append(
            fl.make_linear_task(shared, client, samples, features, heterogeneity=0.3)
        )
    return tasks


def test_seed_helpers():
    a = derive_seed(1, 2, 3).generate_state(2)
    b = derive_seed(1, 2, 3).generate_state(2)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, derive_seed(1, 2, 4).generate_state(2))
    sh0, cl0 = data_seeds(5, 0)
    sh1, cl1 = data_seeds(5, 1)
    np.testing.assert_array_equal(sh0.generate_state(2), sh1.generate_state(2))
    assert not np.array_equal(cl0.generate_state(2), cl1.generate_state(2))


def test_initial_state_shared_and_validated():
    tasks = _make_tasks(3)
    state = initial_state(tasks, master_seed=0)
    assert state.theta.size == 16
    assert state.round_index == 0
    bad = tasks[:2] + [fl.make_linear_task(0, 9, 10, 8)]
    with pytest.raises(ValueError):
        initial_state(bad, master_seed=0)


def test_train_configs_vary_by_round_and_ue():
    template = fl.TrainConfig(learning_rate=0.05, epochs=2, batch_size=16)
    r0 = train_configs(template, 3, master_seed=0, round_index=0)
    r1 = train_configs(template, 3, master_seed=0, round_index=1)
    seeds = {c.seed for c in r0} | {c.seed for c in r1}
    assert len(seeds) == 6
    assert all(c.learning_rate == 0.05 and c.epochs == 2 for c in r0)


def test_ota_trajectory_matches_digital_on_ideal_channel():
    """With a transparent physical layer the analog path reproduces the
    digital FedAvg trajectory to numerical precision round by round."""
    tasks = _make_tasks(4)
    template = fl.TrainConfig(learning_rate=0.1, epochs=1)
    phy = _ideal_phy(grid=GridConfig())
    ota = run_experiment("ota", 5, tasks, template, phy, master_seed=11)
    dig = run_experiment("digital_fp32", 5, tasks, template, phy, master_seed=11)
    for t_ota, t_dig in zip(ota.traces, dig.traces):
        assert t_ota.global_loss == pytest.approx(t_dig.global_loss, rel=1e-9)
    assert _rel_err(ota.final_theta, dig.final_theta) <= 1e-9


def test_digital_fp32_matches_centralized_gradient_descent():
    """One FedAvg round with full-batch SGD and equal client sample counts
    is exactly one centralized gradient step on the pooled objective, so
    the loss trajectories coincide."""
    tasks = _make_tasks(4, samples=50, features=8)
    template = fl.TrainConfig(learning_rate=0.05, epochs=1)
    rounds = 30
    result = run_experiment("digital_fp32", rounds, tasks, template, _ideal_phy(),
                            master_seed=0)
    pooled = fl.Task(
        "linear_regression",
        np.concatenate([t.features for t in tasks]),
        np.concatenate([t.targets for t in tasks]),
    )
    theta = np.zeros(8)
    for _ in range(rounds):
        _, grad = fl.loss_and_grad(theta, pooled)
        theta = theta - 0.05 * grad
    central_loss = fl.evaluate_loss(theta, pooled)
    assert result.traces[-1].global_loss == pytest.approx(central_loss, abs=1e-6)


def test_digital_int8_quantization_is_small_but_visible():
    tasks = _make_tasks(3)
    template = fl.TrainConfig(learning_rate=0.1, epochs=1)
    res = run_experiment("digital_int8", 3, tasks, template, _ideal_phy(), master_seed=2)
    for t in res.traces:
        assert -300.0 < t.agg_nmse_db < -25.0  # quantized, not exact


def test_slots_and_energy_bookkeeping():
    tasks = _make_tasks(2, samples=32, features=8)
    template = fl.TrainConfig(epochs=1)
    phy = _ideal_phy(grid=GridConfig())
    ota = run_experiment("ota", 3, tasks, template, phy, master_seed=0)
    # 8 params fit one slot; every round bills the same count
    assert all(t.slots_used == ota.traces[0].slots_used for t in ota.traces)
    assert ota.total_slots == 3 * ota.traces[0].slots_used
    assert ota.total_energy_j == pytest.approx(sum(t.energy_j for t in ota.traces))
    dig = run_experiment("digital_fp32", 3, tasks, template, phy, master_seed=0)
    assert all(t.slots_used == dig.traces[0].slots_used for t in dig.traces)


def test_ota_slots_independent_of_client_count():
    template = fl.TrainConfig(epochs=1)
    phy = _ideal_phy(grid=GridConfig())
    slots = []
    for m in (2, 5):
        res = run_experiment("ota", 1, _make_tasks(m), template, phy, master_seed=0)
        slots.append(res.traces[0].slots_used)
    assert slots[0] == slots[1]


def test_aborted_round_keeps_global_model():
    tasks = _make_tasks(3)
    template = fl.TrainConfig(learning_rate=0.1, epochs=1)
    phy = _ideal_phy(uplink_snr_db=-30.0, channel=ChannelModel("flat_block"))
    state = initial_state(tasks, master_seed=0)
    cfgs = train_configs(template, 3, 0, 0)
    new_state, trace = run_ota_round(state, tasks, cfgs, phy, master_seed=0)
    assert trace.aborted
    np.testing.assert_array_equal(new_state.theta, state.theta)
    assert new_state.round_index == 1
    assert trace.energy_j > 0  # the attempt still cost transmissions


def _two_ota_rounds(drop_grads):
    tasks = _make_tasks(3)
    template = fl.TrainConfig(learning_rate=0.1, epochs=1)
    phy = _ideal_phy(channel=ChannelModel("flat_block"), uplink_snr_db=20.0)
    state = initial_state(tasks, master_seed=4)
    losses = []
    for r in range(2):
        if drop_grads:
            state = replace(state, grads=None)
        state, trace = run_ota_round(state, tasks, train_configs(template, 3, 4, r), phy, 4)
        losses.append(trace.global_loss)
    return tasks, state, losses


def test_carried_gradients_do_not_change_rounds():
    tasks, carried, carried_losses = _two_ota_rounds(drop_grads=False)
    _, fresh, fresh_losses = _two_ota_rounds(drop_grads=True)
    np.testing.assert_array_equal(carried.theta, fresh.theta)
    assert carried_losses == fresh_losses
    assert len(carried.grads) == len(tasks)
    for task, grad in zip(tasks, carried.grads):
        np.testing.assert_array_equal(grad, fl.loss_and_grad(carried.theta, task)[1])


def test_carried_gradient_count_must_match_tasks():
    tasks, state, _ = _two_ota_rounds(drop_grads=False)
    cfgs = train_configs(fl.TrainConfig(epochs=1), 3, 4, 2)
    with pytest.raises(ValueError):
        run_ota_round(replace(state, grads=state.grads[:2]), tasks, cfgs, _ideal_phy(), 4)


def test_round_updates_shape_and_effect():
    tasks = _make_tasks(3)
    state = initial_state(tasks, master_seed=0)
    deltas = round_updates(state, tasks, fl.TrainConfig(epochs=1), master_seed=0)
    assert len(deltas) == 3
    assert all(d.shape == (16,) for d in deltas)
    assert all(np.linalg.norm(d) > 0 for d in deltas)


def test_experiment_validation():
    tasks = _make_tasks(2)
    template = fl.TrainConfig()
    with pytest.raises(ValueError):
        run_experiment("analog", 1, tasks, template, _ideal_phy(), 0)
    with pytest.raises(ValueError):
        run_experiment("ota", 0, tasks, template, _ideal_phy(), 0)
    with pytest.raises(ValueError):
        run_experiment("ota", 1, [], template, _ideal_phy(), 0)


def test_phy_config_validation():
    with pytest.raises(ValueError):
        PhyConfig(csi_mode="oracle")
    with pytest.raises(ValueError):
        PhyConfig(pilot_allocation="random")
    with pytest.raises(ValueError):
        PhyConfig(scale_mode="max")
    with pytest.raises(ValueError):
        PhyConfig(floor_rel=-0.1)
    with pytest.raises(ValueError):
        PhyConfig(decorrelation=1.5)
    # a NaN floor used to run unfloored, and a NaN SNR aborted every round
    for bad in (dict(floor_rel=np.nan), dict(decorrelation=np.nan),
                dict(uplink_snr_db=np.nan), dict(uplink_snr_db=np.inf)):
        with pytest.raises(ValueError):
            PhyConfig(**bad)
    assert PhyConfig(uplink_snr_db=None).uplink_snr_db is None
    # the transmit scale cancels out of every result, so it is no field
    assert PhyConfig().peak_power == 1.0
    with pytest.raises(TypeError):
        PhyConfig(peak_power=2.0)
    with pytest.raises(TypeError):
        PhyConfig(margin=0.5)
