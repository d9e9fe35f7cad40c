"""End-to-end analog aggregation: transport fidelity, aborts, experiments."""

import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from otafl import fl, grid, ota, scenario
from otafl.accounting import DEFAULT_SPECTRAL_EFFICIENCY, SpectralProfile, gains_table
from otafl.channel import ChannelModel, superpose
from otafl.csi import energy, ls_estimate, nmse
from otafl.precode import MARGIN, compute_alpha
from otafl.grid import PREAMBLE_LEN, GridConfig, TimeSignal, ofdm_demodulate
from otafl.errors import FieldError
from otafl.ota import (
    DETECT_THRESHOLD,
    PhyConfig,
    check_run,
    data_seeds,
    derive_seed,
    initial_state,
    ota_aggregate,
    run_experiment,
    run_ota_round,
    train_configs,
    train_deltas,
)
from otafl.sync import SyncConfig, draw_offsets, offset_bound
from otafl.weightcodec import (
    map_to_grids,
    pack_complex,
    pack_payload,
    peak_scales,
    rail_divisors,
    rail_peaks,
    scale_updates,
)
from oracles import (
    gap_share,
    payload_frame_per_delay,
    propagated_gap,
    receive_each_event,
    receive_one_event,
)

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
    """The genie branch folds the true timing ramps into the effective
    channel, so inversion cancels them exactly."""
    phy = _ideal_phy(
        channel=ChannelModel("flat_block"),
        sync=SyncConfig(mode="ptp_on"),
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


# -------------------------------------------------------- shared scaling


def test_common_scaling_is_unbiased_for_same_case():
    deltas = [np.array([2.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 4.0, 0.0])]
    report = ota_aggregate(deltas, _ideal_phy(), master_seed=0)
    np.testing.assert_allclose(report.recovered, [1.0, 0.0, 2.0, 0.0], atol=1e-9)


# ------------------------------------------------------- degraded regimes


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
    np.testing.assert_array_equal(report.max_re_power, np.full(3, ota._REFERENCE_AMPLITUDE**2))
    np.testing.assert_array_equal(report.recovered, np.zeros(100))
    assert report.agg_nmse_db == 0.0  # zero estimate of a nonzero truth


@pytest.mark.parametrize("event, reason", [(0, "sounding detection failed"),
                                           (1, "payload detection failed"),
                                           (None, "")])
def test_a_nan_detection_metric_aborts_the_round(monkeypatch, event, reason):
    """A search window holding an inf sample gives a NaN metric, which
    compares false with the threshold both ways.  It fails detection, so the
    round aborts instead of reading that client at a wrong offset; finite
    metrics keep their bits."""
    phy = _ideal_phy(channel=ChannelModel("flat_block"), uplink_snr_db=20.0)
    deltas = _random_deltas(3, 100, seed=10)
    want = ota_aggregate(deltas, phy, master_seed=4)
    detect, calls = ota.detect_frame, []

    def nan_metric(*args):
        offsets, metrics = detect(*args)
        if len(calls) == event:
            metrics[1] = np.nan
        calls.append(metrics)
        return offsets, metrics

    monkeypatch.setattr(ota, "detect_frame", nan_metric)
    report = ota_aggregate(deltas, phy, master_seed=4)
    assert report.abort_reason == reason
    if event is None:
        assert len(calls) == 2  # the comb's one sounding event, then the payload
        assert ([np.asarray(v).tobytes() for v in astuple(report)]
                == [np.asarray(v).tobytes() for v in astuple(want)])
    else:
        assert report.aborted and np.isnan(report.peak_metrics[1])
        np.testing.assert_array_equal(report.recovered, np.zeros(100))


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
    masks = np.ones((3, phy.grid.subcarriers), dtype=bool)
    event = ota._sounding_frame(range(3), phy, np.array(delays),
                                *ota._sounding_signals(phy.grid, gains, masks))
    offsets, metrics = ota._receive([event], np.random.default_rng(5), phy.grid.symbols_per_slot)
    np.testing.assert_array_equal(offsets, delays)
    assert np.all(metrics >= DETECT_THRESHOLD)


@pytest.mark.parametrize("allocation", ["fdm_comb", "tdm_full"])
@pytest.mark.parametrize("spread", [64, 256])
def test_windowed_offsets_match_a_full_frame_scan(monkeypatch, allocation, spread):
    """At the sync-stress shape, with offsets well past the cyclic prefix,
    every detected client's windowed offset equals the full-frame argmax
    minus the start of its slot in the event."""
    calls = []
    original = ota._detect

    def recording(events):
        offsets, metrics = original(events)
        first = events[0].ues.start
        for event in events:
            run = slice(event.ues.start - first, event.ues.stop - first)
            rx = TimeSignal(event.rx, event.phy.grid.sample_rate)
            calls.append((rx, list(event.ues), offsets[run], metrics[run]))
        return offsets, metrics

    monkeypatch.setattr(ota, "_detect", recording)
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
        for slot, (ue, off, metric) in enumerate(zip(ues, offsets, metrics)):
            if metric < DETECT_THRESHOLD:
                continue
            preamble = grid.gold_sequence(ue)
            (full,), _ = grid.detect_frame(rx, preamble[np.newaxis])
            assert off == full - slot * phy.preamble_slot_len
            checked += 1
    assert checked >= 20


def test_detection_scans_only_the_search_windows(monkeypatch):
    """No preamble search may grow back to the whole received frame."""
    sizes = []
    original = ota.detect_frame

    def counting(signal, preambles, stride):
        windows = len(preambles)
        sizes.extend([signal.samples.size - (windows - 1) * stride] * windows)
        return original(signal, preambles, stride)

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


# Two payload slots of ORACLE_GRID, five reals short of full, so the odd
# last parameter and the zero padding are exercised too.
ORACLE_PARAMS = 4 * ORACLE_GRID.res_per_slot - 5


def _oracle_inputs(num_ues, allocation, seed=11):
    """Random gains, each client's row turned by a random phase, pilot
    masks, updates and a floored estimate (a divisor per subcarrier), one
    entry per client, and one shared (I, Q) scale pair."""
    sub = ORACLE_GRID.subcarriers
    rng = np.random.default_rng(seed)

    def cn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    gains = cn(num_ues, sub)
    gains *= np.exp(1j * rng.uniform(-np.pi, np.pi, size=num_ues))[:, np.newaxis]
    masks = ota._pilot_masks(num_ues, ORACLE_GRID, allocation)
    deltas = list(rng.normal(size=(num_ues, ORACLE_PARAMS)))
    scales = tuple(rng.uniform(0.5, 2.0, size=2).tolist())
    return gains, masks, deltas, scales, cn(num_ues, sub)


def _packed(delta, scales):
    """The codec's block of one client, from the scale -> pair oracle."""
    return map_to_grids(pack_complex(scale_updates(delta, scales)[0]),
                        ota.slot_plan(delta.size, ORACLE_GRID), ORACLE_GRID)


def test_single_client_frame_oracle():
    """A client's event built alone at delay 0 holds one preamble slot with
    its Gold chips and nothing else, then its body: a sounding event's slot
    of pilot symbols demodulates to amp * pilot * mask * gains, and a
    payload event's symbols to alpha * packed * gains / divisor.  The
    receiver's demodulator is the oracle.  A payload event's alpha is its
    one client's: MARGIN over its largest packed peak against |divisor|."""
    cfg = ORACLE_GRID
    phy = PhyConfig(grid=cfg)
    num_ues, sub, slot = 3, cfg.subcarriers, phy.preamble_slot_len
    gains, masks, deltas, scales, divisor = _oracle_inputs(num_ues, "fdm_comb")
    amp = ota._REFERENCE_AMPLITUDE
    delays = np.zeros(num_ues, dtype=np.int64)
    signals = ota._sounding_signals(phy.grid, gains, masks)
    for ue in range(num_ues):
        one = range(ue, ue + 1)
        pilots = amp * grid.make_pilot_values(sub) * masks[ue] * gains[ue]
        packed = _packed(deltas[ue], scales)
        built, alpha, largest, _ = ota._payload_frame(one, phy, gains, delays, deltas,
                                                      rail_divisors(scales, deltas[0].size),
                                                      divisor, signals[0], None)
        payload = built.rx
        peak = np.max(np.abs(packed) / np.abs(divisor[ue]))
        assert largest.tolist() == [pytest.approx(peak, rel=1e-15)]
        assert alpha == pytest.approx(MARGIN / peak, rel=1e-15)
        events = [
            (ota._sounding_frame(one, phy, delays, *signals).rx,
             np.tile(pilots, (cfg.symbols_per_slot, 1))),
            (payload, alpha * packed * gains[ue] / divisor[ue]),
        ]
        rms = np.sqrt(np.mean(np.abs(gains[ue]) ** 2))
        chips = amp * rms * grid.gold_sequence(ue)
        for frame, want in events:
            assert frame.shape == (slot + len(want) * cfg.symbol_len,)
            np.testing.assert_allclose(frame[:PREAMBLE_LEN], chips, rtol=0, atol=1e-12)
            assert not frame[PREAMBLE_LEN:slot].any()
            got = ofdm_demodulate(TimeSignal(frame, cfg.sample_rate),
                                  replace(cfg, symbols_per_slot=len(want)), slot)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
            symbols = frame[slot:].reshape(-1, cfg.symbol_len)
            np.testing.assert_array_equal(symbols[:, :cfg.cp_len], symbols[:, -cfg.cp_len:])


@pytest.mark.parametrize("width", [256, 72])
@pytest.mark.parametrize("num_ues", [1, 5, 12, "width"])
def test_comb_masks_split_the_subcarriers(width, num_ues):
    """Each subcarrier carries exactly one client's comb pilot, client
    ``ue`` taking every ``num_ues``-th from ``ue``; ``tdm_full`` gives every
    client the whole band."""
    num_ues = width if num_ues == "width" else num_ues
    cfg = GridConfig(subcarriers=width)
    masks = ota._pilot_masks(num_ues, cfg, "fdm_comb")
    assert masks.dtype == bool and masks.shape == (num_ues, width)
    np.testing.assert_array_equal(masks.sum(axis=0), np.ones(width))
    for ue in range(num_ues):
        assert np.flatnonzero(masks[ue]).tolist() == list(range(ue, width, num_ues))
    assert ota._pilot_masks(num_ues, cfg, "tdm_full").all()


def test_sounding_frame_carries_only_preamble_and_pilots():
    """A full-band sounding event holds only its client's preamble slot and
    one slot of its repeated pilot symbol, shifted by its delay, so its
    length follows its own delay and not the client count."""
    cfg = SMALL_GRID
    phy = PhyConfig(grid=cfg)
    gains = np.full((4, cfg.subcarriers), 0.5 + 0.5j)
    masks = np.ones((4, cfg.subcarriers), dtype=bool)
    delays = np.array([0, 0, 7, 0])
    rx = ota._sounding_frame(range(2, 3), phy, delays,
                             *ota._sounding_signals(phy.grid, gains, masks)).rx
    slot, n = phy.preamble_slot_len, cfg.symbols_per_slot
    assert rx.shape == (7 + slot + n * cfg.symbol_len,)
    assert np.flatnonzero(rx[:7 + slot]).tolist() == list(range(7, 7 + PREAMBLE_LEN))
    symbols = rx[7 + slot:].reshape(n, cfg.symbol_len)
    np.testing.assert_array_equal(symbols[1:], np.broadcast_to(symbols[0], (n - 1, cfg.symbol_len)))


@pytest.mark.parametrize("allocation", ["fdm_comb", "tdm_full"])
@pytest.mark.parametrize("event", ["sounding", "payload"])
@pytest.mark.parametrize("spread", [0, 4, 64, 256, "shared"])
def test_superposed_frame_matches_superpose_of_single_frames(allocation, event, spread):
    """The receive buffer equals ``channel.superpose`` over each client's
    event built alone at delay 0, with its preamble slot moved to the
    client's slot of the whole event and its body to the end of the
    region.  Offsets up to 256 samples run late preambles and bodies into
    the next clients' samples.

    A sounding event matches bit for bit, which pins the ascending order in
    which every sample sums its clients.  A payload event sums the clients
    that share a delay in the frequency domain, runs one IFFT per delay and
    scales the sum by the event's alpha, so it matches to 1e-12 of the
    buffer's peak once each client's body, built alone with its own alpha,
    is rescaled to the whole event's; ``shared`` puts the five clients on
    three delays."""
    cfg = ORACLE_GRID
    phy = PhyConfig(grid=cfg, pilot_allocation=allocation)
    num_ues = 5
    if spread == "shared":
        offsets = np.array([3, 0, 3, 1, 0])
        gains, masks, deltas, scales, divisor = _oracle_inputs(num_ues, allocation, seed=5)
    else:
        offsets = draw_offsets(SyncConfig(mode="ptp_off", off_spread=spread),
                               np.random.default_rng(spread).random(num_ues), cfg.sample_rate)
        gains, masks, deltas, scales, divisor = _oracle_inputs(num_ues, allocation,
                                                               seed=spread)
    if spread in (64, 256):  # some preamble runs past its guard gap into the next slot
        assert offsets.max() > phy.preamble_slot_len - PREAMBLE_LEN

    def build(ues, delays):
        """The event's buffer and the alpha that scaled its body."""
        if event == "sounding":
            signals = ota._sounding_signals(phy.grid, gains, masks)
            return ota._sounding_frame(ues, phy, delays, *signals).rx, 1.0
        built, alpha, _, _ = ota._payload_frame(ues, phy, gains, delays, deltas,
                                                rail_divisors(scales, deltas[0].size),
                                                divisor, ota._preamble_chips(gains), None)
        return built.rx, alpha

    rx, alpha = build(range(num_ues), offsets)
    slot, region = phy.preamble_slot_len, phy.preamble_region_len(num_ues)
    pieces = []
    for ue in range(num_ues):
        frame, own = build(range(ue, ue + 1), np.zeros(num_ues, dtype=np.int64))
        delay = int(offsets[ue])
        pieces += [(TimeSignal(frame[:slot], cfg.sample_rate), delay + ue * slot),
                   (TimeSignal(frame[slot:] * (alpha / own), cfg.sample_rate), delay + region)]
    want = superpose(pieces, 0.0, 0).samples
    assert rx.shape == want.shape
    if event == "sounding":
        np.testing.assert_array_equal(rx.view(np.float64), want.view(np.float64))
    else:
        assert np.max(np.abs(rx - want)) <= 1e-12 * np.max(np.abs(want))


def _block_path_frame(phy, gains, offsets, deltas, scales, divisor):
    """The payload event as a whole-block transmitter builds it: all rows
    packed into one ``(clients, symbols, subcarriers)`` block, alpha from
    its per-subcarrier peaks against |divisor|, the block multiplied by
    gain * (1 / divisor), the rows sharing a delay summed in ascending
    client order and one IFFT per delay, the delays in ascending order; the
    sum scaled by alpha and then every client's chips added in ascending
    order.  Returns the buffer, alpha and the precoded peaks."""
    cfg, num_ues = phy.grid, len(deltas)
    region = phy.preamble_region_len(num_ues)
    rows = ota.slot_plan(deltas[0].size, cfg) * cfg.symbols_per_slot
    rx = np.zeros(int(offsets.max()) + region + rows * cfg.symbol_len, dtype=complex)
    block = np.empty((num_ues, rows, cfg.subcarriers), dtype=complex)
    divisors = rail_divisors(scales, deltas[0].size)
    for ue in range(num_ues):
        pack_payload(deltas[ue], divisors, block[ue])
    alpha, largest = compute_alpha(np.max(np.abs(block), axis=1), divisor)
    block *= (gains * (1.0 / divisor))[:, np.newaxis, :]
    symbols = np.empty((rows, cfg.symbol_len), dtype=complex)
    for delay in np.unique(offsets).tolist():
        first, *rest = np.flatnonzero(offsets == delay)
        for ue in rest:
            block[first] += block[ue]
        grid.ofdm_modulate_into(block[first], cfg, symbols)
        rx[delay + region:][:symbols.size] += symbols.reshape(-1)
    rx *= alpha
    rms = np.sqrt(np.mean(np.abs(gains) ** 2, axis=1))
    chips = (ota._REFERENCE_AMPLITUDE * rms)[:, np.newaxis] * ota._preamble_bank()[:num_ues]
    for ue, delay in enumerate(offsets.tolist()):
        rx[delay + ue * phy.preamble_slot_len:][:PREAMBLE_LEN] += chips[ue]
    return rx, alpha, largest


@pytest.mark.parametrize("num_ues", [1, 5, 60])
@pytest.mark.parametrize("spread", [0, 4, 64, "shared"])
def test_streamed_payload_frame_matches_the_block_path(num_ues, spread):
    """Packing each client once, one at a time, into two reused blocks
    gives the whole block path's payload event bit for bit: the same peaks
    and alpha, the same products, the same ascending sum within each delay
    and the same ascending delays, and one alpha for the summed payload.
    Every client has its own update, so a client packed in another's
    place shows, and ``shared`` interleaves three delays across the
    clients.  At spread 64 late chips run into the payload, so scaling the
    buffer after the chips are in shows too."""
    phy = PhyConfig(grid=ORACLE_GRID)
    gains, _, deltas, scales, divisor = _oracle_inputs(num_ues, "fdm_comb", seed=num_ues)
    if spread == "shared":
        offsets = np.array([(2 * ue) % 3 * 5 for ue in range(num_ues)])
    else:
        offsets = draw_offsets(SyncConfig(mode="ptp_off", off_spread=spread),
                               np.random.default_rng(num_ues).random(num_ues),
                               ORACLE_GRID.sample_rate)
    event, alpha, largest, _ = ota._payload_frame(range(num_ues), phy, gains, offsets, deltas,
                                                  rail_divisors(scales, deltas[0].size),
                                                  divisor, ota._preamble_chips(gains), None)
    got = event.rx
    want, want_alpha, want_largest = _block_path_frame(phy, gains, offsets,
                                                       deltas, scales, divisor)
    assert got.view(np.float64).tobytes() == want.view(np.float64).tobytes()
    assert alpha == want_alpha
    assert largest.tobytes() == want_largest.tobytes()


def _payload_case(num_ues, params, layout, zero, seed=0):
    """Inputs of one payload event on the default grid: updates (the last
    all zero when ``zero``), gains, a floored estimate, the shared scales
    and offsets that are all ``equal``, all ``distinct`` (``ptp_off`` at
    spread 256) or ``mixed`` (``ptp_on``, whose five offsets some clients
    share)."""
    rng = np.random.default_rng(seed)
    sub = GridConfig().subcarriers

    def cn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    deltas = list(rng.normal(size=(num_ues, params)))
    if zero:
        deltas[-1] = np.zeros(params)
    sync = {"equal": SyncConfig(mode="ptp_on"), "mixed": SyncConfig(mode="ptp_on"),
            "distinct": SyncConfig(mode="ptp_off", off_spread=256)}[layout]
    phy = PhyConfig(sync=sync)
    if layout == "equal":
        offsets = np.full(num_ues, 3)
    elif layout == "distinct":
        offsets = rng.choice(257, size=num_ues, replace=False)
    else:
        offsets = draw_offsets(sync, rng.random(num_ues), phy.grid.sample_rate)
        assert num_ues < 5 or 1 < len(np.unique(offsets)) < num_ues
    scales = peak_scales(rail_peaks(deltas))
    return phy, cn(num_ues, sub), offsets, deltas, scales, cn(num_ues, sub)


PAYLOAD_CASES = [(m, p, layout, zero) for m in (1, 5, 20) for p in (1, 64, 513, 7_169)
                 for layout in ("equal", "distinct", "mixed") for zero in (False, True)
                 if m > 1 or not zero]


@pytest.mark.parametrize("num_ues,params,layout,zero", PAYLOAD_CASES)
def test_grouped_payload_frame_matches_one_modulation_per_delay(num_ues, params, layout, zero):
    """Modulating every delay's summed blocks in one call gives the bits of
    one call per delay (``oracles.payload_frame_per_delay``): the receive
    buffer, alpha, the precoded peaks and the per-subcarrier peaks, whether
    the call reads the peaks or is given them.  One, 64, 513 and 7 169
    parameters fill part of one symbol, one symbol and a real, and one
    slot and a real; an all-zero update sends signed zeros."""
    phy, gains, offsets, deltas, scales, divisor = _payload_case(num_ues, params, layout, zero,
                                                                 seed=num_ues * params)
    chips = ota._preamble_chips(gains)
    want, want_alpha, want_largest, want_peaks = payload_frame_per_delay(
        range(num_ues), phy, gains, offsets, deltas, scales, divisor, chips, None)
    per_real = rail_divisors(scales, params)
    for given in (None, want_peaks):
        got, alpha, largest, peaks = ota._payload_frame(range(num_ues), phy, gains, offsets,
                                                        deltas, per_real, divisor, chips, given)
        assert got.rx.view(np.float64).tobytes() == want.rx.view(np.float64).tobytes()
        assert alpha == want_alpha
        assert largest.tobytes() == want_largest.tobytes()
        assert peaks.tobytes() == want_peaks.tobytes() and not peaks.flags.writeable


def test_five_distinct_delays_take_one_payload_modulation(monkeypatch):
    """At 64 parameters and five clients on five distinct delays, the
    payload is one ``ofdm_modulate_into`` call of five rows, one symbol per
    delay, after the sounding call of the five pilot rows."""
    rows, drawn = [], []
    modulate, draw = ota.ofdm_modulate_into, ota.draw_offsets

    def counting(symbols, cfg, out):
        rows.append(len(symbols))
        modulate(symbols, cfg, out)

    def recording(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(ota, "ofdm_modulate_into", counting)
    monkeypatch.setattr(ota, "draw_offsets", recording)
    phy = PhyConfig(channel=ChannelModel("flat_block"),
                    sync=SyncConfig(mode="ptp_off", off_spread=256), uplink_snr_db=30.0)
    report = ota_aggregate(_random_deltas(5, 64, seed=2), phy, master_seed=2)
    assert not report.aborted
    (offsets,) = drawn
    assert len(np.unique(offsets)) == 5
    assert rows == [5, 5]


def test_payload_frame_arrays_stay_within_the_stated_bound(monkeypatch):
    """At 60 clients of 71 666 parameters (140 payload symbols) on the five
    PTP delays, no array the payload frame holds while it packs or
    modulates, besides the event's buffer, exceeds the bound its docstring
    states: one client's block of symbols or ``_MODULATE_ROWS`` symbols,
    whichever is larger.  Taking every delay in one call would hold five."""
    num_ues, params = 60, 71_666
    phy, gains, offsets, deltas, scales, divisor = _payload_case(num_ues, params, "mixed",
                                                                 False)
    assert len(np.unique(offsets)) == 5
    cfg = phy.grid
    used = ota.payload_symbols(params, cfg)
    bound = max(used, ota._MODULATE_ROWS) * cfg.symbol_len * np.dtype(np.complex128).itemsize
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    snapshots = []
    modulate, pack = ota.ofdm_modulate_into, ota.pack_payload

    def modulating(*args):
        snapshots.append(tracemalloc.take_snapshot().filter_traces(numpy_only))
        modulate(*args)

    def packing(*args):
        snapshots.append(tracemalloc.take_snapshot().filter_traces(numpy_only))
        return pack(*args)

    monkeypatch.setattr(ota, "ofdm_modulate_into", modulating)
    monkeypatch.setattr(ota, "pack_payload", packing)
    chips = ota._preamble_chips(gains)
    per_real = rail_divisors(scales, params)
    tracemalloc.start()
    try:
        event, _, _, _ = ota._payload_frame(range(num_ues), phy, gains, offsets, deltas,
                                            per_real, divisor, chips, None)
    finally:
        tracemalloc.stop()
    assert len(snapshots) == num_ues + 5
    held = [t.size for snap in snapshots for t in snap.traces if t.size != event.rx.nbytes]
    assert held and max(held) <= bound


@pytest.mark.parametrize("snr_db", [20.0, -5.0])
def test_receive_adds_noise_in_place(snr_db):
    """The in-place noise equals ``rx + sqrt(v/2) * (a + 1j*b)`` bit for bit
    on the buffer's first ``n = offset_bound + region + symbols *
    symbol_len`` samples, with ``a`` and ``b`` the even and odd draws of the
    round generator's next 2 * n normals and ``v`` the noise variance
    referenced to all the samples after the preamble region; the samples
    after them are left as they were.  A 100-parameter payload fills 3 of
    its slot's 4 symbols; reading the whole slot, or more, noises the whole
    buffer."""
    cfg = ORACLE_GRID
    phy = PhyConfig(grid=cfg, uplink_snr_db=snr_db)
    gains, _, deltas, scales, divisor = _oracle_inputs(3, "fdm_comb")
    deltas = [d[:100] for d in deltas]
    bound = offset_bound(phy.sync, cfg.sample_rate)
    offsets = np.array([0, bound, 1])
    region = phy.preamble_region_len(3)
    for symbols in (3, 4, 5):
        event, _, _, _ = ota._payload_frame(range(3), phy, gains, offsets, deltas,
                                            rail_divisors(scales, deltas[0].size), divisor,
                                            ota._preamble_chips(gains), None)
        rx = event.rx
        assert rx.size == bound + region + cfg.symbols_per_slot * cfg.symbol_len
        n = min(rx.size, bound + region + symbols * cfg.symbol_len)
        clean = rx.copy()
        event.add_noise(np.random.default_rng(derive_seed(5, 1)), symbols)
        assert event.rx is rx  # no second buffer
        variance = np.mean(np.abs(clean[region:]) ** 2) / 10.0 ** (snr_db / 10.0)
        draws = np.random.default_rng(derive_seed(5, 1)).standard_normal(2 * n)
        want = clean.copy()
        want[:n] += np.sqrt(variance / 2.0) * (draws[0::2] + 1j * draws[1::2])
        np.testing.assert_array_equal(event.rx.view(np.float64), want.view(np.float64))
        assert np.all(event.rx[:n] != clean[:n])


@pytest.mark.parametrize("layout", ["mixed", "distinct"])
@pytest.mark.parametrize("params", [1, 64, 513])
def test_noise_power_reads_only_the_samples_a_body_can_reach(layout, params):
    """Taking |x| only over the first ``max(delays) + symbols * symbol_len``
    samples after the preamble region, and counting the rest as zeros,
    noises each event as the rule that reads every sample after the region
    (``oracles.receive_one_event``) does, bit for bit, and detects the same
    offsets and metrics.  Checked on the payload event, whose one, 64 or
    513 parameters leave most of its slot zero, and on comb and full-band
    sounding events, at PTP offsets inside the cyclic prefix and at
    distinct ones up to 256 samples past it."""
    num_ues = 5
    phy, gains, offsets, deltas, scales, divisor = _payload_case(num_ues, params, layout, False,
                                                                 seed=params)
    cfg = phy.grid
    assert (offsets.max() <= cfg.cp_len) == (layout == "mixed")
    per_real = rail_divisors(scales, params)
    chips = ota._preamble_chips(gains)
    signals = ota._sounding_signals(cfg, gains, np.ones(gains.shape, dtype=bool))

    def events():
        yield ota._payload_frame(range(num_ues), phy, gains, offsets, deltas, per_real, divisor,
                                 chips, None)[0], ota.payload_symbols(params, cfg)
        for ues in (range(num_ues), range(num_ues - 1, num_ues)):
            yield ota._sounding_frame(ues, phy, offsets, *signals), cfg.symbols_per_slot

    for (want, symbols), (got, _) in zip(events(), events()):
        assert got.rx.tobytes() == want.rx.tobytes()
        want_out = receive_one_event(want, np.random.default_rng(params), symbols)
        got_out = ota._receive([got], np.random.default_rng(params), symbols)
        assert got.rx.tobytes() == want.rx.tobytes()
        assert [a.tobytes() for a in got_out] == [a.tobytes() for a in want_out]


RECEIVE_SYNCS = {
    "ptp_on": SyncConfig(mode="ptp_on"),
    "ptp_off_256": SyncConfig(mode="ptp_off", off_spread=256),
    "ptp_off_slot": SyncConfig(mode="ptp_off", off_spread=GridConfig().slot_len),
}
RECEIVE_CASES = [("tdm_full", m, sync, snr_db) for m in (1, 5, 60) for sync in RECEIVE_SYNCS
                 for snr_db in (20.0, None)] + [("fdm_comb", 5, "ptp_off_256", 20.0)]


@pytest.mark.parametrize("allocation,num_ues,sync,snr_db", RECEIVE_CASES)
def test_stage_detection_matches_one_pass_per_event(monkeypatch, allocation, num_ues, sync,
                                                    snr_db):
    """Noising each event of a receive stage and then searching every
    client of the stage in one pass gives the bits of noising and searching
    one event at a time (``oracles.receive_each_event``): each stage's
    offsets and metrics, and every field of the report.  The full-band
    sounding stage is the one with more than one event."""
    phy = PhyConfig(channel=ChannelModel("rayleigh_per_subcarrier"), pilot_allocation=allocation,
                    sync=RECEIVE_SYNCS[sync], uplink_snr_db=snr_db)
    deltas = _random_deltas(num_ues, 100, seed=num_ues)
    runs, receive = [], ota._receive
    for oracle in (True, False):
        stages = []

        def recording(events, noise, symbols, _oracle=oracle):
            if _oracle:
                offsets, metrics = receive_each_event(events, noise, symbols)
            else:
                offsets, metrics = receive(events, noise, symbols)
            stages.append((len(events), offsets.tobytes(), metrics.tobytes()))
            return offsets, metrics

        monkeypatch.setattr(ota, "_receive", recording)
        report = ota_aggregate(deltas, phy, master_seed=num_ues)
        runs.append((stages, [np.asarray(v).tobytes() for v in astuple(report)]))
    (want_stages, want), (got_stages, got) = runs
    assert got_stages[0][0] == (num_ues if allocation == "tdm_full" else 1)
    assert got_stages == want_stages
    assert got == want


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


@pytest.mark.parametrize("case", ["ptp_on", "ptp_off_256", "late_start"])
def test_every_read_lies_inside_the_noised_prefix(monkeypatch, case):
    """Every window the receiver reads -- each client's detection window and
    the demodulation window -- lies inside the samples its event noised,
    and the noised samples are one prefix of the buffer.  A 100-parameter
    payload fills one symbol of its slot, so the payload event's prefix
    ends well before its buffer does.  ``late_start`` reports every client
    at the last lag of its search window, past the latest true arrival, so
    the read rule moves each window back inside its buffer.  The full-band
    sounding stage is searched as a block of one row per event, each row a
    copy of its event's first samples, so its windows are located by
    content rather than by address."""
    events, stage = [], []  # stage: the events noised since the last search
    add_noise, detect, demodulate = ota._Event.add_noise, ota.detect_frame, ota.ofdm_demodulate

    def window(samples, lo, size):
        """Record ``samples[lo:lo + size]`` against the event buffer it views."""
        (event,) = [e for e in events if np.shares_memory(e["rx"], samples)]
        start = (_address(samples) - _address(event["rx"])) // samples.itemsize + lo
        event["windows"].append((start, start + size))
        return event

    def noising(event, noise, symbols):
        events.append({"rx": event.rx, "windows": [], "clients": len(event.ues)})
        clean = event.rx.copy()
        add_noise(event, noise, symbols)
        events[-1]["noised"] = np.flatnonzero(event.rx != clean)
        stage.append(events[-1])

    def detecting(signal, preambles, stride):
        (windows, chips), size = preambles.shape, signal.samples.size
        span = size - (windows - 1) * stride
        if len(stage) == 1:
            for i in range(windows):
                window(signal.samples, i * stride, span)
        else:
            assert span == stride and len(stage) == windows
            for row, event in zip(signal.samples.reshape(windows, span), stage):
                assert row.tobytes() == event["rx"][:span].tobytes()
                event["windows"].append((0, span))
        stage.clear()
        offsets, metrics = detect(signal, preambles, stride)
        if case == "late_start":
            offsets = np.full(windows, span - chips)
        return offsets, metrics

    def demodulating(signal, cfg, start, n):
        window(signal.samples, start, n * cfg.symbol_len)["read"] = start
        return demodulate(signal, cfg, start, n)

    monkeypatch.setattr(ota._Event, "add_noise", noising)
    monkeypatch.setattr(ota, "detect_frame", detecting)
    monkeypatch.setattr(ota, "ofdm_demodulate", demodulating)
    sync, channel, allocation = {
        "ptp_on": (SyncConfig(mode="ptp_on"), "flat_block", "fdm_comb"),
        "ptp_off_256": (SyncConfig(mode="ptp_off", off_spread=256),
                        "rayleigh_per_subcarrier", "tdm_full"),
        "late_start": (SyncConfig(mode="ptp_off", off_spread=64),
                       "rayleigh_per_subcarrier", "tdm_full"),
    }[case]
    phy = PhyConfig(channel=ChannelModel(channel), pilot_allocation=allocation, sync=sync,
                    uplink_snr_db=20.0)
    cfg = phy.grid
    bound = offset_bound(sync, cfg.sample_rate)
    for seed in range(3):
        events.clear()
        report = ota_aggregate(_random_deltas(5, 100, seed=seed), phy, master_seed=seed)
        assert not report.aborted
        *sounding, payload = events
        assert len(sounding) == {"fdm_comb": 1, "tdm_full": 5}[allocation]
        for event in events:
            noised, windows = event["noised"], event["windows"]
            np.testing.assert_array_equal(noised, np.arange(noised.size))
            assert len(windows) == event["clients"] + 1  # detection, then the read
            assert all(0 <= lo < hi <= noised.size for lo, hi in windows)
        region = phy.preamble_region_len(5)
        assert payload["noised"].size == bound + region + cfg.symbol_len
        assert payload["noised"].size < payload["rx"].size - 12 * cfg.symbol_len
        assert payload["windows"][-1][1] - payload["windows"][-1][0] == cfg.symbol_len
        if case == "late_start":
            last = payload["rx"].size - cfg.slot_len
            assert last < bound + region  # the clip rule moved the read back
            assert payload["read"] == last


@pytest.mark.parametrize("allocation", ["fdm_comb", "tdm_full"])
@pytest.mark.parametrize("num_ues", [1, 5])
def test_search_windows_end_inside_the_buffer_at_the_largest_offset_bound(
        monkeypatch, allocation, num_ues):
    """At the largest offset bound the configuration accepts, one slot, every
    event still receives, and its last search window -- the end of the
    prefix handed to the detector -- ends inside the event's buffer.  The
    full-band sounding stage hands the detector one row per event, each a
    copy of that event's prefix."""
    cfg = GridConfig()
    with pytest.raises(FieldError, match="^sync.off_spread "):
        PhyConfig(sync=SyncConfig(mode="ptp_off", off_spread=cfg.slot_len + 1))
    phy = PhyConfig(channel=ChannelModel("flat_block"), pilot_allocation=allocation,
                    sync=SyncConfig(mode="ptp_off", off_spread=cfg.slot_len), uplink_snr_db=20.0)
    buffers, ends, stage = [], [], []
    add_noise, detect = ota._Event.add_noise, ota.detect_frame

    def noising(event, noise, symbols):
        buffers.append(event.rx)
        stage.append(event.rx)
        add_noise(event, noise, symbols)

    def detecting(signal, preambles, stride):
        samples, windows = signal.samples, len(preambles)
        if len(stage) == 1:
            (rx,) = stage
            start = (_address(samples) - _address(rx)) // rx.itemsize
            full = (windows - 1) * stride + cfg.slot_len + PREAMBLE_LEN  # no window cut short
            ends.append((start, start + samples.size, full, rx.size))
        else:
            assert samples.size == windows * stride and len(stage) == windows
            for row, rx in zip(samples.reshape(windows, stride), stage):
                assert row.tobytes() == rx[:stride].tobytes()
                ends.append((0, stride, cfg.slot_len + PREAMBLE_LEN, rx.size))
        stage.clear()
        return detect(signal, preambles, stride)

    monkeypatch.setattr(ota._Event, "add_noise", noising)
    monkeypatch.setattr(ota, "detect_frame", detecting)
    for seed in range(3):
        ota_aggregate(_random_deltas(num_ues, 100, seed=seed), phy, master_seed=seed)
    assert len(ends) == len(buffers) >= 3 * {"fdm_comb": 1, "tdm_full": num_ues}[allocation]
    assert all(start == 0 and end == full <= size for start, end, full, size in ends)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_update_is_rejected_before_transmission(bad, monkeypatch):
    """A non-finite entry makes the client's precoded grid non-finite, which
    must raise before any frame is built: the client's own rail peaks
    already show it, so no sounding event is spent on the round."""
    payload_frames = []
    for name, payload in (("_sounding_frame", False), ("_payload_frame", True)):
        def recording(*args, _frame=getattr(ota, name), _payload=payload, **kwargs):
            payload_frames.append(_payload)
            return _frame(*args, **kwargs)

        monkeypatch.setattr(ota, name, recording)
    deltas = _random_deltas(3, 200, seed=12)
    deltas[1][17] = bad
    with pytest.raises(ValueError, match="resource grid entries must be finite"):
        ota_aggregate(deltas, _ideal_phy(), master_seed=0)
    assert payload_frames == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("broken_at", [0, 1])
def test_non_finite_update_is_rejected_in_either_client_order(broken_at, bad):
    """The client with the non-finite rail is named by its own peaks, so
    the round is refused whichever client comes first: the shared scales'
    maximum over clients cannot hide it."""
    good, broken = np.array([0.3, 0.3]), np.array([bad, 0.1])
    deltas = [broken, good] if broken_at == 0 else [good, broken]
    with pytest.raises(ValueError, match=f"client {broken_at}'s update is not finite"):
        ota_aggregate(deltas, _ideal_phy(), master_seed=0)


STAGES = ("ls_estimate", "interpolate", "inversion_floor", "inversion_divisor",
          "compute_alpha")


@pytest.mark.parametrize("allocation", ["fdm_comb", "tdm_full"])
def test_each_array_stage_runs_once_per_aggregation(monkeypatch, allocation):
    """Estimation and precoding take every client's row in one call, however
    many clients there are; full-band pilots need no interpolation."""
    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        def counting(*args, _stage=getattr(ota, name), _name=name, **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)
        monkeypatch.setattr(ota, name, counting)
    phy = PhyConfig(channel=ChannelModel("flat_block"), pilot_allocation=allocation,
                    uplink_snr_db=30.0)
    report = ota_aggregate(_random_deltas(12, 301, seed=3), phy, master_seed=3)
    assert not report.aborted
    assert calls == dict(dict.fromkeys(STAGES, 1), interpolate=int(allocation == "fdm_comb"))


@pytest.mark.parametrize("allocation", ["fdm_comb", "tdm_full"])
def test_detection_runs_once_per_receive_event(monkeypatch, allocation):
    """One detection pass searches every client window of a receive stage:
    two passes whatever the pilots, one for the sounding stage (the comb's
    one event, or full-band pilots' one event per client) and one for the
    payload."""
    windows = []
    detect = ota.detect_frame

    def counting(signal, preambles, stride):
        windows.append(len(preambles))
        return detect(signal, preambles, stride)

    monkeypatch.setattr(ota, "detect_frame", counting)
    phy = PhyConfig(channel=ChannelModel("flat_block"), pilot_allocation=allocation,
                    uplink_snr_db=30.0)
    report = ota_aggregate(_random_deltas(12, 301, seed=3), phy, master_seed=3)
    assert not report.aborted
    assert windows == [12, 12]


def test_full_band_estimate_is_the_ls_of_the_averaged_pilot_rows(monkeypatch):
    """With full-band pilots the estimate handed to the floor is, bit for
    bit, the least-squares division of each sounding event's slot-averaged
    pilot row by the known pilots."""
    reads, floored = [], []
    read, floor = ota._Event.read, ota.inversion_floor

    def reading(event, *args):
        block = read(event, *args)
        reads.append(block.copy())
        return block

    def flooring(estimate, floor_rel, **kwargs):
        floored.append(estimate.copy())
        return floor(estimate, floor_rel, **kwargs)

    monkeypatch.setattr(ota._Event, "read", reading)
    monkeypatch.setattr(ota, "inversion_floor", flooring)
    num_ues = 4
    phy = PhyConfig(grid=SMALL_GRID, channel=ChannelModel("rayleigh_per_subcarrier"),
                    pilot_allocation="tdm_full", uplink_snr_db=20.0)
    report = ota_aggregate(_random_deltas(num_ues, 301, seed=8), phy, master_seed=8)
    assert not report.aborted
    assert len(reads) == num_ues + 1 and len(floored) == 1  # sounding events, payload
    rows = np.stack([block.mean(axis=0) for block in reads[:num_ues]])
    pilots = ota._REFERENCE_AMPLITUDE * grid.make_pilot_values(SMALL_GRID.subcarriers)
    assert floored[0].tobytes() == ls_estimate(rows, pilots).tobytes()


@pytest.mark.parametrize("num_ues", [1, 2, 9, 60])
@pytest.mark.parametrize("params", [1, 2, 301, 71_666])
def test_one_read_pass_gives_the_average_and_rails_of_two(monkeypatch, params, num_ues):
    """Reading each update once gives the bits of the two passes it
    replaces: the exact average of ``fl.average_deltas`` over the list, and
    the rails ``rail_peaks`` reads, handed to ``peak_scales``.  Nine
    clients of one parameter is the case numpy's pairwise column sum would
    round differently."""
    handed = []

    def recording(rails):
        handed.append(rails.copy())
        return peak_scales(rails)

    monkeypatch.setattr(ota, "peak_scales", recording)
    deltas = _random_deltas(num_ues, params, seed=params + num_ues)
    phy = _ideal_phy(pilot_allocation="tdm_full", csi_mode="perfect")
    report = ota_aggregate(deltas, phy, master_seed=0)
    assert report.exact_avg.tobytes() == fl.average_deltas(list(deltas)).tobytes()
    (rails,) = handed
    assert rails.tobytes() == rail_peaks(deltas).tobytes()


@pytest.mark.parametrize("params", [1, 2, 301, 2 * 32 * 4])
def test_payload_rows_hold_the_packed_scaled_updates(monkeypatch, params):
    """Each row the precoding pass reads its peaks from and precodes holds
    the codec's packed update of its client, scaled by the shared (I, Q)
    peaks of every client (even -> I, odd -> Q)
    followed by zeros to the end of the last symbol that holds a parameter,
    and no further symbol; the rows come one per client, in order."""
    seen = []
    original = ota.pack_payload

    def recording(delta, scales, out):
        row = original(delta, scales, out)
        seen.append(row.copy())  # the frame reuses two blocks
        return row

    monkeypatch.setattr(ota, "pack_payload", recording)
    deltas = _random_deltas(3, params, seed=params)
    ota_aggregate(deltas, _ideal_phy(), master_seed=0)
    assert len(seen) == 3
    used = {1: 1, 2: 1, 301: 5, 2 * 32 * 4: 4}[params]
    assert used == ota.payload_symbols(params, SMALL_GRID)
    shared = peak_scales(rail_peaks(deltas))
    for d, row in zip(deltas, seen):
        assert row.shape == (used, SMALL_GRID.subcarriers)
        want = pack_complex(scale_updates(d, shared)[0])
        np.testing.assert_array_equal(row.reshape(-1)[:want.size], want)
        assert not row.reshape(-1)[want.size:].any()


def test_read_symbols_moves_a_late_start_back_inside_the_buffer():
    """The receive window starts right after the event's preamble region at
    the earliest offset; a start that would read past the buffer's end
    reads the buffer's last full window instead."""
    phy = _ideal_phy()
    cfg = phy.grid
    num_ues, n = 3, 2 * cfg.symbols_per_slot
    region = phy.preamble_region_len(num_ues)
    size = region + n * cfg.symbol_len + 10
    rng = np.random.default_rng(4)
    rx = TimeSignal(rng.normal(size=size) + 1j * rng.normal(size=size), cfg.sample_rate)
    last = size - n * cfg.symbol_len

    def read(offsets, clients=num_ues):
        """Read an event of ``clients`` clients and ``n`` body symbols whose
        buffer holds ``rx``: its clients arrive as late as that size allows."""
        latest = size - phy.preamble_region_len(clients) - n * cfg.symbol_len
        event = ota._Event(phy, range(clients), np.full(clients, latest), n)
        event.rx[:] = rx.samples
        return event.read(np.array(offsets), n).tobytes()

    def window(start):
        return ofdm_demodulate(rx, cfg, start, n).tobytes()

    assert read([9, 7, 8]) == window(7 + region)
    assert read([0]) == window(region)
    assert read([5], clients=1) == window(5 + phy.preamble_slot_len)
    assert read([10, 12]) == window(last)  # exactly the last window
    assert read([11, 12, 30]) == window(last)  # one sample late
    assert read([400, 500]) == window(last)


# ------------------------------------------------------ cost linear in M


def _recording_noise_seeds(monkeypatch):
    """Every SeedSequence ``ota_aggregate`` derives for the noise stream."""
    seeds = []
    original = ota.derive_seed

    def recording(*parts):
        seq = original(*parts)
        if parts[-1] == ota._TAG_NOISE:
            seeds.append(seq)
        return seq

    monkeypatch.setattr(ota, "derive_seed", recording)
    return seeds


def test_tdm_full_noise_draws_grow_linearly_in_the_client_count(monkeypatch):
    """Each full-band sounding event spans only its client's preamble slot
    and one pilot slot, and the payload event the M preamble slots and the
    payload slot.  At zero offsets the sounding events are noised whole, and
    the payload event up to the end of the one symbol that holds its 100
    parameters, so one aggregation draws 2 * (M * (2 * slot + S * L) + L)
    noise samples, all from the one generator of the round: its state after
    the aggregation is that of a fresh generator after exactly that many
    draws.  The count has a zero second difference over equally spaced M."""
    events, generators = [], []
    original = ota._Event.add_noise

    def recording(event, noise, symbols):
        events.append(event.rx.size)
        generators.append(noise)
        return original(event, noise, symbols)

    monkeypatch.setattr(ota._Event, "add_noise", recording)
    seeds = _recording_noise_seeds(monkeypatch)
    phy = PhyConfig(channel=ChannelModel("rayleigh_per_subcarrier"), pilot_allocation="tdm_full",
                    sync=SyncConfig(mode="ptp_off", off_spread=0), uplink_snr_db=20.0)
    cfg, slot = phy.grid, phy.preamble_slot_len
    sounding = slot + cfg.symbols_per_slot * cfg.symbol_len
    drawn = []
    for m in (20, 60, 100):
        events.clear(), generators.clear(), seeds.clear()
        report = ota_aggregate(_random_deltas(m, 100, seed=m), phy, master_seed=m)
        assert not report.aborted
        payload = m * slot + ota.slot_plan(100, cfg) * cfg.symbols_per_slot * cfg.symbol_len
        assert events == [sounding] * m + [payload]
        (seed,) = seeds
        assert all(g is generators[0] for g in generators)
        noised = m * sounding + m * slot + cfg.symbol_len
        fresh = np.random.default_rng(seed)
        fresh.standard_normal(2 * noised)
        assert generators[0].bit_generator.state == fresh.bit_generator.state
        drawn.append(2 * noised)
    assert drawn[2] - 2 * drawn[1] + drawn[0] == 0


@pytest.mark.parametrize("allocation,csi_mode", [
    ("fdm_comb", "estimated"), ("tdm_full", "estimated"), ("tdm_full", "perfect"),
])
def test_payload_is_modulated_once_per_distinct_delay(monkeypatch, allocation, csi_mode):
    """Payload blocks of clients that share a delay are summed before the
    IFFT, so the payload takes one ``ofdm_modulate_into`` call per distinct
    delay; sounding takes one call of every client's pilot row per
    aggregation, comb or full band, however many events carry them.  Each
    client is packed once, and one noise seed is derived per aggregation."""
    rows, drawn, packed = [], [], []
    modulate, draw, pack = ota.ofdm_modulate_into, ota.draw_offsets, ota.pack_payload

    def counting(symbols, cfg, out):
        rows.append(len(symbols))
        modulate(symbols, cfg, out)

    def recording(*args, **kwargs):
        drawn.append(draw(*args, **kwargs))
        return drawn[-1]

    def packing(delta, scales, out):
        packed.append(delta)
        return pack(delta, scales, out)

    monkeypatch.setattr(ota, "ofdm_modulate_into", counting)
    monkeypatch.setattr(ota, "draw_offsets", recording)
    monkeypatch.setattr(ota, "pack_payload", packing)
    seeds = _recording_noise_seeds(monkeypatch)
    phy = PhyConfig(channel=ChannelModel("flat_block"), pilot_allocation=allocation,
                    csi_mode=csi_mode, sync=SyncConfig(mode="ptp_on"), uplink_snr_db=30.0)
    m = 20
    deltas = _random_deltas(m, 20_000, seed=1)
    report = ota_aggregate(deltas, phy, master_seed=1)
    assert not report.aborted
    assert sorted(map(id, packed)) == sorted(map(id, deltas))  # each client once
    (offsets,) = drawn
    delays = len(np.unique(offsets))
    assert 1 < delays < m
    sounding = {("fdm_comb", "estimated"): [m], ("tdm_full", "estimated"): [m],
                ("tdm_full", "perfect"): []}[allocation, csi_mode]
    symbols = 40  # the symbols 20 000 reals fill, of the 3 payload slots' 42
    assert rows == sounding + [symbols] * delays
    assert len(seeds) == 1


# Peak traced allocation of one aggregation at P = 71 666, `tdm_full`, as a
# multiple of the deltas' own bytes.  Packing one client at a time into
# reused blocks, with no `(clients, symbols, subcarriers)` payload block,
# measures 0.47 at M = 20 and 0.16 at M = 60.  One payload block for all
# clients measured 1.35 and 1.11; a `(clients x frame_len)` transmit
# matrix walked again by `superpose`, plus a stacked copy of the deltas
# for their mean, measured 3.19 at M = 20.
AGGREGATE_MEMORY_MULTIPLE = 0.75


@pytest.mark.parametrize("num_ues", [20, 60])
def test_aggregate_memory_stays_near_the_updates_size(num_ues):
    deltas = _random_deltas(num_ues, 71_666, seed=13)
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


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 30.0])
@pytest.mark.parametrize("num_ues", [2, 20, 60])
def test_perfect_csi_on_flat_fading_meets_the_snr_oracle(num_ues, snr_db):
    """Analytic oracle of the noise rule: with perfect CSI on ``flat_block``
    fading the inversion is exact and never clipped, so the received payload
    is alpha times the sum of the scaled updates and the receiver noise is
    pinned to its power.  The aggregation NMSE is then -SNR for every client
    count.  One full slot of parameters keeps zero padding out of the power
    reference.

    At 0 dB with many clients each payload preamble sits below the noise of
    the M-client payload and may miss the detection threshold.  Such a
    round aborts and reads 0 dB, which would meet the oracle vacuously, so
    it is counted apart and may only happen at 0 dB."""
    params = 2 * GridConfig().res_per_slot
    phy = PhyConfig(channel=ChannelModel("flat_block"), csi_mode="perfect",
                    sync=SyncConfig(mode="ptp_on"), uplink_snr_db=snr_db)
    delivered = []
    for seed in range(3):
        deltas = _random_deltas(num_ues, params, seed=seed)
        report = ota_aggregate(deltas, phy, master_seed=seed)
        if report.aborted:
            assert report.abort_reason == "payload detection failed"
            assert snr_db == 0.0 and num_ues > 2
            continue
        delivered.append(report.agg_nmse_db)
    assert np.all(np.abs(np.array(delivered) + snr_db) <= 0.6), delivered
    assert delivered or snr_db == 0.0


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


def test_cold_caches_do_not_change_bits():
    """The preamble bank and the pilots are cached read-only; rebuilding
    them from empty caches gives the same aggregate bit for bit."""
    phy = PhyConfig(
        grid=SMALL_GRID,
        channel=ChannelModel("rayleigh_per_subcarrier"),
        pilot_allocation="tdm_full",
        uplink_snr_db=15.0,
    )
    deltas = _random_deltas(5, 300, seed=2)
    warm = ota_aggregate(deltas, phy, master_seed=1)
    for cached in (grid._msequence, ota._preamble_bank, ota._pilot_values):
        cached.cache_clear()
    cold = ota_aggregate(deltas, phy, master_seed=1)
    assert ota._pilot_values.cache_info().currsize == 1
    np.testing.assert_array_equal(warm.recovered, cold.recovered)


def _report_bytes(report) -> tuple:
    return (report.recovered.tobytes(), report.exact_avg.tobytes(), repr(report.alpha),
            report.aborted, report.abort_reason, repr(report.agg_nmse_db),
            report.offsets.tobytes(), report.peak_metrics.tobytes(),
            report.max_re_power.tobytes())


SYNC_STRESS = Path(__file__).resolve().parent.parent / "scenarios" / "sync_stress.cfg"
BASELINE = SYNC_STRESS.with_name("baseline.cfg")
SWEEP_SPREADS = [256, 64, 16, 4, 0]


def _recorded_sweep(monkeypatch, n_seeds: int) -> list[tuple]:
    """``sync_stress.cfg``'s five-spread sweep over ``n_seeds`` seeds, as the
    (arguments, round share, report) of each aggregation it makes."""
    calls = []
    original = scenario.ota_aggregate

    def recording(*args, share):
        calls.append((args, share, original(*args, share=share)))
        return calls[-1][2]

    monkeypatch.setattr(scenario, "ota_aggregate", recording)
    parts = scenario.build(scenario.parse_file(SYNC_STRESS))
    scenario.sync_sweep(parts, spreads=SWEEP_SPREADS, n_seeds=n_seeds)
    return calls


def test_a_sync_sweeps_spreads_share_one_channel_side(monkeypatch):
    """The spreads of a sync sweep differ only in their offset bound, so
    each seed builds one round share: one channel side (one
    ``realize_channel`` call per client) and one noise generator, read by
    all five spreads.  Each report equals, byte for byte, the one an
    aggregation without a share gives, and holds the share's one read-only
    exact average; the kept channel side is read-only too."""
    built, generators = [], []
    realize, derive = ota.realize_channel, ota.derive_seed

    def counted_realize(*args):
        built.append(args)
        return realize(*args)

    def counted_derive(*parts):
        if parts[-1] == ota._TAG_NOISE:
            generators.append(parts)
        return derive(*parts)

    monkeypatch.setattr(ota, "realize_channel", counted_realize)
    monkeypatch.setattr(ota, "derive_seed", counted_derive)
    calls = _recorded_sweep(monkeypatch, n_seeds=2)
    shares = [share for _, share, _ in calls]
    assert shares == [shares[0]] * 5 + [shares[5]] * 5 and shares[0] is not shares[5]
    assert len(built) == 2 * len(calls[0][0][0])
    assert generators == [(0, 0, ota._TAG_NOISE), (1, 0, ota._TAG_NOISE)]

    share = shares[-1]
    side = (share.gains, share.chips, share.pilots)
    assert [array.flags.writeable for array in side] == [False] * 3
    with pytest.raises(ValueError, match="read-only"):
        side[0][0, 0] = 0.0

    for args, share, report in calls:
        assert report.exact_avg is share.exact_avg and not report.exact_avg.flags.writeable
        assert _report_bytes(ota_aggregate(*args)) == _report_bytes(report)


class _CountingNumpy:
    """Stands in for ``ota``'s numpy module and counts its ``max`` calls,
    the per-subcarrier peak reads of ``_payload_frame``."""

    def __init__(self):
        self.max_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def max(self, *args, **kwargs):
        self.max_calls += 1
        return np.max(*args, **kwargs)


def test_a_sync_sweep_draws_each_seeds_sync_uniforms_and_peaks_once(monkeypatch):
    """Three seeds of the five-spread sweep derive the sync seed 3 times,
    not 15, and read each client's per-subcarrier payload peaks once per
    seed: the first spread that gets past sounding leaves them in the share
    and the later ones pass them to ``_payload_frame``.  The kept uniforms
    and peaks are read-only."""
    derived, given = [], []
    derive, frame = ota.derive_seed, ota._payload_frame

    def counted_derive(*parts):
        if parts[-1] == ota._TAG_SYNC:
            derived.append(parts)
        return derive(*parts)

    def recording_frame(*args, **kwargs):
        given.append(args[-1])
        return frame(*args, **kwargs)

    spy = _CountingNumpy()
    monkeypatch.setattr(ota, "derive_seed", counted_derive)
    monkeypatch.setattr(ota, "_payload_frame", recording_frame)
    monkeypatch.setattr(ota, "np", spy)
    calls = _recorded_sweep(monkeypatch, n_seeds=3)
    num_ues = len(calls[0][0][0])
    assert derived == [(m, 0, ota._TAG_SYNC) for m in range(3)]
    assert spy.max_calls == 3 * num_ues
    sent = [share for _, share, report in calls
            if report.abort_reason != "sounding detection failed"]
    assert len(calls) == 15 and len(given) == len(sent) < 15  # some spreads abort
    first = [i for i, share in enumerate(sent) if share not in sent[:i]]
    assert len(first) == 3
    for i, (share, peaks) in enumerate(zip(sent, given)):
        assert peaks is (None if i in first else share.peaks)
        assert not share.uniforms.flags.writeable and not share.peaks.flags.writeable
        assert share.uniforms.shape == (num_ues,)


def test_pilot_masks_and_comb_layout_are_built_once_per_client_count_and_grid():
    """A three-seed sweep of ``sync_stress.cfg`` and a 20-round run of
    ``baseline.cfg``, both five clients on the default grid, build the comb
    masks and their interpolation layout once in the process: 15 sweep
    aggregations and 20 rounds read one build.  Every cached array is
    read-only."""
    ota._pilot_masks.cache_clear()
    ota._comb_layout.cache_clear()
    scenario.sync_sweep(scenario.build(scenario.parse_file(SYNC_STRESS)),
                        spreads=SWEEP_SPREADS, n_seeds=3)
    result = scenario.run_scenario(scenario.build(scenario.parse_file(BASELINE)))
    assert len(result.traces) == 20
    for cached in (ota._pilot_masks, ota._comb_layout):
        info = cached.cache_info()
        assert (info.misses, info.currsize) == (1, 1) and info.hits >= 20
    masks = ota._pilot_masks(5, GridConfig(), "fdm_comb")
    layout = ota._comb_layout(5, GridConfig())
    for array in (masks, *layout[1:]):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = array[(0,) * array.ndim]


def test_a_sync_sweep_draws_each_seeds_noise_stream_once(monkeypatch):
    """``sync_stress.cfg`` swept over five spreads and 20 seeds draws 231 616
    normals, each seed's stream once, where a fresh generator per
    aggregation drew 1 098 064: every spread re-read its seed's prefix."""
    calls = _recorded_sweep(monkeypatch, n_seeds=20)
    shares = list({id(share): share for _, share, _ in calls}.values())
    assert len(shares) == 20
    assert sum(share._normals.size for share in shares) == 231_616
    apart = 0
    for args, _, _ in calls:
        fresh = ota.RoundShare(*args)
        ota_aggregate(*args, share=fresh)
        apart += fresh._normals.size
    assert apart == 1_098_064


@pytest.mark.parametrize("csi_mode,allocation", [
    ("estimated", "fdm_comb"), ("estimated", "tdm_full"), ("perfect", "fdm_comb")])
def test_a_round_share_gives_every_aggregation_its_own_bits(csi_mode, allocation):
    """Aggregations that differ in sync, noise power and floor read one share
    in any order and give the reports they give without it."""
    base = PhyConfig(grid=SMALL_GRID, channel=ChannelModel("rayleigh_per_subcarrier"),
                     csi_mode=csi_mode, pilot_allocation=allocation)
    phys = [replace(base, sync=SyncConfig(mode="ptp_off", off_spread=spread),
                    uplink_snr_db=snr, floor_rel=floor)
            for spread, snr, floor in [(0, 20.0, 0.1), (40, 10.0, 0.1), (8, None, 0.3),
                                       (40, 30.0, 0.0), (0, 20.0, 0.1)]]
    deltas = _random_deltas(4, 300, seed=5)
    share = ota.RoundShare(deltas, base, master_seed=3, round_index=2)
    for phy in phys:
        assert (_report_bytes(ota_aggregate(deltas, phy, 3, 2, share=share))
                == _report_bytes(ota_aggregate(deltas, phy, 3, 2)))

    # peaks left by an aggregation at another spread and floor
    for filler, checked in [(phys[3], phys[2]), (phys[2], phys[0])]:
        share = ota.RoundShare(deltas, base, master_seed=3, round_index=2)
        assert share.peaks is None
        ota_aggregate(deltas, filler, 3, 2, share=share)
        assert share.peaks.shape == (4, SMALL_GRID.subcarriers)
        assert not share.peaks.flags.writeable
        assert (_report_bytes(ota_aggregate(deltas, checked, 3, 2, share=share))
                == _report_bytes(ota_aggregate(deltas, checked, 3, 2)))


def _mismatches(deltas, phy):
    """(label, arguments) of aggregations a share of ``deltas``, ``phy``,
    seed 2 and round 1 was not built for."""
    other_grid = GridConfig(subcarriers=32, symbols_per_slot=4, fft_size=32, cp_len=4)
    return [
        ("equal deltas in other arrays", ([d.copy() for d in deltas], phy, 2, 1)),
        ("fewer deltas", (deltas[:2], phy, 2, 1)),
        ("another seed", (deltas, phy, 3, 1)),
        ("another round", (deltas, phy, 2, 0)),
        ("another channel", (deltas, replace(phy, channel=ChannelModel("ideal")), 2, 1)),
        ("another grid", (deltas, replace(phy, grid=other_grid), 2, 1)),
        ("another allocation", (deltas, replace(phy, pilot_allocation="tdm_full"), 2, 1)),
        ("perfect CSI", (deltas, replace(phy, csi_mode="perfect"), 2, 1)),
    ]


def test_a_round_share_rejects_an_aggregation_it_was_not_built_for():
    phy = PhyConfig(grid=SMALL_GRID, channel=ChannelModel("flat_block"))
    deltas = _random_deltas(3, 100, seed=4)
    share = ota.RoundShare(deltas, phy, master_seed=2, round_index=1)
    other_sync = replace(phy, sync=SyncConfig(mode="ptp_off", off_spread=8),
                         uplink_snr_db=10.0, floor_rel=0.2)
    assert not ota_aggregate(list(deltas), other_sync, 2, 1, share=share).aborted
    for label, args in _mismatches(deltas, phy):
        with pytest.raises(ValueError, match="round share was built"):
            ota_aggregate(*args, share=share)
            pytest.fail(label)


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


@pytest.mark.parametrize("parts", [
    (0,), (2**32 - 1, 0, 7), (5, 2**32, 16), (2**64 + 3, 1), (0, 2**32 - 1, 2**32, 2**64 + 3),
    (np.int64(3), 2), (True, 4),
])
def test_derive_seed_gives_the_list_paths_state(parts):
    """Parts in [0, 2**32) go to numpy as one uint32 array, larger ones as a
    list; either way the state is the one a list of the parts gives."""
    want = np.random.SeedSequence(list(parts)).generate_state(4)
    np.testing.assert_array_equal(derive_seed(*parts).generate_state(4), want)


@pytest.mark.parametrize("part", [1.5, -1])
def test_derive_seed_rejects_what_the_list_path_rejects(part):
    """A float or a negative part is not cast to a 32-bit word."""
    with pytest.raises((TypeError, ValueError)):
        np.random.SeedSequence([3, part])
    with pytest.raises((TypeError, ValueError)):
        derive_seed(3, part)


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


def test_initial_state_is_the_zero_model_for_every_seed():
    tasks = _make_tasks(3)
    for seed in (0, 1, 7):
        theta = initial_state(tasks, master_seed=seed).theta
        assert theta.tobytes() == np.zeros(16).tobytes()


def test_train_configs_give_every_ue_the_template():
    """Training draws nothing, so every client, round and seed trains on
    the one template."""
    template = fl.TrainConfig(learning_rate=0.05, epochs=2)
    for seed, r in ((0, 0), (0, 1), (7, 3)):
        cfgs = train_configs(template, 3, master_seed=seed, round_index=r)
        assert cfgs == [template] * 3


def test_ota_trajectory_matches_digital_on_ideal_channel():
    """With a transparent physical layer the analog path reproduces the
    digital FedAvg trajectory to numerical precision round by round.  The
    tasks hold float64 features, so the bound speaks about the PHY alone."""
    tasks = [fl.Task(t.features.astype(np.float64), t.targets)
             for t in _make_tasks(4)]
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
        np.concatenate([t.features for t in tasks]),
        np.concatenate([t.targets for t in tasks]),
    )
    theta = np.zeros(8)
    for _ in range(rounds):
        _, grad = fl.loss_and_grad(theta, pooled)
        theta = theta - 0.05 * grad
    central_loss = fl.evaluate_loss(theta, pooled)
    assert result.traces[-1].global_loss == pytest.approx(central_loss, abs=1e-6)


GAP_SEED, GAP_ROUNDS = 3, 30


def _gap_shape():
    """Tasks, training template and PHY of the gap tests: M = 5, P = 640,
    float64 features (so no float32 product rounds the affine map),
    ``flat_block``, comb, PTP and 10 dB."""
    num_ues, params = 5, 640
    tasks = []
    for ue in range(num_ues):
        t = fl.make_linear_task(*data_seeds(GAP_SEED, ue), 2 * params, params)
        tasks.append(fl.Task(t.features.astype(np.float64), t.targets))
    template = fl.TrainConfig(learning_rate=0.05)
    phy = PhyConfig(channel=ChannelModel("flat_block"), sync=SyncConfig(mode="ptp_on"),
                    pilot_allocation="fdm_comb", uplink_snr_db=10.0)
    return tasks, template, phy


def test_the_ota_digital_gap_is_the_propagated_sum_of_round_errors(monkeypatch):
    """Under full-batch gradient descent on the linear task every local
    update is affine in the global model, so the gap d_t = theta_ota -
    theta_digital obeys d_{t+1} = A d_t + e_t exactly, e_t being round t's
    recovered update minus its exact average (``oracles.propagated_gap``).
    The two runs share one seed, and the features are float64, so no
    float32 product rounds the affine map.  The recursion holds to 1e-12
    relative in every round.  Round ``forced`` is made to abort at -30 dB,
    and its e_t is minus the exact average: the model does not move."""
    rounds, seed, forced = GAP_ROUNDS, GAP_SEED, 7
    tasks, template, phy = _gap_shape()
    reports, thetas = [], {"ota": [], "digital_fp32": []}
    aggregate, finish = ota.ota_aggregate, ota._finish_round

    def forcing(deltas, phy, master_seed, round_index):
        if round_index == forced:
            phy = replace(phy, uplink_snr_db=-30.0)
        reports.append(aggregate(deltas, phy, master_seed, round_index))
        return reports[-1]

    def recording(*args, **kwargs):
        state, trace = finish(*args, **kwargs)
        thetas[trace.mode].append(state.theta)
        return state, trace

    monkeypatch.setattr(ota, "ota_aggregate", forcing)
    monkeypatch.setattr(ota, "_finish_round", recording)
    for mode in thetas:
        run_experiment(mode, rounds, tasks, template, phy, master_seed=seed)
    errors = [r.recovered - r.exact_avg for r in reports]
    assert reports[forced].aborted
    np.testing.assert_array_equal(errors[forced], -reports[forced].exact_avg)
    np.testing.assert_array_equal(thetas["ota"][forced], thetas["ota"][forced - 1])
    assert sum(not r.aborted for r in reports) > rounds // 2
    predicted = propagated_gap(tasks, template, errors)
    for r in range(rounds):
        gap = thetas["ota"][r] - thetas["digital_fp32"][r]
        assert np.linalg.norm(gap) > 0
        assert np.linalg.norm(predicted[r] - gap) <= 1e-12 * np.linalg.norm(gap), r


def test_the_loss_gap_splits_between_aborted_and_delivered_rounds(monkeypatch):
    """The final loss gap to ``digital_fp32`` splits exactly between the
    errors of the aborted rounds and those of the delivered rounds
    (``oracles.gap_share``): the two shares sum to 1.  At the gap shape
    nearly all of it comes from the 9 rounds the detector threw away."""
    tasks, template, phy = _gap_shape()
    reports = []
    aggregate = ota.ota_aggregate

    def recording(deltas, phy, master_seed, round_index):
        reports.append(aggregate(deltas, phy, master_seed, round_index))
        return reports[-1]

    monkeypatch.setattr(ota, "ota_aggregate", recording)
    final = {mode: run_experiment(mode, GAP_ROUNDS, tasks, template, phy,
                                  master_seed=GAP_SEED).final_theta
             for mode in ("ota", "digital_fp32")}
    errors = [r.recovered - r.exact_avg for r in reports]
    aborted = {r for r, report in enumerate(reports) if report.aborted}
    delivered = set(range(GAP_ROUNDS)) - aborted
    aborted_share, delivered_share = (
        gap_share(tasks, template, errors, rounds, final["ota"], final["digital_fp32"])
        for rounds in (aborted, delivered))
    assert sorted(aborted) == [0, 2, 3, 4, 5, 15, 17, 26, 29]
    assert abs(aborted_share + delivered_share - 1.0) <= 1e-9
    assert aborted_share == pytest.approx(1.0053924862542036, abs=1e-9)
    assert delivered_share == pytest.approx(-0.0053924862542046, abs=1e-9)


@pytest.mark.parametrize("rounds", [1, 3])
@pytest.mark.parametrize("mode", ["ota", "digital_fp32"])
def test_a_diverging_step_raises_only_the_round_and_client_error(mode, rounds):
    """At ``learning_rate = 1e300`` the first round's update overflows the
    model.  ``run_experiment`` then raises the ``ValueError`` naming the
    round and the client, and no numpy ``RuntimeWarning`` comes before it:
    the tests turn every warning into an error."""
    template = fl.TrainConfig(learning_rate=1e300)
    with pytest.raises(ValueError, match=r"^round 0: client 0's loss is not finite$"):
        run_experiment(mode, rounds, _make_tasks(2), template, PhyConfig(), master_seed=0)


def test_zero_exact_average_reads_0_db_when_anything_was_sent(monkeypatch):
    """Updates that cancel exactly have a zero average.  An aggregate that
    is not exactly zero then reads 0 dB, as the analog one does here, and
    only an exact one, as the digital round sends, reads the -300 dB floor."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=4)
    b = 3 * rng.normal(size=4)
    deltas = [a, b, -(a + b)]
    assert fl.average_deltas(deltas).tobytes() == bytes(32)
    monkeypatch.setattr(ota, "train_deltas", lambda state, tasks, cfgs: deltas)
    tasks = _make_tasks(3, features=4)
    state = initial_state(tasks, master_seed=0)
    cfgs = [fl.TrainConfig()] * 3
    profile = ota.SpectralProfile.uniform(7.0, 3)
    _, fp32 = ota.run_digital_round(state, tasks, cfgs, "digital_fp32", profile, SMALL_GRID)
    _, air = run_ota_round(state, tasks, cfgs, _ideal_phy(), master_seed=0)
    assert (fp32.agg_nmse_db, air.agg_nmse_db) == (-300.0, 0.0)


def test_an_average_too_small_to_square_keeps_its_nmse():
    """Scaling every update by 2**-1000 scales the exact and the recovered
    average by it too, bit for bit, and squares the exact average's energy
    to zero.  The aggregation still reads the unscaled updates' NMSE, not
    the 0 dB of an all-zero average, and so does ``csi.nmse`` of the pair."""
    rng = np.random.default_rng(0)
    deltas = [0.1 * rng.standard_normal(513) for _ in range(5)]
    phy = PhyConfig(channel=ChannelModel("rayleigh_per_subcarrier"), pilot_allocation="tdm_full")
    report = ota_aggregate(deltas, phy, master_seed=2)
    tiny = ota_aggregate([np.ldexp(d, -1000) for d in deltas], phy, master_seed=2)
    assert not report.aborted and not tiny.aborted and energy(tiny.exact_avg) == 0.0
    assert tiny.recovered.tobytes() == np.ldexp(report.recovered, -1000).tobytes()
    want = repr(float(report.agg_nmse_db))
    assert repr(float(tiny.agg_nmse_db)) == want == "-21.387731266501696"
    assert nmse(tiny.recovered, tiny.exact_avg) == report.agg_nmse_db


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


def test_a_profile_for_another_client_count_is_rejected():
    """A digital round bills every client's upload, so a spectral profile
    that holds another number of clients is an error naming both counts,
    not a bill for the clients it happens to hold."""
    tasks = _make_tasks(5, samples=32, features=8)
    profile = SpectralProfile((7.4063, 7.4063))
    with pytest.raises(ValueError, match=r"profile.efficiencies has 2 clients, not 5"):
        run_experiment("digital_fp32", 1, tasks, fl.TrainConfig(epochs=1), _ideal_phy(),
                       master_seed=0, profile=profile)


def test_a_round_and_the_accounting_table_bill_the_same_joules():
    """At M = 5 and P = 64 on the default grid and energy model, one round
    of each mode bills, to the last bit, the energy that the table of
    ``otafl accounting`` prints for that mode."""
    tasks = _make_tasks(5, samples=32, features=64)
    state = initial_state(tasks, master_seed=0)
    cfgs = [fl.TrainConfig(epochs=1)] * 5
    profile = SpectralProfile.uniform(DEFAULT_SPECTRAL_EFFICIENCY, 5)
    _, dig = ota.run_digital_round(state, tasks, cfgs, "digital_fp32", profile, GridConfig())
    _, air = run_ota_round(state, tasks, cfgs, _ideal_phy(grid=GridConfig()), master_seed=0)
    table = {r["mode"]: r["energy_j"] for r in gains_table(range(5, 6), 64, 32)}
    assert repr(dig.energy_j) == repr(table["digital"])
    assert repr(air.energy_j) == repr(table["ota"])


def test_aborted_round_keeps_global_model():
    tasks = _make_tasks(3)
    template = fl.TrainConfig(learning_rate=0.1, epochs=1)
    phy = _ideal_phy(uplink_snr_db=-30.0, channel=ChannelModel("flat_block"))
    state = initial_state(tasks, master_seed=0)
    cfgs = [template] * 3
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
        state, trace = run_ota_round(state, tasks, [template] * 3, phy, 4)
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
    cfgs = [fl.TrainConfig(epochs=1)] * 3
    with pytest.raises(ValueError):
        run_ota_round(replace(state, grads=state.grads[:2]), tasks, cfgs, _ideal_phy(), 4)


def test_round_updates_shape_and_effect():
    tasks = _make_tasks(3)
    state = initial_state(tasks, master_seed=0)
    deltas = train_deltas(state, tasks, [fl.TrainConfig(epochs=1)] * 3)
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
        PhyConfig(floor_rel=-0.1)
    # a NaN floor used to run unfloored, and a NaN SNR aborted every round
    for bad in (dict(floor_rel=np.nan), dict(uplink_snr_db=np.nan), dict(uplink_snr_db=np.inf)):
        with pytest.raises(ValueError):
            PhyConfig(**bad)
    # an SNR whose linear ratio overflows, or underflows to zero, stopped a round
    for bad in (4000.0, -4000.0, -3100.0, np.float64(3083.0)):
        with pytest.raises(ValueError, match="float range"):
            PhyConfig(uplink_snr_db=bad)
    assert PhyConfig(uplink_snr_db=-3000.0).uplink_snr_db == -3000.0
    assert PhyConfig(uplink_snr_db=None).uplink_snr_db is None
    # the transmit scale cancels out of every result, so it is no field
    assert PhyConfig().peak_power == 1.0
    with pytest.raises(TypeError):
        PhyConfig(peak_power=2.0)
    with pytest.raises(TypeError):
        PhyConfig(margin=0.5)
    # stale and quantized CSI are not modelled, so they are no fields either
    for gone in ("decorrelation", "feedback_quant_bits"):
        with pytest.raises(TypeError):
            PhyConfig(**{gone: 0})


def test_phy_config_rejects_an_infinite_floor_at_construction():
    """An infinite floor used to be accepted and to fail mid-round."""
    with pytest.raises(FieldError, match="^floor_rel must be >= 0 and finite") as exc:
        PhyConfig(floor_rel=np.inf)
    assert exc.value.field == "floor_rel"


@pytest.mark.parametrize("grid, sync, field", [
    (GridConfig(), SyncConfig(ptp_bound_s=1e300), "sync.ptp_bound_s"),
    (GridConfig(subcarrier_spacing=1e300), SyncConfig(), "sync.ptp_bound_s"),  # rate is inf
    (GridConfig(subcarrier_spacing=1e12), SyncConfig(), "sync.ptp_bound_s"),
    (GridConfig(), SyncConfig(mode="ptp_off", off_spread=3809), "sync.off_spread"),
    (SMALL_GRID, SyncConfig(mode="ptp_off", off_spread=161), "sync.off_spread"),
])
def test_phy_config_caps_the_offset_bound_at_one_slot(grid, sync, field):
    with pytest.raises(FieldError, match=r"past one slot's \d+$") as exc:
        PhyConfig(grid=grid, sync=sync)
    assert exc.value.field == field
    with pytest.raises(FieldError):  # replace re-runs the check
        replace(PhyConfig(grid=grid), sync=sync)


def test_phy_config_accepts_an_offset_bound_of_one_slot():
    assert GridConfig().slot_len == 3808 and SMALL_GRID.slot_len == 160
    PhyConfig(sync=SyncConfig(mode="ptp_off", off_spread=3808))
    PhyConfig(grid=SMALL_GRID, sync=SyncConfig(mode="ptp_off", off_spread=160))
    PhyConfig(sync=SyncConfig(ptp_bound_s=3808 / 3.84e6 * (1 - 1e-12)))
    # without PTP the sample rate never enters the bound
    PhyConfig(grid=GridConfig(subcarrier_spacing=1e300), sync=SyncConfig(mode="ptp_off"))


@pytest.mark.parametrize("kwargs, field", [
    (dict(mode="hybrid"), "mode"),
    (dict(rounds=0), "rounds"),
    (dict(master_seed=-1), "master_seed"),
    (dict(num_ues=0), "num_ues"),
    (dict(num_ues=130), "num_ues"),
    (dict(num_ues=130, mode="digital_fp32"), "num_ues"),
    (dict(num_ues=33, phy=_ideal_phy()), "num_ues"),
])
def test_check_run_names_the_argument_it_rejects(kwargs, field):
    args = dict(phy=PhyConfig(), num_ues=5, mode="ota", rounds=1, master_seed=0)
    check_run(**args)
    with pytest.raises(FieldError) as exc:
        check_run(**{**args, **kwargs})
    assert exc.value.field == field


def test_experiments_and_aggregation_share_the_run_rules():
    tasks = _make_tasks(2, samples=8, features=4)
    with pytest.raises(FieldError, match="^rounds "):
        run_experiment("ota", 0, tasks, fl.TrainConfig(), _ideal_phy(), 0)
    with pytest.raises(FieldError, match="^mode "):
        run_experiment("hybrid", 1, tasks, fl.TrainConfig(), _ideal_phy(), 0)
    with pytest.raises(FieldError, match="^num_ues "):
        ota_aggregate([np.ones(4)] * 33, _ideal_phy())  # comb on 32 subcarriers
    # tdm_full pilots lift the comb limit but not the preamble family's
    ota_aggregate([np.ones(4)] * 33, _ideal_phy(pilot_allocation="tdm_full"))
