"""OFDM grid round trips, timing-offset phase ramps and frame detection."""

import dataclasses

import numpy as np
import pytest

from otafl.errors import FieldError
from otafl.grid import (
    PREAMBLE_LEN,
    GridConfig,
    TimeSignal,
    detect_frame,
    gold_sequence,
    make_pilot_values,
    ofdm_demodulate,
    ofdm_modulate,
    ofdm_modulate_into,
    subcarrier_bins,
)

from oracles import detect_frame_one_window

CFG = GridConfig()  # 256 sc, 14 symbols, 15 kHz, fft 256, cp 16


def _bins_oracle(cfg):
    # subcarrier n occupies centred slot lo+n, which lands on physical
    # FFT bin (lo + n - fft//2) mod fft after the ifftshift
    lo = (cfg.fft_size - cfg.subcarriers) // 2
    return (lo + np.arange(cfg.subcarriers) - cfg.fft_size // 2) % cfg.fft_size


def _random_grid(cfg, seed):
    rng = np.random.default_rng(seed)
    shape = (cfg.symbols_per_slot, cfg.subcarriers)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------- config


def test_config_defaults():
    assert CFG.sample_rate == 256 * 15e3 == 3.84e6
    assert CFG.symbol_len == 272
    assert CFG.slot_len == 14 * 272
    assert CFG.res_per_slot == 14 * 256


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(subcarriers=0),
        dict(symbols_per_slot=0),
        dict(fft_size=128),  # smaller than subcarriers
        dict(cp_len=-1),
        dict(cp_len=256),
        dict(subcarrier_spacing=0.0),
        dict(subcarrier_spacing=np.nan),
        dict(subcarrier_spacing=np.inf),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        GridConfig(**kwargs)


def test_resource_grid_validation():
    with pytest.raises(ValueError, match="resource grid must be 2-D"):
        ofdm_modulate(np.zeros(4), CFG)
    with pytest.raises(ValueError, match="resource grid entries must be finite"):
        ofdm_modulate(np.array([[np.nan, 0.0]]), CFG)
    with pytest.raises(ValueError):
        TimeSignal(np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        TimeSignal(np.zeros(4), 0.0)


def test_time_signal_rejects_a_nan_sample_rate():
    with pytest.raises(ValueError, match="sample_rate"):
        TimeSignal(np.zeros(4), np.nan)


# ------------------------------------------------------ modulation core


def test_modulate_demodulate_round_trip():
    grid = _random_grid(CFG, seed=0)
    sig = ofdm_modulate(grid, CFG)
    assert sig.samples.size == CFG.slot_len
    back = ofdm_demodulate(sig, CFG, 0)
    np.testing.assert_allclose(back, grid, atol=1e-12)


def test_round_trip_with_partial_occupation():
    cfg = GridConfig(subcarriers=120, symbols_per_slot=3, fft_size=256)
    grid = _random_grid(cfg, seed=1)
    back = ofdm_demodulate(ofdm_modulate(grid, cfg), cfg, 0)
    np.testing.assert_allclose(back, grid, atol=1e-12)


def test_unitary_energy_preservation():
    """With no cyclic prefix the transform is exactly energy preserving."""
    cfg = GridConfig(cp_len=0)
    grid = _random_grid(cfg, seed=2)
    sig = ofdm_modulate(grid, cfg)
    np.testing.assert_allclose(
        np.sum(np.abs(sig.samples) ** 2),
        np.sum(np.abs(grid) ** 2),
        rtol=1e-12,
    )


def test_cyclic_prefix_copies_symbol_tail():
    grid = _random_grid(CFG, seed=3)
    s = ofdm_modulate(grid, CFG).samples
    first = s[: CFG.symbol_len]
    np.testing.assert_allclose(first[: CFG.cp_len], first[-CFG.cp_len :], atol=1e-15)


def test_subcarrier_bins_oracle():
    np.testing.assert_array_equal(subcarrier_bins(CFG), _bins_oracle(CFG))
    narrow = GridConfig(subcarriers=64, fft_size=256)
    np.testing.assert_array_equal(subcarrier_bins(narrow), _bins_oracle(narrow))


@pytest.mark.parametrize("early", [1, 4, 16])
def test_early_window_produces_known_phase_ramp(early):
    """Sampling ``early`` samples before the ideal instant stays inside the
    cyclic prefix, so each subcarrier picks up exp(-2j pi b k / F) where b
    is its physical FFT bin.  This is the effect the sounding stage folds
    into the channel estimate."""
    grid = _random_grid(CFG, seed=4)
    sig = ofdm_modulate(grid, CFG)
    shifted = TimeSignal(
        np.concatenate([np.zeros(early, dtype=complex), sig.samples]),
        sig.sample_rate,
    )
    got = ofdm_demodulate(shifted, CFG, 0)
    ramp = np.exp(-2j * np.pi * _bins_oracle(CFG) * early / CFG.fft_size)
    np.testing.assert_allclose(got, grid * ramp[None, :], atol=1e-10)


def test_demodulate_rejects_out_of_range_window():
    sig = ofdm_modulate(_random_grid(CFG, seed=5), CFG)
    with pytest.raises(ValueError):
        ofdm_demodulate(sig, CFG, 1)  # one sample short at the end
    with pytest.raises(ValueError):
        ofdm_demodulate(sig, CFG, -1)


def test_modulate_rejects_wrong_shape():
    with pytest.raises(ValueError):
        ofdm_modulate(np.zeros((2, 2), dtype=complex), CFG)
    with pytest.raises(ValueError):
        ofdm_modulate_into(np.zeros((3, CFG.subcarriers)), CFG,
                           np.zeros((3, CFG.symbol_len - 1), dtype=complex))


def _shifted_spectrum_modulate(data, cfg):
    """Reference modulator: zero-padded centred spectrum, ifftshift, IFFT and
    a concatenated cyclic prefix, one symbol row at a time."""
    lo = (cfg.fft_size - cfg.subcarriers) // 2
    rows = []
    for row in data:
        spectrum = np.zeros(cfg.fft_size, dtype=complex)
        spectrum[lo:lo + cfg.subcarriers] = row
        time = np.fft.ifft(np.fft.ifftshift(spectrum), norm="ortho")
        rows.append(np.concatenate([time[cfg.fft_size - cfg.cp_len:], time]))
    return np.concatenate(rows)


# Grid shapes the modulator and demodulator are checked on bit for bit.
SHAPES = [
    CFG,
    GridConfig(subcarriers=120, symbols_per_slot=3, fft_size=256),
    GridConfig(subcarriers=31, symbols_per_slot=2, fft_size=64, cp_len=5),
    GridConfig(subcarriers=33, symbols_per_slot=2, fft_size=65, cp_len=0),
    GridConfig(subcarriers=1, symbols_per_slot=1, fft_size=2, cp_len=1),
]


def _shape_id(cfg):
    return f"{cfg.subcarriers}of{cfg.fft_size}cp{cfg.cp_len}"


@pytest.mark.parametrize("cfg", SHAPES, ids=_shape_id)
def test_modulate_into_matches_the_shifted_spectrum_reference(cfg):
    """Direct bin placement and the in-place IFFT give the reference's
    samples bit for bit, whether written into a slot's own buffer or into a
    strided window of a longer frame."""
    rows = 3 * cfg.symbols_per_slot
    data = _random_grid(dataclasses.replace(cfg, symbols_per_slot=rows), seed=6)
    want = _shifted_spectrum_modulate(data, cfg)
    frame = np.full(rows * cfg.symbol_len + 7, np.nan, dtype=complex)
    ofdm_modulate_into(data, cfg, frame[5:-2].reshape(rows, cfg.symbol_len))
    assert frame[5:-2].tobytes() == want.tobytes()
    assert np.isnan(frame[:5]).all() and np.isnan(frame[-2:]).all()
    slot = _random_grid(cfg, seed=7)
    assert (ofdm_modulate(slot, cfg).samples.tobytes()
            == _shifted_spectrum_modulate(slot, cfg).tobytes())


@pytest.mark.parametrize("cfg", SHAPES, ids=_shape_id)
def test_demodulate_matches_the_shifted_spectrum_reference(cfg):
    """Reading each subcarrier straight from its FFT bin gives the bits of
    an fftshift of the spectrum and a centred slice, at any start."""
    rng = np.random.default_rng(cfg.fft_size)
    n = cfg.slot_len + 9
    signal = TimeSignal(rng.normal(size=n) + 1j * rng.normal(size=n), cfg.sample_rate)
    lo = (cfg.fft_size - cfg.subcarriers) // 2
    for start in (0, 9):
        seg = signal.samples[start:start + cfg.slot_len].reshape(cfg.symbols_per_slot, -1)
        spectrum = np.fft.fft(seg[:, cfg.cp_len:], axis=1, norm="ortho")
        want = np.fft.fftshift(spectrum, axes=1)[:, lo:lo + cfg.subcarriers]
        assert ofdm_demodulate(signal, cfg, start).tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg", SHAPES, ids=_shape_id)
def test_demodulating_many_symbols_equals_one_slot_at_a_time(cfg):
    """One call over n symbols gives the bits of n / symbols_per_slot
    one-slot calls, at any start; a window past the end is rejected."""
    slots = 3
    rng = np.random.default_rng(cfg.fft_size + 1)
    n = slots * cfg.slot_len + 5
    signal = TimeSignal(rng.normal(size=n) + 1j * rng.normal(size=n), cfg.sample_rate)
    symbols = slots * cfg.symbols_per_slot
    for start in (0, 5):
        got = ofdm_demodulate(signal, cfg, start, symbols)
        want = np.concatenate([ofdm_demodulate(signal, cfg, start + k * cfg.slot_len)
                               for k in range(slots)])
        assert got.shape == (symbols, cfg.subcarriers)
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        ofdm_demodulate(signal, cfg, 6, symbols)


@pytest.mark.parametrize("cfg", SHAPES, ids=_shape_id)
@pytest.mark.parametrize("rows", [2, 60, 140])
def test_fft_rows_do_not_depend_on_the_batch(cfg, rows):
    """Modulating ``rows`` symbols in one call gives the bits of ``rows``
    one-row calls, and demodulating them in one call the bits of one-symbol
    calls: the sounding and payload bits rest on the FFT treating each row
    alike whatever the batch size (60 clients' pilot rows and 140 payload
    symbols at paper scale)."""
    data = _random_grid(dataclasses.replace(cfg, symbols_per_slot=rows), seed=rows)
    batched = np.empty((rows, cfg.symbol_len), dtype=complex)
    ofdm_modulate_into(data, cfg, batched)
    single = np.empty_like(batched)
    for k in range(rows):
        ofdm_modulate_into(data[k:k + 1], cfg, single[k:k + 1])
    assert batched.tobytes() == single.tobytes()
    signal = TimeSignal(batched.reshape(-1), cfg.sample_rate)
    whole = ofdm_demodulate(signal, cfg, 0, rows)
    one_by_one = [ofdm_demodulate(signal, cfg, k * cfg.symbol_len, 1) for k in range(rows)]
    assert whole.tobytes() == np.concatenate(one_by_one).tobytes()


# ------------------------------------------------------------- framing


def test_pilot_values_are_unit_modulus_qpsk():
    pv = make_pilot_values(256)
    np.testing.assert_allclose(np.abs(pv), 1.0, atol=1e-12)
    angles = (np.angle(pv) - np.pi / 4) / (np.pi / 2)
    np.testing.assert_allclose(angles, np.round(angles), atol=1e-9)
    np.testing.assert_array_equal(pv, make_pilot_values(256))


def test_payload_slots_survive_framing():
    # preamble burst, one pilot symbol, then the payload slots (the uplink layout)
    preamble = gold_sequence(0).astype(complex)
    pilot_cfg = dataclasses.replace(CFG, symbols_per_slot=1)
    pilot = ofdm_modulate(make_pilot_values(CFG.subcarriers)[None, :], pilot_cfg)
    payload = [_random_grid(CFG, seed=30 + i) for i in range(2)]
    parts = [preamble, pilot.samples] + [ofdm_modulate(g, CFG).samples for g in payload]
    frame = TimeSignal(np.concatenate(parts), CFG.sample_rate)
    base = 127 + CFG.symbol_len
    for i, g in enumerate(payload):
        back = ofdm_demodulate(frame, CFG, base + i * CFG.slot_len)
        np.testing.assert_allclose(back, g, atol=1e-12)


# ------------------------------------------------------------ detection


def test_detect_clean_preamble():
    p = gold_sequence(0)
    (offset,), (metric,) = detect_frame(TimeSignal(p.astype(complex), 1.0), p[np.newaxis])
    assert offset == 0
    assert metric == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delay", [0, 3, 40, 200])
def test_detect_delayed_preamble(delay):
    p = gold_sequence(2)
    s = np.zeros(500, dtype=complex)
    s[delay : delay + 127] = p
    (offset,), (metric,) = detect_frame(TimeSignal(s, 1.0), p[np.newaxis])
    assert offset == delay
    assert metric == pytest.approx(1.0, abs=1e-9)


def test_detect_with_noise_matches_snr_prediction():
    """For a matched filter the normalized peak metric concentrates around
    snr / (1 + snr) with snr the per-sample preamble SNR, independent of
    preamble length."""
    p = gold_sequence(1)
    rng = np.random.default_rng(7)
    sigma2 = 0.1  # 10 dB per-sample SNR
    noise = rng.normal(scale=np.sqrt(sigma2 / 2), size=(400, 2)) @ np.array([1, 1j])
    s = noise.copy()
    s[100:227] += p
    (offset,), (metric,) = detect_frame(TimeSignal(s, 1.0), p[np.newaxis])
    assert offset == 100
    expected = 10.0 / 11.0
    assert abs(metric - expected) < 0.08


def test_detect_survives_strong_interfering_user():
    """A 16x stronger co-channel preamble from the same Gold family must not
    capture the argmax: its cross-correlation sidelobe (17/127) times its
    amplitude exceeds the weak user's own raw peak, but the normalized
    metric divides it away."""
    weak = gold_sequence(4)
    strong = gold_sequence(9)
    s = np.zeros(600, dtype=complex)
    s[50:177] += 4.0 * strong
    s[300:427] += 0.5 * weak
    # raw-correlation ranking really is inverted for these amplitudes
    raw = np.abs(np.correlate(s, weak.astype(complex), mode="valid"))
    assert np.argmax(raw) != 300
    (offset,), (metric,) = detect_frame(TimeSignal(s, 1.0), weak[np.newaxis])
    assert offset == 300
    assert metric == pytest.approx(1.0, abs=1e-9)


def test_detect_metric_bounded_by_one():
    rng = np.random.default_rng(11)
    p = gold_sequence(0)
    for _ in range(20):
        s = rng.normal(size=800) + 1j * rng.normal(size=800)
        _, (metric,) = detect_frame(TimeSignal(s, 1.0), p[np.newaxis])
        assert 0.0 <= metric <= 1.0


def test_detect_rejects_short_signal():
    p = gold_sequence(0)
    with pytest.raises(ValueError):
        detect_frame(TimeSignal(np.zeros(100, dtype=complex), 1.0), p[np.newaxis])


@pytest.mark.parametrize("case", ["zero_window", "last_lag", "nan_window", "inf_window"])
@pytest.mark.parametrize("bound", [4, 256])  # PTP: inside one slot; ptp_off 256: overlapping
@pytest.mark.parametrize("windows", [1, 5, 60])
def test_one_pass_matches_a_search_of_each_window_alone(windows, bound, case):
    """One pass over an event's staggered windows gives, in every window,
    the offset and metric bits of a one-window search.  The middle window
    is all zero, which reads metric 0 at lag 0, holds its preamble at the
    window's last lag, or holds one NaN or inf sample.  A NaN makes the
    energy of every later lag NaN, and those lags must read 0, as a zero
    energy does; inf - inf in the running sum does the same past an inf."""
    slot = PREAMBLE_LEN + CFG.cp_len
    span = bound + PREAMBLE_LEN
    rng = np.random.default_rng(windows * 1000 + bound)
    bank = np.stack([gold_sequence(k) for k in range(windows)])
    size = (windows - 1) * slot + span
    buf = 0.05 * (rng.standard_normal(size + slot) + 1j * rng.standard_normal(size + slot))
    delays = rng.integers(0, bound + 1, size=windows)
    middle = windows // 2
    delays[middle] = bound
    amps = rng.uniform(0.1, 4.0, size=windows)
    amps[middle] = 4.0
    for i, (d, amp) in enumerate(zip(delays, amps)):
        buf[i * slot + d:i * slot + d + PREAMBLE_LEN] += amp * bank[i]
    if case == "zero_window":
        buf[middle * slot:middle * slot + span] = 0.0
    elif case != "last_lag":
        buf[middle * slot + span // 2] = np.nan if case == "nan_window" else np.inf
    with np.errstate(invalid="ignore"):  # inf - inf and inf / inf
        offsets, metrics = detect_frame(TimeSignal(buf[:size], 1.0), bank, slot)
        alone = [detect_frame_one_window(TimeSignal(buf[i * slot:i * slot + span], 1.0), bank[i])
                 for i in range(windows)]
    np.testing.assert_array_equal(offsets, [o for o, _ in alone])
    assert metrics.tobytes() == np.array([m for _, m in alone]).tobytes()
    if case == "zero_window":
        assert (offsets[middle], metrics[middle]) == (0, 0.0)
    elif case == "last_lag":
        assert offsets[middle] == span - PREAMBLE_LEN
    elif case == "nan_window":
        assert 0.0 <= metrics[middle] <= 1.0


def test_detect_rejects_windows_past_the_signal():
    bank = np.stack([gold_sequence(k) for k in range(3)])
    slot = PREAMBLE_LEN + CFG.cp_len
    short = np.zeros(2 * slot + PREAMBLE_LEN - 1, dtype=complex)  # the last window lacks a chip
    with pytest.raises(ValueError, match="holds no 3 windows"):
        detect_frame(TimeSignal(short, 1.0), bank, slot)
    with pytest.raises(ValueError, match="block"):
        detect_frame(TimeSignal(np.zeros(300, dtype=complex), 1.0), bank[0])


@pytest.mark.parametrize("kwargs, field", [
    (dict(subcarriers=0), "subcarriers"),
    (dict(symbols_per_slot=0), "symbols_per_slot"),
    (dict(subcarriers=300), "fft_size"),
    (dict(cp_len=256), "cp_len"),
    (dict(cp_len=-1), "cp_len"),
    (dict(subcarrier_spacing=0.0), "subcarrier_spacing"),
    (dict(subcarrier_spacing=np.inf), "subcarrier_spacing"),
])
def test_grid_config_names_the_one_field_it_rejects(kwargs, field):
    with pytest.raises(FieldError, match=f"^{field} ") as exc:
        GridConfig(**kwargs)
    assert exc.value.field == field
