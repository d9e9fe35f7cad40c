"""OFDM resource grids, Gold-sequence preambles and frame detection.

Conventions that the rest of the package relies on:

* The DFT is unitary in both directions (``norm="ortho"``), so a resource
  grid and the useful portion of its time-domain signal carry identical
  energy.  No extra scaling constants appear anywhere downstream.
* The occupied subcarriers sit centred on DC: subcarrier ``n`` of a grid
  sits at physical FFT bin ``subcarrier_bins(cfg)[n]``, which matters when
  reasoning about the per-subcarrier phase ramp caused by a timing offset
  inside the cyclic prefix.
* Preambles are bipolar (+1/-1) Gold sequences of one degree-7 family
  (``PREAMBLE_FAMILY`` members of ``PREAMBLE_LEN`` chips) transmitted as raw
  time samples ahead of the first OFDM symbol; frame detection is a
  normalized cross-correlation peak search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import FieldError

# Seed for the fixed QPSK pilot symbol shared by transmitter and receiver.
PILOT_SEED = 17

# Per-client preambles: degree-7 Gold family, 129 sequences of 127 chips.
PREAMBLE_DEGREE = 7
PREAMBLE_LEN = 2**PREAMBLE_DEGREE - 1
PREAMBLE_FAMILY = 2**PREAMBLE_DEGREE + 1

# Preferred pair of m-sequence feedback taps (polynomial exponents) of the preamble
# family; its cross-correlation is three-valued with bound 2**((m+1)/2) + 1.
_PREFERRED_PAIR = ((7, 3), (7, 3, 2, 1))


@dataclass(frozen=True)
class GridConfig:
    """Static dimensions of one OFDM slot.

    ``sample_rate`` is derived as ``fft_size * subcarrier_spacing`` so the
    numerology stays internally consistent (256 x 15 kHz = 3.84 MS/s for the
    defaults).
    """

    subcarriers: int = 256
    symbols_per_slot: int = 14
    subcarrier_spacing: float = 15e3
    fft_size: int = 256
    cp_len: int = 16

    def __post_init__(self):
        if self.subcarriers < 1:
            raise FieldError("subcarriers", "must be positive")
        if self.symbols_per_slot < 1:
            raise FieldError("symbols_per_slot", "must be positive")
        if self.fft_size < self.subcarriers:
            raise FieldError("fft_size", "must be >= subcarriers")
        if not 0 <= self.cp_len < self.fft_size:
            raise FieldError("cp_len", "must lie in [0, fft_size)")
        if not 0 < self.subcarrier_spacing < np.inf:
            raise FieldError("subcarrier_spacing", "must be positive and finite")

    @property
    def sample_rate(self) -> float:
        return self.fft_size * self.subcarrier_spacing

    @property
    def symbol_len(self) -> int:
        """Samples per OFDM symbol including the cyclic prefix."""
        return self.fft_size + self.cp_len

    @property
    def slot_len(self) -> int:
        return self.symbols_per_slot * self.symbol_len

    @property
    def slot_duration_s(self) -> float:
        """Airtime of one slot in seconds, ``slot_len / sample_rate``:
        0.99167 ms for the defaults, 14 x (256 + 16) samples at 3.84 MS/s."""
        return self.slot_len / self.sample_rate

    @property
    def res_per_slot(self) -> int:
        """Resource elements per slot (symbols x subcarriers)."""
        return self.symbols_per_slot * self.subcarriers


@dataclass
class TimeSignal:
    """Complex baseband samples at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 1:
            raise ValueError("time signal must be 1-D")
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")


@functools.lru_cache(maxsize=None)
def _msequence(taps: tuple[int, ...]) -> np.ndarray:
    """Maximal-length sequence from a Fibonacci LFSR, all-ones start state.

    ``taps`` are the exponents of the feedback polynomial
    x^7 + x^t1 + ... + 1; the output has period ``PREAMBLE_LEN``.  The
    result is cached and returned read-only.
    """
    state = [1] * PREAMBLE_DEGREE
    bits = np.empty(PREAMBLE_LEN, dtype=np.uint8)
    for i in range(PREAMBLE_LEN):
        bits[i] = state[-1]
        fb = 0
        for t in taps:
            fb ^= state[t - 1]
        state = [fb] + state[:-1]
    bits.flags.writeable = False
    return bits


def gold_sequence(index: int) -> np.ndarray:
    """Return one bipolar Gold sequence of the preamble family.

    ``index`` selects a family member: 0 and 1 are the two preferred
    m-sequences, and index k >= 2 is their XOR with the second sequence
    cyclically shifted by k - 2: ``PREAMBLE_FAMILY`` sequences of
    ``PREAMBLE_LEN`` chips with three-valued cross-correlation.
    """
    if not 0 <= index < PREAMBLE_FAMILY:
        raise ValueError(f"index must lie in [0, {PREAMBLE_FAMILY - 1}], got {index}")
    taps_u, taps_v = _PREFERRED_PAIR
    u = _msequence(taps_u)
    v = _msequence(taps_v)
    if index == 0:
        bits = u
    elif index == 1:
        bits = v
    else:
        bits = u ^ np.roll(v, -(index - 2))
    return (1.0 - 2.0 * bits).astype(np.float64)


def make_pilot_values(subcarriers: int) -> np.ndarray:
    """Fixed unit-modulus QPSK pilot symbol from ``PILOT_SEED``, known to both link ends."""
    rng = np.random.default_rng(PILOT_SEED)
    quadrant = rng.integers(0, 4, size=subcarriers)
    return np.exp(1j * (np.pi / 4 + np.pi / 2 * quadrant))


def _dc_split(cfg: GridConfig) -> int:
    """Subcarriers from this index on sit at and above DC, in FFT bins 0, 1,
    ...; the ones below it wrap around to the top bins."""
    return cfg.fft_size // 2 - (cfg.fft_size - cfg.subcarriers) // 2


def subcarrier_bins(cfg: GridConfig) -> np.ndarray:
    """Physical FFT bin index for each subcarrier."""
    return (np.arange(cfg.subcarriers) - _dc_split(cfg)) % cfg.fft_size


def ofdm_modulate_into(symbols: np.ndarray, cfg: GridConfig, out: np.ndarray) -> None:
    """Modulate ``(n, subcarriers)`` symbols into ``out``, an ``(n, symbol_len)`` view.

    Each symbol's subcarriers go straight into their FFT bins in the useful
    part of its row, the unitary IFFT runs in place there and the cyclic
    prefix is copied in front: no zero-padded spectrum, shift or
    concatenation.
    """
    n = symbols.shape[0]
    if symbols.shape != (n, cfg.subcarriers) or out.shape != (n, cfg.symbol_len):
        raise ValueError(
            f"cannot modulate symbols of shape {symbols.shape} into samples of "
            f"shape {out.shape}"
        )
    sub, fft, split = cfg.subcarriers, cfg.fft_size, _dc_split(cfg)
    useful = out[:, cfg.cp_len:]
    useful[:, :sub - split] = symbols[:, split:]
    useful[:, sub - split:fft - split] = 0.0
    useful[:, fft - split:] = symbols[:, :split]
    np.fft.ifft(useful, axis=1, norm="ortho", out=useful)
    out[:, :cfg.cp_len] = out[:, fft:]


def ofdm_modulate(grid: np.ndarray, cfg: GridConfig) -> TimeSignal:
    """Unitary IFFT per symbol plus cyclic prefix, any number of symbols of a
    finite ``(symbols, subcarriers)`` grid concatenated."""
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.ndim != 2:
        raise ValueError("resource grid must be 2-D")
    if not np.all(np.isfinite(grid.view(np.float64))):
        raise ValueError("resource grid entries must be finite")
    out = np.empty((grid.shape[0], cfg.symbol_len), dtype=np.complex128)
    ofdm_modulate_into(grid, cfg, out)
    return TimeSignal(out.reshape(-1), cfg.sample_rate)


def ofdm_demodulate(
    signal: TimeSignal, cfg: GridConfig, start: int = 0, symbols: int | None = None
) -> np.ndarray:
    """Strip cyclic prefixes and FFT ``symbols`` OFDM symbols (one slot's by
    default) from ``start`` on back to a (symbols, subcarriers) array in one
    call, reading each subcarrier straight from its FFT bin."""
    n = cfg.symbols_per_slot if symbols is None else symbols
    need = n * cfg.symbol_len
    if start < 0 or start + need > signal.samples.size:
        raise ValueError(
            f"demodulation window [{start}, {start + need}) exceeds signal "
            f"of {signal.samples.size} samples"
        )
    seg = signal.samples[start:start + need].reshape(n, cfg.symbol_len)
    spectrum = np.fft.fft(seg[:, cfg.cp_len:], axis=1, norm="ortho")
    sub, fft, split = cfg.subcarriers, cfg.fft_size, _dc_split(cfg)
    grid = np.empty((n, sub), dtype=np.complex128)
    grid[:, split:] = spectrum[:, :sub - split]
    grid[:, :split] = spectrum[:, fft - split:]
    return grid


def detect_frame(
    signal: TimeSignal, preambles: np.ndarray, stride: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Correlation-based frame start detection in ``k`` windows at once.

    ``preambles`` is a ``(k, L)`` block, one preamble per window.  Window
    ``i`` starts at sample ``i * stride`` of ``signal`` and every window is
    ``span = signal.samples.size - (k - 1) * stride`` samples long, so the
    signal is exactly the prefix the windows cover; with ``stride`` below
    ``span`` they overlap, and at 0 every preamble is searched over the
    whole signal.  The windows are one view of the signal, not copies.

    Returns ``(offsets, peak_metrics)``, one entry per window: each offset
    maximizes the squared correlation *normalized by the windowed signal
    energy*, and its metric is that normalized value (1.0 for a perfect
    noise-free match, near 0 for pure noise, 0 at lag 0 for an all-zero
    window).  Normalizing before the argmax matters when several users
    share the medium: a raw-correlation argmax can be captured by the
    cross-correlation sidelobe of a much stronger user's preamble, while the
    normalized metric at such a lag is crushed by the strong user's window
    energy.  By Cauchy-Schwarz the metric never exceeds 1, and windows only
    partially overlapping the preamble are bounded by their overlap
    fraction, so empty stretches cannot win either.  The round compares the
    metric against ``ota.DETECT_THRESHOLD``.

    One pass serves every window: the preamble block is cast to the
    signal's type once, the correlation is one ``np.correlate`` per window,
    whose dot order fixes its bits, with its magnitude written straight
    into the window's row, and the energy, its running sum, the divide and
    the argmax each run once over the block, row by row, squaring and
    scaling in place.  A lag whose denominator is not positive (zero, or
    NaN past a non-finite sample) reads 0.  Each window gets the bits a
    search of that window alone gets.
    """
    p = np.asarray(preambles)
    if p.ndim != 2 or p.shape[0] < 1:
        raise ValueError(f"preambles must be a (windows, chips) block, got shape {p.shape}")
    k, chips = p.shape
    s = np.ascontiguousarray(signal.samples)
    span = s.size - (k - 1) * stride
    if stride < 0 or span < chips:
        raise ValueError(f"signal of {s.size} samples holds no {k} windows {stride} apart "
                         f"as long as the {chips}-chip preamble")
    windows = np.ndarray((k, span), dtype=s.dtype, buffer=s,
                         strides=(stride * s.itemsize, s.itemsize))
    power = np.empty((k, span - chips + 1))
    common = p.astype(np.promote_types(s.dtype, p.dtype), copy=False)  # what correlate casts to
    for row, window, preamble in zip(power, windows, common):
        np.abs(np.correlate(window, preamble, mode="valid"), out=row)
    power *= power
    energy = np.abs(windows)
    energy *= energy
    csum = np.zeros((k, span + 1))
    np.add.accumulate(energy, axis=1, out=csum[:, 1:])
    denom = csum[:, chips:] - csum[:, :-chips]  # each lag's window energy
    chip_energy = np.abs(p)
    chip_energy *= chip_energy
    denom *= chip_energy.sum(axis=1, keepdims=True)
    ratio = np.divide(power, denom, out=np.zeros(power.shape), where=denom > 0.0)
    # the peak is the value at the argmax, NaN included
    return ratio.argmax(axis=1), np.minimum(ratio.max(axis=1), 1.0)
