"""Block-fading channel models, link budgets and multi-access superposition.

A channel realization is one complex gain per subcarrier, held constant for
every OFDM symbol of the round (block fading).  Gains are applied in the
frequency domain; the analog multiple-access sum happens in the time domain
where integer sample delays and receiver noise are injected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimeSignal

KINDS = ("ideal", "flat_block", "rayleigh_per_subcarrier", "pathloss_fading")

_SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class ChannelModel:
    """What kind of fading to draw and its large-scale parameters."""

    kind: str = "ideal"
    pathloss_exponent: float = 3.0
    reference_distance: float = 1.0
    carrier: float = 3.5e9

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}; choose from {KINDS}")
        if self.pathloss_exponent <= 0 or self.reference_distance <= 0 or self.carrier <= 0:
            raise ValueError("channel model parameters must be positive")


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, geometry and the receiver noise floor."""

    tx_power_dbm: float = 20.0
    distance_m: float = 20.0
    noise_psd_dbm_hz: float = -174.0
    bandwidth_hz: float = 3.84e6

    def __post_init__(self):
        if self.distance_m <= 0 or self.bandwidth_hz <= 0:
            raise ValueError("distance and bandwidth must be positive")

    @property
    def noise_variance_w(self) -> float:
        """Thermal noise power in watts: PSD (dBm/Hz) integrated over bandwidth."""
        return 10.0 ** ((self.noise_psd_dbm_hz - 30.0) / 10.0) * self.bandwidth_hz

    @property
    def tx_power_w(self) -> float:
        return 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0)


@dataclass
class ChannelRealization:
    """One draw of per-subcarrier gains plus the noise variance to apply."""

    gains: np.ndarray
    noise_variance: float
    ue_id: int = 0

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=np.complex128)
        if self.gains.ndim != 1 or self.gains.size == 0:
            raise ValueError("gains must be a nonempty 1-D array")
        if self.noise_variance < 0:
            raise ValueError("noise_variance must be >= 0")


def _cn(rng: np.random.Generator, size) -> np.ndarray:
    """Circularly-symmetric complex normal CN(0, 1) samples."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def pathloss_amplitude(model: ChannelModel, distance_m: float) -> float:
    """Log-distance amplitude: free space to the reference, exponent beyond."""
    lam = _SPEED_OF_LIGHT / model.carrier
    pl_ref_db = 20.0 * np.log10(4.0 * np.pi * model.reference_distance / lam)
    pl_db = pl_ref_db + 10.0 * model.pathloss_exponent * np.log10(
        max(distance_m, model.reference_distance) / model.reference_distance
    )
    return 10.0 ** (-pl_db / 20.0)


def realize_channel(
    model: ChannelModel,
    budget: LinkBudget,
    subcarriers: int,
    seed,
    ue_id: int = 0,
) -> ChannelRealization:
    """Draw one block-fading realization for a single UE.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; equal seeds
    reproduce the realization bit for bit.
    """
    if subcarriers < 1:
        raise ValueError("subcarriers must be >= 1")
    rng = np.random.default_rng(seed)
    if model.kind == "ideal":
        return ChannelRealization(np.ones(subcarriers, dtype=np.complex128), 0.0, ue_id)
    if model.kind == "flat_block":
        g = _cn(rng, ())
        gains = np.full(subcarriers, g, dtype=np.complex128)
    elif model.kind == "rayleigh_per_subcarrier":
        gains = _cn(rng, subcarriers)
    else:  # pathloss_fading
        amp = pathloss_amplitude(model, budget.distance_m)
        gains = amp * _cn(rng, subcarriers)
    return ChannelRealization(gains, budget.noise_variance_w, ue_id)


def decorrelate(
    realization: ChannelRealization,
    model: ChannelModel,
    budget: LinkBudget,
    mix: float,
    seed,
) -> ChannelRealization:
    """Stale-CSI knob: blend in an independent draw with weight ``mix``.

    ``mix`` = 0 returns the realization unchanged (full coherence within the
    round); ``mix`` = 1 is a fully independent redraw.  The blend keeps the
    per-subcarrier second moment: sqrt(1 - mix^2) * old + mix * new.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    if mix == 0.0:
        return realization
    fresh = realize_channel(model, budget, realization.gains.size, seed, realization.ue_id)
    gains = np.sqrt(1.0 - mix**2) * realization.gains + mix * fresh.gains
    return ChannelRealization(gains, realization.noise_variance, realization.ue_id)


def superpose(
    signals: list[tuple[TimeSignal, int]],
    noise_variance: float,
    seed,
) -> TimeSignal:
    """Sum delayed uplink signals sample by sample and add receiver noise.

    ``signals`` holds (signal, integer delay >= 0) pairs sharing one sample
    rate.  The output spans max(delay + length); shorter contributions are
    zero outside their support.  This is the analog multiple-access channel:
    strictly linear in each input.
    """
    if not signals:
        raise ValueError("superpose needs at least one signal")
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    rate = signals[0][0].sample_rate
    total = 0
    for sig, delay in signals:
        if sig.sample_rate != rate:
            raise ValueError("all signals must share one sample rate")
        if delay < 0 or int(delay) != delay:
            raise ValueError("delays must be nonnegative integers")
        total = max(total, delay + sig.samples.size)
    acc = np.zeros(total, dtype=np.complex128)
    for sig, delay in signals:
        acc[delay:delay + sig.samples.size] += sig.samples
    if noise_variance > 0:
        rng = np.random.default_rng(seed)
        acc = acc + np.sqrt(noise_variance) * _cn(rng, total)
    return TimeSignal(acc, rate)
