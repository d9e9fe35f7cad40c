"""Block-fading channel models and multi-access superposition.

A channel realization is one complex gain per subcarrier, held constant for
every OFDM symbol of the round (block fading).  Gains are applied in the
frequency domain; the analog multiple-access sum happens in the time domain
where integer sample delays and receiver noise are injected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_choice
from .grid import TimeSignal

KINDS = ("ideal", "flat_block", "rayleigh_per_subcarrier")


@dataclass(frozen=True)
class ChannelModel:
    """What kind of fading to draw."""

    kind: str = "ideal"

    def __post_init__(self):
        check_choice("kind", self.kind, KINDS)


def _cn(rng: np.random.Generator, size) -> np.ndarray:
    """Circularly-symmetric complex normal CN(0, 1) samples."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def realize_channel(model: ChannelModel, subcarriers: int, seed) -> np.ndarray:
    """Draw one block-fading realization for a single UE: a gain per subcarrier.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; equal seeds
    reproduce the realization bit for bit.  ``GridConfig`` owns the
    subcarrier check for a scenario; it stays for direct callers.
    """
    if subcarriers < 1:
        raise ValueError("subcarriers must be >= 1")
    rng = np.random.default_rng(seed)
    if model.kind == "ideal":
        return np.ones(subcarriers, dtype=np.complex128)
    if model.kind == "flat_block":
        return np.full(subcarriers, _cn(rng, ()), dtype=np.complex128)
    return _cn(rng, subcarriers)


def decorrelate(gains: np.ndarray, model: ChannelModel, mix: float, seed) -> np.ndarray:
    """Stale-CSI knob: blend in an independent draw with weight ``mix``.

    ``mix`` = 0 returns the gains unchanged (full coherence within the
    round); ``mix`` = 1 is a fully independent redraw.  The blend keeps the
    per-subcarrier second moment: sqrt(1 - mix^2) * old + mix * new.
    ``PhyConfig.decorrelation`` owns this check for a scenario; it stays for direct callers.
    """
    if not 0.0 <= mix <= 1.0:
        raise ValueError("mix must lie in [0, 1]")
    if mix == 0.0:
        return gains
    fresh = realize_channel(model, gains.size, seed)
    return np.sqrt(1.0 - mix**2) * gains + mix * fresh


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
    if not noise_variance >= 0:
        raise ValueError(f"noise_variance must be >= 0, got {noise_variance}")
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
