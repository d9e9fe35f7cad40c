"""Reference implementations the tests check the package against.

Nothing in ``otafl`` calls these: each is the plain form of something the
pipeline computes another way, or a diagnostic only a test reads.

- ``fedavg_digital``: the elementwise mean of the local models, which the
  delta average plus the global model must reproduce.
- ``unscale_updates``: the inverse of ``weightcodec.scale_updates``, which
  the block decoder must match.
- ``spectrum_gain``: the digital / analog slot ratio of one round.
- ``serialize``: a scenario's fixed-order text, which ``parse`` reads back
  to the same scenario.
- ``peak_spread`` and ``spread_of``: each client's correlation-peak offset
  in a composite signal, and their spread.
"""

from __future__ import annotations

import numpy as np

from otafl.accounting import SpectralProfile, digital_slots
from otafl.grid import GridConfig, TimeSignal, detect_frame
from otafl.scenario import KEYMAP, Scenario
from otafl.weightcodec import slot_plan


def fedavg_digital(local_models: list[np.ndarray]) -> np.ndarray:
    """Bit-exact digital baseline: elementwise mean of the local models."""
    if not local_models:
        raise ValueError("need at least one local model")
    return np.mean(np.stack(local_models, axis=0), axis=0)


def unscale_updates(values: np.ndarray, scales: tuple[float, float]) -> np.ndarray:
    """Inverse of :func:`scale_updates` for a known scale pair."""
    out = np.asarray(values, dtype=np.float64).copy()
    out[0::2] *= scales[0]
    out[1::2] *= scales[1]
    return out


def spectrum_gain(param_count: int, bits_per_param: int, profile: SpectralProfile,
                  cfg: GridConfig = GridConfig()) -> float:
    """Slot ratio digital / analog for one round."""
    return digital_slots(param_count, bits_per_param, profile, cfg) / slot_plan(param_count, cfg)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize(scenario: Scenario) -> str:
    """Fixed-order text form; ``parse(serialize(s)) == s``."""
    lines = [
        f"{key} = {_format_value(getattr(scenario, field))}"
        for key, field in KEYMAP.items()
    ]
    return "\n".join(lines) + "\n"


def peak_spread(signal: TimeSignal, preambles: list[np.ndarray]) -> list[tuple[int, int]]:
    """Correlation argmax offset for each UE's preamble in a composite signal.

    Returns (ue_id, offset) pairs in UE order; the spread max - min of the
    offsets measures how far apart the uplink arrivals landed.
    """
    if not preambles:
        raise ValueError("need at least one preamble")
    out = []
    for ue, p in enumerate(preambles):
        offset, _ = detect_frame(signal, p)
        out.append((ue, offset))
    return out


def spread_of(offsets: list[tuple[int, int]]) -> int:
    """max - min helper over (ue, offset) pairs."""
    vals = [o for _, o in offsets]
    return max(vals) - min(vals)
