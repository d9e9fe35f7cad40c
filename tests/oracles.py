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
- ``propagated_gap``: the ota - digital model gap of every round, from the
  round errors alone, which the two runs' models must reproduce.
"""

from __future__ import annotations

import numpy as np

from otafl import fl
from otafl.accounting import SpectralProfile, digital_slots
from otafl.grid import GridConfig, TimeSignal, detect_frame
from otafl.ota import train_configs
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


def propagated_gap(tasks: list[fl.Task], template: fl.TrainConfig, master_seed: int,
                   errors: list[np.ndarray]) -> list[np.ndarray]:
    """The gap theta_ota - theta_digital after each round, from the round
    errors ``errors`` (recovered update minus exact average) alone.

    Under SGD on the linear task one client's local training is affine in
    the global model, theta -> A theta + b, with A and b set by its data and
    the round's training seeds, which do not depend on the mode.  The b
    terms cancel in the gap, so d_0 = 0 and d_{t+1} = A_t d_t + e_t, where
    A_t d is the mean over clients of ``local_train(d, .)`` on the same
    features with zero targets.
    """
    zero = [fl.Task(t.kind, t.features, np.zeros_like(t.targets)) for t in tasks]
    gap, gaps = np.zeros(tasks[0].param_count), []
    for r, error in enumerate(errors):
        cfgs = train_configs(template, len(tasks), master_seed, r)
        gap = fl.average_deltas([fl.local_train(gap, t, c) for t, c in zip(zero, cfgs)]) + error
        gaps.append(gap)
    return gaps
