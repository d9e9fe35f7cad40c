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
- ``detect_frame_one_window``: the one-window search that
  ``grid.detect_frame`` must reproduce bit for bit in each of its windows.
- ``interpolate_each_client``: comb interpolation with two ``np.interp``
  calls per client, which ``csi.interpolate`` must reproduce bit for bit.
- ``payload_frame_per_delay``: the payload event with one modulation call
  per distinct delay, which ``ota._payload_frame`` must reproduce bit for
  bit.
- ``receive_each_event``: a receive stage with one noising and one
  detection pass per event, each event's noise power read over every
  sample after its preamble region, which ``ota._receive`` must reproduce
  bit for bit.
- ``peak_spread`` and ``spread_of``: each client's correlation-peak offset
  in a composite signal, and their spread.
- ``propagated_gap``: the ota - digital model gap of every round, from the
  round errors alone, which the two runs' models must reproduce.
- ``gap_share``: the share of the final ota - digital loss gap that the
  errors of some rounds carry.
"""

from __future__ import annotations

import itertools

import numpy as np

from otafl import fl
from otafl.accounting import SpectralProfile, digital_slots
from otafl.grid import PREAMBLE_LEN, GridConfig, TimeSignal, detect_frame, ofdm_modulate_into
from otafl.ota import PhyConfig, _Event, _preamble_bank
from otafl.precode import compute_alpha
from otafl.scenario import KEYMAP, Scenario
from otafl.weightcodec import pack_payload, payload_symbols, rail_divisors, slot_plan


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


def detect_frame_one_window(signal: TimeSignal, preamble: np.ndarray) -> tuple[int, float]:
    """Correlation-based frame start detection in one window.

    Returns ``(offset, peak_metric)`` where ``offset`` maximizes the squared
    correlation normalized by the windowed signal energy and
    ``peak_metric`` is that normalized value, clamped to 1.
    """
    p = np.asarray(preamble, dtype=np.complex128)
    s = signal.samples
    if s.size < p.size:
        raise ValueError("signal shorter than preamble")
    corr = np.correlate(s, p, mode="valid")
    csum = np.zeros(s.size + 1)
    np.cumsum(np.abs(s) ** 2, out=csum[1:])
    window_energy = csum[p.size:] - csum[:-p.size]
    denom = window_energy * (np.abs(p) ** 2).sum()
    ratio = np.divide(
        np.abs(corr) ** 2, denom,
        out=np.zeros(corr.size), where=denom > 0.0,
    )
    offset = int(ratio.argmax())
    return offset, min(float(ratio[offset]), 1.0)


def interpolate_each_client(row: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Fill one gain per subcarrier for every client from one pilot row,
    one client at a time: linear in frequency between the client's pilots
    (where the boolean row ``masks[ue]`` is true), real and imaginary parts
    separately, with the ends held at its outermost pilot values."""
    row = np.asarray(row, dtype=np.complex128)
    masks = np.asarray(masks, dtype=bool)
    if masks.ndim != 2 or row.shape != masks.shape[1:]:
        raise ValueError("the pilot row must be as long as each client's mask")
    if not masks.any(axis=1).all():
        raise ValueError("every client needs at least one pilot")
    query = np.arange(row.size)
    out = np.empty(masks.shape, dtype=np.complex128)
    for ue, mask in enumerate(masks):
        nodes, pilots = query[mask], row[mask]
        out[ue] = np.interp(query, nodes, pilots.real) + 1j * np.interp(query, nodes, pilots.imag)
    return out


def payload_frame_per_delay(
    ues: range,
    phy: PhyConfig,
    gains: np.ndarray,
    offsets: np.ndarray,
    deltas: list[np.ndarray],
    scales: tuple[float, float],
    divisor: np.ndarray,
    chips: np.ndarray,
    peaks: np.ndarray | None,
) -> tuple[_Event, float, np.ndarray, np.ndarray]:
    """The noise-free payload event of the clients in ``ues``, its alpha,
    the precoded peaks and the per-subcarrier peaks, built one distinct
    delay at a time: the clients are walked by delay, in ascending order,
    and within a delay in ascending order, each packed into one of two
    reused blocks and precoded by gain / divisor, the delay's blocks summed
    into its first, and that sum modulated by its own call and added into
    the buffer.  The sum is scaled by alpha once and the chips added after."""
    run = slice(ues.start, ues.stop)
    cfg = phy.grid
    used = payload_symbols(deltas[0].size, cfg)
    delays = offsets[run]
    event = _Event(phy, ues, delays, slot_plan(deltas[0].size, cfg) * cfg.symbols_per_slot)
    g = gains[run]
    precode = g * (1.0 / divisor[run])  # reciprocal first: g / divisor rounds differently
    deltas = deltas[run]
    per_real = rail_divisors(scales, deltas[0].size)
    fresh = peaks is None
    if fresh:
        peaks = np.empty(g.shape)
    acc, scratch = np.empty((2, used, cfg.subcarriers), dtype=np.complex128)
    symbols = np.empty((used, cfg.symbol_len), dtype=np.complex128)
    delay_of = delays.tolist().__getitem__
    for _, group in itertools.groupby(sorted(range(len(ues)), key=delay_of), key=delay_of):
        group = list(group)
        for k, i in enumerate(group):
            row = pack_payload(deltas[i], per_real, scratch if k else acc)
            if fresh:
                np.max(np.abs(row), axis=0, out=peaks[i])
            row *= precode[i]
            if k:
                acc += row
        ofdm_modulate_into(acc, cfg, symbols)
        event.add_body(group[0], symbols, used)
    peaks.flags.writeable = False
    alpha, largest = compute_alpha(peaks, divisor[run])
    event.scale_bodies(alpha, used)  # every nonzero sample so far
    for i, row in enumerate(chips[run]):
        event.add_chips(i, row)
    return event, alpha, largest, peaks


def receive_one_event(event: _Event, noise: np.random.Generator,
                      symbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise ``event``'s buffer in place for a read of ``symbols`` symbols,
    its noise power read over every sample after its preamble region, and
    detect its clients' preambles in one pass over a view of its buffer:
    offsets and metrics in ``ues`` order."""
    cfg, bound = event.phy.grid, event.bound
    if event.phy.uplink_snr_db is not None:
        info = event.rx[event.region:]
        power = np.abs(info)
        power *= power
        variance = float(power.sum()) / info.size / 10.0 ** (event.phy.uplink_snr_db / 10.0)
        noised = event.rx[:bound + event.region + symbols * cfg.symbol_len]
        samples = noise.standard_normal(2 * noised.size)  # a share lends a read-only view
        samples = np.multiply(samples, np.sqrt(variance / 2.0),
                              out=samples if samples.flags.writeable else None)
        noised += samples.view(np.complex128)
    end = (len(event.ues) - 1) * event.slot + bound + PREAMBLE_LEN
    windows = np.ndarray(end, dtype=event.rx.dtype, buffer=event.rx)  # raises past the buffer
    return detect_frame(TimeSignal(windows, cfg.sample_rate),
                        _preamble_bank()[event.ues.start:event.ues.stop], event.slot)


def receive_each_event(events: list[_Event], noise: np.random.Generator,
                       symbols: int) -> tuple[np.ndarray, np.ndarray]:
    """A receive stage one event at a time: each event noised and searched
    by :func:`receive_one_event` in turn, its clients' offsets and metrics
    written into the stage's arrays, in client order."""
    clients = events[-1].ues.stop - events[0].ues.start
    offsets = np.zeros(clients, dtype=np.int64)
    metrics = np.zeros(clients)
    for event in events:
        run = slice(event.ues.start - events[0].ues.start, event.ues.stop - events[0].ues.start)
        offsets[run], metrics[run] = receive_one_event(event, noise, symbols)
    return offsets, metrics


def peak_spread(signal: TimeSignal, preambles: list[np.ndarray]) -> list[tuple[int, int]]:
    """Correlation argmax offset for each UE's preamble in a composite signal.

    Returns (ue_id, offset) pairs in UE order; the spread max - min of the
    offsets measures how far apart the uplink arrivals landed.
    """
    if not preambles:
        raise ValueError("need at least one preamble")
    offsets, _ = detect_frame(signal, np.stack(preambles))  # every window is the whole signal
    return [(ue, int(offset)) for ue, offset in enumerate(offsets)]


def spread_of(offsets: list[tuple[int, int]]) -> int:
    """max - min helper over (ue, offset) pairs."""
    vals = [o for _, o in offsets]
    return max(vals) - min(vals)


def propagated_gap(tasks: list[fl.Task], template: fl.TrainConfig,
                   errors: list[np.ndarray]) -> list[np.ndarray]:
    """The gap theta_ota - theta_digital after each round, from the round
    errors ``errors`` (recovered update minus exact average) alone.

    Under full-batch gradient descent on the linear task one client's local
    training is affine in the global model, theta -> A theta + b, with A and
    b set by its data and ``template``, which do not depend on the mode.
    The b terms cancel in the gap, so d_0 = 0 and d_{t+1} = A d_t + e_t,
    where A d is the mean over clients of ``local_train(d, .)`` on the same
    features with zero targets.
    """
    zero = [fl.Task(t.features, np.zeros_like(t.targets)) for t in tasks]
    gap, gaps = np.zeros(tasks[0].param_count), []
    for error in errors:
        gap = fl.average_deltas([fl.local_train(gap, t, template) for t in zero]) + error
        gaps.append(gap)
    return gaps


def gap_share(tasks: list[fl.Task], template: fl.TrainConfig,
              errors: list[np.ndarray], rounds: set[int], theta_ota: np.ndarray,
              theta_digital: np.ndarray) -> float:
    """The share of the final loss gap L(theta_ota) - L(theta_digital) that
    the errors of the rounds ``rounds`` carry, L being the clients' mean loss.

    L is quadratic in the model, so L(theta_o) - L(theta_d) = Delta .
    (grad L(theta_o) + grad L(theta_d)) / 2 exactly, for Delta = theta_o -
    theta_d.  Delta is linear in the round errors (``propagated_gap``), so
    this share is the gap those rounds' errors propagate alone, dotted with
    that mean gradient, over the loss gap; the shares of a partition of the
    rounds sum to 1.
    """
    def loss_and_grad(theta):
        losses, grads = zip(*[fl.loss_and_grad(theta, t) for t in tasks])
        return float(np.mean(losses)), np.mean(grads, axis=0)

    kept = [e if r in rounds else np.zeros_like(e) for r, e in enumerate(errors)]
    delta = propagated_gap(tasks, template, kept)[-1]
    (loss_o, grad_o), (loss_d, grad_d) = loss_and_grad(theta_ota), loss_and_grad(theta_digital)
    return float(delta @ ((grad_o + grad_d) / 2)) / (loss_o - loss_d)
