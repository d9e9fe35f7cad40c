"""End-to-end analog-aggregation rounds and experiment loops.

One uplink round, as simulated here:

1.  Every client trains locally and forms a delta update against the
    current global model.
2.  Clients agree (over an error-free control channel) on a common pair of
    I/Q peak scales so the analog sum can be descaled without bias.
3.  A sounding pass carries known pilots through each client's channel.
    The receiver locks its frame timing to the earliest detected preamble
    and estimates every client's *effective* channel at that common
    reference -- the estimate then absorbs both the fading gain and the
    per-client timing phase ramp, so channel inversion pre-compensates
    residual sample offsets that fall inside the cyclic prefix.  The
    estimates are one ``(clients, subcarriers)`` array, and each estimation
    stage (least squares, interpolation, quantization) is one call for all
    clients.
4.  Every client's update is scaled straight into its row of one
    ``(clients, payload symbols, subcarriers)`` block, and the block is
    divided by the floored estimates in one call.  The shared power-control
    factor alpha comes from each row's peak; the clients then scale,
    modulate and transmit simultaneously.  The multiple-access channel
    sums them in the air, so each client's delayed frame is added straight
    into the one receive buffer of the event.
5.  The receiver detects the superposed frame, demodulates the payload,
    descales by M * alpha and the shared peak scales, and applies the
    recovered average update to the global model.

Each client prepends its own Gold preamble in a dedicated time slot of the
preamble region (staggered, like sounding reference signals), keeping the
normalized detection metric meaningful per client.  Pilot subcarriers are
either interleaved combs (one superposed sounding frame, suited to
frequency-flat channels) or full-band per-client sounding frames
(one frame per client, required when the channel decorrelates across
subcarriers).
"""

from __future__ import annotations

import functools
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import fl
from .accounting import (
    DEFAULT_SPECTRAL_EFFICIENCY,
    EnergyModel,
    SpectralProfile,
    digital_slots,
    round_energy,
)
from .channel import ChannelModel, decorrelate, realize_channel
from .csi import ChannelEstimate, interpolate, ls_estimate, nmse, quantize_estimate
from .grid import (
    GridConfig,
    ResourceGrid,
    TimeSignal,
    detect_frame,
    gold_sequence,
    make_pilot_values,
    ofdm_demodulate,
    ofdm_modulate_into,
    subcarrier_bins,
)
from .precode import (
    DEFAULT_FLOOR_REL,
    MARGIN,
    PEAK_POWER,
    compute_alpha,
    inversion_divisor,
    inversion_floor,
)
from .sync import SyncConfig, draw_offsets, draw_phase_offsets, offset_bound
from .weightcodec import component_peaks, shared_peaks, slot_plan, unmap_from_grids

CSI_MODES = ("estimated", "perfect")
PILOT_ALLOCATIONS = ("fdm_comb", "tdm_full")
SCALE_MODES = ("common", "per_client")
MODES = ("ota", "digital_fp32", "digital_int8")

DETECT_THRESHOLD = 0.3
# Per-client preambles: degree-7 Gold family, 129 sequences of 127 chips.
PREAMBLE_DEGREE = 7
PREAMBLE_LEN = 2**PREAMBLE_DEGREE - 1
PREAMBLE_FAMILY = 2**PREAMBLE_DEGREE + 1

# Stream tags for deterministic seed derivation.
_TAG_INIT = 11
_TAG_DATA = 12
_TAG_TRAIN = 13
_TAG_CHANNEL = 14
_TAG_DECORR = 15
_TAG_SYNC = 16
_TAG_PHASE = 17
_TAG_NOISE_SOUND = 18
_TAG_NOISE_PAYLOAD = 19


def derive_seed(*parts: int) -> np.random.SeedSequence:
    """Stable child seed for a (master, round, ue, purpose) tuple."""
    return np.random.SeedSequence(list(parts))


def data_seeds(master_seed: int, ue: int):
    """(shared, per-client) dataset seeds; fixed per master seed, not per round."""
    return derive_seed(master_seed, _TAG_DATA), derive_seed(master_seed, ue, _TAG_DATA)


@dataclass(frozen=True)
class PhyConfig:
    """Everything the physical layer needs for one experiment.

    ``peak_power`` is ``precode.PEAK_POWER``, the constant power budget of
    every resource element, not a knob.
    """

    peak_power: ClassVar[float] = PEAK_POWER

    grid: GridConfig = GridConfig()
    channel: ChannelModel = ChannelModel()
    sync: SyncConfig = SyncConfig()
    floor_rel: float = DEFAULT_FLOOR_REL
    csi_mode: str = "estimated"
    pilot_allocation: str = "fdm_comb"
    scale_mode: str = "common"
    uplink_snr_db: float | None = 20.0
    decorrelation: float = 0.0
    feedback_quant_bits: int = 0

    def __post_init__(self):
        if self.csi_mode not in CSI_MODES:
            raise ValueError(f"unknown csi_mode {self.csi_mode!r}")
        if self.pilot_allocation not in PILOT_ALLOCATIONS:
            raise ValueError(f"unknown pilot_allocation {self.pilot_allocation!r}")
        if self.scale_mode not in SCALE_MODES:
            raise ValueError(f"unknown scale_mode {self.scale_mode!r}")
        if not self.floor_rel >= 0:
            raise ValueError("floor_rel must be >= 0")
        if not 0 <= self.decorrelation <= 1:
            raise ValueError("decorrelation must lie in [0, 1]")
        if self.uplink_snr_db is not None and not np.isfinite(self.uplink_snr_db):
            raise ValueError("uplink_snr_db must be finite, or None for no noise")

    @property
    def preamble_slot_len(self) -> int:
        """Preamble plus a guard gap, so one user's late arrival does not
        leak into the next user's correlation window and distort its
        normalized detection metric (ruinous under near-far power spreads)."""
        return PREAMBLE_LEN + self.grid.cp_len

    def preamble_region_len(self, num_ues: int) -> int:
        return num_ues * self.preamble_slot_len

    @property
    def reference_amplitude(self) -> float:
        """Amplitude of preamble/pilot parts: stays inside the power budget."""
        return MARGIN * np.sqrt(PEAK_POWER)


@dataclass
class AggregateReport:
    """Everything observable about one analog aggregation."""

    recovered: np.ndarray
    exact_avg: np.ndarray
    alpha: float
    slots: int
    aborted: bool
    abort_reason: str
    agg_nmse_db: float
    offsets: np.ndarray
    peak_metrics: np.ndarray
    max_re_power: np.ndarray
    shared_scales: tuple[float, float]


@dataclass
class RoundTrace:
    """Per-round record emitted by experiments."""

    round_index: int
    mode: str
    agg_nmse_db: float
    loss_per_ue: np.ndarray
    global_loss: float
    alpha: float
    slots_used: int
    energy_j: float
    aborted: bool = False


@dataclass
class ExperimentResult:
    mode: str
    traces: list[RoundTrace]
    final_theta: np.ndarray

    @property
    def total_slots(self) -> int:
        return sum(t.slots_used for t in self.traces)

    @property
    def total_energy_j(self) -> float:
        return sum(t.energy_j for t in self.traces)

    @property
    def all_aborted(self) -> bool:
        return all(t.aborted for t in self.traces)


def _map_ues(fn, items):
    """Apply ``fn`` per UE, optionally on a small thread pool.

    The worker count comes from the OTAFL_THREADS environment variable and
    never changes results: every item is independent and seeded, and the
    output order is fixed.
    """
    workers = int(os.environ.get("OTAFL_THREADS", "1"))
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@functools.cache
def _preamble_bank() -> np.ndarray:
    """Every client's Gold preamble, one read-only row per family member."""
    bank = np.stack([gold_sequence(PREAMBLE_DEGREE, k, PREAMBLE_LEN)
                     for k in range(PREAMBLE_FAMILY)])
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=None)
def _pilot_values(subcarriers: int) -> np.ndarray:
    """Read-only pilot symbol of a grid width, shared by both link ends."""
    pilots = make_pilot_values(subcarriers)
    pilots.flags.writeable = False
    return pilots


def _superposed_frame(
    ues: Sequence[int],
    num_ues: int,
    phy: PhyConfig,
    gains: np.ndarray,
    phases: np.ndarray,
    masks: np.ndarray,
    offsets: np.ndarray,
    pilot_symbols: int,
    payload: np.ndarray | None = None,
    alpha: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free receive buffer of one event: the post-channel frames of
    the clients ``ues``, a run of consecutive clients in ascending order,
    each delayed by its ``offsets[ue]`` and summed in the air.

    A client's frame is its Gold preamble in its own slot of the preamble
    region, ``pilot_symbols`` OFDM symbols of its pilot row and then, when
    ``payload`` is given, the symbols of its precoded block ``payload[ue]``.
    ``gains``, ``masks`` and ``payload`` hold one row per client.  Sounding
    frames repeat the pilot row so the receiver can average down the
    estimation noise; payload frames carry one pilot symbol.  Each payload
    block is scaled by ``alpha`` and faded in place.

    Fading is applied per subcarrier in the frequency domain; the preamble
    burst, which is a raw time-domain sequence, is scaled by the channel's
    RMS gain instead (a scalar stand-in that preserves detection power).

    Every client's RMS gain, preamble chips and pilot row are built as one
    array each, and all pilot rows are modulated in one call.  The buffer
    spans the latest arrival.  Clients are then added one at a time in
    ascending order -- the preamble chips, then the pilot-and-payload body
    in one scratch block every client reuses -- so each sample sums its
    clients in that order and the silent stretches of a frame are never
    added.  Also returns each client's peak resource-element power before
    fading: its scaled payload's or the reference power of preamble and
    pilots, whichever is higher.
    """
    if ues[-1] - ues[0] + 1 != len(ues):
        raise ValueError("an event sends a run of consecutive clients")
    run = slice(ues[0], ues[-1] + 1)
    cfg = phy.grid
    region = phy.preamble_region_len(num_ues)
    body = pilot_symbols + (0 if payload is None else payload.shape[1])
    frame_len = region + body * cfg.symbol_len
    rx = np.zeros(int(offsets[run].max()) + frame_len, dtype=np.complex128)
    symbols = np.empty((body, cfg.symbol_len), dtype=np.complex128)
    amp = phy.reference_amplitude
    g = gains[run]
    rot = np.exp(1j * phases[run])[:, np.newaxis]
    rms_gain = np.sqrt(np.mean(np.abs(g) ** 2, axis=1))
    chips = (amp * rms_gain)[:, np.newaxis] * _preamble_bank()[run] * rot
    pilot_rows = masks[run] * (amp * _pilot_values(cfg.subcarriers))
    pilot_rows *= g
    pilot_rows *= rot
    pilots = np.empty((len(ues), cfg.symbol_len), dtype=np.complex128)
    ofdm_modulate_into(pilot_rows, cfg, pilots)
    peaks = np.full(len(ues), amp**2)
    for i, ue in enumerate(ues):
        delay = int(offsets[ue])
        lo = delay + ue * phy.preamble_slot_len
        rx[lo:lo + PREAMBLE_LEN] += chips[i]
        symbols[:pilot_symbols] = pilots[i]
        if payload is not None:
            data = payload[ue]
            data *= alpha
            largest = float(np.max(np.abs(data)))
            peaks[i] = max(largest * largest, peaks[i])
            data *= g[i]
            data *= rot[i]
            ofdm_modulate_into(data, cfg, symbols[pilot_symbols:])
        rx[delay + region:delay + frame_len] += symbols.reshape(-1)
    return rx, peaks


def _receive(
    rx: np.ndarray,
    ues: Sequence[int],
    phy: PhyConfig,
    info_start: int,
    seed,
) -> tuple[TimeSignal, np.ndarray, np.ndarray]:
    """One receive event: add the receiver noise to the superposed buffer
    ``rx`` in place and detect the preamble of every client in ``ues``.

    The noise pins ``phy.uplink_snr_db`` to the mean power of the noise-free
    superposition from ``info_start`` on -- the pilot symbols for sounding
    events, the payload slots for data events.  Pegging to the whole event
    would let the strong constant-amplitude preamble dominate the reference
    power, so a payload attenuated by power control would see a far worse
    SNR than the knob claims.  The noise is one draw of twice the buffer
    length: the real parts first, then the imaginary parts.

    Each client's preamble can only start in its own slot of the preamble
    region, at most ``offset_bound(phy.sync)`` samples late, so each client
    is searched only within ``offset_bound + PREAMBLE_LEN`` samples of its
    slot start: the argmax in that window is its arrival offset.  Offsets
    and detection metrics come back in ``ues`` order.
    """
    if phy.uplink_snr_db is not None:
        info = rx[info_start:]
        power = float((np.abs(info) ** 2).sum()) / info.size
        variance = power / 10.0 ** (phy.uplink_snr_db / 10.0)
        noise = np.random.default_rng(seed).standard_normal(2 * rx.size)
        noise *= np.sqrt(variance / 2.0)
        real, imag = rx.real, rx.imag
        real += noise[:rx.size]
        imag += noise[rx.size:]
    span = offset_bound(phy.sync, phy.grid.sample_rate) + PREAMBLE_LEN
    offsets = np.zeros(len(ues), dtype=np.int64)
    metrics = np.zeros(len(ues))
    for i, ue in enumerate(ues):
        lo = ue * phy.preamble_slot_len
        window = TimeSignal(rx[lo:lo + span], phy.grid.sample_rate)
        offsets[i], metrics[i] = detect_frame(window, _preamble_bank()[ue])
    return TimeSignal(rx, phy.grid.sample_rate), offsets, metrics


def _pilot_positions(ue: int, num_ues: int, cfg: GridConfig, allocation: str) -> np.ndarray:
    if allocation == "tdm_full":
        return np.arange(cfg.subcarriers)
    return np.arange(ue, cfg.subcarriers, num_ues)


def _phase_ramp(cfg: GridConfig, delay) -> np.ndarray:
    """Per-subcarrier rotation caused by sampling ``delay`` samples early;
    ``delay`` may be a column of one delay per client."""
    bins = subcarrier_bins(cfg)
    return np.exp(-2j * np.pi * bins * delay / cfg.fft_size)


def ota_aggregate(
    deltas: list[np.ndarray],
    phy: PhyConfig,
    master_seed: int = 0,
    round_index: int = 0,
) -> AggregateReport:
    """Carry client updates through the full analog uplink once.

    Returns the recovered average update together with the exact digital
    average, power-control and detection diagnostics.  A detection metric
    below ``DETECT_THRESHOLD`` for any client aborts the round: the
    recovered update is zero and the caller leaves the global model
    unchanged.
    """
    num_ues = len(deltas)
    cfg = phy.grid
    if num_ues < 1:
        raise ValueError("need at least one UE")
    if num_ues > PREAMBLE_FAMILY:
        raise ValueError("more UEs than Gold sequences in the preamble family")
    if phy.pilot_allocation == "fdm_comb" and num_ues > cfg.subcarriers:
        raise ValueError("comb pilots need num_ues <= subcarriers")
    param_count = deltas[0].size
    for d in deltas:
        if d.shape != (param_count,):
            raise ValueError("all deltas must be equal-length vectors")
    plan = slot_plan(param_count, cfg)
    exact_avg = fl.average_deltas(deltas)

    def _report(recovered, alpha, aborted, reason, offsets, metrics, powers, scales):
        if float(np.sum(np.abs(exact_avg) ** 2)) == 0.0:
            agg = -300.0 if np.array_equal(recovered, exact_avg) else 0.0
        else:
            agg = nmse(recovered, exact_avg)
        return AggregateReport(
            recovered, exact_avg, alpha, plan.slots, aborted, reason,
            agg, offsets, metrics, powers, scales,
        )

    # --- common scale negotiation (error-free control channel) -----------
    if phy.scale_mode == "common":
        client_scales = [shared_peaks(deltas)] * num_ues
        descale = client_scales[0]
    else:
        client_scales = [component_peaks(d) for d in deltas]
        # receiver cannot undo per-client scales after the analog sum; it
        # descales with their mean, which reproduces the bias of that variant
        descale = (
            float(np.mean([s[0] for s in client_scales])),
            float(np.mean([s[1] for s in client_scales])),
        )

    zeros = np.zeros(param_count)
    no_metrics = np.zeros(num_ues)
    if all(float(np.max(np.abs(d))) == 0.0 for d in deltas):
        # nothing to send: skip the air interface, deliver the exact zero
        return _report(zeros.copy(), 0.0, False, "", np.zeros(num_ues, dtype=np.int64),
                       no_metrics, no_metrics.copy(), descale)

    # --- channel realizations and timing offsets -------------------------
    gains = np.stack([
        realize_channel(
            phy.channel, cfg.subcarriers, derive_seed(master_seed, round_index, ue, _TAG_CHANNEL)
        )
        for ue in range(num_ues)
    ])
    # at zero decorrelation the payload sees the sounding gains; skip the seeds
    payload_gains = gains if phy.decorrelation == 0.0 else np.stack([
        decorrelate(g, phy.channel, phy.decorrelation,
                    derive_seed(master_seed, round_index, ue, _TAG_DECORR))
        for ue, g in enumerate(gains)
    ])
    offsets = draw_offsets(
        phy.sync, num_ues, cfg.sample_rate,
        seed=derive_seed(master_seed, round_index, _TAG_SYNC),
    )
    phases = draw_phase_offsets(
        phy.sync, num_ues, seed=derive_seed(master_seed, round_index, _TAG_PHASE)
    )

    # --- sounding pass: effective-channel estimates at a common reference -
    pilots = [_pilot_positions(ue, num_ues, cfg, phy.pilot_allocation) for ue in range(num_ues)]
    masks = np.zeros((num_ues, cfg.subcarriers))
    for ue, pos in enumerate(pilots):
        masks[ue, pos] = 1.0

    if phy.csi_mode == "perfect":
        ramps = _phase_ramp(cfg, offsets[:, np.newaxis] - int(offsets.min()))
        estimate = ChannelEstimate(
            payload_gains * ramps * np.exp(1j * phases)[:, np.newaxis])
    else:
        # Comb pilots share one superposed sounding frame; full-band pilots
        # need one frame per client.
        if phy.pilot_allocation == "fdm_comb":
            events = [(range(num_ues),
                       derive_seed(master_seed, round_index, _TAG_NOISE_SOUND))]
        else:
            events = [(range(ue, ue + 1),
                       derive_seed(master_seed, round_index, ue, _TAG_NOISE_SOUND))
                      for ue in range(num_ues)]
        s_offsets = np.zeros(num_ues, dtype=np.int64)
        s_metrics = np.zeros(num_ues)
        received = []
        for ues, seed in events:
            frame, _ = _superposed_frame(ues, num_ues, phy, gains, phases, masks, offsets,
                                         cfg.symbols_per_slot)
            rx, s_offsets[ues], s_metrics[ues] = _receive(
                frame, ues, phy, phy.preamble_region_len(num_ues), seed)
            received.append(rx)
        if np.any(s_metrics < DETECT_THRESHOLD):
            # every client did send its preamble and pilots at the reference power
            return _report(zeros.copy(), 0.0, True, "sounding detection failed",
                           s_offsets, s_metrics,
                           np.full(num_ues, phy.reference_amplitude**2), descale)
        # Every event is read at the earliest client's timing, so the
        # estimates absorb each client's residual offset as a phase ramp.
        # One pilot row per event: the comb's single row holds every
        # client's pilots, the full band's rows one client each.
        pilot_start = int(s_offsets.min()) + phy.preamble_region_len(num_ues)
        rows = np.stack([
            ofdm_demodulate(rx, cfg, max(0, min(pilot_start, rx.samples.size - cfg.slot_len)))
            .data.mean(axis=0)
            for rx in received
        ])
        del received  # free the sounding buffers before the payload block
        raw = ls_estimate(rows, phy.reference_amplitude * _pilot_values(cfg.subcarriers))
        if phy.pilot_allocation == "fdm_comb":
            raw = [raw[0, pos] for pos in pilots]
        estimate = quantize_estimate(interpolate(raw, pilots, cfg), phy.feedback_quant_bits)

    # --- precode, shared power control ------------------------------------
    # Each client's update is scaled straight into its block of payload
    # symbols, seen as interleaved reals (even -> I, odd -> Q), and the whole
    # block is divided by the floored estimates; compute_alpha checks that
    # the result is finite.
    payload = np.empty((num_ues, plan.slots * cfg.symbols_per_slot, cfg.subcarriers),
                       dtype=np.complex128)
    reals = payload.reshape(num_ues, -1).view(np.float64)
    for ue, (d, (scale_i, scale_q)) in enumerate(zip(deltas, client_scales)):
        d = np.asarray(d, dtype=np.float64)
        np.divide(d[0::2], scale_i, out=reals[ue, 0:param_count:2])
        np.divide(d[1::2], scale_q, out=reals[ue, 1:param_count:2])
    reals[:, param_count:] = 0.0
    divisor = inversion_divisor(estimate, inversion_floor(estimate, phy.floor_rel))
    payload /= divisor[:, np.newaxis, :]
    alpha = compute_alpha(payload)

    # --- simultaneous payload transmission --------------------------------
    ues = range(num_ues)
    frame, max_re_power = _superposed_frame(ues, num_ues, phy, payload_gains, phases, masks,
                                            offsets, 1, payload, alpha)
    rx, p_offsets, p_metrics = _receive(
        frame, ues, phy, phy.preamble_region_len(num_ues) + cfg.symbol_len,
        derive_seed(master_seed, round_index, _TAG_NOISE_PAYLOAD),
    )
    if np.any(p_metrics < DETECT_THRESHOLD):
        return _report(zeros.copy(), 0.0, True, "payload detection failed",
                       p_offsets, p_metrics, max_re_power, descale)
    start = int(p_offsets.min())
    frame_body = (1 + plan.slots * cfg.symbols_per_slot) * cfg.symbol_len
    latest = rx.samples.size - (phy.preamble_region_len(num_ues) + frame_body)
    start = max(0, min(start, latest))

    # --- demodulate, descale, compare -------------------------------------
    rx_grids = []
    base = start + phy.preamble_region_len(num_ues) + cfg.symbol_len
    for s in range(plan.slots):
        g = ofdm_demodulate(rx, cfg, base + s * cfg.slot_len)
        rx_grids.append(ResourceGrid(g.data / (num_ues * alpha)))
    recovered = unmap_from_grids(rx_grids, plan, descale, cfg)
    return _report(recovered, alpha, False, "", p_offsets, p_metrics, max_re_power, descale)


# ---------------------------------------------------------------------------
# experiment loops


def initial_state(tasks: list[fl.Task], master_seed: int) -> fl.RoundState:
    """Fresh global model shared by every aggregation mode at this seed."""
    counts = {t.param_count for t in tasks}
    if len(counts) != 1:
        raise ValueError("all tasks must share one parameter count")
    theta0 = fl.init_params(
        tasks[0], seed=int(derive_seed(master_seed, _TAG_INIT).generate_state(1)[0])
    )
    return fl.RoundState(theta0, 0)


def train_configs(
    template: fl.TrainConfig, num_ues: int, master_seed: int, round_index: int
) -> list[fl.TrainConfig]:
    """Per-UE training configs with seeds derived from (master, round, ue).

    The derivation never involves the aggregation mode, so digital and
    analog runs at one master seed train on identical minibatch orders.
    """
    return [
        replace(
            template,
            seed=int(derive_seed(master_seed, round_index, ue, _TAG_TRAIN).generate_state(1)[0]),
        )
        for ue in range(num_ues)
    ]


def round_updates(
    state: fl.RoundState,
    tasks: list[fl.Task],
    template: fl.TrainConfig,
    master_seed: int,
) -> list[np.ndarray]:
    """Local training for one round; returns the per-UE delta updates."""
    return _train_deltas(
        state, tasks, train_configs(template, len(tasks), master_seed, state.round_index)
    )


def _train_deltas(
    state: fl.RoundState, tasks: list[fl.Task], train_cfgs: list[fl.TrainConfig]
) -> list[np.ndarray]:
    """Every client trains from the global model and returns its delta.

    A client starts from its carried full-batch gradient in
    ``state.grads`` when there is one.
    """
    grads = state.grads
    if grads is not None and len(grads) != len(tasks):
        raise ValueError(f"state carries {len(grads)} gradients for {len(tasks)} tasks")
    locals_ = _map_ues(
        lambda ue: fl.local_train(
            state.theta, tasks[ue], train_cfgs[ue], None if grads is None else grads[ue]
        ),
        list(range(len(tasks))),
    )
    return [fl.compute_delta(loc, state.theta) for loc in locals_]


def _finish_round(
    state: fl.RoundState,
    tasks: list[fl.Task],
    update: np.ndarray,
    aborted: bool,
    **trace_fields,
) -> tuple[fl.RoundState, RoundTrace]:
    """Apply the aggregated update, evaluate every client and record the round.

    An aborted round leaves the global model unchanged.  The evaluation's
    full-batch gradients ride along in the returned state for the next
    round's first training step.
    """
    new_theta = state.theta.copy() if aborted else fl.apply_global(state.theta, update)
    losses, grads = zip(*_map_ues(lambda t: fl.loss_and_grad(new_theta, t), tasks))
    loss_per_ue = np.array(losses)
    trace = RoundTrace(
        round_index=state.round_index,
        loss_per_ue=loss_per_ue,
        global_loss=float(np.mean(loss_per_ue)),
        aborted=aborted,
        **trace_fields,
    )
    return fl.RoundState(new_theta, state.round_index + 1, grads), trace


def _int8_dequantize(delta: np.ndarray) -> np.ndarray:
    """Symmetric per-tensor int8: scale = max|delta| / 127."""
    peak = float(np.max(np.abs(delta)))
    if peak == 0.0:
        return np.zeros_like(delta)
    scale = peak / 127.0
    q = np.clip(np.round(delta / scale), -127, 127)
    return q * scale


def run_ota_round(
    state: fl.RoundState,
    tasks: list[fl.Task],
    train_cfgs: list[fl.TrainConfig],
    phy: PhyConfig,
    master_seed: int,
    energy_model: EnergyModel = EnergyModel(),
) -> tuple[fl.RoundState, RoundTrace]:
    """One full analog round: train, aggregate over the air, apply."""
    deltas = _train_deltas(state, tasks, train_cfgs)
    report = ota_aggregate(deltas, phy, master_seed, state.round_index)
    return _finish_round(
        state, tasks, report.recovered, report.aborted,
        mode="ota",
        agg_nmse_db=report.agg_nmse_db,
        alpha=report.alpha,
        slots_used=report.slots,
        energy_j=round_energy(len(tasks), report.slots, energy_model),
    )


def run_digital_round(
    state: fl.RoundState,
    tasks: list[fl.Task],
    train_cfgs: list[fl.TrainConfig],
    mode: str,
    profile: SpectralProfile,
    grid: GridConfig,
    energy_model: EnergyModel = EnergyModel(),
) -> tuple[fl.RoundState, RoundTrace]:
    """Digital FedAvg baseline round (fp32 exact or int8-quantized uploads)."""
    if mode not in ("digital_fp32", "digital_int8"):
        raise ValueError(f"not a digital mode: {mode!r}")
    deltas = _train_deltas(state, tasks, train_cfgs)
    exact = fl.average_deltas(deltas)
    if mode == "digital_int8":
        sent = fl.average_deltas([_int8_dequantize(d) for d in deltas])
        bits = 8
    else:
        sent = exact
        bits = 32
    agg_db = -300.0 if mode == "digital_fp32" else (
        nmse(sent, exact) if float(np.sum(np.abs(exact) ** 2)) > 0 else -300.0
    )
    slots = digital_slots(state.theta.size, bits, profile, grid)
    return _finish_round(
        state, tasks, sent, False,
        mode=mode,
        agg_nmse_db=agg_db,
        alpha=0.0,
        slots_used=slots,
        energy_j=(energy_model.fixed_overhead + slots) * energy_model.slot_energy_j,
    )


def run_experiment(
    mode: str,
    rounds: int,
    tasks: list[fl.Task],
    train_template: fl.TrainConfig,
    phy: PhyConfig,
    master_seed: int,
    profile: SpectralProfile | None = None,
    energy_model: EnergyModel = EnergyModel(),
) -> ExperimentResult:
    """Run ``rounds`` federated rounds in one aggregation mode.

    Training seeds are derived from (master seed, round, ue) only, so the
    local models -- and therefore the updates entering aggregation -- are
    identical across modes with the same master seed.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    num_ues = len(tasks)
    if num_ues < 1:
        raise ValueError("need at least one task")
    if profile is None:
        profile = SpectralProfile.uniform(DEFAULT_SPECTRAL_EFFICIENCY, num_ues)
    state = initial_state(tasks, master_seed)
    traces: list[RoundTrace] = []
    for r in range(rounds):
        cfgs = train_configs(train_template, num_ues, master_seed, r)
        if mode == "ota":
            state, trace = run_ota_round(state, tasks, cfgs, phy, master_seed, energy_model)
        else:
            state, trace = run_digital_round(
                state, tasks, cfgs, mode, profile, phy.grid, energy_model)
        traces.append(trace)
    return ExperimentResult(mode, traces, state.theta)
