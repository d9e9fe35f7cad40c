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
    stage (least squares, comb interpolation, quantization) is one call for
    all clients.
4.  The payload is sent in whole slots, but only its first
    ``weightcodec.payload_symbols`` OFDM symbols hold parameters; the rest
    is zero and is never built.  The codec packs one client's scaled update
    at a time into a reused block of those symbols, once per client.  The
    per-subcarrier peaks of the packed block are read, and the block is
    precoded by gain * phase / estimate (the floored estimate); clients
    that share a delay are summed in the frequency domain, and each
    distinct delay is modulated once and added into the event's one
    receive buffer, as the multiple-access channel sums them in the air.
    The peaks against the estimates give the shared power-control factor
    alpha, and since every client scales by the same alpha and the air sum
    is linear, the summed payload is scaled by alpha once before the
    preambles are added.
5.  The receiver adds noise from the round's one generator (the sounding
    events draw first) to the samples a read can touch -- every detection
    window and the parameter symbols at the latest start the read rule can
    pick -- with its power referenced to the whole noise-free payload
    slots.  It detects the superposed frame, demodulates the parameter
    symbols that follow the preamble region in one call, descales them by
    M * alpha and, through the codec, by the shared peak scales, and
    applies the recovered average update.

Each client prepends its own Gold preamble in a dedicated time slot of the
event's preamble region (staggered, like sounding reference signals),
keeping the normalized detection metric meaningful per client.  Pilot
subcarriers are either interleaved combs (one superposed sounding event,
suited to frequency-flat channels) or full band (one event per client
holding only its preamble slot and its pilot slot, required when the
channel decorrelates across subcarriers).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import fl
from .accounting import (
    DIGITAL_BITS,
    EnergyModel,
    SpectralProfile,
    round_bill,
)
from .channel import ChannelModel, decorrelate, realize_channel
from .csi import interpolate, ls_estimate, nmse, quantize_estimate, quantizer_levels
from .errors import FieldError, check_choice
from .grid import (
    PREAMBLE_FAMILY,
    PREAMBLE_LEN,
    GridConfig,
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
from .sync import SyncConfig, draw_offsets, draw_phase_offsets, offset_bound, offset_reach
from .weightcodec import (
    pack_payload,
    payload_symbols,
    peak_scales,
    rail_peaks,
    slot_plan,
    unmap_from_grids,
)

CSI_MODES = ("estimated", "perfect")
PILOT_ALLOCATIONS = ("fdm_comb", "tdm_full")
MODES = ("ota", *DIGITAL_BITS)

DETECT_THRESHOLD = 0.3

# Stream tags for deterministic seed derivation.
_TAG_INIT = 11
_TAG_DATA = 12
_TAG_TRAIN = 13
_TAG_CHANNEL = 14
_TAG_DECORR = 15
_TAG_SYNC = 16
_TAG_PHASE = 17
_TAG_NOISE = 18


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

    The largest timing offset ``sync`` can draw at the grid's sample rate
    (``sync.ptp_bound_s`` times the rate under PTP, ``sync.off_spread``
    without) may not exceed one slot, ``symbols_per_slot * symbol_len``
    samples (3808 on the default grid).  Every receive event is sized,
    noised and searched over that bound, so a larger one would only grow
    the buffers (a 1 THz subcarrier spacing asks for 2.56e8 samples under
    PTP) while each late client lands past the whole slot it was billed
    for, which the slotted uplink does not model.
    """

    peak_power: ClassVar[float] = PEAK_POWER

    grid: GridConfig = GridConfig()
    channel: ChannelModel = ChannelModel()
    sync: SyncConfig = SyncConfig()
    floor_rel: float = DEFAULT_FLOOR_REL
    csi_mode: str = "estimated"
    pilot_allocation: str = "fdm_comb"
    uplink_snr_db: float | None = 20.0
    decorrelation: float = 0.0
    feedback_quant_bits: int = 0

    def __post_init__(self):
        check_choice("csi_mode", self.csi_mode, CSI_MODES)
        check_choice("pilot_allocation", self.pilot_allocation, PILOT_ALLOCATIONS)
        if not 0 <= self.floor_rel < math.inf:
            raise FieldError("floor_rel", "must be >= 0 and finite")
        if not 0 <= self.decorrelation <= 1:
            raise FieldError("decorrelation", "must lie in [0, 1]")
        if self.uplink_snr_db is not None:
            try:  # the noise variance divides by 10 ** (snr / 10), which may not be 0 or inf
                in_range = math.isfinite(math.pow(10.0, abs(self.uplink_snr_db) / 10.0))
            except OverflowError:
                in_range = False
            if not in_range:
                raise FieldError("uplink_snr_db", "must be None for no noise, or finite with "
                                 f"10 ** (|snr| / 10) in float range, got {self.uplink_snr_db!r}")
        try:
            quantizer_levels(self.feedback_quant_bits)
        except ValueError as exc:
            raise FieldError("feedback_quant_bits", str(exc)) from None
        field, reach = offset_reach(self.sync, self.grid.sample_rate)
        if not reach <= self.grid.slot_len:
            raise FieldError(f"sync.{field}", f"{getattr(self.sync, field)!r} gives offsets up "
                             f"to {reach!r} samples at {self.grid.sample_rate!r} samples/s, "
                             f"past one slot's {self.grid.slot_len}")

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
    aborted: bool
    abort_reason: str
    agg_nmse_db: float
    offsets: np.ndarray
    peak_metrics: np.ndarray
    max_re_power: np.ndarray


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


@functools.cache
def _preamble_bank() -> np.ndarray:
    """Every client's Gold preamble, one read-only row per family member."""
    bank = np.stack([gold_sequence(k) for k in range(PREAMBLE_FAMILY)])
    bank.flags.writeable = False
    return bank


@functools.lru_cache(maxsize=None)
def _pilot_values(subcarriers: int) -> np.ndarray:
    """Read-only pilot symbol of a grid width, shared by both link ends."""
    pilots = make_pilot_values(subcarriers)
    pilots.flags.writeable = False
    return pilots


def _preamble_chips(run: slice, phy: PhyConfig, gains: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """The Gold chips the clients ``run`` send, one row per client.

    Fading is applied per subcarrier in the frequency domain; the preamble
    burst, which is a raw time-domain sequence, is scaled by the channel's
    RMS gain instead (a scalar stand-in that preserves detection power).
    """
    rms_gain = np.sqrt(np.mean(np.abs(gains) ** 2, axis=1))
    return (phy.reference_amplitude * rms_gain)[:, np.newaxis] * _preamble_bank()[run] * rot


def _sounding_frame(
    ues: range,
    phy: PhyConfig,
    gains: np.ndarray,
    phases: np.ndarray,
    offsets: np.ndarray,
    masks: np.ndarray,
) -> np.ndarray:
    """Noise-free receive buffer of one sounding event: the post-channel
    frames of the clients in the range ``ues``, each delayed by its
    ``offsets[ue]`` and summed in the air.

    The event's preamble region holds one slot per client it carries, in
    that order, and each client sends its Gold preamble in its own slot.
    The region is followed by one slot of the client's pilot row, the
    pilot symbol where the boolean ``masks[ue]`` is true and zero elsewhere.
    ``gains`` and ``masks`` hold one row per client of the round.

    The buffer spans the latest arrival.  Each client is added in ascending
    order, its chips and then its repeated pilot symbol, so each sample sums
    its clients in that order.
    """
    run = slice(ues.start, ues.stop)
    cfg = phy.grid
    region = phy.preamble_region_len(len(ues))
    body = cfg.symbols_per_slot
    span = body * cfg.symbol_len
    delays = offsets[run]
    rx = np.zeros(int(delays.max()) + region + span, dtype=np.complex128)
    g = gains[run]
    rot = np.exp(1j * phases[run])[:, np.newaxis]
    chips = _preamble_chips(run, phy, g, rot)
    pilot_rows = masks[run] * (phy.reference_amplitude * _pilot_values(cfg.subcarriers))
    pilot_rows *= g
    pilot_rows *= rot
    pilots = np.empty((len(ues), cfg.symbol_len), dtype=np.complex128)
    ofdm_modulate_into(pilot_rows, cfg, pilots)
    for i, delay in enumerate(delays.tolist()):
        lo = delay + i * phy.preamble_slot_len
        rx[lo:lo + PREAMBLE_LEN] += chips[i]
        symbols = rx[delay + region:delay + region + span].reshape(body, cfg.symbol_len)
        symbols += pilots[i]
    return rx


def _payload_frame(
    ues: range,
    phy: PhyConfig,
    gains: np.ndarray,
    phases: np.ndarray,
    offsets: np.ndarray,
    deltas: list[np.ndarray],
    scales: tuple[float, float],
    divisor: np.ndarray,
) -> tuple[np.ndarray, float, np.ndarray]:
    """Noise-free receive buffer of one payload event, with the shared
    power-control factor alpha and each client's precoded peak, as
    :func:`compute_alpha` returns them.

    The event is laid out as a sounding event (see :func:`_sounding_frame`),
    and its body, whole payload slots long, is the update ``deltas[ue]``,
    packed with the shared (I, Q) ``scales``.  ``gains``, ``deltas`` and
    ``divisor`` (the floored estimate) hold one entry per client of the
    round.

    Only the body's first :func:`payload_symbols` symbols hold parameters;
    the rest of the body is zero and is never built.  Each client is packed
    once.  The clients are walked by distinct delay, in ascending order,
    and within a delay in ascending order: a client is packed into one of
    two reused blocks, its per-subcarrier peaks are read from the packed
    block, and it is precoded by gain * phase / divisor and summed into the
    delay's first block.  Modulation is linear, so each distinct delay (at
    most ``offset_bound + 1`` under PTP) is modulated once, and no array
    holds more than two clients' blocks, however many clients there are.
    alpha is common to every client and the air sum is linear, so the
    summed payload is scaled by alpha once, in place; the preamble chips,
    which are not power-controlled, are added after that, since a late
    client's chips can run past the preamble region into the payload.
    The body carries no pilot symbol: a superposed pilot would show only
    the sum channel, which per-client inversion cannot use.
    """
    run = slice(ues.start, ues.stop)
    cfg = phy.grid
    region = phy.preamble_region_len(len(ues))
    used = payload_symbols(deltas[0].size, cfg)
    span = used * cfg.symbol_len
    delays = offsets[run]
    latest = int(delays.max())
    rx = np.zeros(latest + region + slot_plan(deltas[0].size, cfg) * cfg.slot_len,
                  dtype=np.complex128)
    g = gains[run]
    rot = np.exp(1j * phases[run])[:, np.newaxis]
    precode = g * (rot / divisor[run])
    deltas = deltas[run]
    peaks = np.empty(g.shape)
    acc, scratch = np.empty((2, used, cfg.subcarriers), dtype=np.complex128)
    symbols = np.empty((used, cfg.symbol_len), dtype=np.complex128)
    order = np.argsort(delays, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(delays[order])) + 1):
        for k, i in enumerate(group.tolist()):
            row = pack_payload(deltas[i], scales, scratch if k else acc)
            np.max(np.abs(row), axis=0, out=peaks[i])
            row *= precode[i]
            if k:
                acc += row
        ofdm_modulate_into(acc, cfg, symbols)
        rx[int(delays[group[0]]) + region:][:span] += symbols.reshape(-1)
    alpha, largest = compute_alpha(peaks, divisor[run])
    rx[region:latest + region + span] *= alpha  # every nonzero sample so far
    chips = _preamble_chips(run, phy, g, rot)
    for i, delay in enumerate(delays.tolist()):
        lo = delay + i * phy.preamble_slot_len
        rx[lo:lo + PREAMBLE_LEN] += chips[i]
    return rx, alpha, largest


def _receive(
    rx: np.ndarray, ues: range, phy: PhyConfig, noise: np.random.Generator, symbols: int
) -> tuple[TimeSignal, np.ndarray, np.ndarray]:
    """One receive event: add the receiver noise to the superposed buffer
    ``rx`` in place and detect the preamble of every client in ``ues``;
    the receiver then reads ``symbols`` OFDM symbols after the preamble
    region (see :func:`_read_symbols`).

    The noise pins ``phy.uplink_snr_db`` to the mean power of the noise-free
    superposition after the event's preamble region -- the pilot slot of a
    sounding event, the payload of a data event.  Pegging to the whole event
    would let the strong constant-amplitude preamble dominate the reference
    power, so a payload attenuated by power control would see a far worse
    SNR than the knob claims.  Noise goes only where a read can land: the
    buffer's first ``offset_bound + region + symbols * symbol_len`` samples,
    which hold every detection window and the latest window the read rule
    can pick.  It is the round generator ``noise``'s next normal draws,
    twice that many, read as (real, imaginary) pairs.  A sounding event's
    buffer ends within that prefix, so it is noised whole.

    Each client's preamble can only start in its own slot of the preamble
    region, at most ``offset_bound(phy.sync)`` samples late, so each client
    is searched only within ``offset_bound + PREAMBLE_LEN`` samples of its
    slot start: the argmax in that window is its arrival offset.  Offsets
    and detection metrics come back in ``ues`` order.
    """
    bound = offset_bound(phy.sync, phy.grid.sample_rate)
    region = phy.preamble_region_len(len(ues))
    if phy.uplink_snr_db is not None:
        info = rx[region:]
        power = float((np.abs(info) ** 2).sum()) / info.size
        variance = power / 10.0 ** (phy.uplink_snr_db / 10.0)
        noised = rx[:bound + region + symbols * phy.grid.symbol_len]
        samples = noise.standard_normal(2 * noised.size)
        samples *= np.sqrt(variance / 2.0)
        noised += samples.view(np.complex128)
    span = bound + PREAMBLE_LEN
    offsets = np.zeros(len(ues), dtype=np.int64)
    metrics = np.zeros(len(ues))
    for i, ue in enumerate(ues):
        lo = i * phy.preamble_slot_len
        window = TimeSignal(rx[lo:lo + span], phy.grid.sample_rate)
        offsets[i], metrics[i] = detect_frame(window, _preamble_bank()[ue])
    return TimeSignal(rx, phy.grid.sample_rate), offsets, metrics


def _read_symbols(
    rx: TimeSignal, offsets: np.ndarray, phy: PhyConfig, clients: int, body: int,
    n: int | None = None,
) -> np.ndarray:
    """Demodulate, in one call, the first ``n`` (default all) of the ``body``
    OFDM symbols that follow the preamble region of an event carrying
    ``clients`` clients, at the earliest detected timing of the round; a
    start that would read the body past the end of ``rx`` moves back to
    the body's last full window."""
    cfg = phy.grid
    start = int(offsets.min()) + phy.preamble_region_len(clients)
    start = min(start, rx.samples.size - body * cfg.symbol_len)
    return ofdm_demodulate(rx, cfg, start, body if n is None else n)


def _aggregate_nmse_db(sent: np.ndarray, exact: np.ndarray) -> float:
    """NMSE of an aggregate in dB; against a zero exact average it reads the
    -300 dB floor when the aggregate is exactly zero too, else 0 dB."""
    if float(np.sum(np.abs(exact) ** 2)) == 0.0:
        return -300.0 if np.array_equal(sent, exact) else 0.0
    return nmse(sent, exact)


def check_run(phy: PhyConfig, num_ues: int, mode: str = "ota", rounds: int = 1,
              master_seed: int = 0) -> None:
    """Reject an experiment that no single component can judge: an unknown
    aggregation mode, no round, a negative master seed (it has no seed
    sequence), no client, more clients than the ``PREAMBLE_FAMILY`` Gold
    preambles, or more clients than subcarriers on comb pilots.  The error
    names the argument."""
    check_choice("mode", mode, MODES)
    if rounds < 1:
        raise FieldError("rounds", "must be positive")
    if master_seed < 0:
        raise FieldError("master_seed", "must be >= 0")
    if num_ues < 1:
        raise FieldError("num_ues", "must be positive")
    if num_ues > PREAMBLE_FAMILY:
        raise FieldError("num_ues", f"exceeds the {PREAMBLE_FAMILY} Gold preamble sequences")
    if phy.pilot_allocation == "fdm_comb" and num_ues > phy.grid.subcarriers:
        raise FieldError("num_ues", "exceeds the subcarriers the comb pilots share")


def _pilot_masks(num_ues: int, cfg: GridConfig, allocation: str) -> np.ndarray:
    """One boolean row per client, true on the subcarriers that carry its
    pilots: every subcarrier for ``tdm_full``; on the comb, client ``ue``
    takes subcarrier ``k`` when ``k % num_ues == ue``."""
    if allocation == "tdm_full":
        return np.ones((num_ues, cfg.subcarriers), dtype=bool)
    return np.arange(cfg.subcarriers) % num_ues == np.arange(num_ues)[:, np.newaxis]


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
    check_run(phy, num_ues, master_seed=master_seed)
    param_count = deltas[0].size
    for d in deltas:
        if d.shape != (param_count,):
            raise ValueError("all deltas must be equal-length vectors")
    slots = slot_plan(param_count, cfg)
    exact_avg = fl.average_deltas(deltas)

    # --- common scale negotiation (error-free control channel) -----------
    rails = rail_peaks(deltas)
    finite = np.isfinite(rails).all(axis=1)
    if not finite.all():
        raise ValueError(f"client {int(np.argmin(finite))}'s update is not finite; "
                         "precoded resource grid entries must be finite")
    scales = peak_scales(rails)

    def _report(recovered, alpha, offsets, metrics, powers, abort_reason=""):
        return AggregateReport(
            recovered, exact_avg, alpha, bool(abort_reason), abort_reason,
            _aggregate_nmse_db(recovered, exact_avg), offsets, metrics, powers,
        )

    if not rails.any():
        # nothing to send: skip the air interface, deliver the exact zero
        return _report(np.zeros(param_count), 0.0, np.zeros(num_ues, dtype=np.int64),
                       np.zeros(num_ues), np.zeros(num_ues))

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

    # one generator for every receive event of the round, in event order
    noise = np.random.default_rng(derive_seed(master_seed, round_index, _TAG_NOISE))

    # --- sounding pass: effective-channel estimates at a common reference -
    if phy.csi_mode == "perfect":
        ramps = _phase_ramp(cfg, offsets[:, np.newaxis] - int(offsets.min()))
        estimate = payload_gains * ramps * np.exp(1j * phases)[:, np.newaxis]
    else:
        masks = _pilot_masks(num_ues, cfg, phy.pilot_allocation)
        # Comb pilots share one superposed sounding event; full-band pilots
        # need one event per client, holding only that client's slots.
        if phy.pilot_allocation == "fdm_comb":
            events = [range(num_ues)]
        else:
            events = [range(ue, ue + 1) for ue in range(num_ues)]
        s_offsets = np.zeros(num_ues, dtype=np.int64)
        s_metrics = np.zeros(num_ues)
        received = []
        for ues in events:
            frame = _sounding_frame(ues, phy, gains, phases, offsets, masks)
            rx, s_offsets[ues], s_metrics[ues] = _receive(frame, ues, phy, noise,
                                                          cfg.symbols_per_slot)
            received.append((rx, len(ues)))
        if np.any(s_metrics < DETECT_THRESHOLD):
            # every client did send its preamble and pilots at the reference power
            return _report(np.zeros(param_count), 0.0, s_offsets, s_metrics,
                           np.full(num_ues, phy.reference_amplitude**2),
                           "sounding detection failed")
        # Every event is read at the earliest client's timing, so the
        # estimates absorb each client's residual offset as a phase ramp.
        # One pilot row per event: the comb's single row holds every
        # client's pilots, the full band's rows one client each.
        rows = np.stack([
            _read_symbols(rx, s_offsets, phy, clients, cfg.symbols_per_slot).mean(axis=0)
            for rx, clients in received
        ])
        del received  # free the sounding buffers before the payload event
        estimate = ls_estimate(rows, phy.reference_amplitude * _pilot_values(cfg.subcarriers))
        # Full-band rows already hold a gain on every subcarrier; only the
        # comb fills the subcarriers between a client's pilots.
        if phy.pilot_allocation == "fdm_comb":
            estimate = interpolate(estimate[0], masks)
        estimate = quantize_estimate(estimate, phy.feedback_quant_bits)

    # --- precode, shared power control, simultaneous transmission --------
    divisor = inversion_divisor(estimate, inversion_floor(estimate, phy.floor_rel))
    ues = range(num_ues)
    frame, alpha, largest = _payload_frame(ues, phy, payload_gains, phases, offsets,
                                           deltas, scales, divisor)
    max_re_power = np.maximum((alpha * largest) ** 2, phy.reference_amplitude**2)
    used = payload_symbols(param_count, cfg)
    rx, p_offsets, p_metrics = _receive(frame, ues, phy, noise, used)
    if np.any(p_metrics < DETECT_THRESHOLD):
        return _report(np.zeros(param_count), 0.0, p_offsets, p_metrics, max_re_power,
                       "payload detection failed")

    # --- demodulate, descale, compare -------------------------------------
    block = _read_symbols(rx, p_offsets, phy, num_ues, slots * cfg.symbols_per_slot, used)
    block /= num_ues * alpha
    recovered = unmap_from_grids(block, param_count, scales)
    return _report(recovered, alpha, p_offsets, p_metrics, max_re_power)


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


def train_deltas(
    state: fl.RoundState, tasks: list[fl.Task], train_cfgs: list[fl.TrainConfig]
) -> list[np.ndarray]:
    """Every client trains from the global model and returns its delta.

    A client starts from its carried full-batch gradient in
    ``state.grads`` when there is one.
    """
    grads = state.grads
    if grads is not None and len(grads) != len(tasks):
        raise ValueError(f"state carries {len(grads)} gradients for {len(tasks)} tasks")
    locals_ = [
        fl.local_train(state.theta, tasks[ue], train_cfgs[ue], None if grads is None else grads[ue])
        for ue in range(len(tasks))
    ]
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
    round's first training step.  A loss that is not finite raises
    ``ValueError`` naming the round and the first such client.
    """
    new_theta = state.theta.copy() if aborted else fl.apply_global(state.theta, update)
    losses, grads = zip(*[fl.loss_and_grad(new_theta, t) for t in tasks])
    loss_per_ue = np.array(losses)
    bad = np.flatnonzero(~np.isfinite(loss_per_ue))
    if bad.size:
        raise ValueError(f"round {state.round_index}: client {bad[0]}'s loss is not finite")
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
    deltas = train_deltas(state, tasks, train_cfgs)
    report = ota_aggregate(deltas, phy, master_seed, state.round_index)
    slots, energy = round_bill("ota", len(tasks), state.theta.size, phy.grid, energy_model)
    return _finish_round(
        state, tasks, report.recovered, report.aborted,
        mode="ota",
        agg_nmse_db=report.agg_nmse_db,
        alpha=report.alpha,
        slots_used=slots,
        energy_j=energy,
    )


def run_digital_round(
    state: fl.RoundState,
    tasks: list[fl.Task],
    train_cfgs: list[fl.TrainConfig],
    mode: str,
    profile: SpectralProfile | None,
    grid: GridConfig,
    energy_model: EnergyModel = EnergyModel(),
) -> tuple[fl.RoundState, RoundTrace]:
    """Digital FedAvg baseline round (fp32 exact or int8-quantized uploads)."""
    if mode not in DIGITAL_BITS:
        raise ValueError(f"not a digital mode: {mode!r}")
    slots, energy = round_bill(mode, len(tasks), state.theta.size, grid, energy_model, profile)
    deltas = train_deltas(state, tasks, train_cfgs)
    exact = fl.average_deltas(deltas)
    if mode == "digital_int8":
        sent = fl.average_deltas([_int8_dequantize(d) for d in deltas])
    else:
        sent = exact
    return _finish_round(
        state, tasks, sent, False,
        mode=mode,
        agg_nmse_db=_aggregate_nmse_db(sent, exact),
        alpha=0.0,
        slots_used=slots,
        energy_j=energy,
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
    num_ues = len(tasks)
    check_run(phy, num_ues, mode, rounds, master_seed)
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
