"""End-to-end analog-aggregation rounds and experiment loops.

One uplink round, as simulated here:

1.  Every client trains locally and forms a delta update against the
    current global model.
2.  Clients agree (over an error-free control channel) on a common pair of
    I/Q peak scales so the analog sum can be descaled without bias; one
    read of each update gives its I/Q peaks and adds it to the exact average.
3.  A sounding pass carries known pilots through each client's channel.
    The round's channel side -- every client's gains, preamble chips and
    pilot symbol -- depends only on the channel model, the grid, the pilot
    allocation, the client count, the master seed and the round index, not
    on the timing offsets, the noise or the floor.  It is built in one pass
    with the round's ``RoundShare``, which holds it next to the update side
    of step 2 and the round's sync uniforms, drawn once from the (master
    seed, round, sync tag) stream; each aggregation maps them to offsets
    under its own bound.  An aggregation without a share builds its own and
    keeps nothing; a sync sweep builds one share per seed and passes it to
    every spread, so the spreads read one build.  Each sounding event and the
    payload event only place its chips and pilots.  The receiver locks its
    frame timing to the earliest detected preamble and estimates every client's
    *effective* channel at that common reference -- the estimate then
    absorbs both the fading gain and the per-client timing phase ramp, so
    channel inversion pre-compensates residual sample offsets that fall
    inside the cyclic prefix.  The estimates are one ``(clients,
    subcarriers)`` array, and each estimation stage (least squares, comb
    interpolation) is one call for all clients.  The comb's pilot masks and
    the interpolation layout they give are built once per client count and
    grid and cached read-only, so a round only gathers its pilot row.
4.  The payload is sent in whole slots, but only its first
    ``weightcodec.payload_symbols`` OFDM symbols hold parameters; the rest
    is zero and is never built.  The codec packs one client's scaled update
    at a time into a block of those symbols, once per client, as one
    contiguous division by the shared scales laid over every real, a
    vector the round's share builds once.  The per-subcarrier peaks of the
    packed block are read by the first aggregation of a share only, which
    leaves them in the share (they depend on the update and the scales
    alone), and the block is precoded by gain / estimate (the floored
    estimate).
    Clients that share a delay are summed in the frequency domain, every
    delay's sum is modulated in one call, in batches of whole delays that
    keep each array within one client's block or ``_MODULATE_ROWS``
    symbols, and each delay's symbols are added into the event's one
    receive buffer, as the multiple-access channel sums them in the air.
    The peaks against the estimates give the shared power-control factor
    alpha, and since every client scales by the same alpha and the air sum
    is linear, the summed payload is scaled by alpha once before the
    preambles are added.
5.  The receiver adds noise from the round's one normal stream, seeded by
    the master seed and the round index (the sounding events draw first),
    to the samples a read can touch, with its power referenced to the
    noise-free samples after the preamble region (the whole payload
    slots).  Without a share each aggregation draws the stream from a
    fresh generator; a share keeps the normals it has drawn, and every
    aggregation given it reads them from the start, so a sweep draws each
    normal, each sync uniform and each client's peaks once, and every
    spread gets the bits an aggregation without a share gives it.
    The receiver finds each client's preamble in that client's own search
    window, every window of a receive stage in one detection pass, after
    the stage's last event is noised: the comb sounding event and the
    payload event are one stage each, and the full-band sounding events
    one stage together.  It then demodulates
    the parameter symbols in one call at the earliest client's timing,
    descales them by M * alpha and, through the codec, by the shared peak
    scales, and applies the recovered average update.

Every event shares one frame layout, which ``_Event`` owns.  Pilot
subcarriers are either interleaved combs (one superposed sounding event,
suited to frequency-flat channels) or full band (one event per client
holding only its preamble slot and its pilot slot, required when the
channel varies across subcarriers).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import fl
from .accounting import (
    DIGITAL_BITS,
    EnergyModel,
    SpectralProfile,
    round_bill,
)
from .channel import ChannelModel, realize_channel
from .csi import NMSE_FLOOR_DB, CombLayout, comb_layout, interpolate, ls_estimate, nmse
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
from .sync import SyncConfig, draw_offsets, offset_bound, offset_reach
from .weightcodec import (
    pack_payload,
    payload_symbols,
    peak_scales,
    rail_divisors,
    rail_peaks,
    slot_plan,
    unmap_from_grids,
)

CSI_MODES = ("estimated", "perfect")
PILOT_ALLOCATIONS = ("fdm_comb", "tdm_full")
MODES = ("ota", *DIGITAL_BITS)

DETECT_THRESHOLD = 0.3

# Symbols one payload modulation call takes at most, unless one client's
# block alone is longer: whole delays are batched up to it.
_MODULATE_ROWS = 64

# Amplitude of every preamble and pilot part: inside the power budget.
_REFERENCE_AMPLITUDE = MARGIN * np.sqrt(PEAK_POWER)

# Stream tags for deterministic seed derivation.
_TAG_DATA = 12
_TAG_CHANNEL = 14
_TAG_SYNC = 16
_TAG_NOISE = 18


def derive_seed(*parts: int) -> np.random.SeedSequence:
    """Stable child seed for a (master, round, ue, purpose) tuple.

    Ints in [0, 2**32) go to numpy as one uint32 array: the entropy its
    list path splits them into, without its per-item conversion.  Any other
    part takes the list path, which splits or rejects it.  The package
    builds every ``SeedSequence`` here.
    """
    for part in parts:
        if type(part) is not int or not 0 <= part < 2**32:
            return np.random.SeedSequence(list(parts))
    return np.random.SeedSequence(np.array(parts, dtype=np.uint32))


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

    def __post_init__(self):
        check_choice("csi_mode", self.csi_mode, CSI_MODES)
        check_choice("pilot_allocation", self.pilot_allocation, PILOT_ALLOCATIONS)
        if not 0 <= self.floor_rel < math.inf:
            raise FieldError("floor_rel", "must be >= 0 and finite")
        if self.uplink_snr_db is not None:
            try:  # the noise variance divides by 10 ** (snr / 10), which may not be 0 or inf
                in_range = math.isfinite(math.pow(10.0, abs(self.uplink_snr_db) / 10.0))
            except OverflowError:
                in_range = False
            if not in_range:
                raise FieldError("uplink_snr_db", "must be None for no noise, or finite with "
                                 f"10 ** (|snr| / 10) in float range, got {self.uplink_snr_db!r}")
        field, reach = offset_reach(self.sync, self.grid.sample_rate)
        if not reach <= self.grid.slot_len:
            raise FieldError(f"sync.{field}", f"{getattr(self.sync, field)!r} gives offsets up "
                             f"to {reach!r} samples at {self.grid.sample_rate!r} samples/s, "
                             f"past one slot's {self.grid.slot_len}")

    @property
    def preamble_slot_len(self) -> int:
        """Preamble plus a guard gap of ``grid.cp_len`` samples.  While the
        offset bound is at most ``cp_len``, the gap keeps one user's late
        arrival out of the next user's correlation window, where it would
        distort the normalized detection metric (ruinous under near-far
        power spreads).  Past it the search windows overlap, as
        :class:`_Event` says, and a late preamble can reach the next
        client's window."""
        return PREAMBLE_LEN + self.grid.cp_len

    def preamble_region_len(self, num_ues: int) -> int:
        return num_ues * self.preamble_slot_len


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


def _preamble_chips(gains: np.ndarray) -> np.ndarray:
    """The Gold chips every client sends, one row per row of ``gains``.

    Fading is applied per subcarrier in the frequency domain; the preamble
    burst, which is a raw time-domain sequence, is scaled by the channel's
    RMS gain instead (a scalar stand-in that preserves detection power).
    """
    rms_gain = np.sqrt(np.mean(np.abs(gains) ** 2, axis=1))
    return (_REFERENCE_AMPLITUDE * rms_gain)[:, np.newaxis] * _preamble_bank()[:len(gains)]


class _Event:
    """One receive event of the shared uplink frame: its buffer, and the only
    code that knows the frame's layout.

    The buffer opens with a preamble region of one ``phy.preamble_slot_len``
    slot per client the event carries, in ``ues`` order: each client sends
    its own Gold preamble in its own slot (staggered, like sounding reference
    signals), which keeps the normalized detection metric meaningful per
    client.  Client ``i`` of the event, ``delays[i]`` samples late, sends its
    chips at ``delays[i] + i * slot`` and its body, ``body_symbols`` OFDM
    symbols long, at ``delays[i] + region``, so a late client's chips can run
    past the region into the bodies.  The buffer spans the latest body.

    :meth:`add_noise` adds the receiver noise in place.  It pins
    ``phy.uplink_snr_db`` to the mean power of the noise-free superposition
    after the preamble region -- the pilot slot of a sounding event, the
    payload of a data event.  Pegging to the whole event would let the
    strong constant-amplitude preamble dominate the reference power, so a
    payload attenuated by power control would see a far worse SNR than the
    knob claims.  A read of ``symbols`` symbols covers every nonzero body
    symbol, and a slot is no shorter than a preamble, so past the preamble
    region only the first ``max(delays) + symbols * symbol_len`` samples
    can be nonzero: only those are read for that power, and the rest count
    as the zeros they are.  Noise goes only where a read can land: the
    buffer's first ``bound + region + symbols * symbol_len`` samples,
    ``bound`` being the ``offset_bound`` of ``phy.sync`` at the grid's
    sample rate, read once when the event is built.  They hold every search
    window and the latest window the read rule can pick.  The noise is the round noise stream's
    next normal draws, twice that many, read as (real, imaginary) pairs; a
    sounding event is noised whole.  A client arrives at most ``bound``
    samples late, so its preamble is searched for only within ``bound +
    PREAMBLE_LEN`` samples from its slot's start, ``i * slot``: the argmax in
    that window is its arrival offset.  Past the cyclic prefix the windows
    overlap.  :meth:`search_prefix` is the bounds-checked view of the
    buffer that holds every window, and :func:`_detect` searches the
    windows of every event of a receive stage in one :func:`detect_frame`
    pass, with one correlation per window; each client gets the bits a
    search of its window alone gets.

    :meth:`read` demodulates, in one call, the first ``n`` body symbols at
    the round's earliest detected timing; a start that would read the body
    past the buffer's end moves back to the body's last full window.
    """

    def __init__(self, phy: PhyConfig, ues: range, delays: np.ndarray, body_symbols: int):
        self.phy, self.ues = phy, ues
        self.delays = delays.tolist()  # Python ints: each placement slices with them
        self.bound = offset_bound(phy.sync, phy.grid.sample_rate)
        self.slot = phy.preamble_slot_len
        self.region = phy.preamble_region_len(len(ues))
        self.body_len = body_symbols * phy.grid.symbol_len
        self.rx = np.zeros(max(self.delays) + self.region + self.body_len, dtype=np.complex128)

    def add_chips(self, i: int, chips: np.ndarray) -> None:
        lo = self.delays[i] + i * self.slot
        self.rx[lo:lo + PREAMBLE_LEN] += chips

    def add_body(self, i: int, symbols: np.ndarray, n: int) -> None:
        """Add ``symbols``, ``n`` time-domain OFDM symbols or one symbol
        repeated, to the first ``n`` symbols of client ``i``'s body."""
        lo = self.delays[i] + self.region
        body = self.rx[lo:lo + n * self.phy.grid.symbol_len].reshape(n, -1)
        body += symbols

    def scale_bodies(self, factor: float, n: int) -> None:
        end = max(self.delays) + self.region + n * self.phy.grid.symbol_len
        self.rx[self.region:end] *= factor  # the first n symbols of every body

    def add_noise(self, noise: np.random.Generator, symbols: int) -> None:
        """Noise the buffer in place for a read of ``symbols`` symbols."""
        if self.phy.uplink_snr_db is None:
            return
        cfg = self.phy.grid
        # |0| = 0: zero-filling the samples no body reaches yet leaves the
        # pairwise sum the same array, without taking their |x|.
        power = np.zeros(self.rx.size - self.region)
        written = power[:max(self.delays) + symbols * cfg.symbol_len]
        np.abs(self.rx[self.region:self.region + written.size], out=written)
        written *= written
        variance = float(power.sum()) / power.size / 10.0 ** (self.phy.uplink_snr_db / 10.0)
        noised = self.rx[:self.bound + self.region + symbols * cfg.symbol_len]
        samples = noise.standard_normal(2 * noised.size)  # a share lends a read-only view
        samples = np.multiply(samples, np.sqrt(variance / 2.0),
                              out=samples if samples.flags.writeable else None)
        noised += samples.view(np.complex128)

    def search_prefix(self) -> np.ndarray:
        """The buffer's first samples that hold every search window, as a
        view; a prefix longer than the buffer raises."""
        end = (len(self.ues) - 1) * self.slot + self.bound + PREAMBLE_LEN
        return np.ndarray(end, dtype=self.rx.dtype, buffer=self.rx)

    def read(self, offsets: np.ndarray, n: int) -> np.ndarray:
        """The first ``n`` body symbols, read at the earliest of ``offsets``."""
        cfg = self.phy.grid
        start = min(int(offsets.min()) + self.region, self.rx.size - self.body_len)
        return ofdm_demodulate(TimeSignal(self.rx, cfg.sample_rate), cfg, start, n)


def _detect(events: list[_Event]) -> tuple[np.ndarray, np.ndarray]:
    """Every client's preamble offset and metric in a receive stage, in
    client order, from one :func:`detect_frame` pass over its ``events``.

    The events carry consecutive clients.  One event is searched as its
    :meth:`_Event.search_prefix` view, one window per client.  Several
    events carry one client each (the full-band sounding stage): each
    event's prefix is copied into one row of a block, which is searched
    with a stride of one row.  Every window gets the bits a search of it
    alone gets.
    """
    first = events[0]
    preambles = _preamble_bank()[first.ues.start:events[-1].ues.stop]
    if len(events) == 1:
        samples, stride = first.search_prefix(), first.slot
    else:
        block = np.stack([event.search_prefix() for event in events])  # equal rows or raise
        samples, stride = block.reshape(-1), block.shape[1]
    return detect_frame(TimeSignal(samples, first.phy.grid.sample_rate), preambles, stride)


def _receive(events: list[_Event], noise: np.random.Generator,
             symbols: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise a receive stage's events in order, each for a read of
    ``symbols`` symbols, then detect every client of the stage at once."""
    for event in events:
        event.add_noise(noise, symbols)
    return _detect(events)


def _sounding_signals(cfg: GridConfig, gains: np.ndarray,
                      masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every client's sounding transmission, one row per client of the
    round: its Gold chips and its time-domain pilot symbol, the pilot symbol
    where the boolean ``masks[ue]`` is true and zero elsewhere, faded by
    ``gains[ue]``.  All rows are built at once, whichever the pilot
    allocation: one chip pass and one modulation of every client's row."""
    pilot_rows = masks * (_REFERENCE_AMPLITUDE * _pilot_values(cfg.subcarriers))
    pilot_rows *= gains
    pilots = np.empty((len(gains), cfg.symbol_len), dtype=np.complex128)
    ofdm_modulate_into(pilot_rows, cfg, pilots)
    return _preamble_chips(gains), pilots


def _sounding_frame(
    ues: range,
    phy: PhyConfig,
    offsets: np.ndarray,
    chips: np.ndarray,
    pilots: np.ndarray,
) -> _Event:
    """Noise-free sounding event of the clients in the range ``ues``, each
    delayed by its ``offsets[ue]`` and summed in the air.

    It only places the rows :func:`_sounding_signals` built: each client's
    ``chips[ue]`` in its preamble slot, and a body of one slot of its
    repeated pilot symbol ``pilots[ue]``.  Comb and full-band sounding share
    this path; they differ only in the ``ues`` an event carries.

    Each client is added in ascending order, its chips and then its repeated
    pilot symbol, so each sample sums its clients in that order.
    """
    n = phy.grid.symbols_per_slot
    event = _Event(phy, ues, offsets[ues.start:ues.stop], n)
    for i, ue in enumerate(ues):
        event.add_chips(i, chips[ue])
        event.add_body(i, pilots[ue], n)
    return event


def _payload_frame(
    ues: range,
    phy: PhyConfig,
    gains: np.ndarray,
    offsets: np.ndarray,
    deltas: list[np.ndarray],
    per_real: np.ndarray,
    divisor: np.ndarray,
    chips: np.ndarray,
    peaks: np.ndarray | None,
) -> tuple[_Event, float, np.ndarray, np.ndarray]:
    """Noise-free payload event, with the shared power-control factor alpha
    and each client's precoded peak, as :func:`compute_alpha` returns them,
    and the per-subcarrier peaks of every packed update, read-only, one row
    per client of ``ues``.  ``peaks`` holds those rows when an earlier call
    has read them, and is ``None`` otherwise.

    Each client's body, whole payload slots long, is the update
    ``deltas[ue]`` divided in one contiguous pass by ``per_real``, the
    :func:`rail_divisors` of the shared (I, Q) scales.  ``gains``,
    ``deltas``, ``divisor`` (the floored estimate) and ``chips`` (the
    :func:`_preamble_chips` that the sounding pass sends too) hold one
    entry per client of the round.

    Only the body's first :func:`payload_symbols` symbols hold parameters;
    the rest of the body is zero and is never built.  Each client is packed
    once.  The clients are walked by distinct delay, in ascending order,
    and within a delay in ascending order: a client's per-subcarrier peaks
    are read from its packed block unless ``peaks`` holds them, and it is
    precoded by gain / divisor.  A delay's first client is packed straight
    into the delay's sum, and each later one into one reused block and
    added to the sum.  Modulation is linear, so each distinct delay (at
    most ``offset_bound + 1`` under PTP) is modulated once, as one row
    block of a call that takes as many whole delays as fit in
    ``_MODULATE_ROWS`` symbols, and at least one; each delay's symbols are
    then added into the buffer, in ascending delay order.  Besides the
    event's buffer, no array it allocates holds more than one client's
    block of symbols or ``_MODULATE_ROWS`` symbols, whichever is larger,
    however many clients and delays there are.
    alpha is common to every client and the air sum is linear, so the
    summed payload is scaled by alpha once, in place; the preamble chips,
    which are not power-controlled, are added after that, since a late
    client's chips can run past the preamble region into the payload.
    The body carries no pilot symbol: a superposed pilot would show only
    the sum channel, which per-client inversion cannot use.
    """
    run = slice(ues.start, ues.stop)
    cfg = phy.grid
    used = payload_symbols(per_real.size, cfg)
    event = _Event(phy, ues, offsets[run], slot_plan(per_real.size, cfg) * cfg.symbols_per_slot)
    g = gains[run]
    precode = g * (1.0 / divisor[run])  # reciprocal first: g / divisor rounds differently
    deltas = deltas[run]
    fresh = peaks is None
    if fresh:
        peaks = np.empty(g.shape)
    delay_of = event.delays.__getitem__
    groups = [list(group) for _, group in
              itertools.groupby(sorted(range(len(ues)), key=delay_of), key=delay_of)]
    per_call = min(len(groups), max(1, _MODULATE_ROWS // used))
    sums = np.empty((per_call, used, cfg.subcarriers), dtype=np.complex128)
    scratch = np.empty((used, cfg.subcarriers), dtype=np.complex128)
    symbols = np.empty((per_call, used, cfg.symbol_len), dtype=np.complex128)
    for first in range(0, len(groups), per_call):
        part = groups[first:first + per_call]
        for acc, group in zip(sums, part):
            for k, i in enumerate(group):
                row = pack_payload(deltas[i], per_real, scratch if k else acc)
                if fresh:
                    np.max(np.abs(row), axis=0, out=peaks[i])
                row *= precode[i]
                if k:
                    acc += row
        rows = len(part) * used
        ofdm_modulate_into(sums.reshape(-1, cfg.subcarriers)[:rows], cfg,
                           symbols.reshape(-1, cfg.symbol_len)[:rows])
        for body, group in zip(symbols, part):
            event.add_body(group[0], body, used)
    peaks.flags.writeable = False
    alpha, largest = compute_alpha(peaks, divisor[run])
    event.scale_bodies(alpha, used)  # every nonzero sample so far
    for i, row in enumerate(chips[run]):
        event.add_chips(i, row)
    return event, alpha, largest, peaks


def _aggregate_nmse_db(sent: np.ndarray, exact: np.ndarray) -> float:
    """NMSE of an aggregate in dB; against an all-zero exact average it
    reads the ``NMSE_FLOOR_DB`` floor when the aggregate is exactly zero
    too, else 0 dB.  An exact average too small to square is not zero."""
    if not exact.any():
        return NMSE_FLOOR_DB if np.array_equal(sent, exact) else 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged round fails in _finish_round
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


@functools.lru_cache(maxsize=None)
def _pilot_masks(num_ues: int, cfg: GridConfig, allocation: str) -> np.ndarray:
    """One read-only boolean row per client, true on the subcarriers that
    carry its pilots: every subcarrier for ``tdm_full``; on the comb, client
    ``ue`` takes subcarrier ``k`` when ``k % num_ues == ue``.  Built once per
    client count, grid and allocation, as :func:`_comb_layout` is."""
    if allocation == "tdm_full":
        masks = np.ones((num_ues, cfg.subcarriers), dtype=bool)
    else:
        masks = np.arange(cfg.subcarriers) % num_ues == np.arange(num_ues)[:, np.newaxis]
    masks.flags.writeable = False
    return masks


@functools.lru_cache(maxsize=None)
def _comb_layout(num_ues: int, cfg: GridConfig) -> CombLayout:
    """The read-only layout :func:`interpolate` reads the comb pilots of
    ``num_ues`` clients with, built once per client count and grid.  The
    cache is keyed on those, never on mask contents, so it holds one entry
    per shape a process runs."""
    return comb_layout(_pilot_masks(num_ues, cfg, "fdm_comb"))


def _channel_side(
    channel: ChannelModel,
    cfg: GridConfig,
    allocation: str | None,
    num_ues: int,
    master_seed: int,
    round_index: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """A round's channel side, read-only: every client's gains, stacked,
    its preamble chips and, when the round sounds on the pilot
    ``allocation`` (``None`` under perfect CSI), the modulated pilot rows
    of :func:`_sounding_signals`.

    None of it depends on the timing offsets, the noise, the floor or the
    updates, so the aggregations of a :class:`RoundShare` read one build.
    """
    gains = np.stack([
        realize_channel(
            channel, cfg.subcarriers, derive_seed(master_seed, round_index, ue, _TAG_CHANNEL)
        )
        for ue in range(num_ues)
    ])
    if allocation is None:
        pilots = None
        chips = _preamble_chips(gains)
    else:
        chips, pilots = _sounding_signals(cfg, gains, _pilot_masks(num_ues, cfg, allocation))
    for array in (gains, chips, pilots):
        if array is not None:
            array.flags.writeable = False
    return gains, chips, pilots


def _sounding_allocation(phy: PhyConfig) -> str | None:
    """The pilot allocation a round sounds on; ``None`` under perfect CSI."""
    return phy.pilot_allocation if phy.csi_mode == "estimated" else None


class RoundShare:
    """What every aggregation of one round's updates over one channel
    shares, whatever its timing offsets, floor or noise power.  A sync sweep
    builds one per seed and passes it to each spread's
    :func:`ota_aggregate` call.

    It holds the update side, read once here: each update's rail peaks,
    the exact average (read-only, and held by every report the share
    gives) and the shared peak scales.  It builds the channel side of
    :func:`_channel_side` here, even when every update is zero, and holds
    it read-only as ``gains``, ``chips`` and ``pilots``.  It
    draws the round's sync ``uniforms`` here, one per client from the
    (master seed, round, sync tag) stream, and holds them read-only; each
    aggregation maps them to offsets under its own bound.  The first
    aggregation that packs the updates leaves their per-subcarrier payload
    ``peaks`` here (``None`` until then), read-only, one row per client:
    they depend only on the updates and the shared scales, so later
    aggregations pack and precode but do not read them again.  It builds,
    read-only, the ``per_real`` :func:`rail_divisors` of the scales (573 KB
    at 71 666 parameters).  The packed blocks are not kept: at 60
    clients and 71 666 parameters they would hold 34 MB, and a single
    aggregation gains nothing from them.  It keeps the round's noise stream
    as well: every aggregation reads the stream from its start, as it would
    read a fresh generator seeded (master seed, round, noise tag), and a
    read past the kept normals draws exactly the missing count and keeps
    them.  A generator's normals do not depend on how its draws are split,
    so every aggregation gets the bits it gets without a share.

    The share is bound to the update arrays it was built from, which it
    reads only once and which must not change, to the master seed and
    round index, and to the channel, grid and sounding pilot allocation
    (none under perfect CSI) of ``phy``; a call that differs in any of
    them raises ``ValueError``.  Sync, noise power and floor may differ.
    """

    def __init__(self, deltas: list[np.ndarray], phy: PhyConfig, master_seed: int = 0,
                 round_index: int = 0):
        num_ues = len(deltas)
        check_run(phy, num_ues, master_seed=master_seed)
        sync_seed = derive_seed(master_seed, round_index, _TAG_SYNC)
        self.uniforms = np.random.default_rng(sync_seed).random(num_ues)
        self.uniforms.flags.writeable = False
        param_count = deltas[0].size
        for d in deltas:
            if d.shape != (param_count,):
                raise ValueError("all deltas must be equal-length vectors")

        # common scale negotiation (error-free control channel): one read per
        # update, its rail peaks, then the exact average adds it from cache
        rails = np.empty((num_ues, 2))

        def recording_rails():
            for i, d in enumerate(deltas):
                rails[i] = rail_peaks([d])
                yield d

        self.exact_avg = fl.average_deltas(recording_rails())
        self.exact_avg.flags.writeable = False
        finite = np.isfinite(rails).all(axis=1)
        if not finite.all():
            raise ValueError(f"client {int(np.argmin(finite))}'s update is not finite; "
                             "precoded resource grid entries must be finite")
        self.rails = rails
        self.scales = peak_scales(rails)
        self.per_real = rail_divisors(self.scales, param_count)
        self.per_real.flags.writeable = False
        self.deltas = tuple(deltas)
        self._round = (master_seed, round_index)
        self._link = (phy.channel, phy.grid, _sounding_allocation(phy))
        self.gains, self.chips, self.pilots = _channel_side(
            *self._link, num_ues, *self._round)
        self.peaks = None
        self._rng = None
        self._normals = np.empty(0)

    def check(self, deltas: list[np.ndarray], phy: PhyConfig, master_seed: int,
              round_index: int) -> None:
        """Reject an aggregation this share was not built for."""
        check_run(phy, len(deltas), master_seed=master_seed)
        if len(deltas) != len(self.deltas) or any(a is not b for a, b in zip(deltas, self.deltas)):
            raise ValueError("the round share was built from other deltas")
        if (master_seed, round_index) != self._round:
            raise ValueError(f"the round share was built for master seed {self._round[0]} "
                             f"and round {self._round[1]}")
        if (phy.channel, phy.grid, _sounding_allocation(phy)) != self._link:
            raise ValueError("the round share was built for another channel, grid or "
                             "pilot allocation")

    def _normals_to(self, end: int) -> np.ndarray:
        """The kept stream, drawn on to at least ``end`` normals."""
        missing = end - self._normals.size
        if missing > 0:
            if self._rng is None:
                self._rng = np.random.default_rng(derive_seed(*self._round, _TAG_NOISE))
            self._normals = np.concatenate([self._normals, self._rng.standard_normal(missing)])
        return self._normals


class _StreamReader:
    """Stands in for a round's noise generator in :meth:`_Event.add_noise`,
    reading a share's noise stream from its start: each draw is a read-only
    view of the next kept normals, which the receiver scales into a new
    array in one pass."""

    def __init__(self, share: RoundShare):
        self.share, self.drawn = share, 0

    def standard_normal(self, size: int) -> np.ndarray:
        start, self.drawn = self.drawn, self.drawn + size
        draws = self.share._normals_to(self.drawn)[start:self.drawn]
        draws.flags.writeable = False
        return draws


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
    share: RoundShare | None = None,
) -> AggregateReport:
    """Carry client updates through the full analog uplink once.

    Returns the recovered average update together with the exact digital
    average, power-control and detection diagnostics.  A detection metric
    below ``DETECT_THRESHOLD`` for any client aborts the round: the
    recovered update is zero and the caller leaves the global model
    unchanged.  A :class:`RoundShare` built from the same deltas, seed,
    round and channel lends its update side, channel side, sync uniforms,
    payload peaks and noise stream to every aggregation given it; the
    report is the same bit for bit.
    """
    # Without a share the aggregation builds its own and keeps nothing.  The
    # noise is one stream for every receive event of the round, in event order.
    if share is None:
        share = RoundShare(deltas, phy, master_seed, round_index)
        noise = np.random.default_rng(derive_seed(master_seed, round_index, _TAG_NOISE))
    else:
        share.check(deltas, phy, master_seed, round_index)
        noise = _StreamReader(share)
    num_ues = len(deltas)
    cfg = phy.grid
    rails, exact_avg, scales = share.rails, share.exact_avg, share.scales
    param_count = exact_avg.size

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
    sounds = phy.csi_mode == "estimated"
    gains, chips, pilots = share.gains, share.chips, share.pilots
    offsets = draw_offsets(phy.sync, share.uniforms, cfg.sample_rate)

    # --- sounding pass: effective-channel estimates at a common reference -
    if not sounds:
        ramps = _phase_ramp(cfg, offsets[:, np.newaxis] - int(offsets.min()))
        estimate = gains * ramps
    else:
        # Comb pilots share one superposed sounding event; full-band pilots
        # need one event per client, holding only that client's slots.
        if phy.pilot_allocation == "fdm_comb":
            groups = [range(num_ues)]
        else:
            groups = [range(ue, ue + 1) for ue in range(num_ues)]
        events = [_sounding_frame(ues, phy, offsets, chips, pilots) for ues in groups]
        s_offsets, s_metrics = _receive(events, noise, cfg.symbols_per_slot)
        if not (s_metrics >= DETECT_THRESHOLD).all():  # a NaN metric fails too
            # every client did send its preamble and pilots at the reference power
            return _report(np.zeros(param_count), 0.0, s_offsets, s_metrics,
                           np.full(num_ues, _REFERENCE_AMPLITUDE**2),
                           "sounding detection failed")
        # Every event is read at the earliest client's timing, so the
        # estimates absorb each client's residual offset as a phase ramp.
        # One pilot row per event: the comb's single row holds every
        # client's pilots, the full band's rows one client each.  Each row is
        # the mean of its slot's symbols: their sum over the symbol count.
        rows = np.empty((len(events), cfg.subcarriers), dtype=np.complex128)
        for row, event in zip(rows, events):
            np.add.reduce(event.read(s_offsets, cfg.symbols_per_slot), axis=0, out=row)
        rows /= cfg.symbols_per_slot
        del events  # free the sounding buffers before the payload event
        estimate = ls_estimate(rows, _REFERENCE_AMPLITUDE * _pilot_values(cfg.subcarriers))
        # Full-band rows already hold a gain on every subcarrier; only the
        # comb fills the subcarriers between a client's pilots.
        if phy.pilot_allocation == "fdm_comb":
            estimate = interpolate(estimate[0], _comb_layout(num_ues, cfg))

    # --- precode, shared power control, simultaneous transmission --------
    # The rails are finite and nonzero, so only a floor that overflows or
    # underflows the precoded peaks can fail here; the error names it.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            divisor = inversion_divisor(estimate, inversion_floor(estimate, phy.floor_rel))
            event, alpha, largest, share.peaks = _payload_frame(
                range(num_ues), phy, gains, offsets, deltas, share.per_real, divisor, chips,
                share.peaks)
    except ValueError as exc:
        raise ValueError(f"round {round_index}: phy.floor_rel = {phy.floor_rel!r} leaves "
                         f"no usable precoded payload: {exc}") from None
    max_re_power = np.maximum((alpha * largest) ** 2, _REFERENCE_AMPLITUDE**2)
    used = payload_symbols(param_count, cfg)
    p_offsets, p_metrics = _receive([event], noise, used)
    if not (p_metrics >= DETECT_THRESHOLD).all():
        return _report(np.zeros(param_count), 0.0, p_offsets, p_metrics, max_re_power,
                       "payload detection failed")

    # --- demodulate, descale, compare -------------------------------------
    block = event.read(p_offsets, used)
    block /= num_ues * alpha
    recovered = unmap_from_grids(block, param_count, scales)
    return _report(recovered, alpha, p_offsets, p_metrics, max_re_power)


# ---------------------------------------------------------------------------
# experiment loops


def initial_state(tasks: list[fl.Task], master_seed: int) -> fl.RoundState:
    """Fresh global model shared by every aggregation mode: the zero model,
    for every seed.  ``master_seed`` is not read; it stays in the signature
    for existing callers."""
    counts = {t.param_count for t in tasks}
    if len(counts) != 1:
        raise ValueError("all tasks must share one parameter count")
    return fl.RoundState(np.zeros(tasks[0].param_count), 0)


def train_configs(
    template: fl.TrainConfig, num_ues: int, master_seed: int, round_index: int
) -> list[fl.TrainConfig]:
    """``template`` for every UE: training is full batch and draws nothing,
    so ``master_seed`` and ``round_index`` are not read.  The pipeline no
    longer calls this; it stays for existing callers."""
    return [template] * num_ues


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
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names the client
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
    """Classical FedAvg baseline round: each client uploads its fp32 update
    in its own slots and the server applies the exact average."""
    if mode not in DIGITAL_BITS:
        raise ValueError(f"not a digital mode: {mode!r}")
    slots, energy = round_bill(mode, len(tasks), state.theta.size, grid, energy_model, profile)
    deltas = train_deltas(state, tasks, train_cfgs)
    return _finish_round(
        state, tasks, fl.average_deltas(deltas), False,
        mode=mode,
        agg_nmse_db=NMSE_FLOOR_DB,  # the exact average arrives: no aggregation error
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

    Every client trains on ``train_template``, and training draws nothing,
    so the local models -- and therefore the updates entering aggregation
    -- are identical across modes with the same master seed.
    """
    num_ues = len(tasks)
    check_run(phy, num_ues, mode, rounds, master_seed)
    state = initial_state(tasks, master_seed)
    cfgs = [train_template] * num_ues
    traces: list[RoundTrace] = []
    for _ in range(rounds):
        if mode == "ota":
            state, trace = run_ota_round(state, tasks, cfgs, phy, master_seed, energy_model)
        else:
            state, trace = run_digital_round(
                state, tasks, cfgs, mode, profile, phy.grid, energy_model)
        traces.append(trace)
    return ExperimentResult(mode, traces, state.theta)
