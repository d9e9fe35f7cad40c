"""Spectrum and energy accounting for digital versus analog aggregation.

Digital federated uploads serialize every client's fp32 update through
orthogonal resource blocks, so the slot bill grows with the client count.
The analog scheme sends all updates simultaneously; its slot bill is set by
the parameter count alone (2 reals per resource element).

Energy is modeled per round as E = c * e + S * e, where e is the energy of
one slot at the configured transmit power: the power times the grid's slot
airtime, ``GridConfig.slot_duration_s`` (0.99167 ms on the default grid, half
that at twice the subcarrier spacing).  c is a fixed per-round overhead
in slot-energy units (control signaling, synchronization, measurement) and S
every slot any client sent: M times the shared analog slots, or the sum of
the digital uploads.  The default c = 94/3 is calibrated so that the
two-client energy ratio of the reference configuration (87 digital slots per
client versus 10 shared analog slots) comes out at exactly 4.0; the same
constant then yields about 7.66 at twenty clients and an asymptote of 8.7.
The slot energy cancels out of every such ratio.  A slot bill or round
energy past float range raises ValueError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import FieldError
from .grid import GridConfig
from .weightcodec import slot_plan

# Spectral efficiency of the reference uplink MCS (bits per resource element):
# 256-QAM at coding rate 0.92 ~ 8 * 0.92575.
DEFAULT_SPECTRAL_EFFICIENCY = 7.4063
DEFAULT_FIXED_OVERHEAD = 94.0 / 3.0
DIGITAL_BITS = {"digital_fp32": 32}  # upload bits per parameter


@dataclass(frozen=True)
class SpectralProfile:
    """Per-client spectral efficiencies in bits per resource element."""

    efficiencies: tuple[float, ...]

    def __post_init__(self):
        if not self.efficiencies or not all(0 < m < math.inf for m in self.efficiencies):
            raise FieldError("efficiencies", "must be one or more positive, finite values")

    @classmethod
    def uniform(cls, efficiency: float, num_ues: int) -> "SpectralProfile":
        return cls(tuple([efficiency] * num_ues))

    @property
    def num_ues(self) -> int:
        return len(self.efficiencies)


@dataclass(frozen=True)
class EnergyModel:
    """Transmit power and the fixed per-round overhead c.  A power whose
    energy over a slot of the default grid, the one ``otafl accounting``
    bills, is zero or past float range is rejected."""

    tx_power_dbm: float = 20.0
    fixed_overhead: float = DEFAULT_FIXED_OVERHEAD

    def __post_init__(self):
        try:
            energy = self.slot_energy_j(GridConfig())
        except OverflowError:
            energy = math.inf
        if not 0 < energy < math.inf:
            raise FieldError("tx_power_dbm", f"{self.tx_power_dbm!r} gives {energy!r} J per slot")
        if not 0 <= self.fixed_overhead < math.inf:
            raise FieldError("fixed_overhead",
                             f"must be >= 0 and finite, got {self.fixed_overhead!r}")

    def slot_energy_j(self, grid: GridConfig) -> float:
        """Energy of one transmitted slot of ``grid`` in joules: the transmit
        power over the slot's airtime, ``grid.slot_duration_s``."""
        return 10.0 ** ((self.tx_power_dbm - 30.0) / 10.0) * grid.slot_duration_s


def digital_slots_raw(param_count: int, bits_per_param: int, efficiency: float,
                      cfg: GridConfig = GridConfig()) -> float:
    """Pre-ceiling slots one client needs: P*b / (m*K).  ``SpectralProfile``
    owns the efficiency check for a scenario; it stays for direct callers."""
    if param_count < 1 or bits_per_param < 1 or not 0 < efficiency < math.inf:
        raise ValueError("param_count, bits and efficiency must be positive and finite")
    try:
        slots = param_count * bits_per_param / (efficiency * cfg.res_per_slot)
    except OverflowError:  # the bit count alone is past float range
        slots = math.inf
    if slots == math.inf:
        raise ValueError(f"param_count and efficiency {efficiency!r} give no finite slot count")
    return slots


def digital_slots(param_count: int, bits_per_param: int, profile: SpectralProfile,
                  cfg: GridConfig = GridConfig()) -> int:
    """Total slots for all clients, each rounded up to whole slots."""
    total = sum(
        math.ceil(digital_slots_raw(param_count, bits_per_param, m, cfg))
        for m in profile.efficiencies
    )
    if total > sys.float_info.max:
        raise ValueError(f"efficiency {min(profile.efficiencies)!r} gives {profile.num_ues} "
                         "clients more slots than a float holds")
    return total


def round_energy(sent_slots: int, model: EnergyModel = EnergyModel(),
                 grid: GridConfig = GridConfig()) -> float:
    """Joules per round: fixed overhead plus every slot any client sent,
    each a slot of ``grid``."""
    if sent_slots < 1:
        raise ValueError("sent_slots must be >= 1")
    e = model.slot_energy_j(grid)
    energy = model.fixed_overhead * e + sent_slots * e
    if energy == math.inf:
        raise FieldError("tx_power_dbm", f"{model.tx_power_dbm!r} and fixed_overhead "
                         f"{model.fixed_overhead!r} give a round energy past float range")
    return energy


def round_bill(mode: str, num_ues: int, param_count: int, grid: GridConfig,
               model: EnergyModel, profile: SpectralProfile | None = None) -> tuple[int, float]:
    """(slots, joules) of one round: ``slot_plan``'s shared slots, sent by
    every client, for ``ota``; each client's upload in turn at ``profile``'s
    (by default the reference) efficiencies for a digital mode.  Each slot is
    one of ``grid``, billed at its airtime.  Past float range it raises a
    FieldError for ``profile.efficiencies`` or ``energy.tx_power_dbm``."""
    profile = profile or SpectralProfile.uniform(DEFAULT_SPECTRAL_EFFICIENCY, num_ues)
    if mode == "ota":
        slots = slot_plan(param_count, grid)
    elif profile.num_ues != num_ues:
        raise FieldError("profile.efficiencies", f"has {profile.num_ues} clients, not {num_ues}")
    else:
        try:
            slots = digital_slots(param_count, DIGITAL_BITS[mode], profile, grid)
        except ValueError as exc:
            raise FieldError("profile.efficiencies", str(exc)) from None
    try:  # S: every client sends the shared slots at once, or its own upload
        return slots, round_energy(num_ues * slots if mode == "ota" else slots, model, grid)
    except FieldError as exc:
        raise FieldError(f"energy.{exc.field}", exc.reason) from None


def energy_gain(num_ues: int, digital_slots_per_ue: int, ota_round_slots: int,
                model: EnergyModel = EnergyModel()) -> float:
    """Energy ratio digital / analog at the same client count.

    Monotonically increasing in the client count and bounded above by the
    slot ratio digital_slots_per_ue / ota_round_slots.
    """
    dig = round_energy(num_ues * digital_slots_per_ue, model)
    ota = round_energy(num_ues * ota_round_slots, model)
    return dig / ota


def format_from_grid(symbols_per_slot: int, subcarriers: int,
                     subcarrier_spacing: float) -> GridConfig:
    """Grid with the given slot dimensions, for the slot bill.

    The FFT size is widened to the subcarrier count when needed; the bill
    reads only symbols x subcarriers.
    """
    return GridConfig(
        subcarriers=subcarriers,
        symbols_per_slot=symbols_per_slot,
        subcarrier_spacing=subcarrier_spacing,
        fft_size=max(GridConfig.fft_size, subcarriers),
    )


def gains_table(
    num_ues_range: range,
    param_count: int,
    bits_per_param: int,
    efficiency: float = DEFAULT_SPECTRAL_EFFICIENCY,
    model: EnergyModel = EnergyModel(),
) -> list[dict]:
    """Rows of (M, mode, slots, gain, energy_j) over a range of client
    counts, billed on the default grid."""
    rows = []
    per_ue = math.ceil(digital_slots_raw(param_count, bits_per_param, efficiency))
    shared = slot_plan(param_count, GridConfig())
    for m in num_ues_range:
        profile = SpectralProfile.uniform(efficiency, m)
        dig = digital_slots(param_count, bits_per_param, profile)
        rows.append({
            "num_ues": m,
            "mode": "digital",
            "slots": dig,
            "gain": dig / shared,
            "energy_j": round_energy(dig, model),
        })
        rows.append({
            "num_ues": m,
            "mode": "ota",
            "slots": shared,
            "gain": energy_gain(m, per_ue, shared, model),
            "energy_j": round_energy(m * shared, model),
        })
    return rows
