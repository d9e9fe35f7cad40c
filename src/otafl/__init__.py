"""Analog over-the-air aggregation for federated learning, simulated at link level.

Clients train locally, map their model updates onto OFDM resource grids,
invert their own channel and transmit simultaneously; the multiple-access
channel adds the waveforms so the receiver demodulates the *average* update
directly.  The package also carries a conventional digital FedAvg baseline
and the spectrum/energy bookkeeping needed to compare the two.
"""

from .accounting import (
    EnergyModel,
    SpectralProfile,
    digital_slots,
    energy_gain,
    gains_table,
    ota_slots,
    round_energy,
    spectrum_gain,
)
from .channel import ChannelModel, realize_channel, superpose
from .csi import interpolate, ls_estimate, nmse
from .errors import FieldError
from .fl import (
    RoundState,
    Task,
    TrainConfig,
    average_deltas,
    compute_delta,
    evaluate_loss,
    fedavg_digital,
    init_params,
    local_train,
    make_blobs_task,
    make_linear_task,
)
from .grid import (
    GridConfig,
    TimeSignal,
    detect_frame,
    gold_sequence,
    make_pilot_values,
    ofdm_demodulate,
    ofdm_modulate,
)
from .ota import (
    AggregateReport,
    ExperimentResult,
    PhyConfig,
    RoundTrace,
    ota_aggregate,
    run_experiment,
)
from .precode import channel_invert, compute_alpha, inversion_floor
from .scenario import Scenario, ScenarioError, parse, parse_file, run_scenario, serialize
from .sync import SyncConfig, draw_offsets, offset_bound, peak_spread
from .weightcodec import (
    map_to_grids,
    pack_complex,
    scale_updates,
    slot_plan,
    unmap_from_grids,
    unscale_updates,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport", "ChannelModel", "EnergyModel",
    "ExperimentResult", "FieldError", "GridConfig", "PhyConfig",
    "RoundState", "RoundTrace", "Scenario", "ScenarioError",
    "SpectralProfile",
    "SyncConfig", "Task", "TimeSignal", "TrainConfig",
    "average_deltas", "channel_invert", "compute_alpha",
    "compute_delta", "detect_frame", "digital_slots", "draw_offsets",
    "energy_gain", "evaluate_loss", "fedavg_digital", "gains_table",
    "gold_sequence", "init_params", "interpolate", "inversion_floor",
    "local_train", "ls_estimate", "make_blobs_task", "make_linear_task",
    "make_pilot_values", "map_to_grids", "nmse", "ofdm_demodulate",
    "ofdm_modulate", "offset_bound", "ota_aggregate", "ota_slots",
    "pack_complex", "parse", "parse_file", "peak_spread", "realize_channel",
    "round_energy", "run_experiment", "run_scenario", "scale_updates",
    "serialize", "slot_plan", "spectrum_gain", "superpose", "unmap_from_grids",
    "unscale_updates",
]
