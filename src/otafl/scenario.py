"""Scenario files: a flat ``key = value`` grammar for whole experiments.

A scenario is plain text, one dotted key per line, ``#`` comments allowed:

    mode = ota
    rounds = 20
    num_ues = 5
    task.kind = linear_regression
    channel.kind = flat_block
    sync.mode = ptp_on
    phy.uplink_snr_db = 20

Unknown keys, duplicate keys and malformed values are rejected with the
line number and key named in the error.  Every key has a default, so the
empty string parses to a runnable baseline.  ``serialize`` emits all keys
in a fixed order with round-trippable number formatting, which makes
parse(serialize(x)) == x.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import channel as _channel
from . import fl as _fl
from . import sync as _sync
from .accounting import (
    DEFAULT_FIXED_OVERHEAD,
    DEFAULT_SPECTRAL_EFFICIENCY,
    EnergyModel,
    SpectralProfile,
    digital_round_energy,
    digital_slots,
    ota_slots,
    round_energy,
)
from .channel import ChannelModel
from .csi import quantize_estimate
from .fl import Task, TrainConfig, make_blobs_task, make_linear_task, model_size
from .grid import PREAMBLE_FAMILY, GridConfig
from .precode import DEFAULT_FLOOR_REL as _DEFAULT_FLOOR
from .ota import (
    CSI_MODES,
    DIGITAL_BITS,
    MODES,
    PILOT_ALLOCATIONS,
    SCALE_MODES,
    ExperimentResult,
    PhyConfig,
    data_seeds,
    initial_state,
    ota_aggregate,
    round_updates,
    run_experiment,
)
from .sync import SyncConfig


class ScenarioError(ValueError):
    """Raised for unparseable or invalid scenario text."""


@dataclass(frozen=True)
class Scenario:
    name: str = "baseline"
    mode: str = "ota"
    rounds: int = 10
    num_ues: int = 5
    master_seed: int = 0

    task_kind: str = "linear_regression"
    task_samples_per_ue: int = 256
    task_features: int = 64
    task_heterogeneity: float = 0.5
    task_noise_std: float = 0.1
    task_classes: int = 4
    task_hidden: int = 16

    train_learning_rate: float = 0.1
    train_epochs: int = 1
    train_batch_size: int = 0
    train_optimizer: str = "sgd"

    grid_subcarriers: int = 256
    grid_symbols_per_slot: int = 14
    grid_subcarrier_spacing_hz: float = 15e3
    grid_fft_size: int = 256
    grid_cp_len: int = 16

    channel_kind: str = "flat_block"
    link_tx_power_dbm: float = 20.0

    sync_mode: str = "ptp_on"
    sync_ptp_bound_s: float = _sync.DEFAULT_PTP_BOUND_S
    sync_off_spread: int = 0
    sync_distribution: str = "uniform"
    sync_phase_offset_rad: float = 0.0

    phy_uplink_snr_db: float | None = 20.0
    phy_csi_mode: str = "estimated"
    phy_pilot_allocation: str = "fdm_comb"
    phy_scale_mode: str = "common"
    phy_floor_rel: float = _DEFAULT_FLOOR
    phy_decorrelation: float = 0.0
    phy_feedback_quant_bits: int = 0

    acct_spectral_efficiency: float = DEFAULT_SPECTRAL_EFFICIENCY
    acct_fixed_overhead: float = DEFAULT_FIXED_OVERHEAD


# Key groups: a field named ``<group>_<rest>`` is set by the key ``<group>.<rest>``.
_KEY_GROUPS = ("task", "train", "grid", "channel", "link", "sync", "phy", "acct")


def _dotted(field: str) -> str:
    group, sep, rest = field.partition("_")
    return f"{group}.{rest}" if sep and group in _KEY_GROUPS else field


# dotted key -> dataclass field, in serialization order
KEYMAP: dict[str, str] = {_dotted(f.name): f.name for f in dataclasses.fields(Scenario)}
_KEY_OF = {field: key for key, field in KEYMAP.items()}

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(Scenario)}

_CHOICES = {
    "mode": MODES,
    "task_kind": _fl.TASK_KINDS,
    "train_optimizer": _fl.OPTIMIZERS,
    "channel_kind": _channel.KINDS,
    "sync_mode": _sync.MODES,
    "sync_distribution": _sync.DISTRIBUTIONS,
    "phy_csi_mode": CSI_MODES,
    "phy_pilot_allocation": PILOT_ALLOCATIONS,
    "phy_scale_mode": SCALE_MODES,
}


def _parse_value(key: str, field: str, raw: str, line_no: int):
    ftype = _FIELD_TYPES[field]
    try:
        if ftype == "int":
            return int(raw)
        if ftype == "float":
            return float(raw)
        if ftype == "float | None":
            return None if raw.lower() == "none" else float(raw)
        return raw
    except ValueError:
        raise ScenarioError(
            f"line {line_no}: key {key!r} expects {ftype}, got {raw!r}"
        ) from None


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse(text: str) -> Scenario:
    """Parse scenario text; raises :class:`ScenarioError` with line numbers."""
    overrides: dict[str, object] = {}
    seen: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, eq, raw = body.partition("=")
        if not eq:
            raise ScenarioError(f"line {line_no}: expected 'key = value', got {line!r}")
        key = key.strip()
        raw = raw.strip()
        if key not in KEYMAP:
            raise ScenarioError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ScenarioError(
                f"line {line_no}: duplicate key {key!r} (first set on line {seen[key]})"
            )
        seen[key] = line_no
        field = KEYMAP[key]
        overrides[field] = _parse_value(key, field, raw, line_no)
    scenario = Scenario(**overrides)
    validate(scenario)
    return scenario


def parse_file(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def serialize(scenario: Scenario) -> str:
    """Fixed-order text form; ``parse(serialize(s)) == s``."""
    lines = [
        f"{key} = {_format_value(getattr(scenario, field))}"
        for key, field in KEYMAP.items()
    ]
    return "\n".join(lines) + "\n"


def validate(sc: Scenario) -> None:
    """Range and choice checks; error messages name the offending key."""
    def fail(field: str, why: str):
        raise ScenarioError(f"key {_KEY_OF[field]!r}: {why}")

    for field, allowed in _CHOICES.items():
        v = getattr(sc, field)
        if v not in allowed:
            fail(field, f"{v!r} is not one of {', '.join(allowed)}")
    for field, ftype in _FIELD_TYPES.items():
        v = getattr(sc, field)
        if ftype.startswith("float") and v is not None and not math.isfinite(v):
            fail(field, f"must be finite, got {v!r}")
    positive = (
        "rounds", "num_ues", "task_samples_per_ue", "task_features",
        "grid_subcarriers", "grid_symbols_per_slot", "grid_fft_size",
        "train_learning_rate", "grid_subcarrier_spacing_hz", "acct_spectral_efficiency",
    )
    for field in positive:
        if getattr(sc, field) <= 0:
            fail(field, "must be positive")
    nonneg = (
        "master_seed", "train_epochs", "train_batch_size", "grid_cp_len", "sync_off_spread",
        "sync_ptp_bound_s", "phy_floor_rel", "phy_decorrelation",
        "phy_feedback_quant_bits", "acct_fixed_overhead", "task_heterogeneity",
        "task_noise_std", "sync_phase_offset_rad",
    )
    for field in nonneg:
        if getattr(sc, field) < 0:
            fail(field, "must be >= 0")
    if sc.task_kind == "mlp_classification" and (sc.task_classes < 2 or sc.task_hidden < 1):
        fail("task_classes", "classification needs >= 2 classes and >= 1 hidden unit")
    if sc.grid_fft_size < sc.grid_subcarriers:
        fail("grid_fft_size", "must be >= grid.subcarriers")
    if sc.grid_cp_len >= sc.grid_fft_size:
        fail("grid_cp_len", "must be < grid.fft_size")
    if sc.phy_decorrelation > 1:
        fail("phy_decorrelation", "must lie in [0, 1]")
    if sc.phy_pilot_allocation == "fdm_comb" and sc.num_ues > sc.grid_subcarriers:
        fail("num_ues", "comb pilots need num_ues <= grid.subcarriers")
    if sc.num_ues > PREAMBLE_FAMILY:
        fail("num_ues", f"the preamble family has only {PREAMBLE_FAMILY} Gold sequences")
    try:  # the quantizer owns its level rule; a one-gain row runs it
        quantize_estimate(np.ones(1), sc.phy_feedback_quant_bits)
    except ValueError as exc:
        fail("phy_feedback_quant_bits", str(exc))
    try:  # and PhyConfig owns the SNR range
        PhyConfig(uplink_snr_db=sc.phy_uplink_snr_db)
    except ValueError as exc:
        fail("phy_uplink_snr_db", str(exc))
    try:
        model = build_energy_model(sc)
    except ValueError as exc:
        fail("link_tx_power_dbm", str(exc))
    params = model_size(sc.task_kind, sc.task_features, sc.task_hidden, sc.task_classes)
    grid = build_grid(sc)
    if sc.mode != "ota":  # every client's upload in turn, billed as a digital round is
        profile = SpectralProfile.uniform(sc.acct_spectral_efficiency, sc.num_ues)
        try:
            slots = digital_slots(params, DIGITAL_BITS[sc.mode], profile, grid)
        except ValueError as exc:
            fail("acct_spectral_efficiency", str(exc))
    try:
        if sc.mode == "ota":
            round_energy(sc.num_ues, ota_slots(params, grid), model)
        else:
            digital_round_energy(slots, model)
    except ValueError as exc:
        fail("link_tx_power_dbm", str(exc))


# ---------------------------------------------------------------------------
# builders


def build_grid(sc: Scenario) -> GridConfig:
    return GridConfig(
        subcarriers=sc.grid_subcarriers,
        symbols_per_slot=sc.grid_symbols_per_slot,
        subcarrier_spacing=sc.grid_subcarrier_spacing_hz,
        fft_size=sc.grid_fft_size,
        cp_len=sc.grid_cp_len,
    )


def build_phy(sc: Scenario) -> PhyConfig:
    return PhyConfig(
        grid=build_grid(sc),
        channel=ChannelModel(sc.channel_kind),
        sync=SyncConfig(
            mode=sc.sync_mode,
            ptp_bound_s=sc.sync_ptp_bound_s,
            off_spread=sc.sync_off_spread,
            distribution=sc.sync_distribution,
            phase_offset_rad=sc.sync_phase_offset_rad,
        ),
        floor_rel=sc.phy_floor_rel,
        csi_mode=sc.phy_csi_mode,
        pilot_allocation=sc.phy_pilot_allocation,
        scale_mode=sc.phy_scale_mode,
        uplink_snr_db=sc.phy_uplink_snr_db,
        decorrelation=sc.phy_decorrelation,
        feedback_quant_bits=sc.phy_feedback_quant_bits,
    )


def build_tasks(sc: Scenario, master_seed: int | None = None) -> list[Task]:
    """Per-UE datasets, deterministic in (master seed, ue)."""
    seed = sc.master_seed if master_seed is None else master_seed
    tasks = []
    for ue in range(sc.num_ues):
        shared, client = data_seeds(seed, ue)
        if sc.task_kind == "linear_regression":
            tasks.append(make_linear_task(
                shared, client,
                n_samples=sc.task_samples_per_ue,
                n_features=sc.task_features,
                heterogeneity=sc.task_heterogeneity,
                noise_std=sc.task_noise_std,
            ))
        else:
            tasks.append(make_blobs_task(
                shared, client,
                n_samples=sc.task_samples_per_ue,
                n_features=sc.task_features,
                n_classes=sc.task_classes,
                hidden=sc.task_hidden,
                heterogeneity=sc.task_heterogeneity,
            ))
    return tasks


def build_train(sc: Scenario) -> TrainConfig:
    return TrainConfig(
        learning_rate=sc.train_learning_rate,
        epochs=sc.train_epochs,
        batch_size=sc.train_batch_size,
        optimizer=sc.train_optimizer,
    )


def build_energy_model(sc: Scenario) -> EnergyModel:
    return EnergyModel(
        tx_power_dbm=sc.link_tx_power_dbm,
        fixed_overhead=sc.acct_fixed_overhead,
    )


def run_scenario(sc: Scenario) -> ExperimentResult:
    """Build every component from the scenario and run the experiment."""
    return run_experiment(
        mode=sc.mode,
        rounds=sc.rounds,
        tasks=build_tasks(sc),
        train_template=build_train(sc),
        phy=build_phy(sc),
        master_seed=sc.master_seed,
        profile=SpectralProfile.uniform(sc.acct_spectral_efficiency, sc.num_ues),
        energy_model=build_energy_model(sc),
    )


def sync_sweep(sc: Scenario, spreads: list[int], n_seeds: int) -> list[dict]:
    """Mean aggregation NMSE against injected timing-offset spread.

    For each seed the round-0 updates are trained once and pushed through
    the analog uplink at every spread value.  All randomness other than the
    offset bound is held fixed across spreads (common random numbers), and
    the uniform offsets themselves are coupled so they scale monotonically
    with the bound; the sweep therefore isolates the timing effect.
    Results are means over seeds of the per-run NMSE in dB.
    """
    if n_seeds < 1:
        raise ScenarioError("sync_sweep needs n_seeds >= 1")
    if any(s < 0 for s in spreads):
        raise ScenarioError("offset spreads must be >= 0 samples")
    repeats = [s for i, s in enumerate(spreads) if s in spreads[:i]]
    if repeats:
        raise ScenarioError(f"offset spread {repeats[0]} is listed more than once")
    phy0 = build_phy(sc)
    train = build_train(sc)
    per_spread: dict[int, list[float]] = {s: [] for s in spreads}
    for k in range(n_seeds):
        master = sc.master_seed + k
        tasks = build_tasks(sc, master)
        state = initial_state(tasks, master)
        deltas = round_updates(state, tasks, train, master)
        for s in spreads:
            phy = dataclasses.replace(
                phy0,
                sync=SyncConfig(
                    mode="ptp_off",
                    off_spread=s,
                    distribution="uniform",
                    phase_offset_rad=sc.sync_phase_offset_rad,
                ),
            )
            report = ota_aggregate(deltas, phy, master, 0)
            per_spread[s].append(report.agg_nmse_db)
    return [
        {
            "spread_samples": s,
            "mean_agg_nmse_db": sum(per_spread[s]) / n_seeds,
            "seeds": n_seeds,
        }
        for s in spreads
    ]
