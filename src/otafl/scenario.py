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
import functools
import math
from dataclasses import dataclass

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
from .errors import FieldError
from .fl import Task, TrainConfig, check_task_shape, make_blobs_task, make_linear_task, model_size
from .grid import GridConfig
from .precode import DEFAULT_FLOOR_REL as _DEFAULT_FLOOR
from .ota import (
    DIGITAL_BITS,
    ExperimentResult,
    PhyConfig,
    check_run,
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

# The key "<group>.<rest>" sets the field <rest> of the component part
# <group>, except these keys, which set the "<part>.<field>" given.  The
# builders read this one table from keys to fields, and ``validate`` reads
# it back from a rejected field to its key.
_PATHS = {
    "grid.subcarrier_spacing_hz": "grid.subcarrier_spacing",
    "link.tx_power_dbm": "energy.tx_power_dbm",
    "acct.fixed_overhead": "energy.fixed_overhead",
    "acct.spectral_efficiency": "profile.efficiencies",
}
_KEY_OF_PATH = {path: key for key, path in _PATHS.items()}


@functools.cache
def _part_fields(part: str) -> tuple[tuple[str, str], ...]:
    """(component field, Scenario field) pairs of one component part."""
    pairs = []
    for key, field in KEYMAP.items():
        owner, _, name = _PATHS.get(key, key).rpartition(".")
        if owner == part:
            pairs.append((name, field))
    return tuple(pairs)


def _fields(sc: Scenario, part: str) -> dict:
    """The values of one component part's fields, by field name."""
    return {name: getattr(sc, field) for name, field in _part_fields(part)}


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
    """Check a scenario by building every component that reads it, in
    dependency order, without drawing task data.  Each component checks its
    own fields; the error names the key of the value it rejects."""
    def fail(key: str, why: str):
        raise ScenarioError(f"key {key!r}: {why}")

    def keyed(part: str | None, build, *args, **kwargs):
        try:
            return build(*args, **kwargs)
        except FieldError as exc:  # a dotted field already starts with its part
            path = exc.field if part is None or "." in exc.field else f"{part}.{exc.field}"
            fail(_KEY_OF_PATH.get(path, path), exc.reason)

    for field, ftype in _FIELD_TYPES.items():
        v = getattr(sc, field)
        if ftype.startswith("float") and v is not None and not math.isfinite(v):
            fail(_KEY_OF[field], f"must be finite, got {v!r}")
    keyed("task", check_task_shape, **_fields(sc, "task"))
    keyed("grid", build_grid, sc)
    keyed("sync", build_sync, sc)
    keyed("channel", ChannelModel, **_fields(sc, "channel"))
    phy = keyed("phy", build_phy, sc)
    keyed(None, check_run, phy, sc.num_ues, sc.mode, sc.rounds, sc.master_seed)
    keyed("train", build_train, sc)
    model = keyed("energy", build_energy_model, sc)
    profile = keyed("profile", SpectralProfile.uniform, sc.acct_spectral_efficiency, sc.num_ues)
    params = model_size(sc.task_kind, sc.task_features, sc.task_hidden, sc.task_classes)
    if sc.mode != "ota":  # every client's upload in turn, billed as a digital round is
        try:
            slots = digital_slots(params, DIGITAL_BITS[sc.mode], profile, phy.grid)
        except ValueError as exc:
            fail("acct.spectral_efficiency", str(exc))
    try:
        if sc.mode == "ota":
            round_energy(sc.num_ues, ota_slots(params, phy.grid), model)
        else:
            digital_round_energy(slots, model)
    except ValueError as exc:
        fail("link.tx_power_dbm", str(exc))


# ---------------------------------------------------------------------------
# builders


def build_grid(sc: Scenario) -> GridConfig:
    return GridConfig(**_fields(sc, "grid"))


def build_sync(sc: Scenario) -> SyncConfig:
    return SyncConfig(**_fields(sc, "sync"))


def build_phy(sc: Scenario) -> PhyConfig:
    return PhyConfig(
        grid=build_grid(sc),
        channel=ChannelModel(**_fields(sc, "channel")),
        sync=build_sync(sc),
        **_fields(sc, "phy"),
    )


def build_tasks(sc: Scenario, master_seed: int | None = None) -> list[Task]:
    """Per-UE datasets, deterministic in (master seed, ue)."""
    check_task_shape(**_fields(sc, "task"))
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
    return TrainConfig(**_fields(sc, "train"))


def build_energy_model(sc: Scenario) -> EnergyModel:
    return EnergyModel(**_fields(sc, "energy"))


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
    repeats = [s for i, s in enumerate(spreads) if s in spreads[:i]]
    if repeats:
        raise ScenarioError(f"offset spread {repeats[0]} is listed more than once")
    phys = {}
    for s in spreads:  # a spread is checked as the key sync.off_spread
        swept = dataclasses.replace(sc, sync_mode="ptp_off", sync_off_spread=s,
                                    sync_distribution="uniform")
        validate(swept)
        phys[s] = build_phy(swept)
    train = build_train(sc)
    per_spread: dict[int, list[float]] = {s: [] for s in spreads}
    for k in range(n_seeds):
        master = sc.master_seed + k
        tasks = build_tasks(sc, master)
        state = initial_state(tasks, master)
        deltas = round_updates(state, tasks, train, master)
        for s in spreads:
            report = ota_aggregate(deltas, phys[s], master, 0)
            per_spread[s].append(report.agg_nmse_db)
    return [
        {
            "spread_samples": s,
            "mean_agg_nmse_db": sum(per_spread[s]) / n_seeds,
            "seeds": n_seeds,
        }
        for s in spreads
    ]
