"""Scenario files: a flat ``key = value`` grammar for whole experiments.

A scenario is plain text, one dotted key per line, ``#`` comments allowed:

    mode = ota
    rounds = 20
    num_ues = 5
    task.features = 64
    channel.kind = flat_block
    sync.mode = ptp_on
    phy.uplink_snr_db = 20

Unknown keys, duplicate keys and malformed values are rejected with the
line number and key named in the error.  Every key has a default, so the
empty string parses to a runnable baseline.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

from .accounting import DEFAULT_SPECTRAL_EFFICIENCY, EnergyModel, SpectralProfile, round_bill
from .channel import ChannelModel
from .errors import FieldError
from .fl import Task, TrainConfig, check_task_shape, make_linear_task
from .grid import GridConfig
from .ota import (
    ExperimentResult,
    PhyConfig,
    RoundShare,
    check_run,
    data_seeds,
    initial_state,
    ota_aggregate,
    run_experiment,
    train_deltas,
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

    task_samples_per_ue: int = 256
    task_features: int = 64
    task_heterogeneity: float = 0.5
    task_noise_std: float = 0.1

    train_learning_rate: float = TrainConfig.learning_rate
    train_epochs: int = TrainConfig.epochs

    grid_subcarriers: int = GridConfig.subcarriers
    grid_symbols_per_slot: int = GridConfig.symbols_per_slot
    grid_subcarrier_spacing_hz: float = GridConfig.subcarrier_spacing
    grid_fft_size: int = GridConfig.fft_size
    grid_cp_len: int = GridConfig.cp_len

    channel_kind: str = "flat_block"
    link_tx_power_dbm: float = EnergyModel.tx_power_dbm

    sync_mode: str = SyncConfig.mode
    sync_ptp_bound_s: float = SyncConfig.ptp_bound_s
    sync_off_spread: int = SyncConfig.off_spread

    phy_uplink_snr_db: float | None = PhyConfig.uplink_snr_db
    phy_csi_mode: str = PhyConfig.csi_mode
    phy_pilot_allocation: str = PhyConfig.pilot_allocation
    phy_floor_rel: float = PhyConfig.floor_rel

    acct_spectral_efficiency: float = DEFAULT_SPECTRAL_EFFICIENCY
    acct_fixed_overhead: float = EnergyModel.fixed_overhead


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
# <group>, except these keys, which set the "<part>.<field>" given.
# ``build`` reads this one table from keys to fields when it builds the
# components, and back from a rejected field to its key.
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


def parse(text: str) -> Scenario:
    """Read scenario text; bad syntax, keys or types raise :class:`ScenarioError` by line."""
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
    return Scenario(**overrides)


def parse_file(path) -> Scenario:
    """Read a scenario file as :func:`parse` does, skipping a UTF-8 byte-order mark."""
    with open(path, encoding="utf-8-sig") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# builders


@dataclass(frozen=True)
class Components:
    """A scenario and every component it builds, each checked by its own rules."""

    scenario: Scenario
    phy: PhyConfig
    train: TrainConfig
    energy: EnergyModel
    profile: SpectralProfile


def build(sc: Scenario) -> Components:
    """The one check of a scenario's values: build every component that
    reads it, once each and in dependency order, without drawing task data.
    Each component checks its own fields; the error names the key."""
    def fail(key: str, why: str):
        raise ScenarioError(f"key {key!r}: {why}")

    def keyed(part: str | None, make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except FieldError as exc:  # a dotted field already starts with its part
            path = exc.field if part is None or "." in exc.field else f"{part}.{exc.field}"
            fail(_KEY_OF_PATH.get(path, path), exc.reason)

    for field, ftype in _FIELD_TYPES.items():
        v = getattr(sc, field)
        if ftype.startswith("float") and v is not None and not math.isfinite(v):
            fail(_KEY_OF[field], f"must be finite, got {v!r}")
    keyed("task", check_task_shape, **_fields(sc, "task"))
    grid = keyed("grid", GridConfig, **_fields(sc, "grid"))
    sync = keyed("sync", SyncConfig, **_fields(sc, "sync"))
    channel = keyed("channel", ChannelModel, **_fields(sc, "channel"))
    phy = keyed("phy", PhyConfig, grid=grid, channel=channel, sync=sync, **_fields(sc, "phy"))
    keyed(None, check_run, phy, sc.num_ues, sc.mode, sc.rounds, sc.master_seed)
    train = keyed("train", TrainConfig, **_fields(sc, "train"))
    energy = keyed("energy", EnergyModel, **_fields(sc, "energy"))
    profile = keyed("profile", SpectralProfile.uniform, sc.acct_spectral_efficiency, sc.num_ues)
    params = sc.task_features  # linear regression: one model weight per feature
    keyed(None, round_bill, sc.mode, sc.num_ues, params, grid, energy, profile)
    return Components(sc, phy, train, energy, profile)


def build_tasks(sc: Scenario, master_seed: int | None = None) -> list[Task]:
    """Per-UE datasets, deterministic in (master seed, ue)."""
    check_task_shape(**_fields(sc, "task"))
    seed = sc.master_seed if master_seed is None else master_seed
    tasks = []
    for ue in range(sc.num_ues):
        shared, client = data_seeds(seed, ue)
        tasks.append(make_linear_task(
            shared, client,
            n_samples=sc.task_samples_per_ue,
            n_features=sc.task_features,
            heterogeneity=sc.task_heterogeneity,
            noise_std=sc.task_noise_std,
        ))
    return tasks


def run_scenario(parts: Components) -> ExperimentResult:
    """Run the experiment of a built scenario on its components."""
    sc = parts.scenario
    return run_experiment(
        mode=sc.mode,
        rounds=sc.rounds,
        tasks=build_tasks(sc),
        train_template=parts.train,
        phy=parts.phy,
        master_seed=sc.master_seed,
        profile=parts.profile,
        energy_model=parts.energy,
    )


def sync_sweep(parts: Components, spreads: list[int], n_seeds: int) -> list[dict]:
    """Mean aggregation NMSE against injected timing-offset spread.

    For each seed the round-0 updates are trained once and pushed through
    the analog uplink at every spread value.  The updates, the channel
    gains and the noise seed are held fixed across spreads (common random
    numbers), and the offsets themselves are coupled so they scale
    monotonically with the bound.  Each seed builds one
    :class:`~otafl.ota.RoundShare`, which reads the updates, builds the
    channel side and draws the sync uniforms once.  The first spread that
    packs the updates leaves each client's per-subcarrier payload peaks in
    it, and every spread maps the same uniforms under its own bound, reuses
    those peaks and reads the one drawn noise stream from the start.  The
    receiver noise is still not fully common: the sounding event is noised whole and its length grows with
    the largest offset (the comb event at seed 3 spans 4 776, 4 587 and
    4 523 samples at spreads 256, 64 and 0), so each spread's payload draws
    start after that spread's own sounding draws, at a different point of
    the stream.
    Results are means over seeds of the per-run NMSE in dB, an aborted
    aggregation counted at 0 dB (the ``run`` summary leaves it out).
    Only an analog scenario (``mode = ota``) has an uplink to sweep.  An
    NMSE that is not finite (updates whose energy overflows, as a diverging
    step gives) raises ``ValueError`` naming the seed and the spread, as
    ``run`` stops on a loss that is not finite.
    """
    if n_seeds < 1:
        raise ScenarioError("sync_sweep needs n_seeds >= 1")
    if not spreads:
        raise ScenarioError("sync_sweep needs at least one offset spread")
    repeats = [s for i, s in enumerate(spreads) if s in spreads[:i]]
    if repeats:
        raise ScenarioError(f"offset spread {repeats[0]} is listed more than once")
    sc = parts.scenario
    if sc.mode != "ota":
        raise ScenarioError(f"key 'mode': a sync sweep runs the analog uplink, so it needs "
                            f"'ota', got {sc.mode!r}")
    phys = {}
    for s in spreads:  # a spread is checked as the key sync.off_spread
        swept = dataclasses.replace(sc, sync_mode="ptp_off", sync_off_spread=s)
        phys[s] = build(swept).phy
    per_spread: dict[int, list[float]] = {s: [] for s in spreads}
    for k in range(n_seeds):
        master = sc.master_seed + k
        tasks = build_tasks(sc, master)
        state = initial_state(tasks, master)
        deltas = train_deltas(state, tasks, [parts.train] * len(tasks))
        share = RoundShare(deltas, phys[spreads[0]], master, 0)
        for s in spreads:
            report = ota_aggregate(deltas, phys[s], master, 0, share=share)
            if not math.isfinite(report.agg_nmse_db):
                raise ValueError(f"seed {master}, spread {s}: the aggregation NMSE is not "
                                 "finite")
            per_spread[s].append(report.agg_nmse_db)
    return [
        {
            "spread_samples": s,
            "mean_agg_nmse_db": sum(per_spread[s]) / n_seeds,
            "seeds": n_seeds,
        }
        for s in spreads
    ]
