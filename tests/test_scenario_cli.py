"""Scenario grammar, builders and the command-line front end."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from otafl import cli, fl, scenario
from otafl.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK, SCHEMA_VERSION, main
from otafl.errors import FieldError
from otafl.scenario import (
    _PATHS,
    KEYMAP,
    Scenario,
    ScenarioError,
    build,
    build_tasks,
    parse,
    parse_file,
    run_scenario,
    sync_sweep,
)
from oracles import serialize

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

TINY = """\
# two clients on a reduced grid, noise-free uplink
name = tiny
mode = ota
rounds = 2
num_ues = 2
task.samples_per_ue = 32
task.features = 8
grid.subcarriers = 32
grid.symbols_per_slot = 4
grid.fft_size = 32
grid.cp_len = 8
phy.uplink_snr_db = none
"""


def _tiny_file(tmp_path, text=TINY, name="tiny.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- grammar


def test_empty_text_is_the_default_scenario():
    assert parse("") == Scenario()


def test_serialize_parse_round_trip():
    assert parse(serialize(Scenario())) == Scenario()
    custom = dataclasses.replace(
        Scenario(),
        name="sweep",
        rounds=3,
        phy_uplink_snr_db=None,
        link_tx_power_dbm=23.5,
        task_heterogeneity=0.0,
        channel_kind="rayleigh_per_subcarrier",
        phy_pilot_allocation="tdm_full",
    )
    assert parse(serialize(custom)) == custom


def test_comments_and_blank_lines_ignored():
    sc = parse("\n# full-line comment\nrounds = 7  # trailing comment\n\n")
    assert sc.rounds == 7


def test_none_keyword_for_snr():
    assert parse("phy.uplink_snr_db = none").phy_uplink_snr_db is None
    assert parse("phy.uplink_snr_db = NONE").phy_uplink_snr_db is None
    assert parse("phy.uplink_snr_db = 12.5").phy_uplink_snr_db == 12.5
    assert "phy.uplink_snr_db = none" in serialize(parse("phy.uplink_snr_db = none"))


def test_unknown_key_names_line():
    with pytest.raises(ScenarioError, match=r"line 3.*carrier_freq"):
        parse("rounds = 2\n\ncarrier_freq = 1e9\n")
    # no absolute pathloss, noise floor, transmit scale or int8 width is
    # modelled, and training is SGD with one offset law and one shared
    # scale pair, so these are unknown
    for key in ("channel.pathloss_exponent", "channel.carrier_hz", "link.distance_m",
                "link.noise_psd_dbm_hz", "acct.bits_int8", "phy.peak_power", "phy.margin",
                "train.optimizer", "sync.distribution", "phy.scale_mode"):
        with pytest.raises(ScenarioError, match=rf"line 2: unknown key '{key}'"):
            parse(f"rounds = 2\n{key} = 1\n")


def test_duplicate_key_names_both_lines():
    with pytest.raises(ScenarioError, match=r"line 2.*duplicate.*line 1"):
        parse("rounds = 2\nrounds = 3\n")


def test_type_error_names_key_and_type():
    with pytest.raises(ScenarioError, match=r"line 1.*'rounds'.*int"):
        parse("rounds = many")
    with pytest.raises(ScenarioError, match=r"float"):
        parse("phy.floor_rel = wide")


def test_missing_equals_sign():
    with pytest.raises(ScenarioError, match=r"line 1.*key = value"):
        parse("just some words")


def test_choice_errors_name_dotted_key():
    with pytest.raises(ScenarioError, match=r"'mode'"):
        build(parse("mode = hybrid"))
    with pytest.raises(ScenarioError, match=r"'channel.kind'"):
        build(parse("channel.kind = two_ray"))
    with pytest.raises(ScenarioError, match=r"'sync.mode'"):
        build(parse("sync.mode = gps"))


def test_cross_field_validation():
    with pytest.raises(ScenarioError, match=r"'grid.fft_size'"):
        build(parse("grid.subcarriers = 512"))  # default fft stays at 256
    with pytest.raises(ScenarioError, match=r"'num_ues'"):
        build(parse("num_ues = 40\ngrid.subcarriers = 32\ngrid.fft_size = 32"))
    with pytest.raises(ScenarioError, match=r"'task.classes'"):
        build(parse("task.kind = mlp_classification\ntask.classes = 1"))
    with pytest.raises(ScenarioError, match=r"'rounds'"):
        build(parse("rounds = 0"))
    with pytest.raises(ScenarioError, match=r"'phy.floor_rel'"):
        build(parse("phy.floor_rel = -0.1"))


@pytest.mark.parametrize("base, bad, good, key", [
    ("mode = digital_fp32\n", "acct.spectral_efficiency = 1e-320",
     "acct.spectral_efficiency = 1e-300", "acct.spectral_efficiency"),
    # 1.1e308 slots per fp32 client fit a float; two clients' do not
    ("mode = digital_fp32\nacct.spectral_efficiency = 5e-309\n", "num_ues = 2", "num_ues = 1",
     "acct.spectral_efficiency"),
    ("acct.spectral_efficiency = 5e-309\n", "mode = digital_fp32", "mode = digital_int8",
     "acct.spectral_efficiency"),
    ("acct.spectral_efficiency = 1e-320\n", "mode = digital_int8", "mode = ota",
     "acct.spectral_efficiency"),
    ("acct.fixed_overhead = 1e20\n", "link.tx_power_dbm = 3000", "link.tx_power_dbm = 2900",
     "link.tx_power_dbm"),
    ("mode = digital_fp32\nacct.spectral_efficiency = 1e-10\n", "link.tx_power_dbm = 3100",
     "link.tx_power_dbm = 3000", "link.tx_power_dbm"),
], ids=["fp32-efficiency", "fp32-two-clients", "fp32-not-int8", "int8-not-ota",
        "ota-energy", "fp32-energy"])
def test_a_round_bill_past_float_range_names_its_key(base, bad, good, key):
    """The round the mode runs is billed when the scenario is built: every client's
    digital upload in turn (8 or 32 bits per parameter) or the one shared
    analog payload, and then that round's energy.  A bill a float cannot
    hold names its key instead of stopping a run mid-way; an efficiency
    the analog round never reads is not checked."""
    with pytest.raises(ScenarioError, match=rf"'{key}'"):
        build(parse(base + bad))
    build(parse(base + good))


@pytest.mark.parametrize("key, bad, good", [
    ("phy.feedback_quant_bits", "1", "2"),
    ("num_ues", "130", "129"),
    ("phy.uplink_snr_db", "nan", "-5"),
    ("phy.uplink_snr_db", "-inf", "none"),
    ("phy.floor_rel", "nan", "0"),
    ("train.learning_rate", "inf", "0.05"),
    ("task.noise_std", "nan", "0"),
    ("phy.decorrelation", "1.5", "1"),
    ("grid.cp_len", "256", "255"),
    ("master_seed", "-1", "0"),
    ("link.tx_power_dbm", "5000", "3000"),
    ("link.tx_power_dbm", "-5000", "-3000"),
    ("phy.uplink_snr_db", "4000", "3000"),
    ("phy.uplink_snr_db", "-4000", "-3000"),
    ("phy.uplink_snr_db", "-3100", "-3000"),
    ("phy.feedback_quant_bits", "1025", "1024"),
])
def test_unsimulatable_values_name_their_key(key, bad, good):
    """Values the uplink cannot run fail when built, not deep in a round:
    a 1-bit quantizer has no nonzero level, the degree-7 Gold family has 129
    preambles, a non-finite SNR or floor silently aborts or unfloors every
    round, as does an SNR whose 10 ** (|snr| / 10) leaves float range, a
    quantizer past 1024 bits has a level count no float holds, a
    non-finite learning rate or label noise poisons the payload, a
    decorrelation weight lies in [0, 1] and the cyclic prefix is shorter
    than the FFT.  A negative master seed has no seed sequence, and a slot
    energy beyond float range would stop the bill with an OverflowError.
    All hold for ``tdm_full`` too; ``none`` stays the noiseless SNR."""
    pilots = "phy.pilot_allocation = tdm_full\n"
    with pytest.raises(ScenarioError, match=rf"'{key}'"):
        build(parse(f"{pilots}{key} = {bad}"))
    value = getattr(build(parse(f"{pilots}{key} = {good}")).scenario, KEYMAP[key])
    assert value == (None if good == "none" else float(good))


_TYPES = {f.name: f.type for f in dataclasses.fields(Scenario)}
FLOAT_KEYS = [key for key, field in KEYMAP.items() if _TYPES[field].startswith("float")]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_floats_name_their_key(key, bad):
    with pytest.raises(ScenarioError, match=rf"key '{key}': must be finite"):
        build(parse(f"{key} = {bad}"))


# One value per key that the component owning the key rejects, each on the
# default scenario (``task.classes`` and ``task.hidden`` on the MLP family).
MLP = "task.kind = mlp_classification\n"
REJECTED = {
    "mode": "hybrid", "rounds": "0", "num_ues": "0", "master_seed": "-1",
    "task.kind": "ridge", "task.samples_per_ue": "0", "task.features": "0",
    "task.heterogeneity": "-0.5", "task.noise_std": "-0.1",
    "task.classes": MLP + "1", "task.hidden": MLP + "0",
    "train.learning_rate": "0", "train.epochs": "-1", "train.batch_size": "-1",
    "grid.subcarriers": "0", "grid.symbols_per_slot": "0",
    "grid.subcarrier_spacing_hz": "0", "grid.fft_size": "128", "grid.cp_len": "-1",
    "channel.kind": "two_ray", "link.tx_power_dbm": "5000",
    "sync.mode": "gps", "sync.ptp_bound_s": "-1e-6", "sync.off_spread": "-1",
    "sync.phase_offset_rad": "-0.1",
    "phy.uplink_snr_db": "4000", "phy.csi_mode": "oracle", "phy.pilot_allocation": "random",
    "phy.floor_rel": "-0.1", "phy.decorrelation": "1.5",
    "phy.feedback_quant_bits": "1",
    "acct.spectral_efficiency": "0", "acct.fixed_overhead": "-1",
}


def test_every_checked_key_and_every_mapped_field_has_a_rejected_value():
    """``name`` is free text; every other key is checked by the component
    that reads it.  The mapping table lists only keys that are not
    ``<group>.<field>`` of the component that rejects them."""
    assert set(REJECTED) == set(KEYMAP) - {"name"}
    assert set(_PATHS) <= set(REJECTED)
    assert all(path != key for key, path in _PATHS.items())


@pytest.mark.parametrize("key", sorted(REJECTED))
def test_a_component_rejection_names_its_key(key):
    """The value is rejected by the component that owns it, as a
    ``FieldError``, and the scenario error names the key instead."""
    prefix, _, bad = REJECTED[key].rpartition("\n")
    with pytest.raises(ScenarioError, match=rf"^key '{key}': ") as exc:
        build(parse(f"{prefix}\n{key} = {bad}\n"))
    assert isinstance(exc.value.__context__, FieldError)


@pytest.mark.parametrize("text", [
    "sync.ptp_bound_s = 1e300",
    "grid.subcarrier_spacing_hz = 1e300",  # the sample rate itself overflows to inf
    "sync.ptp_bound_s = 0.000992",  # ceil(3809.28) samples at 3.84 MS/s
    "sync.mode = ptp_off\nsync.off_spread = 3809",
])
def test_an_offset_bound_past_one_slot_exits_2_naming_the_key(tmp_path, capsys, text):
    """``PhyConfig`` caps the offset bound at one slot, 14 x 272 = 3808
    samples on the default grid, from float arithmetic before any ceil, so
    an infinite bound raises no OverflowError.  The key is the one that
    sets the bound: ``sync.ptp_bound_s`` with PTP, ``sync.off_spread``
    without."""
    path = _tiny_file(tmp_path, f"rounds = 1\nnum_ues = 2\n{text}\n", "late.cfg")
    assert main(["run", str(path)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    key = "sync.off_spread" if "ptp_off" in text else "sync.ptp_bound_s"
    assert f"error: key '{key}': " in err and "past one slot's 3808" in err
    assert out == ""


def test_a_memory_sized_offset_bound_is_rejected_at_parse():
    """A 1 THz spacing makes a 2.56e8-sample bound under PTP; the cap
    rejects it from its arithmetic alone, so no test ever runs a round of it."""
    with pytest.raises(ScenarioError, match=r"^key 'sync.ptp_bound_s': 1e-06 gives offsets up "
                                            r"to 256000000.0 samples"):
        build(parse("grid.subcarrier_spacing_hz = 1e12"))


def test_an_offset_bound_of_one_slot_parses():
    def built(text):
        return build(parse(text)).scenario

    assert built("sync.ptp_bound_s = 0.000991").sync_ptp_bound_s == 0.000991  # 3806 samples
    assert built("sync.mode = ptp_off\nsync.off_spread = 3808").sync_off_spread == 3808
    assert built("sync.mode = ptp_off\ngrid.subcarrier_spacing_hz = 1e300").sync_mode == "ptp_off"


def test_parse_draws_no_task_data(monkeypatch):
    """Building a parsed file makes every component but the clients'
    datasets, which are 44 MB each at paper scale."""
    def refuse(*args, **kwargs):
        raise AssertionError("parse drew task data")

    for module in (fl, scenario):
        monkeypatch.setattr(module, "make_linear_task", refuse)
        monkeypatch.setattr(module, "make_blobs_task", refuse)
    for path in sorted(SCENARIOS.glob("*.cfg")):
        sc = build(parse_file(path)).scenario
        with pytest.raises(AssertionError, match="parse drew task data"):
            build_tasks(sc)
    assert len(list(SCENARIOS.glob("*.cfg"))) == 3


# ---------------------------------------------------------------- builders


def test_build_phy_wires_the_link_budget():
    """The link budget is the receiver SNR plus the transmit power, which
    only the energy bill reads."""
    sc = parse(TINY)
    phy = build(sc).phy
    assert phy.grid.subcarriers == 32
    assert phy.grid.sample_rate == 32 * 15e3
    assert build(sc).energy.tx_power_dbm == 20.0
    assert phy.uplink_snr_db is None
    assert phy.sync.mode == "ptp_on"
    assert phy.channel.kind == "flat_block"


def test_build_tasks_deterministic_and_heterogeneous():
    sc = parse(TINY)
    a = build_tasks(sc)
    b = build_tasks(sc)
    assert len(a) == 2
    np.testing.assert_array_equal(a[0].features, b[0].features)
    assert not np.array_equal(a[0].features, a[1].features)
    c = build_tasks(sc, master_seed=99)
    assert not np.array_equal(a[0].features, c[0].features)


def test_build_train_and_energy_model():
    sc = parse("train.learning_rate = 0.02\ntrain.epochs = 3\nlink.tx_power_dbm = 23")
    train = build(sc).train
    assert train.learning_rate == 0.02 and train.epochs == 3
    model = build(sc).energy
    assert model.slot_energy_j == pytest.approx(10 ** ((23 - 30) / 10) * 1e-3)


def test_run_scenario_smoke():
    result = run_scenario(build(parse(TINY)))
    assert result.mode == "ota"
    assert len(result.traces) == 2
    assert not result.all_aborted
    assert result.traces[0].slots_used == 1  # 8 params fit one reduced slot


@pytest.mark.parametrize("field, value, key", [
    ("grid_cp_len", 300, "grid.cp_len"),
    ("phy_floor_rel", -1.0, "phy.floor_rel"),
    ("num_ues", 0, "num_ues"),
])
def test_run_scenario_names_the_key_of_a_scenario_that_skipped_parse(field, value, key):
    """A ``Scenario`` constructed directly reaches the pipeline only through
    ``build``, so a rejected value names its key, as it does for a parsed file."""
    with pytest.raises(ScenarioError, match=rf"^key '{key}': "):
        run_scenario(build(Scenario(**{field: value})))


# key -> (non-default value, overrides that let the key act)
KEY_CHANGES = {
    "mode": ("digital_fp32", {}),
    "rounds": ("2", {}),
    "num_ues": ("3", {}),
    "master_seed": ("1", {}),
    "task.kind": ("mlp_classification", {}),
    "task.samples_per_ue": ("48", {}),
    "task.features": ("6", {}),
    "task.heterogeneity": ("0.9", {}),
    "task.noise_std": ("0.5", {}),
    "task.classes": ("3", {"task.kind": "mlp_classification"}),
    "task.hidden": ("4", {"task.kind": "mlp_classification"}),
    "train.learning_rate": ("0.05", {}),
    "train.epochs": ("2", {}),
    "train.batch_size": ("8", {}),
    "grid.subcarriers": ("16", {}),
    "grid.symbols_per_slot": ("2", {}),
    "grid.subcarrier_spacing_hz": ("150000", {}),
    "grid.fft_size": ("64", {}),
    "grid.cp_len": ("4", {}),
    "channel.kind": ("rayleigh_per_subcarrier", {}),
    "link.tx_power_dbm": ("23", {}),
    "sync.mode": ("ptp_off", {"sync.off_spread": "6"}),
    "sync.ptp_bound_s": ("2e-5", {}),
    "sync.off_spread": ("6", {"sync.mode": "ptp_off"}),
    "sync.phase_offset_rad": ("1.0", {}),
    "phy.uplink_snr_db": ("5", {}),
    "phy.csi_mode": ("perfect", {}),
    "phy.pilot_allocation": ("tdm_full", {}),
    "phy.floor_rel": ("0.9", {"channel.kind": "rayleigh_per_subcarrier",
                              "phy.pilot_allocation": "tdm_full"}),
    "phy.decorrelation": ("0.5", {}),
    "phy.feedback_quant_bits": ("2", {}),
    "acct.spectral_efficiency": ("0.5", {"mode": "digital_fp32"}),
    "acct.fixed_overhead": ("5", {"mode": "digital_fp32"}),
}

# one round, two clients, a reduced grid and a noisy uplink
SMALL = {
    "rounds": "1",
    "num_ues": "2",
    "task.samples_per_ue": "32",
    "task.features": "8",
    "grid.subcarriers": "32",
    "grid.symbols_per_slot": "4",
    "grid.fft_size": "32",
    "grid.cp_len": "8",
}


def _run_digest(settings: dict) -> str:
    """Every trace field but ``alpha``, and the final weights, at CSV precision.

    ``alpha`` is left out because the noise follows the received power, so a
    key that only rescales the transmit amplitude changes nothing else.
    """
    result = run_scenario(build(parse("".join(f"{k} = {v}\n" for k, v in settings.items()))))
    numbers = [x for t in result.traces
               for x in (t.agg_nmse_db, t.global_loss, t.slots_used, t.energy_j,
                         *t.loss_per_ue)]
    numbers += result.final_theta.tolist()
    labels = [(t.mode, t.aborted) for t in result.traces]
    return repr(labels) + ",".join(f"{x:.12g}" for x in numbers)


def test_every_scenario_key_changes_a_run():
    """A key whose value reaches no trace field but ``alpha`` and no model
    weight, at CSV precision, is dead.

    Only ``name`` is exempt: it labels the CSV and nothing else.
    """
    assert sorted(set(KEYMAP) - {"name"} - set(KEY_CHANGES)) == []
    idle = []
    for key, (value, enabling) in KEY_CHANGES.items():
        base = {**SMALL, **enabling}
        if _run_digest(base) == _run_digest({**base, key: value}):
            idle.append(key)
    assert idle == []


def test_blobs_scenario_runs():
    text = TINY + "task.kind = mlp_classification\ntask.classes = 3\ntask.hidden = 4\n"
    result = run_scenario(build(parse(text)))
    assert len(result.traces) == 2
    assert np.isfinite(result.traces[-1].global_loss)


# --------------------------------------------------------------- sync sweep


def test_sync_sweep_rows_and_monotonicity():
    parts = build(parse(TINY))
    rows = sync_sweep(parts, spreads=[8, 0], n_seeds=2)
    assert [r["spread_samples"] for r in rows] == [8, 0]
    assert all(r["seeds"] == 2 for r in rows)
    # zero injected spread cannot be worse than eight samples of it
    assert rows[1]["mean_agg_nmse_db"] <= rows[0]["mean_agg_nmse_db"]


def test_sync_sweep_validation():
    parts = build(parse(TINY))
    with pytest.raises(ScenarioError):
        sync_sweep(parts, spreads=[4], n_seeds=0)
    with pytest.raises(ScenarioError):
        sync_sweep(parts, spreads=[-1], n_seeds=1)
    # a repeated spread would count each seed twice in its one mean
    with pytest.raises(ScenarioError, match="offset spread 4 is listed more than once"):
        sync_sweep(parts, spreads=[8, 4, 0, 4], n_seeds=2)


def test_sync_sweep_names_the_scenario_key_before_any_spread():
    """The scenario is built before its spreads, so its own rejected key is
    named even when a spread, 256 on the tiny grid's 160-sample slot, is
    out of range too."""
    sc = dataclasses.replace(parse(TINY), master_seed=-1)
    with pytest.raises(ScenarioError, match=r"^key 'master_seed': "):
        sync_sweep(build(sc), spreads=[256], n_seeds=1)


def test_sync_sweep_counts_an_aborted_aggregation_at_0_db(monkeypatch):
    """An aborted aggregation recovers nothing, so it enters the sweep's
    mean at 0 dB, where the ``run`` summary leaves aborted rounds out."""
    parts = build(parse(TINY))
    first_seed = sync_sweep(parts, spreads=[8, 0], n_seeds=1)
    real, reports = scenario.ota_aggregate, []

    def deaf_second_seed(deltas, phy, master_seed, round_index):
        if master_seed == parts.scenario.master_seed + 1:
            phy = dataclasses.replace(phy, uplink_snr_db=-30.0)
        reports.append(real(deltas, phy, master_seed, round_index))
        return reports[-1]

    monkeypatch.setattr(scenario, "ota_aggregate", deaf_second_seed)
    rows = sync_sweep(parts, spreads=[8, 0], n_seeds=2)
    assert [r.aborted for r in reports] == [False, False, True, True]
    assert [r.agg_nmse_db for r in reports[2:]] == [0.0, 0.0]
    assert [r["mean_agg_nmse_db"] for r in rows] == [
        r["mean_agg_nmse_db"] / 2 for r in first_seed]


# --------------------------------------------------------------------- cli


def test_cli_run_writes_csv(tmp_path, capsys):
    scenario = _tiny_file(tmp_path)
    out = tmp_path / "trace.csv"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("schema_version,scenario,mode,round,agg_nmse_db,"
                        "global_loss,alpha,slots,energy_j,aborted")
    assert len(lines) == 3  # header + one row per round
    first = lines[1].split(",")
    assert first[0] == str(SCHEMA_VERSION)
    assert first[1] == "tiny" and first[2] == "ota" and first[3] == "0"
    float(first[4]); float(first[5]); float(first[6])  # numeric columns parse
    captured = capsys.readouterr()
    assert "final loss" in captured.out


def test_cli_run_round_and_seed_overrides(tmp_path):
    scenario = _tiny_file(tmp_path)
    out = tmp_path / "one.csv"
    assert main(["run", str(scenario), "--rounds", "1", "--seed", "5",
                 "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("line, argv, rows", [
    ("rounds = 0", ["run", "--rounds", "1"], 1),
    ("master_seed = -1", ["run", "--seed", "0"], 2),
    ("master_seed = -1", ["sync-sweep", "--seed", "0", "--spreads", "8,0", "--seeds", "1"], 2),
], ids=["run-rounds", "run-seed", "sync-sweep-seed"])
def test_a_flag_rescues_the_file_key_it_replaces(tmp_path, capsys, line, argv, rows):
    """``--seed`` and ``--rounds`` are set on the file's keys before the
    scenario is built, so the flag's value is checked in place of the
    file's: a file rejected alone runs under a good flag."""
    key = line.partition(" = ")[0]
    kept = [ln for ln in TINY.splitlines(keepends=True) if not ln.startswith(f"{key} = ")]
    path = _tiny_file(tmp_path, "".join(kept) + line + "\n", "rescued.cfg")
    assert main([argv[0], str(path)]) == EXIT_CONFIG
    assert f"key '{key}': " in capsys.readouterr().err
    out = tmp_path / "rescued.csv"
    assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == EXIT_OK
    assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + rows


FLAGS = "--params, --bits, --m-range, --efficiency, --tx-power-dbm or --overhead"


@pytest.mark.parametrize("argv, named", [
    (["run", "{cfg}", "--seed", "-1"], "key 'master_seed': must be >= 0"),
    (["sync-sweep", "{cfg}", "--seed", "-1"], "key 'master_seed': must be >= 0"),
    (["run", "{cfg}", "--rounds", "0"], "key 'rounds': must be positive"),
    (["run", "{tx}"], "key 'link.tx_power_dbm'"),
    (["run", "{eff}"], "key 'acct.spectral_efficiency'"),
    (["run", "{bill}"], "key 'acct.spectral_efficiency': efficiency 1.5e-308 gives 2 clients"),
    (["accounting", "--params", "71666", "--efficiency", "1e-320"],
     f"{FLAGS}: param_count and efficiency 1e-320 give no finite slot count"),
    (["accounting", "--params", "1" + "0" * 400],
     f"{FLAGS}: param_count and efficiency 7.4063 give no finite slot count"),
    (["accounting", "--params", "71666", "--efficiency", "1e-305"],
     f"{FLAGS}: efficiency 1e-305 gives 3 clients more slots than a float holds"),
    (["accounting", "--params", "71666", "--tx-power-dbm", "5000"],
     f"{FLAGS}: tx_power_dbm 5000.0 gives inf J per slot"),
    (["accounting", "--params", "71666", "--tx-power-dbm", "-5000"],
     f"{FLAGS}: tx_power_dbm -5000.0 gives 0.0 J per slot"),
    (["accounting", "--params", "71666", "--m-range", "2..2", "--tx-power-dbm", "3000",
      "--overhead", "1e300"],
     f"{FLAGS}: tx_power_dbm 3000.0 and fixed_overhead 1e+300 give a round energy past float"),
])
def test_cli_overrides_and_overflows_exit_2_naming_the_key(tmp_path, capsys, argv, named):
    paths = {
        "cfg": _tiny_file(tmp_path),
        "tx": _tiny_file(tmp_path, TINY + "link.tx_power_dbm = 5000\n", "tx.cfg"),
        "eff": _tiny_file(tmp_path, TINY.replace("mode = ota", "mode = digital_fp32")
                          + "acct.spectral_efficiency = 1e-320\n", "eff.cfg"),
        "bill": _tiny_file(tmp_path, TINY.replace("mode = ota", "mode = digital_fp32")
                           + "acct.spectral_efficiency = 1.5e-308\n", "bill.cfg"),
    }
    assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert named in err and "Traceback" not in err
    assert out == ""


def test_cli_run_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "{dir}"],
    ["run", "{cfg}", "--out", "{dir}"],
    ["accounting", "--params", "64", "--m-range", "2..2", "--out", "{dir}"],
    ["sync-sweep", "{cfg}", "--spreads", "0", "--seeds", "1", "--out", "{dir}"],
])
def test_cli_directory_as_scenario_or_out_exits_2(tmp_path, capsys, monkeypatch, argv):
    """``--out`` is opened before the work, so an unusable one runs and
    prints nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before --out was opened")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    monkeypatch.setattr(cli, "sync_sweep", refuse)
    paths = {"cfg": _tiny_file(tmp_path), "dir": tmp_path}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith("error:") and "Traceback" not in err
    assert out == ""


def test_cli_a_command_that_fails_after_opening_out_removes_it(tmp_path, capsys):
    """Only a regular file is removed: a link to the null device stays."""
    scenario = _tiny_file(tmp_path)
    out = tmp_path / "sweep.csv"
    out.write_text("an earlier sweep\n", encoding="utf-8")
    null = tmp_path / "null"
    null.symlink_to(os.devnull)
    for path in (out, null):
        rc = main(["sync-sweep", str(scenario), "--spreads", "4,4",
                   "--seeds", "1", "--out", str(path)])
        assert rc == EXIT_CONFIG
    assert not out.exists() and null.is_symlink()


def test_cli_run_invalid_scenario(tmp_path, capsys):
    bad = _tiny_file(tmp_path, text="rounds = -3\n", name="bad.cfg")
    assert main(["run", str(bad)]) == EXIT_CONFIG
    assert "rounds" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow on the way to NaN
@pytest.mark.parametrize("name, rounds", [("digital_baseline.cfg", "2"), ("baseline.cfg", "1")])
def test_cli_run_with_a_diverging_step_exits_2_naming_round_and_client(tmp_path, capsys,
                                                                       name, rounds):
    """``train.learning_rate = 1e300`` parses, since only the clients' data
    decides whether a step diverges.  The first round's evaluation finds a
    loss that is not finite, in a digital run as in a one-round ``ota``
    run: the error names the round and the client, the run exits 2 and no
    CSV is left at ``--out``."""
    text = (SCENARIOS / name).read_text(encoding="utf-8")
    scenario = _tiny_file(tmp_path, text=text.replace("train.learning_rate = 0.1",
                                                      "train.learning_rate = 1e300"), name=name)
    out = tmp_path / "trace.csv"
    assert main(["run", str(scenario), "--rounds", rounds, "--out", str(out)]) == EXIT_CONFIG
    stdout, err = capsys.readouterr()
    assert err == "error: round 0: client 0's loss is not finite\n"
    assert stdout == "" and not out.exists()


def test_cli_run_all_aborted_exit_code(tmp_path, capsys):
    text = TINY.replace("phy.uplink_snr_db = none", "phy.uplink_snr_db = -30") \
               .replace("rounds = 2", "rounds = 1")
    scenario = _tiny_file(tmp_path, text=text, name="deaf.cfg")
    assert main(["run", str(scenario)]) == EXIT_DEGENERATE
    out, err = capsys.readouterr()
    assert "aborted" in err
    assert "mean NMSE   : n/a" in out  # no delivered round to average


def test_cli_accounting_table(tmp_path, capsys):
    out = tmp_path / "bill.csv"
    rc = main(["accounting", "--params", "71666", "--m-range", "2..5",
               "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "schema_version,num_ues,mode,slots,gain,energy_j"
    assert len(lines) == 9  # 4 client counts x 2 modes
    dig5 = next(l.split(",") for l in lines[1:] if l.startswith("1,5,digital"))
    assert dig5[3] == "435" and float(dig5[4]) == 43.5
    ota2 = next(l.split(",") for l in lines[1:] if l.startswith("1,2,ota"))
    assert ota2[3] == "10" and float(ota2[4]) == pytest.approx(4.0, abs=1e-9)
    assert "digital" in capsys.readouterr().out


def test_cli_accounting_rejects_bad_range(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["accounting", "--params", "100", "--m-range", "5..2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--tx-power-dbm", "--overhead", "--efficiency"])
def test_cli_accounting_rejects_non_finite_floats(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["accounting", "--params", "6656", "--m-range", "2..3", flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: must be finite, got '{value}'" in err


def test_cli_sync_sweep(tmp_path, capsys):
    scenario = _tiny_file(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(["sync-sweep", str(scenario), "--spreads", "8,0",
               "--seeds", "2", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "schema_version,spread_samples,mean_agg_nmse_db,seeds"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "8"
    assert "spread" in capsys.readouterr().out


def test_cli_sync_sweep_rejects_a_repeated_spread(tmp_path, capsys):
    scenario = _tiny_file(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(["sync-sweep", str(scenario), "--spreads", "4,4",
               "--seeds", "2", "--out", str(out)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "offset spread 4 is listed more than once" in captured.err
    assert captured.out == "" and not out.exists()


def test_cli_sync_sweep_rejects_a_spread_past_one_slot(tmp_path, capsys):
    """The sweep rebuilds the phy at every spread, so ``PhyConfig``'s cap
    applies: one slot of the tiny grid is 4 x (32 + 8) = 160 samples.  Every
    spread is checked before any client trains."""
    scenario = _tiny_file(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(["sync-sweep", str(scenario), "--spreads", "8,161",
               "--seeds", "2", "--out", str(out)])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert ("key 'sync.off_spread': 161 gives offsets up to 161 samples" in captured.err
            and "past one slot's 160" in captured.err)
    assert captured.out == "" and not out.exists()
    rows = sync_sweep(build(parse(TINY)), spreads=[160], n_seeds=1)
    assert rows[0]["spread_samples"] == 160 and np.isfinite(rows[0]["mean_agg_nmse_db"])


def test_parse_file_round_trip(tmp_path):
    path = _tiny_file(tmp_path)
    sc = parse_file(path)
    assert sc == parse(TINY)


def test_a_file_with_a_utf8_byte_order_mark_parses(tmp_path, capsys):
    """A byte-order mark before the first key is not part of that key."""
    text = TINY.partition("\n")[2]  # the first line is then a key
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_file(path) == parse(text)
    assert main(["run", str(path)]) == EXIT_OK
