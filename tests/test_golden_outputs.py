"""Golden fixture: pinned digests of the shipped scenarios, seventeen aggregations
and three federated rounds per mode at the criterion-5 shape.

The determinism tests elsewhere compare a run with itself; these pin the
numbers across versions.  A change that moves any digest on purpose must
say so and update the fixture in the same commit.
"""

import hashlib
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from otafl import fl
from otafl.accounting import DEFAULT_SPECTRAL_EFFICIENCY, SpectralProfile, format_from_grid
from otafl.channel import ChannelModel
from otafl.cli import EXIT_OK, main
from otafl.ota import (
    PhyConfig,
    data_seeds,
    initial_state,
    ota_aggregate,
    run_digital_round,
    run_ota_round,
    train_configs,
)
from otafl.sync import SyncConfig

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

CLI_DIGESTS = {
    ("run", "baseline.cfg", ()):
        "d3f1c3611795711c1457659bf5afacf05e0edccbcdcc73a5e1bc640f5506fb91",
    ("run", "digital_baseline.cfg", ()):
        "af42976ab297675eecf63e01a621fa0ff7da1c62afe0abe5b06cabf54702d713",
    ("sync-sweep", "sync_stress.cfg", ("--spreads", "256,64,16,4,0", "--seeds", "5")):
        "e76eb99d33e08abdab9be64378522d818caa48409a4871b361c436845260ea57",
}

# Paper-scale parameter count: 10 payload slots on the default grid.
PAPER_PARAMS = 71_666

# (clients, parameter count, channel kind, pilot allocation, PhyConfig overrides)
#     -> (repr of agg_nmse_db, sha256 of recovered)
AGGREGATE_DIGESTS = {
    (5, PAPER_PARAMS, "flat_block", "fdm_comb", ()): (
        "-19.2366199180064",
        "331defd715702e5a5cabd0a2e37160e873e5315f970888e71fa6535b33243adf",
    ),
    (20, PAPER_PARAMS, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-18.21116448747706",
        "7668c7432e640a58be33dd3cb8cf6d32491c107cc20da33c2bbe345f1ff60b5b",
    ),
    (5, PAPER_PARAMS, "rayleigh_per_subcarrier", "tdm_full", (("uplink_snr_db", None),)): (
        "-26.337584212422883",
        "3254bb907ddd6814777ecc4ecbe64df21f97fb0ee6f4a9a665ae861d9744a72a",
    ),
    (5, PAPER_PARAMS, "flat_block", "fdm_comb", (("csi_mode", "perfect"),)): (
        "-19.992954838284664",
        "81d7685531938c64649db1fc7337477e87029a69eb25bf3e5ec4845fcc9d7ee1",
    ),
    # Transmit-side edges at two payload slots: an odd parameter count (the
    # zero-padded pack tail), per-client scales, quantized feedback, stale
    # CSI, a common phase offset and an inversion floor that clips about a
    # third of the subcarriers.
    (5, 10_001, "flat_block", "fdm_comb", ()): (
        "-20.419789874889936",
        "d57a309d1b3d0d3f18db408b61145333681a906f4ccee8e1bc88fc4cf1cdba87",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("scale_mode", "per_client"),)): (
        "-17.301722275685957",
        "0151666b29fa4027f034baa45d632d9fbb5376e1e9e53c3957411d4d8341ca42",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("feedback_quant_bits", 4),)): (
        "-7.92347013149307",
        "5a74270bbd320f059e3c05b15cb77580743159ac53c7870956a24435a1a86006",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("decorrelation", 0.5),)): (
        "0.5665291831897019",
        "db0b2848efdfff9339c38a94ba63a618b1770093fc04517dac787f9e834ce353",
    ),
    (5, 10_000, "flat_block", "fdm_comb",
     (("sync", SyncConfig(mode="ptp_on", phase_offset_rad=0.5)),)): (
        "-20.4512989756725",
        "97a857a41ad12e84e59299a0fb05f2c4ba12bdc92e7f9b1e6af288b44c553d95",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("floor_rel", 0.8),)): (
        "-11.289130592151205",
        "da5799f1d1b0613ebf26b15a37bd30601f103d46af84237a9ef1c94ce6193d3e",
    ),
    # Receive-side order: without PTP the offsets reach 50 samples, so late
    # preambles run into the next client's slot and every sample sums
    # several clients.  Then the perfect-CSI estimate on per-subcarrier
    # fading, and the benchmark's client count.
    (5, 10_000, "flat_block", "fdm_comb",
     (("sync", SyncConfig(mode="ptp_off", off_spread=64)),)): (
        "5.029357819321244",
        "cc104bd17210bc0eae91f5914f5dc18e954fc0cb31350ee88a4381db34c52c62",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full",
     (("sync", SyncConfig(mode="ptp_off", off_spread=64)),)): (
        "3.3426538581329575",
        "a6633f9ac6ec4027058f5408e47768aaf16278acb6278f622caeeabcb3b12c6c",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("csi_mode", "perfect"),)): (
        "-19.964541451114904",
        "f007390abc033424545ad6cafe589b3fcce42076c26280905022e56836db1a15",
    ),
    (60, 10_000, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-18.6203752046387",
        "0b07b1a02fc0a9c822d98ba7e526bd86c09a7574d347d033f9a066ec6cf0bec7",
    ),
    # Channel-estimate rows: twelve comb clients split 256 subcarriers into
    # pilot sets of 22 and 21, so each client's held ends differ; late
    # unsynchronized arrivals, and quantized feedback with a full scale per
    # client.  Then a single full-band client.
    (12, 10_000, "rayleigh_per_subcarrier", "fdm_comb",
     (("sync", SyncConfig(mode="ptp_off", off_spread=64)),)): (
        "9.68376303655549",
        "085aed00400cc927aef2e5a0fe71f3b2b5e40e1d80ec1b1cbd9f1d418fd57d59",
    ),
    (12, 10_000, "rayleigh_per_subcarrier", "fdm_comb", (("feedback_quant_bits", 4),)): (
        "8.383609032125054",
        "102e69ea667918c5ad863545db0cee83603f9159da9cc25a07e01c5df4f07b0c",
    ),
    (1, 10_000, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-19.29570013565652",
        "26085a9ce79cf0f58c301d7ae826297a83358122c375ef23c045d9947c91cabc",
    ),
}


def _override_id(key, value) -> str:
    """``key=value``; a config value shows only its non-default fields."""
    if is_dataclass(value):
        return "-".join(f"{f.name}={getattr(value, f.name)}" for f in fields(value)
                        if getattr(value, f.name) != f.default)
    return f"{key}={value}"


def _aggregate_id(case) -> str:
    num_ues, params, kind, allocation, overrides = case
    size = [] if params == PAPER_PARAMS else [f"P={params}"]
    return "-".join([str(num_ues), *size, kind, allocation,
                     *(_override_id(k, v) for k, v in overrides)])


# Criterion-5 shape: M=5, P=6656, 1664 samples per client, lr 0.05, full
# batch, seed 0, three chained rounds.
# mode -> (sha256 of the final theta, repr of each round's global_loss)
PAPER_SHAPE_DIGESTS = {
    "ota": (
        "afdaad0782a8eb3401e97eb1413e9db2cec43cd776c12ac906d535e2c5ee432d",
        ("0.8976539885360957", "0.6708316035102445", "0.5233187672977356"),
    ),
    "digital_fp32": (
        "61ce39057541e20341e7970be95430d94217f0b26cd92825ffab14a8413b9c2b",
        ("0.8981618998783862", "0.6712330526897362", "0.5239577735326214"),
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command,cfg,extra", list(CLI_DIGESTS))
def test_cli_csv_digest(command, cfg, extra, threads, tmp_path, monkeypatch):
    monkeypatch.setenv("OTAFL_THREADS", threads)
    out = tmp_path / "out.csv"
    argv = [command, str(SCENARIOS / cfg), *extra, "--seed", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert _sha256(out.read_bytes()) == CLI_DIGESTS[(command, cfg, extra)]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize(
    "num_ues,params,kind,allocation,overrides", list(AGGREGATE_DIGESTS),
    ids=[_aggregate_id(case) for case in AGGREGATE_DIGESTS],
)
def test_ota_aggregate_digest(num_ues, params, kind, allocation, overrides, threads,
                              monkeypatch):
    monkeypatch.setenv("OTAFL_THREADS", threads)
    rng = np.random.default_rng(0)
    deltas = [0.1 * rng.standard_normal(params) for _ in range(num_ues)]
    phy = PhyConfig(
        channel=ChannelModel(kind),
        pilot_allocation=allocation,
        sync=SyncConfig(mode="ptp_on"),
        uplink_snr_db=20.0,
    )
    report = ota_aggregate(deltas, replace(phy, **dict(overrides)), master_seed=0)
    want_nmse, want_digest = AGGREGATE_DIGESTS[(num_ues, params, kind, allocation, overrides)]
    assert repr(float(report.agg_nmse_db)) == want_nmse
    assert _sha256(report.recovered.tobytes()) == want_digest


@pytest.fixture(scope="module")
def paper_tasks():
    return [fl.make_linear_task(*data_seeds(0, ue), 1664, 6656) for ue in range(5)]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("mode", list(PAPER_SHAPE_DIGESTS))
def test_paper_shape_rounds_digest(mode, threads, paper_tasks, monkeypatch):
    monkeypatch.setenv("OTAFL_THREADS", threads)
    template = fl.TrainConfig(learning_rate=0.05, epochs=1, batch_size=0)
    phy = PhyConfig(
        channel=ChannelModel("flat_block"),
        sync=SyncConfig(mode="ptp_on"),
        uplink_snr_db=20.0,
    )
    profile = SpectralProfile.uniform(DEFAULT_SPECTRAL_EFFICIENCY, len(paper_tasks))
    fmt = format_from_grid(
        phy.grid.symbols_per_slot, phy.grid.subcarriers, phy.grid.subcarrier_spacing
    )
    state = initial_state(paper_tasks, 0)
    losses = []
    for r in range(3):
        cfgs = train_configs(template, len(paper_tasks), 0, r)
        if mode == "ota":
            state, trace = run_ota_round(state, paper_tasks, cfgs, phy, 0)
        else:
            state, trace = run_digital_round(state, paper_tasks, cfgs, mode, profile, fmt)
        losses.append(repr(trace.global_loss))
    want_digest, want_losses = PAPER_SHAPE_DIGESTS[mode]
    assert tuple(losses) == want_losses
    assert _sha256(state.theta.tobytes()) == want_digest
