"""Golden fixture: pinned digests of the shipped scenarios, four aggregations
and three federated rounds per mode at the criterion-5 shape.

The determinism tests elsewhere compare a run with itself; these pin the
numbers across versions.  A change that moves any digest on purpose must
say so and update the fixture in the same commit.
"""

import hashlib
from dataclasses import replace
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

# (clients, channel kind, pilot allocation, PhyConfig overrides)
#     -> (repr of agg_nmse_db, sha256 of recovered)
AGGREGATE_DIGESTS = {
    (5, "flat_block", "fdm_comb", ()): (
        "-19.2366199180064",
        "331defd715702e5a5cabd0a2e37160e873e5315f970888e71fa6535b33243adf",
    ),
    (20, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-18.21116448747706",
        "7668c7432e640a58be33dd3cb8cf6d32491c107cc20da33c2bbe345f1ff60b5b",
    ),
    (5, "rayleigh_per_subcarrier", "tdm_full", (("uplink_snr_db", None),)): (
        "-26.337584212422883",
        "3254bb907ddd6814777ecc4ecbe64df21f97fb0ee6f4a9a665ae861d9744a72a",
    ),
    (5, "flat_block", "fdm_comb", (("csi_mode", "perfect"),)): (
        "-19.992954838284664",
        "81d7685531938c64649db1fc7337477e87029a69eb25bf3e5ec4845fcc9d7ee1",
    ),
}


def _aggregate_id(case) -> str:
    num_ues, kind, allocation, overrides = case
    return "-".join([str(num_ues), kind, allocation, *(f"{k}={v}" for k, v in overrides)])


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
    "num_ues,kind,allocation,overrides", list(AGGREGATE_DIGESTS),
    ids=[_aggregate_id(case) for case in AGGREGATE_DIGESTS],
)
def test_ota_aggregate_digest(num_ues, kind, allocation, overrides, threads, monkeypatch):
    monkeypatch.setenv("OTAFL_THREADS", threads)
    rng = np.random.default_rng(0)
    deltas = [0.1 * rng.standard_normal(71_666) for _ in range(num_ues)]
    phy = PhyConfig(
        channel=ChannelModel(kind),
        pilot_allocation=allocation,
        sync=SyncConfig(mode="ptp_on"),
        uplink_snr_db=20.0,
    )
    report = ota_aggregate(deltas, replace(phy, **dict(overrides)), master_seed=0)
    want_nmse, want_digest = AGGREGATE_DIGESTS[(num_ues, kind, allocation, overrides)]
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
