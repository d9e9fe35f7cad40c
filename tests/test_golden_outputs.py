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
        "99d67dcc9f9e8902824852f4d8ff0c5e7e7fa7838f18b50a777ce6f2000b84f6",
    ("run", "digital_baseline.cfg", ()):
        "af42976ab297675eecf63e01a621fa0ff7da1c62afe0abe5b06cabf54702d713",
    ("sync-sweep", "sync_stress.cfg", ("--spreads", "256,64,16,4,0", "--seeds", "5")):
        "9716e1d9f8dc92d53f7f6611622ad99f7313b8ddb394923baa6dea88124dfa66",
}

# Paper-scale parameter count: 10 payload slots on the default grid.
PAPER_PARAMS = 71_666

# (clients, parameter count, channel kind, pilot allocation, PhyConfig overrides)
#     -> (repr of agg_nmse_db, sha256 of recovered)
AGGREGATE_DIGESTS = {
    (5, PAPER_PARAMS, "flat_block", "fdm_comb", ()): (
        "-19.329998951023832",
        "9373c59289d5d4470f99a5d91b7eb07e6c22bb3d87bc39ac4cd6d407e91989b9",
    ),
    (20, PAPER_PARAMS, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-18.24118925708489",
        "29f57435fc4898a88846643a4f28b2ac7973fff50bb12a1eebcce406377701a2",
    ),
    (5, PAPER_PARAMS, "rayleigh_per_subcarrier", "tdm_full", (("uplink_snr_db", None),)): (
        "-26.337584212422883",
        "aa45e6fac6b740ed3f9a50c17627ce96ec86d364fc049a926d0723c6d3ba9146",
    ),
    (5, PAPER_PARAMS, "flat_block", "fdm_comb", (("csi_mode", "perfect"),)): (
        "-19.948519083707343",
        "49bbc31034bfe8e3c8f2d12f78dcb4fd3342430e20448b4190983c6e7ecebe88",
    ),
    # Transmit-side edges at two payload slots: an odd parameter count (the
    # zero-padded pack tail), per-client scales, quantized feedback, stale
    # CSI, a common phase offset and an inversion floor that clips about a
    # third of the subcarriers.
    (5, 10_001, "flat_block", "fdm_comb", ()): (
        "-20.524950084883024",
        "3ad1e01c29b68a8c74773174ac5644f0ce5098bb819fc9d84fbb808c2d760370",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("scale_mode", "per_client"),)): (
        "-17.337516725683223",
        "0ec93c81557eb3d7b304a76ccac9143da7a5e4ec43d966c3049d20c8ac0fa7ca",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("feedback_quant_bits", 4),)): (
        "-7.5204555889701314",
        "dd6bae5a4aa7e8ebd7599aa66229fddec90664486bd9c7b30a2e85b4d010abbd",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("decorrelation", 0.5),)): (
        "0.6435039009412389",
        "88c171127bddafe49d5b099d7f19d52133dbc7d6814c5340415ffec8c67d6ebb",
    ),
    (5, 10_000, "flat_block", "fdm_comb",
     (("sync", SyncConfig(mode="ptp_on", phase_offset_rad=0.5)),)): (
        "-20.601227702354798",
        "2a041f409891c5d37d4b2defe588644a30f1bfb7eed6e84045d618696462e693",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("floor_rel", 0.8),)): (
        "-11.331505441910883",
        "d578b79b80cf0a9ca1b8311a03fe4333048faadfde972819408b2587b6d92221",
    ),
    # Receive-side order: without PTP the offsets reach 50 samples, so late
    # preambles run into the next client's slot and every sample sums
    # several clients.  Then the perfect-CSI estimate on per-subcarrier
    # fading, and the benchmark's client count.
    (5, 10_000, "flat_block", "fdm_comb",
     (("sync", SyncConfig(mode="ptp_off", off_spread=64)),)): (
        "4.158190568184464",
        "0b8262410a02f2a81cbf8bcebd5ade561ee6a90d8cfe030e27cd7fe39c4f3b4e",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full",
     (("sync", SyncConfig(mode="ptp_off", off_spread=64)),)): (
        "0.08430149197242719",
        "4c1ccb3809b290ba8733f05140ec6760dcc75061e42c9381218e0e5ad266260a",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("csi_mode", "perfect"),)): (
        "-20.220927808909344",
        "69402a10190936cfc0cf86f37cc13a140f390977ad32a10d6ec894cb773ef410",
    ),
    (60, 10_000, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-18.99946491659546",
        "a93ad18116860ca62eead30ebf7960cba814c19d506e82cb59bddd5b90b3511f",
    ),
    # Channel-estimate rows: twelve comb clients split 256 subcarriers into
    # pilot sets of 22 and 21, so each client's held ends differ; late
    # unsynchronized arrivals, and quantized feedback with a full scale per
    # client.  Then a single full-band client.
    (12, 10_000, "rayleigh_per_subcarrier", "fdm_comb",
     (("sync", SyncConfig(mode="ptp_off", off_spread=64)),)): (
        "9.683604972875056",
        "b4dcd6074cb1f297571ca7f12d985fa958e5a690e5564291deb481f9ea721b23",
    ),
    (12, 10_000, "rayleigh_per_subcarrier", "fdm_comb", (("feedback_quant_bits", 4),)): (
        "8.570923013093083",
        "c8e752efdf46e4c8e07a258e947a3688303c498c8c97837162131642b4467868",
    ),
    (1, 10_000, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-18.923248168554302",
        "f641c24b3c01604989dfd936286b0c8c413b8096fe12876f626f30280739951b",
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
        "4dd81f715e80e1b2120606977e76b1e893f6d55e744ba763ca0384604bd66a29",
        ("0.8962980575629702", "0.6696752059095308", "0.5221237606204585"),
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
