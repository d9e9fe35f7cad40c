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
        "fa17356e1854e90152c94ab301487b09a9d2f8e249406d388151f1b6b14fa710",
    ),
    (20, PAPER_PARAMS, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-18.24118925708489",
        "2936425a94b49e61d7c7a4742c3823a347aa6d14431faa7bbe3191f07deb2d51",
    ),
    (5, PAPER_PARAMS, "rayleigh_per_subcarrier", "tdm_full", (("uplink_snr_db", None),)): (
        "-26.337584212422883",
        "61d4d6f8916d7b7ed2d1adc0045ef8c8aa825ac7eb967185068f1cc0a23f1fd2",
    ),
    (5, PAPER_PARAMS, "flat_block", "fdm_comb", (("csi_mode", "perfect"),)): (
        "-19.948519083707343",
        "e7a0ceacafe1debb66a8e553f437e8b1539b97b674ed3759721e3fa86cf28166",
    ),
    # Transmit-side edges at two payload slots: an odd parameter count (the
    # zero-padded pack tail), per-client scales, quantized feedback, stale
    # CSI, a common phase offset and an inversion floor that clips about a
    # third of the subcarriers.
    (5, 10_001, "flat_block", "fdm_comb", ()): (
        "-20.524950084883024",
        "6cba284f4f47469dde5cc9faec10af72d3a2668bcbafa12f1a8b9c5f5a2eca4a",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("scale_mode", "per_client"),)): (
        "-17.337516725683223",
        "b14f62c70c168f493867dee8041e1ff99b0c7615610c101a42c0014fa484c5fc",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("feedback_quant_bits", 4),)): (
        "-7.5204555889701314",
        "abb3a6d92e42ff0862ff7fa6c0bc7c97b3e2abd326f3d304282ec7293a49a6dd",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("decorrelation", 0.5),)): (
        "0.6435039009412389",
        "6c145950ad5cd6effdda0cae1be3f06602ad449d9d6eb40de6ce54fb6c871cb5",
    ),
    (5, 10_000, "flat_block", "fdm_comb",
     (("sync", SyncConfig(mode="ptp_on", phase_offset_rad=0.5)),)): (
        "-20.601227702354798",
        "6e2f8dedd03a0a722214b80fdbf899b3ada08e5fcaaa046578c8e4edb3f41bbf",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("floor_rel", 0.8),)): (
        "-11.331505441910883",
        "0a64db27f99345ca45069759900777d6f2de3fa8fc01b3bb21c040766226c7bf",
    ),
    # Receive-side order: without PTP the offsets reach 50 samples, so late
    # preambles run into the next client's slot and every sample sums
    # several clients.  Then the perfect-CSI estimate on per-subcarrier
    # fading, and the benchmark's client count.
    (5, 10_000, "flat_block", "fdm_comb",
     (("sync", SyncConfig(mode="ptp_off", off_spread=64)),)): (
        "4.158190568184464",
        "cc43dd4ec33751d79dcb46281af5873d69928a585bc97654a2779a500230225c",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full",
     (("sync", SyncConfig(mode="ptp_off", off_spread=64)),)): (
        "0.08430149197242719",
        "37c929273ba84bae0f3861607afb99d91c501b93e02f684049936ef5e4f9d7a2",
    ),
    (5, 10_000, "rayleigh_per_subcarrier", "tdm_full", (("csi_mode", "perfect"),)): (
        "-20.220927808909344",
        "7c15a24f3466d8d86d6a6c254fe52858186a153d23aa99dcc416c4df142a83eb",
    ),
    (60, 10_000, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-18.99946491659546",
        "e4168c1df8913a1891dbd7573d4a4f0a7bd927265869dda9d5fc32978225f2b6",
    ),
    # Channel-estimate rows: twelve comb clients split 256 subcarriers into
    # pilot sets of 22 and 21, so each client's held ends differ; late
    # unsynchronized arrivals, and quantized feedback with a full scale per
    # client.  Then a single full-band client.
    (12, 10_000, "rayleigh_per_subcarrier", "fdm_comb",
     (("sync", SyncConfig(mode="ptp_off", off_spread=64)),)): (
        "9.683604972875054",
        "18f13e602fbe945d3daf8e006b3f30e8972053e44f673f68a91ef5a5b8313013",
    ),
    (12, 10_000, "rayleigh_per_subcarrier", "fdm_comb", (("feedback_quant_bits", 4),)): (
        "8.570923013093083",
        "bbae0881967e7395c2218d412a61f2b0c6601da0cefdaf08b71a8db037f1bc7c",
    ),
    (1, 10_000, "rayleigh_per_subcarrier", "tdm_full", ()): (
        "-18.923248168554302",
        "845dfc16512d68a77a4a633ecf49b6a71bd0194ae3bbac724a72812ff745c0d5",
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
        "4052ee90bfd02af0ded03108e3aebbeb01d0542c47848ffbc3542201f2e9df0d",
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
