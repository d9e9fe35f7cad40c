"""Golden fixture: pinned digests of the shipped scenarios, twenty-six aggregations
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

from otafl import fl, grid, ota
from otafl.accounting import DEFAULT_SPECTRAL_EFFICIENCY, SpectralProfile, format_from_grid
from otafl.channel import ChannelModel
from otafl.cli import EXIT_OK, main
from otafl.grid import make_pilot_values
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
        "1bc95656e979c512157edc4c5d6f49775cb1ecf7c2c07be94d2aa1235cec4f0b",
    ("run", "digital_baseline.cfg", ()):
        "1372e0706855cd7490e582a9f0cc18136f372ce0210428e55e28c6d28aea0ca6",
    ("sync-sweep", "sync_stress.cfg", ("--spreads", "256,64,16,4,0", "--seeds", "5")):
        "56714f5b0b9e0484a1d129da7f6a357cd3d823b0e703280821d69438cd729278",
}

# Paper-scale parameter count: 10 payload slots on the default grid.
PAPER_PARAMS = 71_666

_SPREAD_256 = SyncConfig(mode="ptp_off", off_spread=256)

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
    # zero-padded pack tail), quantized feedback, stale CSI, a common phase
    # offset and an inversion floor that clips about a third of the
    # subcarriers.
    (5, 10_001, "flat_block", "fdm_comb", ()): (
        "-20.524950084883024",
        "3ad1e01c29b68a8c74773174ac5644f0ce5098bb819fc9d84fbb808c2d760370",
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
    # Payload-length edges: one real, exactly one OFDM symbol of reals, one
    # real past it, and one real past a slot; on PTP-bounded comb sounding
    # and on full-band sounding with offsets up to 256 samples, which run
    # the payload far past the preamble region.  Then one noiseless case.
    (5, 1, "flat_block", "fdm_comb", ()): (
        "-32.21189556313738",
        "1b925f510a3edbc2bfdb95dd12068821eda234525e11b16a8e18f8be9c543c8d",
    ),
    (5, 1, "rayleigh_per_subcarrier", "tdm_full", (("sync", _SPREAD_256),)): (
        "9.719631276955877",
        "67341b4217f5c2c5d628a66156aca3110eea23adc328802fc3267702a8c68e5a",
    ),
    (5, 512, "flat_block", "fdm_comb", ()): (
        "-26.6302207413197",
        "d18f2beebf3aa6951a1ca1e1414d9b43a85c921627c76913ce6498c73a05f866",
    ),
    (5, 512, "rayleigh_per_subcarrier", "tdm_full", (("sync", _SPREAD_256),)): (
        "16.180523717176403",
        "3a71c0592bf0c6577f9daa62c95175da45416e67cae0d66533db65cf5008bc23",
    ),
    (5, 513, "flat_block", "fdm_comb", ()): (
        "-26.240971469191795",
        "36d4a2d989b5cd6f09778fd888ffe1ba04289f797832dcf370ec6c56c4c35a8e",
    ),
    (5, 513, "rayleigh_per_subcarrier", "tdm_full", (("sync", _SPREAD_256),)): (
        "16.12011969120482",
        "1338726075843bef50aa46a88212012529cba3ccad0075b413b530d4d3f9c0da",
    ),
    (5, 7_169, "flat_block", "fdm_comb", ()): (
        "-21.668139351625435",
        "0bf934a006d1d8d5c50452c646fcb0580bf81165e50f2c13e7ce4509828731a8",
    ),
    (5, 7_169, "rayleigh_per_subcarrier", "tdm_full", (("sync", _SPREAD_256),)): (
        "8.075156350735693",
        "f59d3ab917825c880376f468276734d4443d6cd8ef4c0259b9d38a53a6543e80",
    ),
    (5, 513, "flat_block", "fdm_comb", (("uplink_snr_db", None),)): (
        "-35.64449355989838",
        "ea843c7b3b2128f8ad5cd7be53a2b7f3c84a4cea8b9bc58ce1e82de034c7cfc0",
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
        "82bdb3c536f378253646b1b2c9540181cc6010ee7ca2c926196ede409092d2d9",
        ("0.8962980577612674", "0.6696752063701703", "0.5221237608830134"),
    ),
    "digital_fp32": (
        "a14118a248dc7c2bc64854ffe72f6aad0025a35dd982057b0c5d31ca43c019c6",
        ("0.8981618994578471", "0.671233052540348", "0.5239577769367116"),
    ),
}


# The reference signals both link ends share: the whole 129 x 127 Gold
# preamble bank and the 256-subcarrier pilot symbol.  The aggregation digests
# above reach preambles 0-59 only.
PREAMBLE_BANK_DIGEST = "1f08f48ff3cd9aa106cf45ec6603e40b155521131a10afbcdf88e7af8946c733"
PILOT_256_DIGEST = "9f6ba5809a2faa9636c0a6da88e0d3c2b46da0596dc050b9178ae6ec29f6d2c4"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_reference_signal_digests():
    bank = ota._preamble_bank()
    assert bank.shape == (129, 127) and bank.dtype == np.float64
    assert _sha256(bank.tobytes()) == PREAMBLE_BANK_DIGEST
    pilots = make_pilot_values(256)
    assert pilots.dtype == np.complex128
    assert _sha256(pilots.tobytes()) == PILOT_256_DIGEST


@pytest.fixture(params=["cold", "warm"])
def caches(request):
    """Start a case with the package's caches empty ("cold") or holding the
    preamble bank and the default grid's pilots ("warm"): a cached read-only
    array must give the bits a freshly built one does."""
    for cached in (grid._msequence, ota._preamble_bank, ota._pilot_values):
        cached.cache_clear()
    if request.param == "warm":
        ota._preamble_bank()
        ota._pilot_values(PhyConfig().grid.subcarriers)
    return request.param


@pytest.mark.parametrize("command,cfg,extra", list(CLI_DIGESTS))
def test_cli_csv_digest(command, cfg, extra, caches, tmp_path):
    out = tmp_path / "out.csv"
    argv = [command, str(SCENARIOS / cfg), *extra, "--seed", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert _sha256(out.read_bytes()) == CLI_DIGESTS[(command, cfg, extra)]


@pytest.mark.parametrize(
    "num_ues,params,kind,allocation,overrides", list(AGGREGATE_DIGESTS),
    ids=[_aggregate_id(case) for case in AGGREGATE_DIGESTS],
)
def test_ota_aggregate_digest(num_ues, params, kind, allocation, overrides, caches):
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


@pytest.mark.parametrize("mode", list(PAPER_SHAPE_DIGESTS))
def test_paper_shape_rounds_digest(mode, caches, paper_tasks):
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
