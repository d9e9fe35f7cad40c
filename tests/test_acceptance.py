"""Acceptance suite: eight high-level criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines
on success as well (pytest hides captured stdout for passing tests).
Every criterion is self-contained and seeded.  Criterion 5 (50 rounds x
10 seeds x 2 modes at P = 6656) runs for the time its ``slow`` marker in
``pyproject.toml`` states, against its 300 s gate; the other seven take
seconds.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import otafl
from otafl import fl
from otafl.accounting import (
    DEFAULT_FIXED_OVERHEAD,
    DEFAULT_SPECTRAL_EFFICIENCY,
    SpectralProfile,
    digital_slots,
    digital_slots_raw,
    energy_gain,
)
from otafl.channel import ChannelModel, superpose
from otafl.cli import main
from otafl.grid import (
    GridConfig,
    TimeSignal,
    gold_sequence,
    ofdm_demodulate,
    ofdm_modulate,
)
from otafl.ota import PhyConfig, data_seeds, ota_aggregate, run_experiment
from otafl.scenario import build, parse, sync_sweep
from otafl.sync import SyncConfig, draw_offsets
from otafl.weightcodec import (
    map_to_grids,
    pack_complex,
    scale_updates,
    slot_plan,
    unmap_from_grids,
)
from oracles import peak_spread, spectrum_gain, spread_of


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _ideal_phy(**kw) -> PhyConfig:
    base = dict(
        channel=ChannelModel("ideal"),
        sync=SyncConfig(mode="ptp_off", off_spread=0),
        uplink_snr_db=None,
    )
    base.update(kw)
    return PhyConfig(**base)


# --------------------------------------------------------------------------
# 1. slot arithmetic


def test_criterion_1_slot_arithmetic():
    fmt = GridConfig()
    raw = digital_slots_raw(71_666, 32, DEFAULT_SPECTRAL_EFFICIENCY, fmt)
    profile = SpectralProfile.uniform(DEFAULT_SPECTRAL_EFFICIENCY, 5)
    total = digital_slots(71_666, 32, profile, fmt)
    shared = slot_plan(71_666, fmt)
    gain = spectrum_gain(71_666, 32, profile, fmt)
    ok = (
        abs(raw - 86.396) <= 1e-3
        and math.ceil(raw) == 87
        and total == 435
        and shared == 10
        and abs(gain - 43.5) < 1e-9
    )
    _verdict(
        "criterion-1 slot-arithmetic", ok,
        f"raw={raw:.4f} ceil={math.ceil(raw)} five_ues={total} "
        f"ota={shared} gain={gain:g}",
    )


# --------------------------------------------------------------------------
# 2. oracle equivalence


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    phy = _ideal_phy()
    worst = 0.0
    for params in (2, 1000, 71_666):
        for num_ues in (1, 2, 5):
            rng = np.random.default_rng(1000 * params + num_ues)
            deltas = [0.1 * rng.normal(size=params) for _ in range(num_ues)]
            report = ota_aggregate(deltas, phy, master_seed=params + num_ues)
            assert not report.aborted
            rel = float(
                np.max(np.abs(report.recovered - report.exact_avg))
                / np.max(np.abs(report.exact_avg))
            )
            worst = max(worst, rel)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(
        "criterion-2 oracle-equivalence", ok,
        f"worst elementwise rel err {worst:.2e} over 9 (P, M) combos, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 3. codec and PHY round trips


def test_criterion_3_codec_phy_round_trips():
    t0 = time.time()
    cfg = GridConfig()

    # 500 random map/unmap cases
    rng = np.random.default_rng(42)
    codec_worst = 0.0
    for _ in range(500):
        params = int(rng.integers(1, 20_000))
        delta = rng.normal(size=params) * rng.uniform(0.01, 10)
        values, scales = scale_updates(delta)
        block = map_to_grids(pack_complex(values), slot_plan(params, cfg), cfg)
        back = unmap_from_grids(block, params, scales)
        codec_worst = max(codec_worst, float(np.max(np.abs(back - delta))))

    # OFDM round trip
    grid = (
        rng.normal(size=(cfg.symbols_per_slot, cfg.subcarriers))
        + 1j * rng.normal(size=(cfg.symbols_per_slot, cfg.subcarriers))
    )
    back = ofdm_demodulate(ofdm_modulate(grid, cfg), cfg, 0)
    ofdm_err = float(np.max(np.abs(back - grid)))

    # exhaustive degree-7 Gold cross-correlations: all ordered pairs of
    # distinct family members at every cyclic lag
    family = np.stack([gold_sequence(k) for k in range(129)])
    values: set[int] = set()
    eye = np.eye(129, dtype=bool)
    for lag in range(127):
        corr = family @ np.roll(family, lag, axis=1).T
        values.update(int(v) for v in np.unique(np.rint(corr[~eye])))
    elapsed = time.time() - t0
    ok = (
        codec_worst <= 1e-12
        and ofdm_err <= 1e-12
        and values <= {-17, -1, 15}
        and elapsed < 30.0
    )
    _verdict(
        "criterion-3 codec-phy-round-trips", ok,
        f"codec err {codec_worst:.1e}, ofdm err {ofdm_err:.1e}, "
        f"gold values {sorted(values)}, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 4. power constraint


def test_criterion_4_power_constraint():
    t0 = time.time()
    grid = GridConfig(subcarriers=32, symbols_per_slot=4, fft_size=32, cp_len=8)
    rng = np.random.default_rng(7)
    kinds = ("ideal", "flat_block", "rayleigh_per_subcarrier")
    violations = 0
    worst_margin = 0.0
    for case in range(200):
        num_ues = int(rng.integers(1, 7))
        params = int(rng.integers(2, 400))
        snr = float(rng.uniform(0.0, 30.0)) if case % 5 else None
        phy = PhyConfig(
            grid=grid,
            channel=ChannelModel(str(rng.choice(kinds))),
            sync=SyncConfig(mode="ptp_on"),
            uplink_snr_db=snr,
            pilot_allocation=str(rng.choice(("fdm_comb", "tdm_full"))),
        )
        deltas = [rng.normal(size=params) * rng.uniform(0.01, 5) for _ in range(num_ues)]
        report = ota_aggregate(deltas, phy, master_seed=case)
        peak = float(np.max(report.max_re_power))
        worst_margin = max(worst_margin, peak)
        violations += int(peak > phy.peak_power)
    elapsed = time.time() - t0
    ok = violations == 0
    _verdict(
        "criterion-4 power-constraint", ok,
        f"{violations} violations in 200 randomized rounds, "
        f"worst RE power {worst_margin:.4f} of 1.0, {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 5. convergence parity and slot bill


@pytest.mark.slow
def test_criterion_5_convergence_parity():
    t0 = time.time()
    params, samples, num_ues, rounds, seeds = 6656, 1664, 5, 50, 10
    template = fl.TrainConfig(learning_rate=0.05, epochs=1, batch_size=0)
    phy = PhyConfig(
        channel=ChannelModel("flat_block"),
        sync=SyncConfig(mode="ptp_on"),
        uplink_snr_db=20.0,
    )
    finals = {"ota": [], "digital_fp32": []}
    slot_totals = {}
    for seed in range(seeds):
        tasks = []
        for ue in range(num_ues):
            shared, client = data_seeds(seed, ue)
            tasks.append(fl.make_linear_task(shared, client, samples, params))
        for mode in ("ota", "digital_fp32"):
            res = run_experiment(mode, rounds, tasks, template, phy, master_seed=seed)
            finals[mode].append(res.traces[-1].global_loss)
            slot_totals[mode] = res.total_slots
    mean_ota = float(np.mean(finals["ota"]))
    mean_dig = float(np.mean(finals["digital_fp32"]))
    rel_gap = abs(mean_ota - mean_dig) / mean_dig
    slot_ratio = slot_totals["digital_fp32"] / slot_totals["ota"]
    elapsed = time.time() - t0
    ok = rel_gap <= 0.05 and slot_ratio >= 40.0 and elapsed < 300.0
    _verdict(
        "criterion-5 convergence-parity", ok,
        f"final loss ota {mean_ota:.5f} vs digital {mean_dig:.5f} "
        f"(gap {100 * rel_gap:.3f}%), slot ratio {slot_ratio:.1f}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 6. synchronization study


def test_criterion_6_synchronization():
    t0 = time.time()
    rate = 3.84e6

    # (a) constructed delays are recovered exactly
    delays = [0, 37, 150, 400]
    preambles = [gold_sequence(k) for k in range(len(delays))]
    rx = superpose(
        [(TimeSignal(p.astype(complex), rate), d) for p, d in zip(preambles, delays)],
        0.0, seed=0,
    )
    pairs = peak_spread(rx, preambles)
    exact = [off for _, off in pairs] == delays

    # (b) ptp-bounded offsets keep the detected spread within 4 samples
    cfg = SyncConfig(mode="ptp_on")
    spreads_ok = True
    for seed in range(20):
        offs = draw_offsets(cfg, 5, rate, seed=seed)
        sigs = [
            (TimeSignal(gold_sequence(k).astype(complex), rate), int(offs[k]))
            for k in range(5)
        ]
        got = peak_spread(superpose(sigs, 0.0, seed=seed), [s[0].samples.real for s in sigs])
        spreads_ok &= spread_of(got) <= 4

    # (c) mean aggregation error is monotone nonincreasing as the injected
    # spread shrinks through 256, 64, 16, 4, 0 samples
    sc = parse(
        "name = sync-stress\n"
        "rounds = 1\n"
        "num_ues = 5\n"
        "task.features = 512\n"
        "task.samples_per_ue = 128\n"
        "phy.uplink_snr_db = 60\n"
    )
    rows = sync_sweep(build(sc), spreads=[256, 64, 16, 4, 0], n_seeds=20)
    curve = [r["mean_agg_nmse_db"] for r in rows]
    monotone = all(b <= a + 1e-9 for a, b in zip(curve, curve[1:]))
    elapsed = time.time() - t0
    ok = exact and spreads_ok and monotone and elapsed < 120.0
    _verdict(
        "criterion-6 synchronization", ok,
        f"exact recovery {exact}, ptp spread<=4 {spreads_ok}, "
        f"sweep dB {[round(float(v), 1) for v in curve]}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------------
# 7. energy model reconstruction


def test_criterion_7_energy_gains():
    g2 = energy_gain(2, 87, 10)
    g20 = energy_gain(20, 87, 10)
    ok = (
        abs(DEFAULT_FIXED_OVERHEAD - 94.0 / 3.0) < 1e-12
        and abs(g2 - 4.0) <= 1e-12
        and 7.0 <= g20 <= 8.0
    )
    _verdict(
        "criterion-7 energy-gains", ok,
        f"c=94/3, gain(2)={g2:.12f}, gain(20)={g20:.3f}",
    )


# --------------------------------------------------------------------------
# 8. determinism across processes


def test_criterion_8_determinism(tmp_path):
    scenario = tmp_path / "det.cfg"
    scenario.write_text(
        "name = determinism\n"
        "rounds = 2\n"
        "num_ues = 3\n"
        "task.samples_per_ue = 32\n"
        "task.features = 24\n"
        "grid.subcarriers = 32\n"
        "grid.symbols_per_slot = 4\n"
        "grid.fft_size = 32\n"
        "grid.cp_len = 8\n"
        "channel.kind = rayleigh_per_subcarrier\n"
        "phy.pilot_allocation = tdm_full\n"
        "phy.uplink_snr_db = 15\n",
        encoding="utf-8",
    )
    argv = ["run", str(scenario), "--seed", "11", "--out"]
    here = tmp_path / "in_process.csv"
    assert main([*argv, str(here)]) == 0
    # A fresh interpreter starts with cold reference-signal caches, its own
    # hash seed and one BLAS thread.
    fresh = tmp_path / "fresh_interpreter.csv"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    src = str(Path(otafl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = "1"
    child = subprocess.run(
        [sys.executable, "-m", "otafl.cli", *argv, str(fresh)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    outputs = [here.read_bytes(), fresh.read_bytes()]
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(
        "criterion-8 determinism", ok,
        "byte-identical CSV in this process and in a fresh interpreter at one "
        f"BLAS thread ({len(outputs[0])} bytes)",
    )
