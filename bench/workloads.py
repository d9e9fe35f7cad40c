"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed (``setup``) and
then runs a fixed *pass* of ``pass_len`` operations, ``op(inputs, i)`` for
i = 0 .. pass_len - 1, each one a closed-loop call into the package's
public API or CLI.  The simulated results -- aborts, aggregation NMSE, the
loss gap and the output digests -- are taken over one pass, so they do not
depend on how many operations fit into the measured window; every later
repetition of the pass must reproduce the first bit for bit.

Functions are looked up on their modules at call time (``ota.run_ota_round``,
``cli.main``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass, field

import numpy as np

from otafl import cli, fl, ota, scenario
from otafl.accounting import DEFAULT_SPECTRAL_EFFICIENCY, SpectralProfile, format_from_grid
from otafl.channel import ChannelModel
from otafl.sync import SyncConfig


@dataclass
class OpOutput:
    """What one operation produced.

    ``outputs`` are (label, value) pairs -- arrays, tuples of numbers or
    bytes -- that must repeat exactly and feed the reported digests;
    ``problems`` are failed output checks.
    """

    outputs: list
    problems: list[str] = field(default_factory=list)


class FlPaperScale:
    """Criterion-5 federation at one seed, ota and digital_fp32 side by side.

    Op 2r is ota round r and op 2r + 1 is digital_fp32 round r, each a
    full federated round (local training on five 88 MB feature matrices,
    aggregation, evaluation).  One pass is the 50 rounds of both modes.
    """

    name = "fl_paper_scale"
    num_ues, params, samples, rounds = 5, 6656, 1664, 50
    modes = ("ota", "digital_fp32")
    pass_len = 2 * rounds
    setup_reps = 5
    # Rounds stream 440 MB of features, so their speed follows the host's
    # memory bandwidth as well as its CPU speed.
    reference_streams = True
    loss_gap_max = 0.05
    slot_ratio_min = 40.0

    def setup(self, seed: int) -> dict:
        tasks = []
        for ue in range(self.num_ues):
            shared, client = ota.data_seeds(seed, ue)
            tasks.append(fl.make_linear_task(shared, client, self.samples, self.params))
        phy = ota.PhyConfig(
            channel=ChannelModel("flat_block"),
            sync=SyncConfig(mode="ptp_on"),
            uplink_snr_db=20.0,
        )
        return {
            "seed": seed,
            "tasks": tasks,
            "state0": ota.initial_state(tasks, seed),
            "template": fl.TrainConfig(learning_rate=0.05, epochs=1, batch_size=0),
            "phy": phy,
            "profile": SpectralProfile.uniform(DEFAULT_SPECTRAL_EFFICIENCY, self.num_ues),
            "fmt": format_from_grid(phy.grid.symbols_per_slot, phy.grid.subcarriers,
                                    phy.grid.subcarrier_spacing),
        }

    def check_setup(self, inputs) -> list[str]:
        return []

    def op(self, inputs, i: int) -> OpOutput:
        r, mode = i // 2, self.modes[i % 2]
        if i == 0:
            self._states = {m: inputs["state0"] for m in self.modes}
            self._traces = {m: [] for m in self.modes}
        seed, tasks = inputs["seed"], inputs["tasks"]
        cfgs = ota.train_configs(inputs["template"], len(tasks), seed, r)
        state = self._states[mode]
        if mode == "ota":
            state, trace = ota.run_ota_round(state, tasks, cfgs, inputs["phy"], seed)
        else:
            state, trace = ota.run_digital_round(
                state, tasks, cfgs, mode, inputs["profile"], inputs["fmt"])
        self._states[mode] = state
        self._traces[mode].append(trace)
        problems = []
        if not (np.all(np.isfinite(state.theta)) and np.all(np.isfinite(trace.loss_per_ue))):
            problems.append(f"{mode} round {r}: non-finite model or loss")
        fields = (trace.agg_nmse_db, trace.global_loss, trace.alpha, trace.slots_used,
                  trace.energy_j, int(trace.aborted))
        return OpOutput([("theta", state.theta), ("trace", fields)], problems)

    def finish_pass(self, sim: dict) -> tuple[dict, list[str]]:
        ota_loss = self._traces["ota"][-1].global_loss
        dig_loss = self._traces["digital_fp32"][-1].global_loss
        gap = abs(ota_loss - dig_loss) / dig_loss
        ratio = (sum(t.slots_used for t in self._traces["digital_fp32"])
                 / sum(t.slots_used for t in self._traces["ota"]))
        problems = []
        if not gap <= self.loss_gap_max:
            problems.append(f"loss_gap_rel {gap:.4g} > {self.loss_gap_max}")
        if not ratio >= self.slot_ratio_min:
            problems.append(f"slot ratio {ratio:.4g} < {self.slot_ratio_min}")
        return {"loss_gap_rel": gap, "slot_ratio": ratio}, problems


class AirManyClients:
    """``ota_aggregate`` alone at paper scale with many clients.

    Sixty fixed deltas of 71 666 parameters (10 payload slots) cross a
    per-subcarrier Rayleigh uplink with full-band sounding; op i is one
    aggregation at ``round_index`` i, so every op draws fresh channels,
    offsets and noise.  One pass is ten aggregations.
    """

    name = "air_many_clients"
    num_ues, params = 60, 71_666
    pass_len = 10
    setup_reps = 9
    reference_streams = False
    # Mean NMSE of a pass is about -18 dB at this operating point.
    nmse_ceiling_db = -15.0
    oracle_tol = 1e-9

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        deltas = [0.1 * rng.standard_normal(self.params) for _ in range(self.num_ues)]
        phy = ota.PhyConfig(
            channel=ChannelModel("rayleigh_per_subcarrier"),
            pilot_allocation="tdm_full",
            csi_mode="estimated",
            sync=SyncConfig(mode="ptp_on"),
            uplink_snr_db=20.0,
        )
        return {"seed": seed, "deltas": deltas, "phy": phy}

    def check_setup(self, inputs) -> list[str]:
        """Criterion 2: an ideal, noiseless uplink delivers the exact average."""
        ideal = ota.PhyConfig(
            channel=ChannelModel("ideal"),
            sync=SyncConfig(mode="ptp_off", off_spread=0),
            uplink_snr_db=None,
        )
        report = ota.ota_aggregate(inputs["deltas"], ideal, master_seed=inputs["seed"])
        if report.aborted:
            return ["ideal-channel aggregation aborted"]
        rel = float(np.max(np.abs(report.recovered - report.exact_avg))
                    / np.max(np.abs(report.exact_avg)))
        if not rel <= self.oracle_tol:
            return [f"ideal-channel aggregation error {rel:.3g} > {self.oracle_tol}"]
        return []

    def op(self, inputs, i: int) -> OpOutput:
        phy = inputs["phy"]
        report = ota.ota_aggregate(inputs["deltas"], phy, master_seed=inputs["seed"],
                                   round_index=i)
        problems = []
        peak = float(np.max(report.max_re_power))
        if not peak <= phy.peak_power:
            problems.append(f"round {i}: RE power {peak:.6g} exceeds {phy.peak_power}")
        fields = (report.alpha, report.agg_nmse_db, int(report.aborted))
        return OpOutput([("recovered", report.recovered), ("report", fields),
                         ("offsets", report.offsets)], problems)

    def finish_pass(self, sim: dict) -> tuple[dict, list[str]]:
        if not sim["agg_nmse_db"] <= self.nmse_ceiling_db:
            return {}, [f"agg_nmse_db {sim['agg_nmse_db']:.4g} above ceiling "
                        f"{self.nmse_ceiling_db}"]
        return {}, []


class ScenarioCli:
    """The README's three commands through ``cli.main``, in process.

    One op runs ``run`` on the ota and digital baselines and a five-spread
    ``sync-sweep`` over 20 seeds, writing their CSVs; one pass is one op.
    """

    name = "scenario_cli"
    pass_len = 1
    setup_reps = 25
    reference_streams = False
    spreads = "256,64,16,4,0"
    sweep_seeds = 20

    def __init__(self, scenario_dir, out_dir):
        self.scenario_dir = scenario_dir
        self.out_dir = out_dir

    def setup(self, seed: int) -> dict:
        base = self.scenario_dir / "baseline.cfg"
        digital = self.scenario_dir / "digital_baseline.cfg"
        stress = self.scenario_dir / "sync_stress.cfg"
        parsed = {p.name: scenario.parse_file(p) for p in (base, digital, stress)}
        # The commands parse and build again; this times that set-up once.
        for sc in parsed.values():
            scenario.build_tasks(sc, seed)
        commands = [
            ("baseline.csv", ["run", str(base), "--seed", str(seed)],
             parsed["baseline.cfg"].rounds),
            ("digital_baseline.csv", ["run", str(digital), "--seed", str(seed)],
             parsed["digital_baseline.cfg"].rounds),
            ("sync_sweep.csv", ["sync-sweep", str(stress), "--spreads", self.spreads,
                                "--seeds", str(self.sweep_seeds), "--seed", str(seed)],
             len(self.spreads.split(","))),
        ]
        return {"commands": commands}

    def check_setup(self, inputs) -> list[str]:
        return []

    def op(self, inputs, i: int) -> OpOutput:
        outputs, problems = [], []
        self._csvs = {}
        for csv_name, argv, rows in inputs["commands"]:
            path = self.out_dir / csv_name
            path.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.main(argv + ["--out", str(path)])
            if rc != 0:
                problems.append(f"{argv[0]} {csv_name}: exit code {rc}: {err.getvalue().strip()}")
                continue
            data = path.read_bytes()
            table = list(csv.reader(io.StringIO(data.decode("utf-8"))))
            if not table or table[0][:1] != ["schema_version"]:
                problems.append(f"{csv_name}: no schema_version header")
            elif len(table) - 1 != rows:
                problems.append(f"{csv_name}: {len(table) - 1} rows, expected {rows}")
            self._csvs[csv_name] = table
            outputs.append((csv_name, data))
        return OpOutput(outputs, problems)

    def finish_pass(self, sim: dict) -> tuple[dict, list[str]]:
        def final_loss(name):
            table = self._csvs[name]
            return float(table[-1][table[0].index("global_loss")])

        try:
            ota_loss = final_loss("baseline.csv")
            dig_loss = final_loss("digital_baseline.csv")
        except (KeyError, IndexError, ValueError) as exc:
            return {}, [f"cannot read final losses: {exc!r}"]
        return {"loss_gap_rel": abs(ota_loss - dig_loss) / dig_loss}, []


def make(name: str, root, scratch):
    """Workload object for ``name``; ``scratch`` receives written files."""
    if name == FlPaperScale.name:
        return FlPaperScale()
    if name == AirManyClients.name:
        return AirManyClients()
    if name == ScenarioCli.name:
        return ScenarioCli(root / "scenarios", scratch)
    raise KeyError(name)


NAMES = (FlPaperScale.name, AirManyClients.name, ScenarioCli.name)
