"""Command-line front end.

Three subcommands:

``otafl run SCENARIO``
    Parse a scenario file, run the experiment, print a summary and
    optionally write one CSV row per round.

``otafl accounting``
    Print the digital-versus-analog slot and energy bill over a range of
    client counts, without running any training.

``otafl sync-sweep SCENARIO``
    Re-aggregate one round's updates under increasing timing-offset
    spreads and report mean aggregation NMSE per spread.

Each command checks its scenario and flags, then opens ``--out``, then
does its work, so an unusable ``--out`` exits before any round runs and
prints nothing.  A command whose work fails after ``--out`` was opened
removes that file: a failed command leaves no CSV at ``--out``, and a file
that was there before is gone.

Exit codes: 0 on success, 2 for unusable configuration or arguments, 3
when a run produced only aborted rounds (nothing was ever aggregated).
All CSV output is UTF-8 with LF line endings, a leading schema_version
column and 12-significant-digit floats, so equal seeds give byte-equal
files from one run to the next, in the same process or a fresh one.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import math
import sys
from pathlib import Path

from .accounting import DEFAULT_SPECTRAL_EFFICIENCY, EnergyModel, gains_table
from .scenario import Components, build, parse_file, run_scenario, sync_sweep

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


@contextlib.contextmanager
def _csv_out(path: str | None):
    """Open ``path`` before the command's work and yield ``write(header,
    rows)``, which does nothing without a path.  If the work fails, the
    file is removed."""
    if not path:
        yield lambda header, rows: None
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")

        def write(header: list[str], rows: list[list]) -> None:
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)

        try:
            yield write
        except BaseException:
            if Path(path).is_file():  # never a device such as /dev/null
                Path(path).unlink()
            raise


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("expected A..B, e.g. 2..20")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range bounds in {text!r}") from None
    if a < 1 or b < a:
        raise argparse.ArgumentTypeError("range needs 1 <= A <= B")
    return range(a, b + 1)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_spreads(text: str) -> list[int]:
    try:
        spreads = [int(p) for p in text.split(",") if p.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad spread list {text!r}") from None
    if not spreads:
        raise argparse.ArgumentTypeError("empty spread list")
    return spreads


def _load_scenario(args) -> Components:
    """The scenario file with ``--seed`` and ``--rounds`` set on its keys, checked by one build."""
    overrides = {"master_seed": args.seed, "rounds": getattr(args, "rounds", None)}
    sc = parse_file(args.scenario)
    sc = dataclasses.replace(sc, **{k: v for k, v in overrides.items() if v is not None})
    return build(sc)


def _cmd_run(args) -> int:
    parts = _load_scenario(args)
    with _csv_out(args.out) as write:
        result = run_scenario(parts)
        rows = [
            [
                SCHEMA_VERSION, parts.scenario.name, t.mode, t.round_index, t.agg_nmse_db,
                t.global_loss, t.alpha, t.slots_used, t.energy_j, int(t.aborted),
            ]
            for t in result.traces
        ]
        write(
            ["schema_version", "scenario", "mode", "round", "agg_nmse_db",
             "global_loss", "alpha", "slots", "energy_j", "aborted"],
            rows,
        )
    aborted = sum(t.aborted for t in result.traces)
    final_loss = result.traces[-1].global_loss
    # aborted rounds deliver nothing, so their 0 dB would only dilute the mean
    delivered = [t.agg_nmse_db for t in result.traces if not t.aborted]
    mean_nmse = f"{_fmt(sum(delivered) / len(delivered))} dB" if delivered else "n/a"
    print(f"scenario    : {parts.scenario.name} ({result.mode})")
    print(f"rounds      : {len(result.traces)} ({aborted} aborted)")
    print(f"final loss  : {_fmt(final_loss)}")
    print(f"mean NMSE   : {mean_nmse}")
    print(f"total slots : {result.total_slots}")
    print(f"energy      : {_fmt(result.total_energy_j)} J")
    if args.out:
        print(f"wrote       : {args.out}")
    if result.all_aborted:
        print("every round aborted: frame detection never succeeded", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _cmd_accounting(args) -> int:
    try:
        model = EnergyModel(tx_power_dbm=args.tx_power_dbm, fixed_overhead=args.overhead)
        rows = gains_table(
            args.m_range, args.params, args.bits,
            efficiency=args.efficiency, model=model,
        )
    except ValueError as exc:
        raise ValueError(f"--params, --bits, --m-range, --efficiency, --tx-power-dbm "
                         f"or --overhead: {exc}") from None
    header = ["schema_version", "num_ues", "mode", "slots", "gain", "energy_j"]
    table = [
        [SCHEMA_VERSION, r["num_ues"], r["mode"], r["slots"], r["gain"], r["energy_j"]]
        for r in rows
    ]
    with _csv_out(args.out) as write:
        write(header, table)
    print(f"{'M':>4} {'mode':>8} {'slots':>8} {'gain':>12} {'energy_J':>14}")
    for r in rows:
        print(f"{r['num_ues']:>4} {r['mode']:>8} {r['slots']:>8} "
              f"{_fmt(r['gain']):>12} {_fmt(r['energy_j']):>14}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_sync_sweep(args) -> int:
    parts = _load_scenario(args)
    with _csv_out(args.out) as write:
        rows = sync_sweep(parts, args.spreads, args.seeds)
        write(
            ["schema_version", "spread_samples", "mean_agg_nmse_db", "seeds"],
            [[SCHEMA_VERSION, r["spread_samples"], r["mean_agg_nmse_db"], r["seeds"]]
             for r in rows],
        )
    print(f"{'spread':>8} {'mean NMSE (dB)':>16} {'seeds':>6}")
    for r in rows:
        print(f"{r['spread_samples']:>8} {_fmt(r['mean_agg_nmse_db']):>16} {r['seeds']:>6}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otafl",
        description="Analog over-the-air federated aggregation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file end to end")
    p_run.add_argument("scenario", help="path to a scenario text file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's master seed")
    p_run.add_argument("--rounds", type=int, default=None,
                       help="override the scenario's round count")
    p_run.add_argument("--out", default=None, help="write per-round CSV here")
    p_run.set_defaults(func=_cmd_run)

    p_acc = sub.add_parser("accounting", help="slot and energy bill, no training")
    p_acc.add_argument("--params", type=int, required=True,
                       help="model parameter count")
    p_acc.add_argument("--bits", type=int, default=32,
                       help="bits per parameter for the digital upload")
    p_acc.add_argument("--m-range", type=_parse_range, default=range(2, 21),
                       help="client counts as A..B inclusive (default 2..20)")
    p_acc.add_argument("--efficiency", type=_finite_float, default=DEFAULT_SPECTRAL_EFFICIENCY,
                       help="digital spectral efficiency, bits per resource element")
    p_acc.add_argument("--tx-power-dbm", type=_finite_float, default=EnergyModel.tx_power_dbm)
    p_acc.add_argument("--overhead", type=_finite_float, default=EnergyModel.fixed_overhead,
                       help="fixed per-round overhead in slot energies")
    p_acc.add_argument("--out", default=None, help="write the table as CSV here")
    p_acc.set_defaults(func=_cmd_accounting)

    p_sw = sub.add_parser("sync-sweep",
                          help="aggregation NMSE versus timing-offset spread")
    p_sw.add_argument("scenario", help="path to a scenario text file")
    p_sw.add_argument("--spreads", type=_parse_spreads, default=[256, 64, 16, 4, 0],
                      help="comma-separated offset spreads in samples")
    p_sw.add_argument("--seeds", type=int, default=10,
                      help="number of master seeds to average over")
    p_sw.add_argument("--seed", type=int, default=None,
                      help="override the scenario's base master seed")
    p_sw.add_argument("--out", default=None, help="write the sweep as CSV here")
    p_sw.set_defaults(func=_cmd_sync_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
