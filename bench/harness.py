"""Measurement loop, output checks and result lines of the benchmark.

``run.py`` pins the thread counts and puts the package on the path before
this module, and numpy with it, is imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
import workloads

EXIT_FAILED_CHECKS = 1

# Median times of the two parts of ``ReferenceKernel`` on the 2-vCPU Xeon
# (model 207) VM the bounds were set on.  Timed figures are scaled to a host
# of that speed.
REFERENCE_CPU_S = 0.0083
REFERENCE_STREAM_S = 0.0077
_REF_LOOP = 60_000


class ReferenceKernel:
    """Fixed work that runs no ``otafl`` code, timed next to the workload.

    A pure-Python loop and four numpy FFTs, the two kinds of work every
    workload does.  With ``streams``, also a matrix-vector product over an
    88 MB matrix, the shape of one ``fl_paper_scale`` client's features, for
    a workload bound by memory bandwidth.  On a shared host the speed a
    process gets drifts by a third within minutes; this kernel, timed next to
    the workload, slows with it, so the ratio of the two is what the program
    costs.  ``seconds`` is the kernel's time on the reference host.
    """

    def __init__(self, streams: bool):
        rng = np.random.default_rng(0)
        self.fft_input = rng.standard_normal((64, 2048)) + 0j
        self.matrix = rng.standard_normal((1664, 6656)) if streams else None
        self.vector = rng.standard_normal(6656)
        self.seconds = REFERENCE_CPU_S + (REFERENCE_STREAM_S if streams else 0.0)

    def __call__(self) -> float:
        self.fft_input.sum()  # bring the array back into cache, untimed
        t0 = perf_counter()
        s = 0
        for k in range(_REF_LOOP):
            s += k * k
        for _ in range(4):
            np.fft.fft(self.fft_input)
        if self.matrix is not None:
            self.matrix @ self.vector
        return perf_counter() - t0


def _fingerprint(outputs) -> bytes:
    """Bitwise identity of an op's outputs, for the repeat checks."""
    h = hashlib.sha256()
    for label, value in outputs:
        h.update(label.encode())
        if isinstance(value, bytes):
            h.update(value)
        elif isinstance(value, np.ndarray):
            h.update(repr((value.dtype.str, value.shape)).encode() + value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.digest()


def _formatted(value) -> bytes:
    """Outputs as the digests see them: numbers to 12 significant digits."""
    if isinstance(value, bytes):
        return value
    if isinstance(value, np.ndarray):
        return "\n".join(format(v, ".12g") for v in value.tolist()).encode() + b"\n"
    return ",".join(format(v, ".12g") for v in value).encode() + b"\n"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


class Run:
    """Bookkeeping of one benchmark run: ops, failures, pass results."""

    def __init__(self, workload, inputs, collector, kernel):
        self.workload = workload
        self.kernel = kernel
        self.inputs = inputs
        self.collector = collector
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sim: dict | None = None
        self.digests: dict | None = None
        self._reference: dict[int, bytes] = {}
        self._pass: list = []

    def op(self, i: int) -> tuple[float, int]:
        """Run op ``i`` of the pass; return its host time and the next index."""
        if i == 0:
            self._pass = []
        self.collector.reports.clear()
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = self.workload.op(self.inputs, i)
        except Exception:
            dt = perf_counter() - t0
            self._fail([f"op {i} raised: " + traceback.format_exc(limit=-3)])
            return dt, 0
        dt = perf_counter() - t0
        problems = out.problems
        fp = _fingerprint(out.outputs)
        if self._reference.setdefault(i, fp) != fp:
            problems.append(f"op {i}: outputs differ from an earlier run of the same op")
        self._pass.append((out.outputs, list(self.collector.reports)))
        nxt = i + 1
        if nxt == self.workload.pass_len:
            problems += self._finish_pass()
            nxt = 0
        if problems:
            self._fail(problems)
        return dt, nxt

    def _fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems

    def _finish_pass(self) -> list[str]:
        reports = [r for _, reps in self._pass for r in reps]
        delivered = [r.agg_nmse_db for r in reports if not r.aborted]
        if not delivered:
            return ["no aggregation in the pass was delivered"]
        sim = {
            "aggregations": len(reports),
            "aborted": len(reports) - len(delivered),
            "aborted_frac": (len(reports) - len(delivered)) / len(reports),
            "agg_nmse_db": sum(delivered) / len(delivered),
        }
        extras, problems = self.workload.finish_pass(sim)
        sim.update(extras)
        if self.sim is None:
            self.sim = sim
            self.digests = self._digest_pass()
        elif sim != self.sim:
            problems.append("pass results differ from an earlier pass")
        return problems

    def _digest_pass(self) -> dict[str, str]:
        hashes: dict = {}
        for outputs, _ in self._pass:
            for label, value in outputs:
                hashes.setdefault(label, hashlib.sha256()).update(_formatted(value))
        return {label: h.hexdigest() for label, h in hashes.items()}

    def timed(self, seconds: float, min_passes: int) -> tuple[list[float], list[float]]:
        """Closed loop until ``seconds`` have passed and ``min_passes`` passes ended.

        Returns the op times and the reference kernel times taken
        between them, one more than there are ops.
        """
        samples, refs, i, passes = [], [self.kernel()], 0, 0
        deadline = perf_counter() + seconds
        while True:
            dt, i = self.op(i)
            samples.append(dt)
            refs.append(self.kernel())
            passes += i == 0
            if passes >= min_passes and perf_counter() >= deadline:
                return samples, refs


def _scaled(times, refs, kernel_s: float) -> list[float]:
    """``times`` at the reference host speed.

    ``refs`` holds one reference kernel time before each time and one after
    the last; each time is divided by the slowdown around it, the mean of
    the two over the kernel's reference time ``kernel_s``.
    """
    return [t * 2 * kernel_s / (before + after)
            for t, before, after in zip(times, refs, refs[1:])]


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(root: Path, argv=None) -> int:
    parser = argparse.ArgumentParser(description="otafl benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = root / ".bench_build" / "bench"
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    collector = spans.ReportCollector()
    try:
        workload = workloads.make(args.workload, root, scratch)
        return measure(workload, args, collector, out_dir)
    finally:
        collector.remove()
        shutil.rmtree(scratch, ignore_errors=True)


def measure(workload, args, collector, out_dir: Path) -> int:
    kernel = ReferenceKernel(workload.reference_streams)
    setup_s, setup_refs, inputs = [], [kernel()], None
    for _ in range(workload.setup_reps):
        inputs = None  # free the previous inputs before building new ones
        t0 = perf_counter()
        inputs = workload.setup(args.seed)
        setup_s.append(perf_counter() - t0)
        setup_refs.append(kernel())
    run = Run(workload, inputs, collector, kernel)
    inputs = None
    setup_problems = workload.check_setup(run.inputs)
    run.problems += setup_problems
    run.op(0)  # warm-up, untimed; its outputs join the repeat checks

    if args.trace:
        untraced, _ = run.timed(args.seconds / 2, min_passes=0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.op = -1
            run.inputs = None
            run.inputs = workload.setup(args.seed)
            traced = []
            for i in range(workload.pass_len):
                tracer.op = i
                traced.append(run.op(i)[0])
        finally:
            tracer.remove()
        tracer.write(out_dir / f"spans_{args.workload}_seed{args.seed}.jsonl")
        overhead = statistics.median(traced) - statistics.median(untraced)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        metrics = {k: (v, units[k]) for k, v in tracer.metrics(overhead).items()}
        figures = {}
        samples = untraced
    else:
        samples, refs = run.timed(args.seconds, min_passes=1)
        figures = end_to_end(run, (setup_s, setup_refs), (samples, refs), kernel.seconds)
        metrics = {k: figures[k] for k in GATED}
        for name, (value, unit) in figures.items():
            print(f"{name:<20} {value:<14.6g} {unit}")

    correct = run.failed == 0 and run.sim is not None and not setup_problems
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_s_samples": setup_s,
        "ops_timed": len(samples),
        "pass_len": workload.pass_len,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "simulated": run.sim,
        "digests": run.digests,
        "problems": run.problems[:20],
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else EXIT_FAILED_CHECKS


# End-to-end metrics of the result line, as listed in BENCHMARK.json.
GATED = ("setup_s", "op_s_p50", "op_s_p90", "ops_per_s", "peak_rss_mb",
         "agg_snr_db", "delivered_frac")


def end_to_end(run, setup, ops, kernel_s: float) -> dict[str, tuple[float, str]]:
    """Every end-to-end figure by name: the ``GATED`` ones and their raw forms.

    ``setup`` and ``ops`` each pair host times with the reference kernel
    times taken before and after each of them.  Every time is divided by
    the host's slowdown around it -- the mean of those two kernel times
    over the kernel's reference time ``kernel_s`` -- so the timed figures
    read in seconds on the reference host; the ``wall_`` figures are the
    same ones unscaled.

    ``failed_frac`` and ``aborted_frac`` are 0 on most runs and
    ``loss_gap_rel`` exists only where a federation trains, so the result
    line carries the never-zero ``delivered_frac`` (1 - aborted_frac) and
    ``agg_snr_db`` (-agg_nmse_db) instead; the raw figures are printed too.
    """
    sim = run.sim or {}
    nmse = sim.get("agg_nmse_db", 0.0)
    aborted = sim.get("aborted_frac", 1.0)
    (setup_s, setup_refs), (samples, refs) = setup, ops
    setup_scaled = _scaled(setup_s, setup_refs, kernel_s)
    scaled = _scaled(samples, refs, kernel_s)
    figures = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "op_s_p50": (statistics.median(scaled), "s"),
        "op_s_p90": (_p90(scaled), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "agg_snr_db": (-nmse, "dB"),
        "delivered_frac": (1.0 - aborted, "ratio"),
        "failed_frac": (run.failed / run.attempted, "ratio"),
        "aborted_frac": (aborted, "ratio"),
        "agg_nmse_db": (nmse, "dB"),
        "host_slowdown": (statistics.median(refs) / kernel_s, "ratio"),
        "wall_setup_s": (statistics.median(setup_s), "s"),
        "wall_op_s_p50": (statistics.median(samples), "s"),
        "wall_op_s_p90": (_p90(samples), "s"),
        "wall_ops_per_s": (len(samples) / sum(samples), "1/s"),
    }
    if "loss_gap_rel" in sim:
        figures["loss_gap_rel"] = (sim["loss_gap_rel"], "ratio")
    return figures
