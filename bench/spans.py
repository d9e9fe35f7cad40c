"""Spans and counters recorded around the package's public functions.

The package itself carries no instrumentation.  ``Tracer`` replaces each
traced function with a wrapper in every ``otafl`` module namespace that
holds it -- the place its callers look it up, e.g. ``otafl.ota.detect_frame``
as well as ``otafl.grid.detect_frame`` -- and puts the originals back on
``remove``.  Spans stay in memory as ``[name, start, end, parent, op]``
lists; self time is a span's duration minus the durations of its direct
children.  The stack of open spans assumes one thread, so the benchmark
pins ``OTAFL_THREADS=1``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

from otafl import ota
from otafl.sync import offset_bound

# span name -> (defining module, function names sharing that span)
TRACED = {
    "fl.loss_and_grad": ("fl", ("loss_and_grad",)),
    "fl.local_train": ("fl", ("local_train",)),
    "fl.evaluate_loss": ("fl", ("evaluate_loss",)),
    "fl.make_linear_task": ("fl", ("make_linear_task",)),
    "grid.detect_frame": ("grid", ("detect_frame",)),
    "grid.gold_sequence": ("grid", ("gold_sequence",)),
    "grid.ofdm_modulate": ("grid", ("ofdm_modulate",)),
    "grid.ofdm_demodulate": ("grid", ("ofdm_demodulate",)),
    "channel.superpose": ("channel", ("superpose",)),
    "channel.realize_channel": ("channel", ("realize_channel",)),
    "weightcodec.scale_updates": ("weightcodec", ("scale_updates",)),
    "weightcodec.pack_complex": ("weightcodec", ("pack_complex",)),
    "weightcodec.map_to_grids": ("weightcodec", ("map_to_grids",)),
    "weightcodec.unmap_from_grids": ("weightcodec", ("unmap_from_grids",)),
    "csi.ls_estimate": ("csi", ("ls_estimate",)),
    "csi.interpolate": ("csi", ("interpolate",)),
    "precode.channel_invert": ("precode", ("channel_invert",)),
    "precode.inversion_floor": ("precode", ("inversion_floor",)),
    "precode.compute_alpha": ("precode", ("compute_alpha",)),
    "sync.draw_offsets": ("sync", ("draw_offsets",)),
    "ota.ota_aggregate": ("ota", ("ota_aggregate",)),
    "ota.round": ("ota", ("run_ota_round", "run_digital_round")),
    "scenario.parse_file": ("scenario", ("parse_file",)),
    "scenario.build_tasks": ("scenario", ("build_tasks",)),
    "cli.main": ("cli", ("main",)),
}

# Spans whose arguments stay readable by the hooks of their descendants.
_KEEP_ARGS = {"ota.ota_aggregate"}

# Per-layer metrics reported from a traced run: (name, unit, better).
PER_LAYER = [
    ("fl.loss_and_grad.calls", "count", "lower"),
    ("fl.loss_and_grad.self_s", "s", "lower"),
    ("fl.local_train.self_s", "s", "lower"),
    ("fl.evaluate_loss.calls", "count", "lower"),
    ("fl.make_linear_task.self_s", "s", "lower"),
    ("fl.gather_gb", "GB", "lower"),
    ("fl.feature_read_gb", "GB", "lower"),
    ("fl.feature_gbps", "GB/s", "higher"),
    ("fl.grad_discarded_frac", "ratio", "lower"),
    ("grid.detect_frame.calls", "count", "lower"),
    ("grid.detect_frame.self_s", "s", "lower"),
    ("grid.detect_frame.samples_scanned", "count", "lower"),
    ("grid.detect_frame.useful_frac", "ratio", "higher"),
    ("grid.gold_sequence.calls", "count", "lower"),
    ("grid.gold_sequence.self_s", "s", "lower"),
    ("grid.gold_sequence.repeat_frac", "ratio", "lower"),
    ("grid.ofdm_modulate.calls", "count", "lower"),
    ("grid.ofdm_modulate.self_s", "s", "lower"),
    ("grid.ofdm_demodulate.calls", "count", "lower"),
    ("grid.ofdm_demodulate.self_s", "s", "lower"),
    ("channel.superpose.calls", "count", "lower"),
    ("channel.superpose.self_s", "s", "lower"),
    ("channel.superpose.samples_out", "count", "lower"),
    ("channel.realize_channel.self_s", "s", "lower"),
    ("weightcodec.scale_updates.calls", "count", "lower"),
    ("weightcodec.scale_updates.self_s", "s", "lower"),
    ("weightcodec.pack_complex.calls", "count", "lower"),
    ("weightcodec.pack_complex.self_s", "s", "lower"),
    ("weightcodec.map_to_grids.calls", "count", "lower"),
    ("weightcodec.map_to_grids.self_s", "s", "lower"),
    ("weightcodec.unmap_from_grids.calls", "count", "lower"),
    ("weightcodec.unmap_from_grids.self_s", "s", "lower"),
    ("csi.ls_estimate.self_s", "s", "lower"),
    ("csi.interpolate.self_s", "s", "lower"),
    ("precode.channel_invert.self_s", "s", "lower"),
    ("precode.inversion_floor.self_s", "s", "lower"),
    ("precode.compute_alpha.self_s", "s", "lower"),
    ("sync.draw_offsets.self_s", "s", "lower"),
    ("ota.ota_aggregate.calls", "count", "lower"),
    ("ota.ota_aggregate.self_s", "s", "lower"),
    ("ota.abort.sounding", "count", "lower"),
    ("ota.abort.payload", "count", "lower"),
    ("ota.round.self_s", "s", "lower"),
    ("scenario.parse_file.self_s", "s", "lower"),
    ("scenario.build_tasks.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def package_modules(package: str = "otafl"):
    """Loaded modules of the package, the package itself included."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


def patch_everywhere(current, replacement, modules) -> list:
    """Point every module attribute bound to ``current`` at ``replacement``.

    Returns the ``(module, attr, current)`` triples needed to undo it.
    """
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, current))
    return undo


def unpatch(undo: list) -> None:
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


class ReportCollector:
    """Keeps every AggregateReport ``ota_aggregate`` returns, wherever it is called."""

    def __init__(self):
        self.reports = []
        current = ota.ota_aggregate
        reports = self.reports

        @functools.wraps(current)
        def collecting(*args, **kwargs):
            report = current(*args, **kwargs)
            reports.append(report)
            return report

        self._undo = patch_everywhere(current, collecting, package_modules())

    def remove(self) -> None:
        unpatch(self._undo)


class Tracer:
    """In-memory span recorder over the functions named in ``TRACED``."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._args: dict[int, tuple] = {}
        self._gold_seen: set = set()
        self._undo: list = []
        self._hooks = {
            "fl.loss_and_grad": self._count_loss_and_grad,
            "grid.detect_frame": self._count_detect_frame,
            "grid.gold_sequence": self._count_gold_sequence,
            "channel.superpose": self._count_superpose,
            "ota.ota_aggregate": self._count_aggregate,
        }

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for span, (module, functions) in TRACED.items():
            for fn_name in functions:
                current = getattr(by_name[module], fn_name)
                self._undo += patch_everywhere(current, self._wrap(span, current), modules)

    def remove(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def _wrap(self, span_name: str, fn):
        hook = self._hooks.get(span_name)
        keep_args = span_name in _KEEP_ARGS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [span_name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            if keep_args:
                self._args[idx] = (args, kwargs)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if keep_args:
                    del self._args[idx]
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def _ancestor_args(self, span, name: str):
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return self._args.get(parent)
            parent = self.spans[parent][3]
        return None

    def _count_loss_and_grad(self, span, args, kwargs, result):
        task = args[1] if len(args) > 1 else kwargs["task"]
        idx = args[2] if len(args) > 2 else kwargs.get("idx")
        x = task.features
        rows = x.shape[0] if idx is None else len(idx)
        x_bytes = rows * x.shape[1] * x.itemsize
        # forward (X theta) and backward (X^T r) each read the features once
        self.counters["fl.feature_read_bytes"] += 2 * x_bytes
        if idx is not None:
            y_row = task.targets.itemsize * (task.targets.size // task.targets.shape[0])
            self.counters["fl.gather_bytes"] += x_bytes + rows * y_row
        if span[3] >= 0 and self.spans[span[3]][0] == "fl.evaluate_loss":
            self.counters["fl.grad_discarded"] += 1

    def _count_detect_frame(self, span, args, kwargs, result):
        signal = args[0] if args else kwargs["signal"]
        scanned = signal.samples.size
        self.counters["grid.detect_frame.samples_scanned"] += scanned
        context = self._ancestor_args(span, "ota.ota_aggregate")
        if context is None:
            return
        (c_args, c_kwargs) = context
        deltas = c_args[0] if c_args else c_kwargs["deltas"]
        phy = c_args[1] if len(c_args) > 1 else c_kwargs["phy"]
        useful = phy.preamble_region_len(len(deltas)) + offset_bound(phy.sync, phy.grid.sample_rate)
        self.counters["grid.detect_frame.samples_useful"] += min(useful, scanned)

    def _count_gold_sequence(self, span, args, kwargs, result):
        key = (args, tuple(sorted(kwargs.items())))
        if key in self._gold_seen:
            self.counters["grid.gold_sequence.repeats"] += 1
        else:
            self._gold_seen.add(key)

    def _count_superpose(self, span, args, kwargs, result):
        self.counters["channel.superpose.samples_out"] += result.samples.size

    def _count_aggregate(self, span, args, kwargs, result):
        if result.abort_reason.startswith("sounding"):
            self.counters["ota.abort.sounding"] += 1
        elif result.abort_reason.startswith("payload"):
            self.counters["ota.abort.payload"] += 1

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _, _), c in zip(self.spans, child):
            self_s[name] += end - start - c
            calls[name] += 1
        return self_s, calls

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every ``PER_LAYER`` metric, 0 for layers the run never entered."""
        self_s, calls = self.self_times()
        cnt = self.counters
        out: dict[str, float] = {}
        for name, unit, _ in PER_LAYER:
            head, _, stat = name.rpartition(".")
            if stat == "self_s":
                out[name] = self_s.get(head, 0.0)
            elif stat == "calls":
                out[name] = calls.get(head, 0)
            elif unit == "count":
                out[name] = int(cnt.get(name, 0))
        lg_calls = calls.get("fl.loss_and_grad", 0)
        lg_self = self_s.get("fl.loss_and_grad", 0.0)
        out["fl.gather_gb"] = cnt["fl.gather_bytes"] / 1e9
        out["fl.feature_read_gb"] = cnt["fl.feature_read_bytes"] / 1e9
        out["fl.feature_gbps"] = out["fl.feature_read_gb"] / lg_self if lg_self > 0 else 0.0
        out["fl.grad_discarded_frac"] = cnt["fl.grad_discarded"] / lg_calls if lg_calls else 0.0
        scanned = cnt["grid.detect_frame.samples_scanned"]
        out["grid.detect_frame.useful_frac"] = (
            cnt["grid.detect_frame.samples_useful"] / scanned if scanned else 0.0)
        gold_calls = calls.get("grid.gold_sequence", 0)
        out["grid.gold_sequence.repeat_frac"] = (
            cnt["grid.gold_sequence.repeats"] / gold_calls if gold_calls else 0.0)
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
