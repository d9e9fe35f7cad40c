"""The package's public surface and its import hygiene."""

import ast
import importlib
import re
import typing
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import otafl
from otafl import channel, cli, ota, scenario, sync

PACKAGE_DIR = Path(otafl.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
BENCH_SPANS = TESTS_DIR.parent / "bench" / "spans.py"
BENCH_WORKLOADS = TESTS_DIR.parent / "bench" / "workloads.py"
ORACLES = TESTS_DIR / "oracles.py"

TRACED_BY_BENCH = "traced by bench/spans.py"
READ_BY_WORKLOADS = "read by bench/workloads.py"

# Public functions and classes that no code in the package calls, other than
# code that is itself uncalled, each with the reason it stays.  The list can
# only shrink: a new uncalled name fails the ratchet below, and so does a
# listed name that gains a caller.
PIPELINE_FREE = {
    "accounting.format_from_grid": READ_BY_WORKLOADS,
    "channel.superpose": TRACED_BY_BENCH,
    "fl.evaluate_loss": TRACED_BY_BENCH,
    "grid.ofdm_modulate": TRACED_BY_BENCH,
    "ota.train_configs": READ_BY_WORKLOADS,
    "precode.channel_invert": TRACED_BY_BENCH,
    "weightcodec.map_to_grids": TRACED_BY_BENCH,
    "weightcodec.pack_complex": TRACED_BY_BENCH,
    "weightcodec.scale_updates": TRACED_BY_BENCH,
}


def test_all_names_resolve_once():
    assert len(otafl.__all__) == len(set(otafl.__all__))
    missing = [name for name in otafl.__all__ if not hasattr(otafl, name)]
    assert missing == []


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_import_check_sees_a_stale_name():
    source = "from __future__ import annotations\nimport os\nfrom math import pi, tau\nx = pi\n"
    assert _unused_imports(source) == ["line 2: os", "line 3: tau"]


def test_no_unused_imports():
    """``__init__.py`` is skipped: its imports are the re-exported API."""
    stale = {
        path.name: found
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "__init__.py"
        and (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert stale == {}


def _environment_reads(source: str) -> list[str]:
    """Imports of ``os`` or ``concurrent.futures`` and reads of
    ``os.environ`` or ``os.getenv``, anywhere in a module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            names = [f"os.{node.attr}"]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.split(".")[0] == "os" or name.startswith("concurrent.futures")]
    return found


def test_environment_check_sees_every_kind_of_read():
    source = (
        "import os\nfrom concurrent.futures import wait\n"
        "from concurrent import futures\nfrom math import pi\n"
        "def workers():\n    return int(os.environ.get('N', '1')) or os.getenv('M')\n"
    )
    assert _environment_reads(source) == [
        "line 1: os",
        "line 2: concurrent.futures.wait",
        "line 3: concurrent.futures",
        "line 6: os.getenv",
        "line 6: os.environ",
    ]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE_DIR.glob("*.py")))
def test_no_module_reads_the_process_environment(module):
    """Every setting is a scenario key, a CLI flag or a function argument,
    and every client runs in one serial loop."""
    assert _environment_reads((PACKAGE_DIR / module).read_text(encoding="utf-8")) == []


def _bench_traced() -> dict:
    """``bench/spans.py``'s ``TRACED`` table, read without importing it."""
    tree = ast.parse(BENCH_SPANS.read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    )


def test_bench_traced_names_resolve():
    """Every function the benchmark's tracer wraps still exists in its module,
    so a traced run cannot silently lose a layer."""
    traced = _bench_traced()
    assert traced
    missing = [
        f"{module}.{name}"
        for module, names in traced.values()
        for name in names
        if not callable(getattr(importlib.import_module(f"otafl.{module}"), name, None))
    ]
    assert missing == []


def _uncalled_public_names(package_dir: Path = PACKAGE_DIR) -> set[str]:
    """``module.name`` of every top-level public ``def`` or ``class`` in the
    package that no package module reads outside that definition itself,
    or that only such uncalled definitions read, followed transitively;
    ``__init__.py``'s re-exports do not count as readers, and module-level
    code always does."""
    defined, readers = {}, defaultdict(set)
    for path in sorted(package_dir.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(node, "name", None)
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def:
                defined[f"{path.stem}.{own}"] = own
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name is not None and name != own:
                    readers[name].add(f"{path.stem}.{own}" if is_def else None)
    uncalled: set[str] = set()
    while True:
        grown = {qual for qual, name in defined.items() if readers[name] <= uncalled}
        if grown == uncalled:
            return {qual for qual, name in defined.items()
                    if qual in uncalled and not name.startswith("_")}
        uncalled = grown


def test_uncalled_public_names_are_exactly_the_listed_ones():
    assert _uncalled_public_names() == set(PIPELINE_FREE)


def test_uncalled_public_name_check_sees_a_caller_gained_or_lost(tmp_path):
    """A self-read is no caller and module-level code is one; a helper that
    only an uncalled definition reads, directly or through a private
    helper, is uncalled too."""
    for path in PACKAGE_DIR.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "ota.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef lonely():\n    return lonely, _relay(), helper\n\n\n"
                 "def _relay():\n    return relayed\n\n\ndef helper():\n    return 1\n\n\n"
                 "def relayed():\n    return 2\n\n\n_CALLS = (superpose,)\n")
    want = set(PIPELINE_FREE) - {"channel.superpose"} | {"ota.lonely", "ota.helper", "ota.relayed"}
    assert _uncalled_public_names(tmp_path) == want


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _unread_attributes(package_dir: Path = PACKAGE_DIR) -> set[str]:
    """``module.Class.name`` of every attribute a package class assigns on
    ``self`` whose name no package module reads as an attribute, of any
    object.  A dataclass's fields are public data and exempt."""
    assigned, read = set(), set()
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if not isinstance(node, ast.ClassDef):
                continue
            fields = {item.target.id for item in node.body if isinstance(item, ast.AnnAssign)
                      and isinstance(item.target, ast.Name)} if _is_dataclass(node) else set()
            assigned |= {
                (sub.attr, f"{path.stem}.{node.name}.{sub.attr}") for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                and sub.attr not in fields
            }
    return {qual for name, qual in assigned if name not in read}


def test_every_attribute_a_class_sets_on_self_is_read():
    """State no code reads is state to keep in step for nothing."""
    assert _unread_attributes() == set()


def test_unread_attribute_check_sees_a_reader_gained_or_lost(tmp_path):
    """An attribute set on ``self`` and never read is flagged, one read
    anywhere in the package clears it, and a dataclass field is exempt."""
    for path in PACKAGE_DIR.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "ota.py", "a", encoding="utf-8") as fh:
        fh.write("\n\nclass _Probe:\n    def __init__(self):\n"
                 "        self.kept, self.stray = 1, 2\n\n"
                 "    def value(self):\n        return self.kept\n\n\n"
                 "@dataclass\nclass _Record:\n    unread: int = 0\n\n"
                 "    def __post_init__(self):\n        self.unread = 1\n")
    assert _unread_attributes(tmp_path) == {"ota._Probe.stray"}
    with open(tmp_path / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n\n_STRAY = ota._Probe().stray\n")
    assert _unread_attributes(tmp_path) == set()


def test_pipeline_free_reasons_hold():
    """A traced name is in ``TRACED`` and a workload name is read by
    ``bench/workloads.py``."""
    traced = {f"{module}.{fn}" for module, fns in _bench_traced().values() for fn in fns}
    workloads = BENCH_WORKLOADS.read_text(encoding="utf-8")
    wrong = []
    for name, reason in PIPELINE_FREE.items():
        called = re.compile(rf"\b{name.rpartition('.')[2]}\(")
        holds = {
            TRACED_BY_BENCH: name in traced,
            READ_BY_WORKLOADS: called.search(workloads) is not None,
        }.get(reason, False)
        if not holds:
            wrong.append(f"{name}: {reason}")
    assert wrong == []


# What ``scenario.build`` makes of a scenario, each in one place.
BUILT_BY_SCENARIO = ("GridConfig", "SyncConfig", "ChannelModel", "PhyConfig", "TrainConfig",
                     "EnergyModel", "SpectralProfile.uniform")


def _build_sites(source: str) -> dict[str, list[str]]:
    """For each name in ``BUILT_BY_SCENARIO``, the top-level definition of
    every call that calls it or passes it on to be called
    (``keyed("grid", GridConfig, ...)``).  Reading a class attribute such
    as ``GridConfig.subcarriers`` for a default builds nothing."""
    sites = defaultdict(list)
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                for callee in (node.func, *node.args):
                    if (name := ast.unparse(callee)) in BUILT_BY_SCENARIO:
                        sites[name].append(getattr(top, "name", "<module>"))
    return dict(sites)


def test_a_scenario_builds_each_component_once_inside_build():
    source = (PACKAGE_DIR / "scenario.py").read_text(encoding="utf-8")
    assert _build_sites(source) == {name: ["build"] for name in BUILT_BY_SCENARIO}


# Every call of ``scenario.build`` in the package, as (module.function, the
# iterable of the innermost ``for`` around it): a command builds its
# scenario once, and a sync sweep builds each of its spreads.
BUILD_CALLS = [("cli._load_scenario", None), ("scenario.sync_sweep", "spreads")]


def _build_calls(sources: dict[str, str]) -> list[tuple[str, str | None]]:
    """For each ``build(...)`` or ``scenario.build(...)`` call in the
    modules' sources, its top-level definition and innermost loop."""
    found = []

    def visit(node, where, loop):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("build", "scenario.build"):
            found.append((where, loop))
        for child in ast.iter_child_nodes(node):
            visit(child, where, ast.unparse(node.iter) if isinstance(node, ast.For) else loop)

    for module, source in sources.items():
        for top in ast.parse(source).body:
            visit(top, f"{module}.{getattr(top, 'name', '<module>')}", None)
    return found


def test_build_call_check_sees_a_parser_or_a_run_that_builds():
    source = ("def parse(text):\n    return build(text)\n\n\n"
              "def run_scenario(parts):\n    return scenario.build(parts.scenario)\n\n\n"
              "def sweep(parts, spreads):\n    for s in spreads:\n        build(s)\n")
    assert _build_calls({"scenario": source}) == [
        ("scenario.parse", None), ("scenario.run_scenario", None), ("scenario.sweep", "spreads")]


def test_only_the_cli_loader_and_the_sweeps_spread_loop_build():
    """``parse``, ``parse_file`` and ``run_scenario`` never build: a command
    builds its scenario once and hands the components on."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _build_calls(sources) == BUILD_CALLS


def test_a_cli_command_builds_once_and_a_sweep_once_per_spread(tmp_path, monkeypatch, capsys):
    real, built = scenario.build, []

    def counted(sc):
        built.append(sc)
        return real(sc)

    monkeypatch.setattr(scenario, "build", counted)
    monkeypatch.setattr(cli, "build", counted)
    path = tmp_path / "small.cfg"
    path.write_text("rounds = 1\nnum_ues = 2\ntask.samples_per_ue = 32\ntask.features = 8\n"
                    "grid.subcarriers = 32\ngrid.symbols_per_slot = 4\ngrid.fft_size = 32\n"
                    "grid.cp_len = 8\n", encoding="utf-8")
    assert cli.main(["run", str(path)]) == cli.EXIT_OK
    assert len(built) == 1
    built.clear()
    assert cli.main(["sync-sweep", str(path), "--spreads", "8,0", "--seeds", "1"]) == cli.EXIT_OK
    assert len(built) == 3


# ``accounting``'s bill functions.  Only ``accounting`` computes an energy or
# a digital slot count, and a run (``ota``) or a scenario bills a round only
# through ``round_bill``.
BILL_FUNCTIONS = ("round_bill", "round_energy", "digital_slots", "digital_slots_raw",
                  "energy_gain", "gains_table")


def _bill_calls(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, function) of every call of a ``BILL_FUNCTIONS`` name in the
    modules' sources, or of a call that passes one on to be called
    (``keyed(None, round_bill, ...)``), by the function's last name."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                for callee in (node.func, *node.args):
                    name = ast.unparse(callee).rpartition(".")[2]
                    if name in BILL_FUNCTIONS:
                        found.append((module, name))
    return found


def _bill_breaches(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Bill calls that compute energy or digital slots outside ``accounting``,
    or that bill in ``ota`` or ``scenario`` other than through ``round_bill``."""
    return sorted(
        (module, name) for module, name in _bill_calls(sources)
        if (name in ("round_energy", "digital_slots") and module != "accounting")
        or (module in ("ota", "scenario") and name != "round_bill")
    )


def test_bill_call_check_sees_a_second_formula_or_a_bypass():
    sources = {
        "accounting": "def round_bill(m):\n    return digital_slots(m), round_energy(m)\n",
        "ota": "def run(m):\n    return round_bill(m), accounting.round_energy(m)\n",
        "scenario": "def build(m):\n    keyed(None, digital_slots_raw, m)\n",
        "cli": "def main(m):\n    return gains_table(m), digital_slots(m)\n",
    }
    assert _bill_breaches(sources) == [
        ("cli", "digital_slots"), ("ota", "round_energy"), ("scenario", "digital_slots_raw")]


def test_only_accounting_computes_a_bill_and_runs_bill_through_round_bill():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _bill_breaches(sources) == []
    assert sorted(m for m, name in _bill_calls(sources) if name == "round_bill") == [
        "ota", "ota", "scenario"]


def _seed_sequence_uses(sources: dict[str, str]) -> list[str]:
    """``module: definition`` for every name, attribute or import of
    ``SeedSequence`` in the sources outside ``ota.derive_seed``, the
    definition being the top-level function or class it sits in, or
    ``<module>``."""
    found = []
    for module, source in sources.items():
        for top in ast.parse(source).body:
            where = getattr(top, "name", "<module>")
            if (module, where) == ("ota", "derive_seed"):
                continue
            for sub in ast.walk(top):
                names = ([sub.id] if isinstance(sub, ast.Name)
                         else [sub.attr] if isinstance(sub, ast.Attribute)
                         else [alias.name for alias in sub.names]
                         if isinstance(sub, ast.ImportFrom) else [])
                if "SeedSequence" in names:
                    found.append(f"{module}: {where}")
    return found


def test_seed_sequence_check_sees_a_constructor_an_import_or_an_alias():
    sources = {
        "ota": "def derive_seed(*p):\n    return np.random.SeedSequence(list(p))\n\n\n"
               "def noise(m):\n    return np.random.default_rng(np.random.SeedSequence(m))\n",
        "fl": "from numpy.random import SeedSequence, default_rng\n\n\n"
              "def task(m):\n    return default_rng(SeedSequence([m]))\n",
        "grid": "SEQ = numpy.random.SeedSequence\n",
        "csi": 'def seeded(m):\n    """Takes an int or a SeedSequence."""\n',
    }
    assert _seed_sequence_uses(sources) == [
        "ota: noise", "fl: <module>", "fl: task", "grid: <module>"]


def test_only_derive_seed_builds_a_seed_sequence():
    """Every stream's seed comes from ``ota.derive_seed``, so none bypasses
    its uint32 path."""
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert _seed_sequence_uses(sources) == []


def _top_level_defs(source: str) -> list[str]:
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def test_oracles_are_called_by_tests_and_defined_only_there():
    """Every public function in ``tests/oracles.py`` is called by some test
    module, and no function of that file is defined again in the package."""
    oracles = _top_level_defs(ORACLES.read_text(encoding="utf-8"))
    tests = "\n".join(path.read_text(encoding="utf-8")
                      for path in TESTS_DIR.glob("test_*.py") if path.name != "test_package.py")
    uncalled = [name for name in oracles
                if not name.startswith("_") and not re.search(rf"\b{name}\(", tests)]
    redefined = {
        f"{path.stem}.{name}"
        for path in PACKAGE_DIR.glob("*.py")
        for name in _top_level_defs(path.read_text(encoding="utf-8"))
        if name in oracles
    }
    assert oracles
    assert uncalled == []
    assert redefined == set()


# The frame layout of ``ota``'s receive events.  Only ``ota._Event`` reads
# these names; ``PhyConfig`` defines the first two and may read them there.
LAYOUT_NAMES = ("preamble_slot_len", "preamble_region_len", "offset_bound")


def _layout_reads(source: str) -> list[str]:
    """``definition: name`` for every read of a ``LAYOUT_NAMES`` name in the
    module's source outside ``_Event`` and outside ``PhyConfig``'s own
    definitions of those names."""
    found = []
    for top in ast.parse(source).body:
        where = getattr(top, "name", "<module>")
        if where == "_Event":
            continue
        nodes = [top]
        if where == "PhyConfig":
            nodes = [node for node in top.body if getattr(node, "name", None) not in LAYOUT_NAMES]
        for node in nodes:
            for sub in ast.walk(node):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else None)
                if name in LAYOUT_NAMES:
                    found.append(f"{where}: {name}")
    return found


def test_layout_read_check_sees_a_builder_or_a_round_that_reads_the_layout():
    source = (
        "from .sync import offset_bound\n\n\n"
        "class PhyConfig:\n"
        "    @property\n    def preamble_slot_len(self):\n        return 143\n\n"
        "    def preamble_region_len(self, n):\n        return n * self.preamble_slot_len\n\n"
        "    def guard(self):\n        return self.preamble_slot_len\n\n\n"
        "class _Event:\n    def __init__(self, phy, n):\n"
        "        self.region = phy.preamble_region_len(n) + offset_bound(phy.sync, 1.0)\n\n\n"
        "def _payload_frame(phy, n):\n    return phy.preamble_region_len(n)\n\n\n"
        "BOUND = offset_bound\n"
    )
    assert _layout_reads(source) == [
        "PhyConfig: preamble_slot_len", "_payload_frame: preamble_region_len",
        "<module>: offset_bound"]


def test_only_the_event_type_reads_the_frame_layout():
    """Chip starts, body starts, search windows, the noised prefix and the
    read start are computed in one place, which later layout changes edit."""
    assert _layout_reads((PACKAGE_DIR / "ota.py").read_text(encoding="utf-8")) == []


# The package's module-level caches (functions with ``cache_clear``), each
# with whether what it returns holds arrays.  A cached array is shared by every later
# caller, so each array cache must be cleared and filled by the golden
# ``caches`` fixture, whose cold and warm cases then pin its bits.
PACKAGE_CACHES = {
    "grid._msequence": True,
    "ota._comb_layout": True,  # a CombLayout of read-only arrays
    "ota._pilot_masks": True,
    "ota._pilot_values": True,
    "ota._preamble_bank": True,
    "scenario._part_fields": False,
}
GOLDEN = TESTS_DIR / "test_golden_outputs.py"


def _holds_arrays(kind) -> bool:
    """Whether a value of type ``kind`` holds an ``ndarray``: it is one, a
    type built from one (a tuple or a union of them), or a NamedTuple with
    such a field."""
    if kind is np.ndarray:
        return True
    fields = typing.get_type_hints(kind) if hasattr(kind, "_fields") else {}
    return any(_holds_arrays(t) for t in (*typing.get_args(kind), *fields.values()))


def _package_caches() -> dict[str, bool]:
    """``module.name`` of every cached function a package module defines,
    and whether its resolved return type holds arrays."""
    found = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"otafl.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                returns = typing.get_type_hints(value.__wrapped__).get("return")
                found[f"{path.stem}.{name}"] = _holds_arrays(returns)
    return found


def _caches_missing_from_fixture(caches: dict[str, bool], golden_source: str) -> list[str]:
    """The array caches that the golden ``caches`` fixture never names."""
    fixture = next(node for node in ast.parse(golden_source).body
                   if isinstance(node, ast.FunctionDef) and node.name == "caches")
    named = {f"{sub.value.id}.{sub.attr}" for sub in ast.walk(fixture)
             if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)}
    return [name for name, arrays in caches.items() if arrays and name not in named]


def test_package_caches_are_exactly_the_listed_ones():
    assert _package_caches() == PACKAGE_CACHES


def test_missing_cache_check_sees_an_array_cache_the_fixture_leaves_out():
    source = ("def caches(request):\n"
              "    for cached in (grid._msequence, ota._pilot_values):\n"
              "        cached.cache_clear()\n")
    want = ["ota._comb_layout", "ota._pilot_masks", "ota._preamble_bank"]
    assert _caches_missing_from_fixture(PACKAGE_CACHES, source) == want
    assert sorted(_caches_missing_from_fixture(_package_caches(), source)) == want


class _Arrays(NamedTuple):
    size: int
    rows: tuple[np.ndarray, ...]


class _Sizes(NamedTuple):
    size: int
    names: tuple[str, ...]


def test_a_cache_holds_arrays_by_its_resolved_return_type():
    """An array, a tuple or union of arrays and a NamedTuple with an array
    field hold arrays; a NamedTuple without one, like a plain tuple, does not."""
    holds = [np.ndarray, tuple[np.ndarray, ...], np.ndarray | None, _Arrays]
    holds_not = [int, tuple[tuple[str, str], ...], _Sizes, None]
    assert [_holds_arrays(kind) for kind in holds + holds_not] == [True] * 4 + [False] * 4


def test_every_array_cache_is_in_the_golden_cold_and_warm_fixture():
    assert _caches_missing_from_fixture(_package_caches(),
                                        GOLDEN.read_text(encoding="utf-8")) == []


# Every value an enumerated choice accepts is one that some run selects: a
# shipped scenario, a benchmark workload, an acceptance criterion or a golden
# pin.  A value no run selects is a code path only its own unit tests reach.
ENUMERATIONS = {"ota.MODES": ota.MODES, "ota.CSI_MODES": ota.CSI_MODES,
                "ota.PILOT_ALLOCATIONS": ota.PILOT_ALLOCATIONS, "channel.KINDS": channel.KINDS,
                "sync.MODES": sync.MODES}
RUNS = (*sorted((TESTS_DIR.parent / "scenarios").glob("*.cfg")), BENCH_WORKLOADS,
        TESTS_DIR / "test_acceptance.py", GOLDEN)


def _unselected_values(enumerations: dict[str, tuple[str, ...]], sources: list[str]) -> list[str]:
    """``name: value`` for every enumerated value that no source sets, as a
    quoted string or after ``=``; a bare word, such as one in a comment,
    sets nothing."""
    text = "\n".join(sources)
    return [
        f"{name}: {value}"
        for name, values in enumerations.items()
        for value in values
        if not re.search(rf"""(["']){re.escape(value)}\1|=\s*{re.escape(value)}\b""", text)
    ]


def test_unselected_value_check_sees_a_bare_word_a_longer_value_or_none():
    enumerations = {"ota.MODES": ("ota", "digital_fp32"),
                    "ota.CSI_MODES": ("estimated", "perfect"),
                    "channel.KINDS": ("ideal", "flat_block")}
    sources = ["mode = digital_fp32_old\n# ota is the default\nchannel.kind = flat_block\n",
               "PhyConfig(csi_mode=\"perfect\")\nkind = 'ideal'\n"]
    assert _unselected_values(enumerations, sources) == [
        "ota.MODES: ota", "ota.MODES: digital_fp32", "ota.CSI_MODES: estimated"]


def test_every_enumerated_value_is_one_some_run_selects():
    sources = [path.read_text(encoding="utf-8") for path in RUNS]
    assert _unselected_values(ENUMERATIONS, sources) == []
