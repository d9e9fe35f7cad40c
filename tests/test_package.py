"""The package's public surface and its import hygiene."""

import ast
import importlib
import re
from collections import defaultdict
from pathlib import Path

import pytest

import otafl

PACKAGE_DIR = Path(otafl.__file__).resolve().parent
TESTS_DIR = Path(__file__).resolve().parent
BENCH_SPANS = TESTS_DIR.parent / "bench" / "spans.py"
BENCH_WORKLOADS = TESTS_DIR.parent / "bench" / "workloads.py"

TRACED_BY_BENCH = "traced by bench/spans.py"
READ_BY_WORKLOADS = "read by bench/workloads.py"
TEST_ORACLE = "test oracle"

# Public functions and classes that no code in the package calls, other than
# code that is itself uncalled, each with the reason it stays.  The list can
# only shrink: a new uncalled name fails the ratchet below, and so does a
# listed name that gains a caller.
PIPELINE_FREE = {
    "accounting.format_from_grid": READ_BY_WORKLOADS,
    "accounting.spectrum_gain": TEST_ORACLE,
    "channel.superpose": TRACED_BY_BENCH,
    "fl.evaluate_loss": TRACED_BY_BENCH,
    "fl.fedavg_digital": TEST_ORACLE,
    "grid.ofdm_modulate": TRACED_BY_BENCH,
    "precode.channel_invert": TRACED_BY_BENCH,
    "scenario.serialize": TEST_ORACLE,
    "sync.peak_spread": TEST_ORACLE,
    "sync.spread_of": TEST_ORACLE,
    "weightcodec.map_to_grids": TRACED_BY_BENCH,
    "weightcodec.pack_complex": TRACED_BY_BENCH,
    "weightcodec.scale_updates": TRACED_BY_BENCH,
    "weightcodec.unscale_updates": TEST_ORACLE,
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


def test_pipeline_free_reasons_hold():
    """A traced name is in ``TRACED``, a workload name is read by
    ``bench/workloads.py`` and an oracle is called by some test."""
    traced = {f"{module}.{fn}" for module, fns in _bench_traced().values() for fn in fns}
    workloads = BENCH_WORKLOADS.read_text(encoding="utf-8")
    tests = "\n".join(path.read_text(encoding="utf-8")
                      for path in TESTS_DIR.glob("test_*.py") if path.name != "test_package.py")
    wrong = []
    for name, reason in PIPELINE_FREE.items():
        called = re.compile(rf"\b{name.rpartition('.')[2]}\(")
        holds = {
            TRACED_BY_BENCH: name in traced,
            READ_BY_WORKLOADS: called.search(workloads) is not None,
            TEST_ORACLE: called.search(tests) is not None,
        }.get(reason, False)
        if not holds:
            wrong.append(f"{name}: {reason}")
    assert wrong == []
