"""The package's public surface and its import hygiene."""

import ast
from pathlib import Path

import otafl

PACKAGE_DIR = Path(otafl.__file__).resolve().parent


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
