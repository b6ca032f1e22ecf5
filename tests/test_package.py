"""The top-level ``repro`` namespace: lazy re-exports (PEP 562)."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _run(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_every_exported_name_resolves_to_its_home_module():
    names = [name for name in repro.__all__ if name != "__version__"]
    assert sorted(names) == sorted(repro._HOME)
    for name in names:
        value = getattr(repro, name)
        assert getattr(sys.modules[repro._HOME[name]], name) is value
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="NoSuchThing"):
        getattr(repro, "NoSuchThing")


def test_importing_the_core_loads_no_serving_or_frontend_package():
    result = _run(
        "import sys, repro.core\n"
        "heavy = ('repro.concurrent', 'repro.persist', 'repro.regalloc',"
        " 'repro.frontend', 'repro.api', 'repro.service')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_star_import_binds_all_of_all():
    result = _run(
        "from repro import *\n"
        "import repro\n"
        "missing = [n for n in repro.__all__ if n not in globals()]\n"
        "print(missing)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_importing_the_core_loads_no_reference_layer():
    """``R`` and ``T`` are int masks only: no node-keyed sets or checkers."""
    result = _run(
        "import sys, repro.core\n"
        "gone = ('repro.sets.bitset', 'repro.core.bitset_query', 'repro.core.query')\n"
        "print(sorted(m for m in sys.modules if m in gone))\n"
        "print(len([m for m in sys.modules if m.split('.')[0] == 'repro']))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["[]", "36"]


def test_no_library_module_imports_the_tests():
    src = Path(repro.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "tests" for name in names):
                offenders.append(str(path.relative_to(src)))
    assert offenders == []
