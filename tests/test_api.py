"""The package's public surface: every export resolves, removed names stay gone,
and the runtime code imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import infgon
from infgon import IntMatrix, RelationVector, SnfResult, angulation


def test_every_export_resolves():
    assert len(set(infgon.__all__)) == len(infgon.__all__)
    for name in infgon.__all__:
        assert hasattr(infgon, name), name


def test_removed_names_are_gone():
    for name in ("classify_ends", "EndKind", "EndBehavior"):
        assert name not in infgon.__all__
        assert not hasattr(infgon, name)
        assert not hasattr(angulation, name)
    assert not hasattr(IntMatrix, "transpose")
    assert not hasattr(SnfResult, "invariant_factors")
    assert not hasattr(RelationVector, "evaluate")
    assert not hasattr(IntMatrix, "to_json")
    assert not hasattr(RelationVector, "is_zero")


def test_runtime_imports_are_stdlib_only():
    sources = sorted(Path(infgon.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
