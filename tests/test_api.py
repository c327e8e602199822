"""The package's public surface: every export resolves, removed names stay gone,
and the runtime code imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import infgon
from infgon import (
    Cokernel,
    IntMatrix,
    K0Presentation,
    RelationVector,
    RenderOptions,
    SnfResult,
    angulation,
)


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
    assert not hasattr(IntMatrix, "identity")
    assert not hasattr(SnfResult, "invariant_factors")
    # D is stored as the `diagonal` field: no dense `d`, no `diagonal()` method
    assert "diagonal" in SnfResult.__dataclass_fields__
    assert not hasattr(SnfResult, "d")
    assert not hasattr(SnfResult, "diagonal")
    assert not hasattr(RelationVector, "evaluate")
    assert not hasattr(IntMatrix, "to_json")
    assert not hasattr(RelationVector, "is_zero")
    assert not hasattr(Cokernel, "generator_classes")
    assert not hasattr(K0Presentation, "project")
    assert not hasattr(K0Presentation, "class_of")
    assert not hasattr(RenderOptions, "margin")


def test_readme_library_example():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        expr, comment, want = line.partition("  #")
        if comment:
            assert eval(expr, namespace) == ast.literal_eval(want.strip()), line
            checked += 1
        elif line:
            exec(line, namespace)
    assert checked == 3


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
