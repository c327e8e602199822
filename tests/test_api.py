"""The package's public surface: every export resolves, removed names stay gone,
and the runtime code imports nothing outside the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import infgon
from infgon import (
    CategoryParams,
    Cokernel,
    IntMatrix,
    K0Basis,
    K0Presentation,
    QuiverWindow,
    RelationVector,
    RenderOptions,
    SnfResult,
    TheoremReport,
    Window,
    angulation,
    arcs,
    quiver_window,
)


def test_every_export_resolves():
    assert len(set(infgon.__all__)) == len(infgon.__all__)
    for name in infgon.__all__:
        assert hasattr(infgon, name), name
    assert set(infgon.__all__) <= set(dir(infgon))


def test_removed_names_are_gone():
    for name in ("classify_ends", "EndKind", "EndBehavior"):
        assert name not in infgon.__all__
        assert not hasattr(infgon, name)
        assert not hasattr(angulation, name)
    # `window_rows` is the one row enumerator; its flattened form is gone
    assert "window_pairs" not in infgon.__all__
    assert not hasattr(infgon, "window_pairs")
    assert not hasattr(arcs, "window_pairs")
    assert not hasattr(IntMatrix, "transpose")
    assert not hasattr(IntMatrix, "identity")
    assert not hasattr(SnfResult, "invariant_factors")
    # D is stored as the `diagonal` field: no dense `d`, no `diagonal()` method
    assert "diagonal" in SnfResult._fields
    assert not hasattr(SnfResult, "d")
    assert not callable(SnfResult.diagonal)
    assert not hasattr(RelationVector, "evaluate")
    assert not hasattr(IntMatrix, "to_json")
    assert not hasattr(RelationVector, "is_zero")
    assert not hasattr(Cokernel, "generator_classes")
    assert not hasattr(K0Presentation, "project")
    assert not hasattr(K0Presentation, "class_of")
    assert not hasattr(RenderOptions, "margin")
    assert not hasattr(K0Basis, "index")
    assert not hasattr(QuiverWindow, "node_index")
    # the arrow check keeps its node index to itself
    assert not hasattr(quiver_window(CategoryParams(1), 0, Window(0, 2), 1), "index")
    assert not hasattr(Window, "contains_point")
    # a report's JSON reads its arcs from `canonical_family`; it keeps no copy
    assert not hasattr(TheoremReport, "arcs")


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


def test_the_cli_and_k0_load_neither_dataclasses_nor_inspect():
    # the value classes are written by hand; -S, since a site file may load
    # modules of its own
    code = (
        "import sys, infgon.cli, infgon.k0\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
