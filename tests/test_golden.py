"""Byte-level golden corpus of the command line.

Each case runs `infgon.cli.main` in-process, in an empty working directory,
with COLUMNS=80 and NO_COLOR=1.  Its transcript (argv, exit code, stdout,
stderr, then every file the command wrote) must equal
`tests/golden/<name>.txt` byte for byte.  The corpus pins behaviour across
refactors: a change that is meant to alter output edits the affected files
by hand and says so in CHANGES.md.  The `--help` and usage texts come from
argparse as shipped with Python 3.11, which CI pins.  A few cases also run
as `python -m infgon.cli`, where `main()` reads its arguments from sys.argv.
"""

import hashlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from infgon import Arc, CategoryParams, RenderOptions, Window, arc_diagram_svg, canonical_family
from infgon.cli import main

GOLDEN = Path(__file__).parent / "golden"

QUIVER_N3 = ["-n", "3", "--component", "1", "--trange", "-8", "4", "--depth", "4",
             "--columns", "-6", "12"]

CASES = [
    # every README command
    ("readme-arcs-validate", ["arcs", "validate", "-n", "3", "--json", "[[1,5],[-2,5]]"]),
    ("readme-arcs-enumerate", ["arcs", "enumerate", "-n", "1", "--window", "0", "3"]),
    ("readme-quiver-window", ["quiver", "window", *QUIVER_N3]),
    ("readme-angulation-check",
     ["angulation", "check", "-n", "3", "--json", "[[1,5]]", "--window", "0", "5"]),
    ("readme-angulation-complete",
     ["angulation", "complete", "-n", "1", "--json", "[]", "--window", "0", "3"]),
    ("readme-family-canonical", ["family", "canonical", "-n", "3", "--m", "4"]),
    ("readme-k0-present-canonical", ["k0", "present", "-n", "2", "--canonical", "6"]),
    ("readme-k0-present-json",
     ["k0", "present", "--json", '{"n": 3, "arcs": [[1,5],[100,104]]}']),
    ("readme-k0-verify-text", ["k0", "verify", "-n", "3", "--m", "20", "--format", "text"]),
    ("readme-render-arcs",
     ["render", "arcs", "-n", "3", "--canonical", "5", "--window", "-8", "12", "-o", "arcs.svg"]),
    ("readme-render-quiver",
     ["render", "quiver", *QUIVER_N3, "--highlight-canonical", "6", "-o", "quiver.svg"]),
    # --help at every level
    ("help", ["--help"]),
    ("help-arcs", ["arcs", "--help"]),
    ("help-arcs-validate", ["arcs", "validate", "--help"]),
    ("help-arcs-enumerate", ["arcs", "enumerate", "--help"]),
    ("help-quiver", ["quiver", "--help"]),
    ("help-quiver-window", ["quiver", "window", "--help"]),
    ("help-angulation", ["angulation", "--help"]),
    ("help-angulation-check", ["angulation", "check", "--help"]),
    ("help-angulation-complete", ["angulation", "complete", "--help"]),
    ("help-family", ["family", "--help"]),
    ("help-family-canonical", ["family", "canonical", "--help"]),
    ("help-k0", ["k0", "--help"]),
    ("help-k0-present", ["k0", "present", "--help"]),
    ("help-k0-verify", ["k0", "verify", "--help"]),
    ("help-render", ["render", "--help"]),
    ("help-render-arcs", ["render", "arcs", "--help"]),
    ("help-render-quiver", ["render", "quiver", "--help"]),
    # --format text of every command that has it, checks passing and failing
    ("text-arcs-validate",
     ["arcs", "validate", "-n", "3", "--json", "[[1,5],[-2,5]]", "--format", "text"]),
    ("text-arcs-enumerate",
     ["arcs", "enumerate", "-n", "1", "--window", "0", "3", "--format", "text"]),
    ("text-quiver-window", ["quiver", "window", *QUIVER_N3, "--format", "text"]),
    ("text-angulation-check-pass",
     ["angulation", "check", "-n", "3", "--json", "[[1,5]]", "--window", "0", "5",
      "--format", "text"]),
    ("text-angulation-check-crossing",
     ["angulation", "check", "-n", "3", "--json", "[[3,7],[1,5]]", "--window", "0", "8",
      "--format", "text"]),
    ("text-angulation-check-not-maximal",
     ["angulation", "check", "-n", "1", "--json", "[[1,3]]", "--window", "0", "4",
      "--format", "text"]),
    ("text-angulation-complete",
     ["angulation", "complete", "-n", "1", "--json", "[]", "--window", "0", "3",
      "--format", "text"]),
    ("text-family-canonical", ["family", "canonical", "-n", "3", "--m", "4", "--format", "text"]),
    ("text-k0-present-canonical",
     ["k0", "present", "-n", "2", "--canonical", "6", "--format", "text"]),
    ("text-k0-present-upper-bound",
     ["k0", "present", "--json", '{"n": 3, "arcs": [[1,5],[100,104]]}', "--format", "text"]),
    ("text-output-file",
     ["k0", "verify", "-n", "2", "--m", "4", "--format", "text", "-o", "out.txt"]),
    # argparse usage errors
    ("usage-no-group", []),
    ("usage-no-command", ["k0"]),
    ("usage-missing-option", ["k0", "verify", "-n", "3"]),
    ("usage-bad-integer", ["arcs", "enumerate", "-n", "x", "--window", "0", "3"]),
    # input errors raised by the handlers
    ("input-canonical-and-json", ["k0", "present", "--canonical", "6", "--json", "[]"]),
    # the symbolic canonical input, which --canonical M also stands for
    ("symbolic-arcs-validate",
     ["arcs", "validate", "--json", '{"n": 3, "family": "canonical", "m": 4}']),
    # the streamed enumeration: a window with no arc, and a refused one that
    # writes nothing and creates no file
    ("empty-arcs-enumerate", ["arcs", "enumerate", "-n", "3", "--window", "0", "3"]),
    ("refused-arcs-enumerate",
     ["arcs", "enumerate", "-n", "1", "--window", "0", "2001", "-o", "out.json"]),
    # the member bound of the canonical family and the relation bound of k0
    ("refused-family-canonical",
     ["family", "canonical", "-n", "1", "--m", "100000000", "-o", "out.json"]),
    ("refused-k0-verify", ["k0", "verify", "-n", "2", "--m", "1002", "-o", "out.json"]),
    ("refused-k0-present",
     ["k0", "present", "-n", "2", "--canonical", "200000", "-o", "out.json"]),
    # a canonical family that misses the window of `render arcs`
    ("refused-render-arcs",
     ["render", "arcs", "-n", "3", "--canonical", "200000", "--window", "-8", "12",
      "-o", "arcs.svg"]),
    # family objects with neither arcs nor a symbolic tag, and arcs that are no array
    ("refused-k0-present-no-arcs", ["k0", "present", "--json", '{"n": 3}']),
    ("refused-k0-present-arcs-not-array", ["k0", "present", "--json", '{"n": 3, "arcs": 5}']),
    # a symbolic tag with explicit arcs: neither is dropped, the object is refused
    ("refused-k0-present-family-and-arcs",
     ["k0", "present", "--json", '{"n": 1, "family": "canonical", "m": 3, "arcs": [[0,2]]}']),
    # figures without labels, and one with highlighted nodes in another component
    # grid; the README pins the labelled ones above
    ("figure-render-arcs-no-labels",
     ["render", "arcs", "-n", "3", "--canonical", "5", "--window", "-8", "12", "--no-labels",
      "-o", "arcs.svg"]),
    ("figure-render-quiver-n1-no-labels",
     ["render", "quiver", "-n", "1", "--component", "0", "--trange", "-3", "3", "--depth", "3",
      "--highlight-canonical", "3", "--width", "640", "--height", "300", "--no-labels",
      "-o", "quiver.svg"]),
]

# figures that no command draws: the SVG text alone is the golden file
FIGURES = [
    ("figure-arc-diagram-highlight",
     lambda: arc_diagram_svg(
         canonical_family(CategoryParams(3), 5), Window(-8, 12),
         RenderOptions(width=640, height=300, highlight=(Arc(1, 5), Arc(-2, 8))),
     )),
]

# outputs too large for the corpus, pinned by the sha256 of their bytes.  The
# quiver figure formats each distinct coordinate once and trims arrow ends in
# float arithmetic, so a change to either shows here at thousands of nodes
DIGESTS = [
    (["render", "quiver", "-n", "1", "--component", "0", "--trange", "-500", "499",
      "--depth", "20", "--highlight-canonical", "40"],
     "92b1c264132a9c98844f07c4e67db3fb2a6ef1dabda3de3efb25523d059acfe7"),
    (["render", "quiver", "-n", "2", "--component", "1", "--trange", "-301", "300",
      "--depth", "30", "--columns", "-200", "500", "--no-labels", "--width", "1234",
      "--height", "567", "--highlight-canonical", "30"],
     "4462b7b0a373d2c06a0777be4898d5aff706ab2eb19e74b55b50f8bf94883412"),
    (["render", "quiver", "-n", "3", "--component", "1", "--trange", "-900", "900",
      "--depth", "17", "--highlight-canonical", "12", "--width", "901", "--height", "333"],
     "9d3fdc1db53f5b0b4c08dd70925da87f05d5c88619a45b28579b4e228a7d7773"),
    (["quiver", "window", "-n", "2", "--component", "0", "--trange", "-400", "400",
      "--depth", "25"],
     "2fa8821a76c961d09eac9a625625c7577e53428bf5f282a63db1e3aac7764fa8"),
]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[" ".join(argv[:4]) for argv, _ in DIGESTS])
def test_large_output_matches_its_digest(argv, digest, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "-o", "out"]) == 0
    assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_matches_golden(name, argv, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    monkeypatch.chdir(tmp_path)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on --help and on usage errors
        code = exc.code
    out, err = capsys.readouterr()
    got = f"$ {shlex.join(['infgon', *argv])}\nexit: {code}\n--- stdout\n{out}--- stderr\n{err}"
    for path in sorted(tmp_path.iterdir()):
        got += f"--- file {path.name}\n{path.read_text(encoding='utf-8')}"
    assert got == (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")


# cases whose parser `main()` builds from sys.argv, in a fresh process
PROCESS_CASES = ["help", "help-arcs", "help-k0-verify", "usage-no-group", "usage-no-command",
                 "usage-bad-integer"]


@pytest.mark.parametrize("name", PROCESS_CASES)
def test_process_matches_golden(name, tmp_path):
    argv = dict(CASES)[name]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "COLUMNS": "80", "NO_COLOR": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "infgon.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True)
    got = (f"$ {shlex.join(['infgon', *argv])}\nexit: {done.returncode}\n"
           f"--- stdout\n{done.stdout.decode()}--- stderr\n{done.stderr.decode()}")
    assert got == (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("name, draw", FIGURES, ids=[name for name, _ in FIGURES])
def test_figure_matches_golden(name, draw):
    assert draw() == (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")


def test_every_golden_file_has_a_case():
    names = [name for name, _ in CASES + FIGURES]
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(names)
