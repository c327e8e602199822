"""Byte-level golden corpus of the command line.

Each case runs `infgon.cli.main` in-process, in an empty working directory,
with COLUMNS=80 and NO_COLOR=1.  Its transcript (argv, exit code, stdout,
stderr, then every file the command wrote) must equal
`tests/golden/<name>.txt` byte for byte.  The corpus pins behaviour across
refactors: a change that is meant to alter output edits the affected files
by hand and says so in CHANGES.md.  The `--help` and usage texts come from
argparse as shipped with Python 3.11, which CI pins.
"""

import shlex
from pathlib import Path

import pytest

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
    # the streamed enumeration: a window with no arc, and a refused one that
    # writes nothing and creates no file
    ("empty-arcs-enumerate", ["arcs", "enumerate", "-n", "3", "--window", "0", "3"]),
    ("refused-arcs-enumerate",
     ["arcs", "enumerate", "-n", "1", "--window", "0", "2001", "-o", "out.json"]),
]


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


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(name for name, _ in CASES)
