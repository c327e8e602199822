"""End-to-end tests of the command line: exit codes, JSON shapes, files."""

import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from infgon import cli, k0
from infgon.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


# ----------------------------------------------------------- arcs validate


def test_validate_accepts_good_arcs(capsys):
    code, out = run_json(
        capsys, "arcs", "validate", "-n", "3", "--json", "[[1,5],[-2,5]]"
    )
    assert code == 0
    assert out == {"n": 3, "count": 2, "valid": True, "arcs": [[1, 5], [-2, 5]]}


def test_validate_rejects_wrong_length(capsys):
    code, out, err = run(capsys, "arcs", "validate", "-n", "3", "--json", "[[1,4]]")
    assert code == 2
    assert out == ""
    assert "not 3-admissible" in err
    assert "length 3 is not congruent to 1 modulo 3" in err


def test_validate_rejects_unordered_endpoints(capsys):
    code, _, err = run(capsys, "arcs", "validate", "-n", "3", "--json", "[[4,1]]")
    assert code == 2
    assert "endpoints must satisfy t < u" in err


def test_validate_reads_from_file(capsys, tmp_path):
    path = tmp_path / "family.json"
    path.write_text('{"n": 1, "arcs": [[0, 2]]}')
    code, out = run_json(capsys, "arcs", "validate", "--input", str(path))
    assert code == 0
    assert out["n"] == 1


def test_parameter_mismatch_between_flag_and_payload(capsys):
    code, _, err = run(
        capsys, "arcs", "validate", "-n", "3", "--json", '{"n": 2, "arcs": [[1, 4]]}'
    )
    assert code == 2
    assert "parameter mismatch" in err


def test_json_and_input_are_exclusive(capsys, tmp_path):
    path = tmp_path / "x.json"
    path.write_text("[]")
    code, _, err = run(
        capsys, "arcs", "validate", "-n", "1", "--json", "[]", "--input", str(path)
    )
    assert code == 2
    assert "at most one" in err


def test_missing_input_is_an_input_error(capsys):
    code, _, err = run(capsys, "arcs", "validate", "-n", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("channel", ["--json", "--input", "stdin"])
def test_deeply_nested_json_is_an_input_error(capsys, monkeypatch, tmp_path, channel):
    deep = "[" * 5000 + "]" * 5000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    argv = {
        "--json": ["arcs", "validate", "-n", "1", "--json", deep],
        "--input": ["arcs", "validate", "-n", "1", "--input", str(path)],
        "stdin": ["k0", "present", "-n", "1"],
    }[channel]
    monkeypatch.setattr("sys.stdin", io.StringIO(deep))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: input JSON is nested too deeply\n"


@pytest.mark.parametrize(
    "payload",
    [
        json.dumps([[1] + [3] * 20000]),
        json.dumps({"n": "x" * 50000, "arcs": []}),
    ],
    ids=["long-arc", "long-n"],
)
def test_huge_bad_value_is_not_echoed_whole(capsys, payload):
    code, out, err = run(capsys, "arcs", "validate", "-n", "1", "--json", payload)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.endswith("...\n")
    assert err.count("\n") == 1
    assert len(err) < 200


HUGE = "1" + "0" * 4200  # just under the 4300-digit limit of int() and json


@pytest.mark.parametrize(
    "argv",
    [
        ("arcs", "validate", "-n", "2", "--json", f"[[0, {HUGE}]]"),
        ("arcs", "validate", "-n", "2", "--json", f"[[{HUGE}, 0]]"),
        ("arcs", "enumerate", "-n", "2", "--window", HUGE, "0"),
        ("k0", "verify", "-n", "2", "--m", "-" + HUGE),
        ("family", "canonical", "-n", "2", "--m", "-" + HUGE),
        ("quiver", "window", "-n", "2", "--component", "0", "--trange", "0", "4",
         "--depth", "-" + HUGE),
        ("quiver", "window", "-n", "2", "--component", HUGE, "--trange", "0", "4",
         "--depth", "2"),
    ],
    ids=["inadmissible", "unordered", "window", "verify-m", "canonical-m", "depth", "component"],
)
def test_huge_endpoint_is_not_echoed_whole(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    # each value is cut to 80 characters; the inadmissible arc's message
    # carries two of them (an endpoint and the length) and runs to 243
    assert len(err) < 250
    assert HUGE[:81] not in err


# -------------------------------------------------------- process boundary


def test_exit_codes_reach_the_shell():
    # `sys.exit(main())` under `python -m infgon.cli`, as a shell sees it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def shell(*argv):
        return subprocess.run(
            [sys.executable, "-m", "infgon.cli", *argv], env=env, capture_output=True, text=True
        )

    assert shell("k0", "verify", "-n", "3", "--m", "20").returncode == 0
    crossing = shell("angulation", "check", "-n", "3", "--json", "[[1,5],[3,7]]")
    assert crossing.returncode == 1
    malformed = shell("arcs", "validate", "-n", "1", "--json", "[[0,")
    assert malformed.returncode == 2
    assert malformed.stdout == ""
    assert malformed.stderr.startswith("error:") and malformed.stderr.count("\n") == 1


# ---------------------------------------------------------- arcs enumerate


def test_enumerate_json(capsys):
    code, out = run_json(capsys, "arcs", "enumerate", "-n", "1", "--window", "0", "3")
    assert code == 0
    assert out == {
        "n": 1,
        "window": [0, 3],
        "count": 3,
        "arcs": [[0, 2], [0, 3], [1, 3]],
    }


def test_enumerate_text(capsys):
    code, out, _ = run(
        capsys, "arcs", "enumerate", "-n", "1", "--window", "0", "3",
        "--format", "text",
    )
    assert code == 0
    assert out == "(0, 2)\n(0, 3)\n(1, 3)\n"


# ----------------------------------------------------------- quiver window


def test_quiver_window_json(capsys):
    code, out = run_json(
        capsys, "quiver", "window", "-n", "1", "--component", "0",
        "--trange", "0", "1", "--depth", "1",
    )
    assert code == 0
    assert out == {"component": 0, "nodes": [[0, 2], [1, 3]], "arrows": []}


def test_quiver_window_rejects_bad_component(capsys):
    code, _, err = run(
        capsys, "quiver", "window", "-n", "2", "--component", "5",
        "--trange", "0", "4", "--depth", "2",
    )
    assert code == 2
    assert "component" in err


# -------------------------------------------------------- angulation check


def test_check_passes_on_maximal_family(capsys):
    code, out = run_json(
        capsys, "angulation", "check", "-n", "3", "--json", "[[1,5]]",
        "--window", "0", "5",
    )
    assert code == 0
    assert out == {
        "n": 3,
        "window": [0, 5],
        "certificate": "window-local",
        "noncrossing": True,
        "crossing_pair": None,
        "window_maximal": True,
        "witness": None,
    }


def test_check_fails_on_crossing(capsys):
    code, out, _ = run(
        capsys, "angulation", "check", "-n", "3", "--json", "[[1,5],[3,7]]",
        "--window", "0", "8",
    )
    assert code == 1
    report = json.loads(out)
    assert report["noncrossing"] is False
    assert report["crossing_pair"] == [[1, 5], [3, 7]]
    assert report["window_maximal"] is None


def test_check_fails_with_witness_when_not_maximal(capsys):
    code, out, _ = run(
        capsys, "angulation", "check", "-n", "1", "--json", "[[1,3]]",
        "--window", "0", "4",
    )
    assert code == 1
    report = json.loads(out)
    assert report["window_maximal"] is False
    assert report["witness"] == [0, 3]


def test_check_defaults_to_the_hull_window(capsys):
    code, out = run_json(capsys, "angulation", "check", "-n", "1", "--json", "[[1,3]]")
    assert code == 0
    assert out["window"] == [1, 3]
    assert out["window_maximal"] is True


def test_check_text_verdict(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run(
        capsys, "angulation", "check", "-n", "1", "--json", "[[1,3]]",
        "--window", "0", "4", "--format", "text",
    )
    assert code == 1
    assert "not maximal: arc (0, 3) can be added" in out
    assert "result: FAIL" in out


def test_check_text_names_the_crossing_pair(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, err = run(
        capsys, "angulation", "check", "-n", "3", "--json", "[[3,7],[1,5]]",
        "--window", "0", "8", "--format", "text",
    )
    assert code == 1
    assert err == ""
    assert out == (
        "window-local certificate over [0, 8]\n"
        "crossing: (1, 5) x (3, 7)\n"
        "result: FAIL\n"
    )


# ----------------------------------------------------- angulation complete


def test_complete_fills_the_window(capsys):
    code, out = run_json(
        capsys, "angulation", "complete", "-n", "1", "--json", "[]",
        "--window", "0", "3",
    )
    assert code == 0
    assert out == {"n": 1, "arcs": [[0, 2], [0, 3]]}


def test_complete_requires_a_window_for_empty_input(capsys):
    code, _, err = run(capsys, "angulation", "complete", "-n", "1", "--json", "[]")
    assert code == 2
    assert "--window" in err


# --------------------------------------------------------- family canonical


def test_family_canonical(capsys):
    code, out = run_json(capsys, "family", "canonical", "-n", "3", "--m", "4")
    assert code == 0
    assert out == {"n": 3, "arcs": [[1, 5], [-2, 5], [-2, 8], [-5, 8]]}


def test_family_canonical_rejects_bad_m(capsys):
    code, _, err = run(capsys, "family", "canonical", "-n", "3", "--m", "0")
    assert code == 2
    assert "m" in err


# -------------------------------------------------------------- k0 present


def test_present_canonical_flag(capsys):
    code, out = run_json(capsys, "k0", "present", "-n", "2", "--canonical", "3")
    assert code == 0
    assert out["label"] == "canonical truncation"
    assert out["truncation"] == 3
    assert out["free_rank"] == 1
    assert out["invariant_factors"] == []
    assert out["classes"] == {"[1,4]": [1], "[-1,4]": [2], "[-1,6]": [3]}


def test_present_symbolic_payload_counts_as_canonical(capsys):
    code, out = run_json(
        capsys, "k0", "present", "--json", '{"n": 3, "family": "canonical", "m": 4}'
    )
    assert code == 0
    assert out["label"] == "canonical truncation"
    assert out["truncation"] == 4


def test_present_explicit_family_is_an_upper_bound(capsys):
    code, out = run_json(
        capsys, "k0", "present", "--json", '{"n": 3, "arcs": [[1, 5], [100, 104]]}'
    )
    assert code == 0
    assert out["label"] == "upper-bound presentation"
    assert out["truncation"] is None
    assert out["free_rank"] == 2
    assert out["classes"] == {"[1,5]": [1, 0], "[100,104]": [0, 1]}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "payload",
    [
        '{"n": 3, "family": "canonical", "m": 4}',
        '{"n": 3, "arcs": [[1, 5], [-2, 5], [-2, 8], [-5, 8]]}',
    ],
)
def test_present_output_does_not_depend_on_the_input_channel(
    capsys, monkeypatch, tmp_path, payload, fmt
):
    path = tmp_path / "family.json"
    path.write_text(payload)
    _, via_json, _ = run(capsys, "k0", "present", "--json", payload, "--format", fmt)
    _, via_file, _ = run(capsys, "k0", "present", "--input", str(path), "--format", fmt)
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    _, via_stdin, _ = run(capsys, "k0", "present", "--format", fmt)
    _, via_flag, _ = run(
        capsys, "k0", "present", "-n", "3", "--canonical", "4", "--format", fmt
    )
    assert via_json == via_file == via_stdin == via_flag
    assert "canonical truncation" in via_json


def test_present_reordered_canonical_arcs_are_an_upper_bound(capsys):
    code, out = run_json(
        capsys, "k0", "present", "--json", '{"n": 3, "arcs": [[-2, 5], [1, 5]]}'
    )
    assert code == 0
    assert out["label"] == "upper-bound presentation"
    assert out["truncation"] is None


def test_present_rejects_canonical_with_payload(capsys):
    code, _, err = run(
        capsys, "k0", "present", "-n", "2", "--canonical", "3", "--json", "[]"
    )
    assert code == 2
    assert "not both" in err


def test_unknown_family_tag(capsys):
    code, _, err = run(
        capsys, "k0", "present", "--json", '{"n": 3, "family": "zigzag", "m": 2}'
    )
    assert code == 2
    assert "unknown symbolic family tag" in err


# --------------------------------------------------------------- k0 verify


def test_verify_passes(capsys):
    code, out = run_json(capsys, "k0", "verify", "-n", "3", "--m", "6")
    assert code == 0
    assert out["passed"] is True
    assert out["free_rank"] == 1
    assert out["invariant_factors"] == []


def test_verify_text_output(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    code, out, _ = run(
        capsys, "k0", "verify", "-n", "2", "--m", "4", "--format", "text"
    )
    assert code == 0
    assert "classes=[1, 2, 3, 4]" in out
    assert out.rstrip().endswith("result: PASS")


def test_verify_text_output_of_a_failure(capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    real = k0.k0_presentation
    monkeypatch.setattr(
        k0, "k0_presentation", lambda params, family: replace(real(params, family), free_rank=2)
    )
    code, out, _ = run(
        capsys, "k0", "verify", "-n", "2", "--m", "4", "--format", "text"
    )
    assert code == 1
    assert "violation: free rank is 2, expected 1\n" in out
    assert out.endswith("result: FAIL\n")


def test_verdict_is_colored_on_a_terminal_but_not_in_an_output_file(
    capsys, monkeypatch, tmp_path
):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr("sys.stdout.isatty", lambda: True)
    argv = ["k0", "verify", "-n", "2", "--m", "4", "--format", "text"]
    target = tmp_path / "out.txt"
    assert main([*argv, "-o", str(target)]) == 0
    assert target.read_text().endswith("result: PASS\n")
    _, out, _ = run(capsys, *argv)
    assert out.endswith("result: \x1b[32mPASS\x1b[0m\n")


def test_verify_rejects_tiny_truncation(capsys):
    code, _, err = run(capsys, "k0", "verify", "-n", "3", "--m", "1")
    assert code == 2
    assert err.startswith("error:")


# ------------------------------------------------------------------ render


def test_render_arcs_to_file_is_deterministic(capsys, tmp_path):
    target = tmp_path / "fig.svg"
    argv = [
        "render", "arcs", "-n", "3", "--canonical", "5",
        "--window", "-8", "12", "-o", str(target),
    ]
    assert main(argv) == 0
    first = target.read_bytes()
    assert main(argv) == 0
    assert target.read_bytes() == first
    text = first.decode()
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert text.count('class="arc"') == 5


def test_render_quiver_highlights_canonical_members(capsys, tmp_path):
    target = tmp_path / "quiver.svg"
    code = main(
        [
            "render", "quiver", "-n", "3", "--component", "1",
            "--trange", "-8", "4", "--depth", "4", "--columns", "-6", "12",
            "--highlight-canonical", "6", "-o", str(target),
        ]
    )
    assert code == 0
    text = target.read_text()
    assert text.count('class="node highlight"') == 4
    assert text.count('class="node"') == 10


def test_render_quiver_builds_only_the_drawable_canonical_members(capsys, monkeypatch):
    # member i of the canonical family lies in row i, so depth 2 draws two
    build = cli.canonical_family
    seen = []
    monkeypatch.setattr(cli, "canonical_family", lambda p, m: seen.append(m) or build(p, m))
    argv = ("render", "quiver", "-n", "1", "--component", "0",
            "--trange", "0", "2", "--depth", "2", "--highlight-canonical")
    code, huge, _ = run(capsys, *argv, "100000")
    assert code == 0
    assert seen == [2]
    assert run(capsys, *argv, "2") == (0, huge, "")


def test_render_quiver_no_labels_to_stdout(capsys):
    code, out, err = run(
        capsys, "render", "quiver", "-n", "1", "--component", "0",
        "--trange", "0", "2", "--depth", "2", "--no-labels",
    )
    assert code == 0
    assert err == ""
    assert 'class="node-label"' not in out
    assert out.endswith("</svg>\n")


def test_render_arcs_rejects_window_that_misses_the_family(capsys):
    code, _, err = run(
        capsys, "render", "arcs", "-n", "3", "--canonical", "5",
        "--window", "-8", "9",
    )
    assert code == 2
    assert "lies outside the window" in err
