"""End-to-end tests of the command line: exit codes, JSON shapes, files."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import Arc, CategoryParams, Window, cli, enumerate_arcs, k0
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
        ("arcs", "enumerate", "-n", "2", "--window", "0", HUGE),
        ("k0", "verify", "-n", "2", "--m", "-" + HUGE),
        ("family", "canonical", "-n", "2", "--m", "-" + HUGE),
        ("quiver", "window", "-n", "2", "--component", "0", "--trange", "0", "4",
         "--depth", "-" + HUGE),
        ("quiver", "window", "-n", "2", "--component", HUGE, "--trange", "0", "4",
         "--depth", "2"),
        ("render", "arcs", "-n", "1", "--json", "[[0,2]]", "--window", "0", "1000000000000"),
        ("render", "arcs", "-n", "1", "--json", "[[0,2]]", "--window", "0", HUGE),
    ],
    ids=["inadmissible", "unordered", "window", "oversized-window", "verify-m", "canonical-m",
         "depth", "component", "render-window", "render-huge-window"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ("arcs", "enumerate", "-n", "1", "--window", "0", "1000000000000"),
        ("angulation", "complete", "-n", "1", "--json", "[]", "--window", "0", "1000000000000"),
        ("angulation", "check", "-n", "1", "--json", "[]", "--window", "0", "1000000000000"),
    ],
    ids=["enumerate", "complete", "check"],
)
def test_oversized_window_exits_2_before_any_work(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: window [0, 1000000000000] holds more than 2000000 1-admissible arcs\n"


@pytest.mark.parametrize("command", [("quiver", "window"), ("render", "quiver")])
def test_oversized_quiver_window_exits_2_before_any_work(capsys, tmp_path, command):
    target = tmp_path / "out"
    code, out, err = run(
        capsys, *command, "-n", "1", "--component", "0", "--trange", "0", "1000000000000",
        "--depth", "1", "-o", str(target),
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: quiver window t in [0, 1000000000000] to depth 1 scans more than 200000 nodes\n"
    )
    assert not target.exists()


def test_oversized_class_table_exits_2_and_writes_no_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    disjoint = json.dumps({"n": 1, "arcs": [[3 * i, 3 * i + 2] for i in range(2001)]})
    code, out, err = run(capsys, "k0", "present", "--json", disjoint, "-o", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("error: 2001 generators with 0 relations") and err.count("\n") == 1
    assert not target.exists()


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


def arc_list_report(n, lo, hi, fmt):
    """The report as it was written from the whole list of `Arc`s."""
    arcs = enumerate_arcs(CategoryParams(n), Window(lo, hi))
    if fmt == "text":
        return "".join(f"({a.t}, {a.u})\n" for a in arcs)
    report = {"n": n, "window": [lo, hi], "count": len(arcs), "arcs": [a.to_json() for a in arcs]}
    return json.dumps(report, indent=2) + "\n"


@given(
    st.integers(1, 8), st.integers(-50, 50), st.integers(1, 40),
    st.sampled_from(["json", "text"]), st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_enumerate_streams_the_arc_list_report(n, lo, span, fmt, to_file):
    # spans below n + 1 (2 at n = 1) hold no arc: "arcs": [] and empty text
    argv = ["arcs", "enumerate", "-n", str(n), "--window", str(lo), str(lo + span), "--format", fmt]
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stdout(io.StringIO()) as out:
        target = Path(d) / "out"
        code = main(argv + ["-o", str(target)] if to_file else argv)
        written = target.read_bytes().decode("utf-8") if target.exists() else None
    want = arc_list_report(n, lo, lo + span, fmt)
    assert code == 0
    assert (out.getvalue(), written) == (("", want) if to_file else (want, None))


def test_enumerate_builds_no_arc(capsys, monkeypatch):
    want = {fmt: arc_list_report(2, 0, 40, fmt) for fmt in ("json", "text")}
    built = []
    check = Arc.__post_init__

    def counting(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Arc, "__post_init__", counting)
    for fmt, report in want.items():
        code, out, _ = run(capsys, "arcs", "enumerate", "-n", "2", "--window", "0", "40",
                           "--format", fmt)
        assert (code, out) == (0, report)
    assert built == []
    # the patch does see every arc the list form builds
    assert len(enumerate_arcs(CategoryParams(2), Window(0, 40))) == len(built) > 0


def test_enumerate_writes_a_large_window_in_few_writes(monkeypatch):
    class CountingOut(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    out = CountingOut()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["arcs", "enumerate", "-n", "1", "--window", "0", "300"]) == 0
    report = json.loads(out.getvalue())
    assert report["count"] == len(report["arcs"]) == 44850
    assert out.writes <= 24


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


def test_render_arcs_refuses_an_oversized_window_and_writes_no_file(capsys, tmp_path):
    target = tmp_path / "fig.svg"
    code, out, err = run(
        capsys, "render", "arcs", "-n", "1", "--json", "[[0,2]]",
        "--window", "0", "1000000000000", "-o", str(target),
    )
    assert (code, out) == (2, "")
    assert err == "error: window [0, 1000000000000] has more than 2001 points to draw\n"
    assert not target.exists()


def test_render_arcs_rejects_window_that_misses_the_family(capsys):
    code, _, err = run(
        capsys, "render", "arcs", "-n", "3", "--canonical", "5",
        "--window", "-8", "9",
    )
    assert code == 2
    assert "lies outside the window" in err
