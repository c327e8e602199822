"""End-to-end tests of the command line: exit codes, JSON shapes, files."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infgon import Arc, CategoryParams, Window, angulation, cli, enumerate_arcs, k0, render
from infgon.cli import main
from oracles import brute_force_arcs, forge


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


def test_input_path_is_named_and_read_as_pathlib_does(capsys, monkeypatch, tmp_path):
    # pathlib drops "." parts, repeated and trailing slashes, and reads "" as "."
    monkeypatch.chdir(tmp_path)
    Path("family.json").write_text('{"n": 1, "arcs": [[0, 2]]}')
    Path("sub").mkdir()
    for given, error in [
        ("missing.json", "[Errno 2] No such file or directory: 'missing.json'"),
        ("sub//./missing.json", "[Errno 2] No such file or directory: 'sub/missing.json'"),
        ("", "[Errno 21] Is a directory: '.'"),
        ("sub/", "[Errno 21] Is a directory: 'sub'"),
    ]:
        assert run(capsys, "arcs", "validate", "--input", given) == (2, "", f"error: {error}\n")
    for given in ("family.json", "./family.json/", "sub/../family.json"):
        code, out = run_json(capsys, "arcs", "validate", "--input", given)
        assert (code, out["arcs"]) == (0, [[0, 2]])


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


@pytest.mark.parametrize("command", [("k0", "present"), ("arcs", "validate")])
def test_closed_stdin_is_no_input(capsys, monkeypatch, command):
    # with fd 0 closed (`infgon k0 present 0<&-`) Python sets sys.stdin to None
    monkeypatch.setattr("sys.stdin", None)
    assert run(capsys, *command, "-n", "3") == (
        2, "", "error: no input: use --input PATH or --json STR (or pipe JSON to stdin)\n"
    )


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


# the five commands that read a family, each given the rest it needs
FAMILY_COMMANDS = (
    ("arcs", "validate"),
    ("angulation", "check", "--window", "0", "9"),
    ("angulation", "complete", "--window", "0", "9"),
    ("k0", "present"),
    ("render", "arcs", "--window", "0", "9"),
)
# JSON text where an exact integer belongs: floats with NaN and the
# infinities, booleans, null, and integer literals past json's 4300 digits
NOT_AN_INT = st.one_of(
    st.floats().map(json.dumps),
    st.sampled_from(["true", "false", "null", "1" * 4301, "-" + "9" * 5000]),
)
# family payloads, each with one integer slot for the hostile value
SLOTS = (
    '{{"n": {x}, "arcs": [[1, 5]]}}',
    '{{"n": 3, "arcs": [[{x}, 5]]}}',
    '{{"n": 3, "arcs": [[1, {x}]]}}',
    "[[1, 5], [{x}, 8]]",
    '{{"n": 3, "family": "canonical", "m": {x}}}',
)
# (channel, input bytes): a payload with a hostile value on any channel, or
# input that is no JSON text at all
HOSTILE_INPUT = st.one_of(
    st.tuples(
        st.sampled_from(["--json", "--input", "stdin"]),
        st.builds(lambda slot, x: slot.format(x=x).encode(), st.sampled_from(SLOTS), NOT_AN_INT),
    ),
    st.sampled_from(
        [("stdin", b""), ("stdin", b"\xff\xfe[[1, 5]]"), ("--input", b"\x80"), ("directory", b"")]
    ),
)


@given(st.sampled_from(FAMILY_COMMANDS), HOSTILE_INPUT)
@settings(max_examples=200, deadline=None)
def test_hostile_family_input_exits_2_with_one_error_line(command, hostile):
    channel, data = hostile
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "family.json"
        if channel == "directory":
            path.mkdir()
        else:
            path.write_bytes(data)
        argv = [*command, "-n", "3"]
        if channel == "--json":
            argv += ["--json", data.decode()]
        elif channel != "stdin":
            argv += ["--input", str(path)]
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            saved, sys.stdin = sys.stdin, stdin
            try:
                code = main(argv)
            finally:
                sys.stdin = saved
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()


def fresh_env():
    """The environment of a fresh process that imports this checkout's `src/`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_non_utf8_stdin_exits_2_in_a_fresh_process():
    done = subprocess.run(
        [sys.executable, "-m", "infgon.cli", "k0", "present", "-n", "3"],
        input=b"\xff\xfe[[1, 5]]", env=fresh_env(), capture_output=True,
    )
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1


# -------------------------------------------------------- process boundary


def test_the_parser_holds_the_commands_of_the_named_group_only(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    assert run(capsys, "arcs", "enumerate", "-n", "1", "--window", "0", "3")[0] == 0
    groups = ["arcs", "quiver", "angulation", "family", "k0", "render"]
    commands = ["arcs validate", "arcs enumerate"]
    assert built == ["infgon", *(f"infgon {name}" for name in groups + commands)]


@pytest.mark.parametrize("argv, err", [
    # a group's commands are added when argparse reads it as GROUP, so the
    # errors are those of the parser that holds every command
    (["-x", "arcs", "enumerate", "-n", "1", "--window", "0", "3"],
     "usage: infgon [-h] GROUP ...\ninfgon: error: unrecognized arguments: -x\n"),
    (["-5", "arcs", "enumerate", "-n", "1", "--window", "0", "3"],
     "usage: infgon [-h] GROUP ...\ninfgon: error: argument GROUP: invalid choice: '-5' "
     "(choose from 'arcs', 'quiver', 'angulation', 'family', 'k0', 'render')\n"),
    (["arcs", "k0"],
     "usage: infgon arcs [-h] COMMAND ...\ninfgon arcs: error: argument COMMAND: invalid choice: "
     "'k0' (choose from 'validate', 'enumerate')\n"),
])
def test_usage_errors_name_the_group_argparse_read(capsys, monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert (done.value.code, *capsys.readouterr()) == (2, "", err)


def test_exit_codes_reach_the_shell():
    # `sys.exit(main())` under `python -m infgon.cli`, as a shell sees it
    def shell(*argv):
        return subprocess.run(
            [sys.executable, "-m", "infgon.cli", *argv], env=fresh_env(), capture_output=True,
            text=True,
        )

    assert shell("k0", "verify", "-n", "3", "--m", "20").returncode == 0
    crossing = shell("angulation", "check", "-n", "3", "--json", "[[1,5],[3,7]]")
    assert crossing.returncode == 1
    malformed = shell("arcs", "validate", "-n", "1", "--json", "[[0,")
    assert malformed.returncode == 2
    assert malformed.stdout == ""
    assert malformed.stderr.startswith("error:") and malformed.stderr.count("\n") == 1


def modules_loaded(argv):
    """The finished process of `python -S -X importtime -m infgon.cli *argv`, and
    the modules it imported.  -S keeps out what a site file preloads."""
    done = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "infgon.cli", *argv],
        env=fresh_env(), capture_output=True, text=True,
    )
    # -X importtime logs "import time: self | cumulative | name" per module loaded
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    return done, loaded


# what every command does without: the value classes are written by hand,
# not with dataclasses (which imports inspect)
NOT_LOADED = {"dataclasses", "inspect"}


def test_arcs_enumerate_loads_only_the_modules_it_runs():
    done, loaded = modules_loaded(["arcs", "enumerate", "-n", "1", "--window", "0", "3"])
    assert (done.returncode, done.stdout) == (0, arc_list_report(1, 0, 3, "json"))
    assert {"infgon", "infgon.arcs", "infgon.render"} <= loaded
    assert not loaded & {"infgon.k0", "infgon.intlinalg", "infgon.angulation", "infgon.quiver"}
    assert not loaded & NOT_LOADED


# (a command of each group, the infgon modules it loads beyond those that
# `arcs enumerate` loads)
K0_MODULES = {"angulation", "intlinalg", "k0", "quiver"}
GROUP_COMMANDS = [
    (["arcs", "validate", "-n", "3", "--json", "[[1,5]]"], {"angulation"}),
    (["angulation", "check", "-n", "3", "--json", "[[1,5]]", "--window", "0", "5"],
     {"angulation"}),
    (["family", "canonical", "-n", "3", "--m", "4"], {"angulation"}),
    (["quiver", "window", "-n", "1", "--component", "0", "--trange", "0", "2", "--depth", "2"],
     {"quiver"}),
    (["render", "arcs", "-n", "3", "--canonical", "5", "--window", "-8", "12"], {"angulation"}),
    (["k0", "present", "-n", "2", "--canonical", "6"], K0_MODULES),
    (["k0", "verify", "-n", "3", "--m", "20"], K0_MODULES),
]


@pytest.mark.parametrize(
    "argv, modules", GROUP_COMMANDS, ids=[" ".join(argv[:2]) for argv, _ in GROUP_COMMANDS]
)
def test_every_group_loads_only_the_modules_it_runs(argv, modules):
    done, loaded = modules_loaded(argv)
    assert done.returncode == 0
    assert all(line.startswith("import time:") for line in done.stderr.splitlines())
    infgon = {"infgon", "infgon.arcs", "infgon.render", *(f"infgon.{m}" for m in modules)}
    assert {m for m in loaded if m.split(".")[0] == "infgon"} == infgon
    assert not loaded & NOT_LOADED


def test_the_benchmark_imports_load_every_module():
    # the benchmark imports these three, then wraps functions in every
    # infgon module it finds in sys.modules
    code = (
        "import sys, infgon\n"
        "from infgon import angulation, cli, k0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('infgon'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True
    )
    modules = ("angulation", "arcs", "cli", "intlinalg", "k0", "quiver", "render")
    assert done.returncode == 0
    assert done.stdout.split() == ["infgon", *(f"infgon.{m}" for m in modules)]


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


def pair_report(n, lo, hi, fmt):
    """The report written a pair at a time, from the brute-force oracle's arcs."""
    pairs = [(a.t, a.u) for a in brute_force_arcs(CategoryParams(n), Window(lo, hi))]
    if fmt == "text":
        return "".join(f"({t}, {u})\n" for t, u in pairs)
    report = {"n": n, "window": [lo, hi], "count": len(pairs), "arcs": [list(p) for p in pairs]}
    return json.dumps(report, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "n, lo, hi",
    [
        (1, 0, 1),  # span below the minimal length 2: no arc
        (3, -7, -4),  # span 3 below the minimal length 4, negative lo
        (3, -7, -3),  # span equal to the minimal length: one arc
        (2, -5, 5),  # the last rows before hi hold no arc
        (1, -4, 6),
        (2, -13, 0),
        (3, -10, 7),
    ],
)
def test_enumerate_writes_a_row_at_a_time_as_it_wrote_each_pair(capsys, n, lo, hi, fmt):
    code, out, err = run(capsys, "arcs", "enumerate", "-n", str(n), "--window", str(lo), str(hi),
                         "--format", fmt)
    assert (code, out, err) == (0, pair_report(n, lo, hi, fmt), "")


def test_enumerate_builds_no_arc(capsys, monkeypatch):
    want = {fmt: arc_list_report(2, 0, 40, fmt) for fmt in ("json", "text")}
    built = []
    build = Arc.__init__

    def counting(self, t, u):
        build(self, t, u)
        built.append(self)

    monkeypatch.setattr(Arc, "__init__", counting)
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


def test_enumerate_writes_the_widest_window_in_bounded_batches(monkeypatch):
    # a row holds up to 2000 pairs, about 70 KB of JSON; a batch is bounded by
    # size, so no write holds more than one row past 64 KiB
    class LongestWrite(io.TextIOBase):
        longest = total = 0

        def write(self, text):
            self.longest = max(self.longest, len(text))
            self.total += len(text)
            return len(text)

    out = LongestWrite()
    monkeypatch.setattr("sys.stdout", out)
    assert main(["arcs", "enumerate", "-n", "1", "--window", "0", "2000"]) == 0
    assert out.total == 69_746_301
    assert out.longest < 2 * 70_000


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


def test_present_refuses_too_many_relations_before_building_the_family(capsys, monkeypatch):
    seen = []

    def build(p, m):
        seen.append(m)
        raise ValueError("family built")

    monkeypatch.setattr(angulation, "canonical_family", build)

    def present(m):
        """(exit code, stdout, stderr, sizes built) for --canonical M and the symbolic input."""
        payload = json.dumps({"n": 2, "family": "canonical", "m": m})
        got = []
        for argv in (["-n", "2", "--canonical", str(m)], ["--json", payload]):
            seen.clear()
            got.append((*run(capsys, "k0", "present", *argv), list(seen)))
        assert got[0] == got[1]
        return got[0]

    def refused(m):
        return (2, "", f"error: {m} generators give {m - 1} relations, more than 1000\n", [])

    assert present(k0.MAX_RELATIONS + 2) == refused(1002)
    assert present(angulation.MAX_CANONICAL_MEMBERS) == refused(200_000)
    # the largest accepted size reaches the family, and past the member limit
    # canonical_family itself refuses first, before it builds anything
    for m in (k0.MAX_RELATIONS + 1, angulation.MAX_CANONICAL_MEMBERS + 1):
        assert present(m) == (2, "", "error: family built\n", [m])


def test_unknown_family_tag(capsys):
    code, _, err = run(
        capsys, "k0", "present", "--json", '{"n": 3, "family": "zigzag", "m": 2}'
    )
    assert code == 2
    assert "unknown symbolic family tag" in err


# ------------------------------------------- --canonical M, the symbolic input

# the commands that take --canonical, each given the rest it needs
CANONICAL_COMMANDS = (
    ("k0", "present"),
    ("k0", "present", "--format", "text"),
    ("render", "arcs", "--window", "-8", "12"),
)


def spy_on_canonical_family(monkeypatch):
    """The list of sizes that `canonical_family` is asked for from now on."""
    build, seen = angulation.canonical_family, []
    monkeypatch.setattr(angulation, "canonical_family", lambda p, m: seen.append(m) or build(p, m))
    return seen


@pytest.mark.parametrize("command", CANONICAL_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("m", [5, 0, k0.MAX_RELATIONS + 2, angulation.MAX_CANONICAL_MEMBERS + 1])
def test_canonical_flag_is_the_symbolic_input_on_every_channel(
    capsys, monkeypatch, tmp_path, command, m
):
    seen = spy_on_canonical_family(monkeypatch)
    payload = json.dumps({"n": 3, "family": "canonical", "m": m})
    path = tmp_path / "family.json"
    path.write_text(payload)
    channels = {
        "--canonical": ["-n", "3", "--canonical", str(m)],
        "--json": ["--json", payload],
        "-n --json": ["-n", "3", "--json", json.dumps({"family": "canonical", "m": m})],
        "--input": ["--input", str(path)],
        "stdin": [],
    }
    got = {}
    for channel, argv in channels.items():
        seen.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        got[channel] = (*run(capsys, *command, *argv), list(seen))
    assert all(g == got["--canonical"] for g in got.values()), got
    code, out, err, built = got["--canonical"]
    if m == 5:
        assert (code, err, built) == (0, "", [5])
        assert out
    elif m == 0:
        assert (code, out, built) == (2, "", [0])
        assert err == "error: family size m must be an integer >= 1, got 0\n"
    elif m == k0.MAX_RELATIONS + 2 and command[0] == "k0":
        # refused on the relation count: the family is never built
        assert (code, out, built) == (2, "", [])
        assert err == "error: 1002 generators give 1001 relations, more than 1000\n"
    elif m == angulation.MAX_CANONICAL_MEMBERS + 1:
        assert (code, out, built) == (2, "", [m])
        assert err == "error: canonical family of 200001 members is larger than 200000\n"
    else:  # render arcs has no relation bound: it builds up to member 7, the first
        # one longer than the window, which misses it
        assert (code, out, built) == (2, "", [7])
        assert err == "error: arc (-8, 14) lies outside the window [-8, 12]\n"


@pytest.mark.parametrize("m", [0, -3, True, 1.5, "5", None, 200_001, 5])
@pytest.mark.parametrize("n", [0, -1, True, "x", 3])
def test_family_hook_sees_only_checked_sizes(monkeypatch, m, n):
    # a hook of `_family_from_args` is plain arithmetic: the reader hands it
    # exact ints, M in 1..MAX_CANONICAL_MEMBERS and n >= 1, and leaves every
    # other value to `parse_family` and `canonical_family`
    seen = []

    def spy(size, k):
        seen.append((size, k))
        return size

    payload = json.dumps({"n": n, "family": "canonical", "m": m})
    # with no M, --canonical is absent and the payload comes from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    flag = argparse.Namespace(n=n, canonical=m, input=None, json=None)
    symbolic = argparse.Namespace(n=None, canonical=None, input=None, json=payload)
    for args in (flag, symbolic):
        with contextlib.suppress(ValueError):
            cli._family_from_args(args, spy)
    assert all(
        type(size) is type(k) is int and 1 <= size <= angulation.MAX_CANONICAL_MEMBERS and k >= 1
        for size, k in seen
    ), seen
    assert seen == ([(5, 3)] * 2 if (m, n) == (5, 3) else [])


@pytest.mark.parametrize("command", CANONICAL_COMMANDS, ids=" ".join)
@pytest.mark.parametrize(
    "argv, err",
    [
        (["--canonical", "5"], "error: --canonical needs -n\n"),
        (["-n", "3", "--canonical", "5", "--json", "[]"],
         "error: give either --canonical or explicit input, not both\n"),
        (["--canonical", "5", "--json", '{"n": 3, "family": "canonical", "m": 5}'],
         "error: give either --canonical or explicit input, not both\n"),
    ],
    ids=["no-n", "with-json", "with-symbolic-json"],
)
def test_canonical_flag_misuse_exits_2_before_building(capsys, monkeypatch, command, argv, err):
    seen = spy_on_canonical_family(monkeypatch)
    assert run(capsys, *command, *argv) == (2, "", err)
    assert seen == []


@pytest.mark.parametrize("command", FAMILY_COMMANDS, ids=" ".join)
def test_every_family_command_names_a_bad_n_before_bad_input(capsys, command):
    # one reader for all five commands, so the first error does not depend on
    # the command
    assert run(capsys, *command, "-n", "0", "--json", "x") == (
        2, "", "error: parameter n must be >= 1, got 0\n"
    )


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
        k0, "k0_presentation", lambda params, family: forge(real(params, family), free_rank=2)
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
    build = angulation.canonical_family
    seen = []
    monkeypatch.setattr(angulation, "canonical_family", lambda p, m: seen.append(m) or build(p, m))
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


@pytest.mark.parametrize("m", [0, 5, 6, 7, 8, 200_000, 200_001])
def test_render_arcs_builds_no_canonical_member_past_the_window(capsys, monkeypatch, m):
    # n = 3 over [-8, 12]: member i is 1 + 3i long, so members 1-6 fit the
    # span of 20 and member 7, (-8, 14), is the first that cannot
    p3 = CategoryParams(3)
    if m > angulation.MAX_CANONICAL_MEMBERS:
        want = (2, "", "error: canonical family of 200001 members is larger than 200000\n", [m])
    elif m < 1:
        want = (2, "", "error: family size m must be an integer >= 1, got 0\n", [m])
    elif m <= 6:
        svg = render.arc_diagram_svg(angulation.canonical_family(p3, m), Window(-8, 12))
        want = (0, svg, "", [m])
    else:
        want = (2, "", "error: arc (-8, 14) lies outside the window [-8, 12]\n", [7])
    if 7 <= m <= 8:  # the whole family misses the window at the same member
        with pytest.raises(ValueError) as whole:
            render.arc_diagram_svg(angulation.canonical_family(p3, m), Window(-8, 12))
        assert want[2] == f"error: {whole.value}\n"
    seen = spy_on_canonical_family(monkeypatch)
    symbolic = {"n": 3, "family": "canonical", "m": m}
    for argv in (["-n", "3", "--canonical", str(m)], ["--json", json.dumps(symbolic)]):
        seen.clear()
        assert (*run(capsys, "render", "arcs", *argv, "--window", "-8", "12"), seen) == want


@pytest.mark.parametrize("argv, err", [
    # a bad M, then a bad n, is named before the window
    (["-n", "3", "--canonical", "0", "--window", "5", "5"],
     "family size m must be an integer >= 1, got 0"),
    (["--json", '{"n": "x", "family": "canonical", "m": 7}', "--window", "5", "5"],
     "field 'n' must be an integer, got 'x'"),
    (["--json", '{"n": 0, "family": "canonical", "m": 7}', "--window", "0", "1"],
     "parameter n must be >= 1, got 0"),
    (["-n", "3", "--canonical", "200000", "--window", "5", "5"],
     "window [5, 5]: bounds must satisfy lo < hi"),
    (["-n", "3", "--canonical", "200000", "--window", "0", "1"],
     "arc (1, 5) lies outside the window [0, 1]"),
    (["-n", "1", "--canonical", "200000", "--window", "0", "2001"],
     "window [0, 2001] has more than 2001 points to draw"),
    (["-n", "2", "--canonical", "200000", "--window", "0", "1000000000000"],
     "window [0, 1000000000000] has more than 2001 points to draw"),
])
def test_render_arcs_keeps_the_order_of_canonical_errors(capsys, monkeypatch, argv, err):
    seen = spy_on_canonical_family(monkeypatch)
    assert run(capsys, "render", "arcs", *argv) == (2, "", f"error: {err}\n")
    # no more members than a drawable window could show
    assert all(m <= 2001 for m in seen)


def test_render_arcs_rejects_window_that_misses_the_family(capsys):
    code, _, err = run(
        capsys, "render", "arcs", "-n", "3", "--canonical", "5",
        "--window", "-8", "9",
    )
    assert code == 2
    assert "lies outside the window" in err
