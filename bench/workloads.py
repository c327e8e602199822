"""The four workloads: seeded inputs, one job per input, and its output check.

`build(workload, seed)` turns a seed into a fixed list of jobs (one pass).
The harness runs whole passes in a closed loop with one client.  Seeds
change only properties that leave a job's cost class alone (n within a
parity, window offsets, which arcs a partial family holds, job order), so
different seeds give different inputs at the same stated sizes.  The
largest block of each workload has a fixed size, so `largest_job_s`
compares like with like across seeds.

Sizes are bounded from closed forms before anything is built: see
`CEILINGS` and `bound_window`, `bound_generators`, `bound_quiver`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from context import OUT, child_env, import_infgon

infgon = import_infgon()
from infgon import angulation as _ang  # noqa: E402
from infgon import cli as _cli  # noqa: E402
from infgon import k0 as _k0  # noqa: E402
from infgon.arcs import Arc, CategoryParams, Window  # noqa: E402

WORKLOADS = ("verify-canonical", "angulate-windows", "present-windows", "cli-readme")

# Refuse any generated size past these before materialising it.  The library
# itself has no such limits yet, so e.g. `arcs enumerate -n 1 --window 0
# 100000` (about 5e9 arcs) would exhaust memory; no seed may produce it.
CEILINGS = {
    "window_arcs": 100_000,  # admissible arcs enumerated in one window
    "generators": 256,  # columns of one relation matrix; it has at most 2x as many rows
    "quiver_nodes": 20_000,  # nodes in one quiver window
}

ODD_N = (1, 3, 5, 7)
EVEN_N = (2, 4, 6, 8)


class CeilingExceeded(ValueError):
    pass


def bound_window(n: int, span: int) -> int:
    count = checks.window_arc_count(n, span)
    if count > CEILINGS["window_arcs"]:
        raise CeilingExceeded(
            f"window of span {span} at n={n} holds {count} arcs, ceiling {CEILINGS['window_arcs']}"
        )
    return count


def bound_generators(g: int) -> None:
    """Each generator yields at most two relation rows, so the dense SNF
    transforms U and V hold at most (2g)^2 + g^2 entries."""
    if g > CEILINGS["generators"]:
        raise CeilingExceeded(
            f"relation matrix with {g} generators exceeds ceiling {CEILINGS['generators']}"
        )


def bound_quiver(n: int, t_span: int, depth: int) -> None:
    nodes = (t_span // n + 1) * depth
    if nodes > CEILINGS["quiver_nodes"]:
        raise CeilingExceeded(
            f"quiver window of about {nodes} nodes exceeds ceiling {CEILINGS['quiver_nodes']}"
        )


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    stdin: str | None = None
    output_file: Path | None = None


@dataclass
class Job:
    """One unit of measured work and the check of its output.

    `spec` is the generated input as plain data: equal specs mean equal
    inputs.  `run` is timed; `check` is not and returns None or a failure.
    """

    name: str
    spec: tuple
    run: Callable[[], object]
    check: Callable[[object], str | None]
    largest: bool = False
    cli: CliCall | None = field(default=None, repr=False)


def build(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    make_jobs = {
        "verify-canonical": _verify_jobs,
        "angulate-windows": _angulate_jobs,
        "present-windows": _present_jobs,
        "cli-readme": _cli_jobs,
    }[workload]
    jobs = make_jobs(rng, seed)
    rng.shuffle(jobs)
    return jobs


# --- verify-canonical -----------------------------------------------------

# Each workload is a ladder of seeded sizes, so the median falls in a
# continuum of job costs, topped by a block of one largest size that appears
# four times per pass (three for cli-readme).  Any run of three or more passes
# then has over ten samples in that block, so `job_tail_ms` always falls
# inside it.

VERIFY_LADDER = range(40, 121, 10)  # one seeded odd n and one seeded even n each
VERIFY_LARGEST = (4, 160)  # even n: the transforms grow the widest entries
LARGEST_COPIES = 4


def _verify_jobs(rng: random.Random, seed: int) -> list[Job]:
    specs = [(rng.choice(ns), m) for m in VERIFY_LADDER for ns in (ODD_N, EVEN_N)]
    jobs = [_verify_job(n, m) for n, m in specs]
    return jobs + [_verify_job(*VERIFY_LARGEST, largest=True) for _ in range(LARGEST_COPIES)]


def _verify_job(n: int, m: int, largest: bool = False) -> Job:
    bound_generators(m)
    p = CategoryParams(n)
    want = tuple((c,) for c in checks.canonical_classes(n, m))

    def check(report) -> str | None:
        if not report.passed:
            return f"theorem check failed: {report.first_violation}"
        if report.free_rank != 1 or report.invariant_factors:
            return f"group is not Z: rank {report.free_rank}, torsion {report.invariant_factors}"
        if report.classes != want:
            return "classes differ from the closed form"
        if report.relations_used < m - 1:
            return f"only {report.relations_used} relations for {m} generators"
        return None

    return Job(f"verify n={n} m={m}", ("verify", n, m), lambda: _k0.verify_theorem(p, m), check, largest)


# --- window families ------------------------------------------------------

DENSITY = {"empty": (0.0, 0.0), "sparse": (0.1, 0.3), "dense": (0.6, 1.0)}


def partial_family(rng: random.Random, n: int, lo: int, hi: int, density: float) -> list[tuple[int, int]]:
    """A seeded non-crossing family: random admissible arcs, kept when laminar."""
    lengths = checks.admissible_lengths(n, hi - lo)
    kept: list[tuple[int, int]] = []
    for _ in range(round(density * 2 * (hi - lo))):
        d = rng.choice(lengths)
        t = rng.randrange(lo, hi - d + 1)
        u = t + d
        if (t, u) in kept or any(a < t < b < u or t < a < u < b for a, b in kept):
            continue
        kept.append((t, u))
    return kept


def _window_spec(rng: random.Random, n: int, span: int, density_class: str):
    bound_window(n, span)
    lo = rng.randrange(-500, 500)
    hi = lo + span
    density = rng.uniform(*DENSITY[density_class])
    return n, lo, hi, tuple(partial_family(rng, n, lo, hi, density))


def _family(n: int, arcs) -> "_ang.ArcFamily":
    return _ang.ArcFamily(CategoryParams(n), tuple(Arc(t, u) for t, u in arcs))


# --- angulate-windows -----------------------------------------------------

# (n, span, density class) per job; the largest block starts empty, so its
# jobs differ only in their window offset
ANGULATE_LADDER = (
    *((1, s, d) for s in range(70, 151, 10) for d in ("sparse", "dense")),
    *((2, s, d) for s in (100, 120, 140, 160) for d in ("empty", "dense")),
)
ANGULATE_LARGEST = (1, 180, "empty")


def _window_jobs(rng: random.Random, ladder, largest, make) -> list[Job]:
    jobs = [make(*_window_spec(rng, *row)) for row in ladder]
    jobs += [make(*_window_spec(rng, *largest), largest=True) for _ in range(LARGEST_COPIES)]
    return jobs


def _angulate_jobs(rng: random.Random, seed: int) -> list[Job]:
    return _window_jobs(rng, ANGULATE_LADDER, ANGULATE_LARGEST, _angulate_job)


def _angulate_job(n: int, lo: int, hi: int, arcs, largest: bool = False) -> Job:
    family = _family(n, arcs)
    window = Window(lo, hi)

    def run():
        done = _ang.complete_in_window(family, window)
        return done, _ang.is_maximal_in_window(done, window), _ang.validate_noncrossing(done)

    def check(result) -> str | None:
        done, witness, pair = result
        if witness is not None or pair is not None:
            return f"library certificate failed: witness {witness}, crossing {pair}"
        return checks.check_completion(n, lo, hi, arcs, [(a.t, a.u) for a in done.arcs])

    return Job(
        f"angulate n={n} [{lo},{hi}] start={len(arcs)}",
        ("angulate", n, lo, hi, arcs),
        run,
        check,
        largest,
    )


# --- present-windows ------------------------------------------------------

# wide, low-rank relation matrices: projection and the dense determinant of V
# dominate here, unlike the square banded matrices of verify-canonical
PRESENT_LADDER = (
    *((1, s, d) for s in range(60, 121, 10) for d in ("sparse", "dense")),
    *((2, s, d) for s in range(80, 181, 20) for d in ("empty", "dense")),
)
PRESENT_LARGEST = (1, 160, "empty")  # the greedy fan: a 1x159 matrix, free rank 158


def _present_jobs(rng: random.Random, seed: int) -> list[Job]:
    return _window_jobs(rng, PRESENT_LADDER, PRESENT_LARGEST, _present_job)


def _present_job(n: int, lo: int, hi: int, arcs, largest: bool = False) -> Job:
    # a non-crossing family in a window has at most span - 1 arcs
    bound_generators(hi - lo - 1)
    family = _ang.complete_in_window(_family(n, arcs), Window(lo, hi))
    got = [(a.t, a.u) for a in family.arcs]
    setup_error = checks.check_completion(n, lo, hi, arcs, got)
    p = CategoryParams(n)

    def check(pres) -> str | None:
        if setup_error:
            return f"input family: {setup_error}"
        if [(a.t, a.u) for a in pres.basis.family.arcs] != got:
            return "basis differs from the input family"
        return checks.check_presentation(
            [r.coefficients for r in pres.relations], pres.invariant_factors, pres.free_rank, pres.classes
        )

    return Job(
        f"present n={n} [{lo},{hi}] g={len(got)}",
        ("present", n, lo, hi, arcs),
        lambda: _k0.k0_presentation(p, family),
        check,
        largest,
    )


# --- cli-readme -----------------------------------------------------------

CLI_BIG = {"enumerate_span": 300, "quiver_depth": 20, "quiver_columns": 400, "verify_m": 120}
CHANNEL_PREFIX = "k0 present via "


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int


def workdir(seed: int) -> Path:
    d = OUT / f"cli-seed{seed}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def run_cli(call: CliCall, cwd: Path) -> CliResult:
    """One fresh `python -m infgon.cli` process; peak RSS from its own rusage."""
    with open(cwd / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "infgon.cli", *call.argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=cwd,
            env=child_env(),
        )
        try:
            try:
                # stdin payloads are far below the pipe buffer, so this cannot block
                proc.stdin.write((call.stdin or "").encode())
                proc.stdin.close()
            except BrokenPipeError:
                pass
            out = proc.stdout.read()
            proc.stdout.close()
            # reap it here rather than in Popen.wait, to get this child's rusage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        return CliResult(proc.returncode, out, err.read(), usage.ru_maxrss)


def _cli_jobs(rng: random.Random, seed: int) -> list[Job]:
    wd = workdir(seed)
    jobs: list[Job] = []

    def add(name, argv, check, stdin=None, output=None, largest=False):
        call = CliCall(tuple(argv), stdin, output)
        jobs.append(
            Job(name, ("cli", call.argv, stdin), lambda: run_cli(call, wd), _cli_check(call, check), largest, call)
        )

    # the README commands, verbatim except that -o targets the work directory
    add("readme arcs validate", ["arcs", "validate", "-n", "3", "--json", "[[1,5],[-2,5]]"],
        _expect_json(lambda o: o["valid"] and o["count"] == 2 and o["arcs"] == [[1, 5], [-2, 5]]))
    add("readme arcs enumerate", ["arcs", "enumerate", "-n", "1", "--window", "0", "3"], _check_enumerate(1, 0, 3))
    add("readme quiver window",
        ["quiver", "window", "-n", "3", "--component", "1", "--trange", "-8", "4", "--depth", "4", "--columns", "-6", "12"],
        _check_quiver_json(3, 1, -8, 4, 4, (-6, 12)))
    add("readme angulation check", ["angulation", "check", "-n", "3", "--json", "[[1,5]]", "--window", "0", "5"],
        _expect_json(lambda o: o["noncrossing"] is True and o["window_maximal"] is True))
    add("readme angulation complete", ["angulation", "complete", "-n", "1", "--json", "[]", "--window", "0", "3"],
        _check_complete(1, 0, 3))
    add("readme family canonical", ["family", "canonical", "-n", "3", "--m", "4"],
        _expect_json(lambda o: [tuple(a) for a in o["arcs"]] == checks.staircase(3, 4)))
    add("readme k0 present canonical", ["k0", "present", "-n", "2", "--canonical", "6"], _check_present_canonical(2, 6))
    add("readme k0 present arcs", ["k0", "present", "--json", '{"n": 3, "arcs": [[1,5],[100,104]]}'],
        _expect_json(lambda o: o["relations_used"] == 0 and o["free_rank"] == 2 and len(o["classes"]) == 2))
    add("readme k0 verify", ["k0", "verify", "-n", "3", "--m", "20", "--format", "text"], _check_verify_text(3, 20))
    arcs_svg = wd / "arcs.svg"
    add("readme render arcs", ["render", "arcs", "-n", "3", "--canonical", "5", "--window", "-8", "12", "-o", str(arcs_svg)],
        _check_svg({"arc": 5, "vertex": 21}), output=arcs_svg)
    quiver_svg = wd / "quiver.svg"
    nodes, arrows = checks.quiver_nodes(3, 1, -8, 4, 4, (-6, 12))
    highlight = len(set(checks.staircase(3, 6)) & set(nodes))
    add("readme render quiver",
        ["render", "quiver", "-n", "3", "--component", "1", "--trange", "-8", "4", "--depth", "4",
         "--columns", "-6", "12", "--highlight-canonical", "6", "-o", str(quiver_svg)],
        _check_svg({"node": len(nodes), "arrow": arrows, "highlight": highlight}), output=quiver_svg)

    # mid-size commands with seeded variants; the enumerations are the largest block
    span = CLI_BIG["enumerate_span"]
    for _ in range(3):
        lo = rng.randrange(-1000, 1000)
        bound_window(1, span)
        add(f"arcs enumerate [{lo},{lo + span}]", ["arcs", "enumerate", "-n", "1", "--window", str(lo), str(lo + span)],
            _check_enumerate(1, lo, lo + span), largest=True)
    depth, width = CLI_BIG["quiver_depth"], CLI_BIG["quiver_columns"]
    n, comp = 1, 0  # rendering cost depends on n at a fixed node count, so n is pinned
    for _ in range(2):
        lo = rng.randrange(-1000, 1000)
        hi = lo + width - 1
        bound_quiver(n, hi - lo, depth)
        nodes, arrows = checks.quiver_nodes(n, comp, lo, hi, depth)
        add(f"render quiver [{lo},{hi}] nodes={len(nodes)}",
            ["render", "quiver", "-n", str(n), "--component", str(comp), "--trange", str(lo), str(hi),
             "--depth", str(depth), "--highlight-canonical", "40"],
            _check_svg({"node": len(nodes), "arrow": arrows,
                        "highlight": len(set(checks.staircase(n, 40)) & set(nodes))}))
    m = CLI_BIG["verify_m"]
    for ns in (ODD_N, EVEN_N):
        n = rng.choice(ns)
        bound_generators(m)
        add(f"k0 verify n={n} m={m}", ["k0", "verify", "-n", str(n), "--m", str(m)], _check_verify_json(n, m))

    # one canonical family through each input channel; the label is recorded, not gated
    n, m = rng.choice(ODD_N + EVEN_N), rng.randrange(30, 50)
    payload = json.dumps({"n": n, "family": "canonical", "m": m})
    infile = wd / "canonical.json"
    infile.write_text(payload, encoding="utf-8")
    check = _check_present_canonical(n, m)
    add(CHANNEL_PREFIX + "--json", ["k0", "present", "--json", payload], check)
    add(CHANNEL_PREFIX + "--input", ["k0", "present", "--input", str(infile)], check)
    add(CHANNEL_PREFIX + "stdin", ["k0", "present"], check, stdin=payload)
    return jobs


def present_label(job: Job, result: CliResult) -> str | None:
    """The `label` a channel job printed, recorded per input channel."""
    if not job.name.startswith(CHANNEL_PREFIX):
        return None
    try:
        return json.loads(result.stdout)["label"]
    except (ValueError, KeyError):
        return "unparseable"


def _cli_check(call: CliCall, check: Callable[[bytes], str | None]):
    def run_check(res: CliResult) -> str | None:
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.decode(errors='replace')[-200:]}"
        data = call.output_file.read_bytes() if call.output_file is not None else res.stdout
        try:
            return check(data)
        except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
            return f"unparseable output: {exc!r}"

    return run_check


def _expect_json(pred):
    def check(data: bytes) -> str | None:
        return None if pred(json.loads(data)) else "output fields differ from the expected values"

    return check


def _check_enumerate(n: int, lo: int, hi: int):
    def check(data: bytes) -> str | None:
        o = json.loads(data)
        want = checks.window_arcs(n, lo, hi)
        if o["count"] != checks.window_arc_count(n, hi - lo) or o["window"] != [lo, hi]:
            return f"count {o['count']} or window {o['window']} is wrong"
        if [tuple(a) for a in o["arcs"]] != want:
            return "enumerated arcs differ from the window's admissible arcs"
        return None

    return check


def _check_complete(n: int, lo: int, hi: int):
    def check(data: bytes) -> str | None:
        return checks.check_completion(n, lo, hi, [], [tuple(a) for a in json.loads(data)["arcs"]])

    return check


def _check_quiver_json(n, comp, t_lo, t_hi, depth, columns):
    nodes, arrows = checks.quiver_nodes(n, comp, t_lo, t_hi, depth, columns)

    def check(data: bytes) -> str | None:
        o = json.loads(data)
        if [tuple(a) for a in o["nodes"]] != nodes or len(o["arrows"]) != arrows:
            return "quiver window nodes or arrow count differ from the definition"
        return None

    return check


def _check_present_canonical(n: int, m: int):
    want = checks.canonical_classes(n, m)
    arcs = checks.staircase(n, m)

    def check(data: bytes) -> str | None:
        o = json.loads(data)
        if o["free_rank"] != 1 or o["invariant_factors"] or o["generators"] != m:
            return "canonical family does not present Z"
        if o["classes"] != {f"[{t},{u}]": [c] for (t, u), c in zip(arcs, want)}:
            return "classes differ from the closed form"
        return None

    return check


def _check_verify_json(n: int, m: int):
    want = checks.canonical_classes(n, m)

    def check(data: bytes) -> str | None:
        o = json.loads(data)
        if not o["passed"] or o["free_rank"] != 1 or o["invariant_factors"]:
            return f"verify failed: {o['first_violation']}"
        if list(o["classes"].values()) != [[c] for c in want]:
            return "classes differ from the closed form"
        return None

    return check


def _check_verify_text(n: int, m: int):
    want = f"classes={checks.canonical_classes(n, m)}"

    def check(data: bytes) -> str | None:
        lines = data.decode().splitlines()
        if lines[-1] != "result: PASS" or want not in lines or "free_rank=1 torsion=[]" not in lines[1]:
            return "text summary does not report the closed-form pass"
        return None

    return check


def _check_svg(counts: dict[str, int]):
    def check(data: bytes) -> str | None:
        root = ET.fromstring(data)
        seen: dict[str, int] = {}
        for el in root.iter():
            for cls in el.get("class", "").split():
                seen[cls] = seen.get(cls, 0) + 1
        for cls, want in counts.items():
            if seen.get(cls, 0) != want:
                return f"{seen.get(cls, 0)} elements of class {cls!r}, expected {want}"
        return None

    return check


def run_in_process(call: CliCall) -> CliResult:
    """`infgon.cli.main` on the same argv, stdout captured, stdin supplied."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(call.stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = _cli.main(list(call.argv))
    finally:
        sys.stdin = saved
    return CliResult(code, out.getvalue().encode("utf-8"), b"", 0)
