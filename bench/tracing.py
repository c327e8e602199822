"""Spans around calls into each layer's public functions, and the per-layer metrics.

The benchmark does not edit the library.  `instrument(tracer)` swaps each
function in `TARGETS` for a wrapper, in every `infgon` module namespace that
binds it (and on the class, for methods), and restores the originals on
exit.  Calls the library makes to itself therefore nest: `verify_theorem`
> `k0_presentation` > `cokernel` > `smith_normal_form` > `SnfResult.verify`
> `IntMatrix.determinant`.  Splitting SNF elimination from its self-check
uses that nesting; `SnfResult.verify` is not repeated.

Wrappers only take timestamps and keep a reference to arguments or result;
counts are derived after the pass, outside every span.  Per-arc helpers
(`crosses`, `ar_triangle`, `arrows_from`) are not wrapped: a span would cost
as much as their work, so their time stays with the caller.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass, field

import checks

LAYERS = ("arcs", "angulation", "k0", "intlinalg", "quiver", "render", "cli")

# (module, attribute path, span name); the span name's prefix is its layer
TARGETS = (
    ("infgon.arcs", "enumerate_arcs", "arcs.enumerate_arcs"),
    ("infgon.angulation", "canonical_family", "angulation.canonical_family"),
    ("infgon.angulation", "validate_noncrossing", "angulation.validate_noncrossing"),
    ("infgon.angulation", "complete_in_window", "angulation.complete_in_window"),
    ("infgon.angulation", "is_maximal_in_window", "angulation.is_maximal_in_window"),
    ("infgon.k0", "verify_theorem", "k0.verify_theorem"),
    ("infgon.k0", "k0_presentation", "k0.k0_presentation"),
    ("infgon.k0", "ar_relations", "k0.ar_relations"),
    # class projection of each generator is the k0 step, done by Cokernel.project
    ("infgon.intlinalg", "Cokernel.project", "k0.project"),
    ("infgon.intlinalg", "cokernel", "intlinalg.cokernel"),
    ("infgon.intlinalg", "smith_normal_form", "intlinalg.smith_normal_form"),
    ("infgon.intlinalg", "SnfResult.verify", "intlinalg.snf_selfcheck"),
    ("infgon.intlinalg", "IntMatrix.determinant", "intlinalg.determinant"),
    ("infgon.intlinalg", "IntMatrix.mul", "intlinalg.mul"),
    ("infgon.quiver", "quiver_window", "quiver.quiver_window"),
    ("infgon.render", "arc_diagram_svg", "render.arc_diagram_svg"),
    ("infgon.render", "quiver_svg", "render.quiver_svg"),
    ("infgon.cli", "main", "cli.main"),
)

# spans whose arguments and result are kept for counting after the pass
KEEP = {
    "arcs.enumerate_arcs",
    "angulation.complete_in_window",
    "angulation.is_maximal_in_window",
    "k0.ar_relations",
    "k0.k0_presentation",
    "intlinalg.smith_normal_form",
    "quiver.quiver_window",
    "render.arc_diagram_svg",
    "render.quiver_svg",
}

ROOT_SPAN = "job"


@dataclass
class Tracer:
    """Spans as [name, start_ns, end_ns, parent index] kept in memory."""

    spans: list[list] = field(default_factory=list)
    kept: list[tuple[str, tuple, object]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        i = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1])
        self._stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)


def _wrap(tracer: Tracer, fn, name: str):
    keep = name in KEEP

    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if keep:
            tracer.kept.append((name, args, result))
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every call to a TARGETS function through a span for the duration."""
    undo = []
    try:
        for module, path, name in TARGETS:
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, _wrap(tracer, original, name))
                continue
            original = getattr(owner, attr)
            wrapped = _wrap(tracer, original, name)
            for modname, mod in list(sys.modules.items()):
                if modname == "infgon" or modname.startswith("infgon."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def span_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """Inclusive and self time per span name, in ms."""
    incl: dict[str, float] = {}
    child: list[float] = [0.0] * len(spans)
    for name, start, end, parent in spans:
        dur = (end - start) / 1e6
        incl[name] = incl.get(name, 0.0) + dur
        if parent >= 0:
            child[parent] += dur
    own: dict[str, float] = {}
    for (name, start, end, _), c in zip(spans, child):
        own[name] = own.get(name, 0.0) + (end - start) / 1e6 - c
    return incl, own


def _selfcheck_in_snf_ms(spans: list[list]) -> float:
    return sum(
        (end - start) / 1e6
        for name, start, end, parent in spans
        if name == "intlinalg.snf_selfcheck" and parent >= 0 and spans[parent][0] == "intlinalg.smith_normal_form"
    )


def layer_times(spans: list[list]) -> dict[str, float]:
    """Per-layer timing metrics of one traced pass."""
    incl, own = span_times(spans)
    m: dict[str, float] = {}
    for name in (
        "arcs.enumerate_arcs",
        "angulation.complete_in_window",
        "angulation.is_maximal_in_window",
        "angulation.validate_noncrossing",
        "k0.ar_relations",
        "k0.project",
        "intlinalg.snf_selfcheck",
        "intlinalg.determinant",
        "intlinalg.mul",
        "quiver.quiver_window",
        "render.arc_diagram_svg",
        "render.quiver_svg",
        "cli.main",
    ):
        m[f"{name}.ms"] = incl.get(name, 0.0)
    m["intlinalg.snf_eliminate.ms"] = incl.get("intlinalg.smith_normal_form", 0.0) - _selfcheck_in_snf_ms(spans)
    m["k0.k0_presentation.self_ms"] = own.get("k0.k0_presentation", 0.0)
    m["k0.verify_theorem.self_ms"] = own.get("k0.verify_theorem", 0.0)
    job_ms = incl.get(ROOT_SPAN, 0.0)
    for layer in LAYERS:
        ms = sum((v for k, v in own.items() if k.startswith(layer + ".")), 0.0)
        m[f"{layer}.self_ms"] = ms
        m[f"{layer}.self_share"] = ms / job_ms if job_ms else 0.0
    m["trace.job_ms"] = job_ms
    # share of job time spent inside layer spans rather than in the harness
    m["trace.coverage"] = 1.0 - own.get(ROOT_SPAN, 0.0) / job_ms if job_ms else 0.0
    return m


def layer_counts(kept: list[tuple[str, tuple, object]]) -> dict[str, float]:
    """Work counts of one traced pass, from the kept arguments and results."""
    c = dict.fromkeys(
        (
            "arcs.candidates",
            "angulation.candidates_tested",
            "angulation.arcs_added",
            "k0.relations",
            "k0.free_rank",
            "intlinalg.rows",
            "intlinalg.cols",
            "intlinalg.nnz_a",
            "intlinalg.max_entry_bits",
            "quiver.nodes",
            "quiver.arrows",
            "render.svg_bytes",
        ),
        0,
    )
    shapes_tried = 0
    completion_tests = 0
    transform_nnz = 0
    transform_area = 0
    for name, args, result in kept:
        if name == "arcs.enumerate_arcs":
            c["arcs.candidates"] += len(result)
        elif name == "angulation.complete_in_window":
            family, window = args
            tested = checks.window_arc_count(family.params.n, window.span) - len(family)
            completion_tests += tested
            c["angulation.candidates_tested"] += tested
            c["angulation.arcs_added"] += len(result) - len(family)
        elif name == "angulation.is_maximal_in_window":
            family, window = args
            c["angulation.candidates_tested"] += _maximality_tests(family, window, result)
        elif name == "k0.ar_relations":
            shapes_tried += 2 * args[1].size  # each generator as end and as start
            c["k0.relations"] += len(result)
        elif name == "k0.k0_presentation":
            c["k0.free_rank"] += result.free_rank
        elif name == "intlinalg.smith_normal_form":
            a = result.matrix
            c["intlinalg.rows"] += a.rows
            c["intlinalg.cols"] += a.cols
            c["intlinalg.nnz_a"] += sum(1 for row in a.entries for x in row if x)
            for t in (result.u, result.v):
                transform_nnz += sum(1 for row in t.entries for x in row if x)
                transform_area += t.rows * t.cols
                bits = max((abs(x).bit_length() for row in t.entries for x in row), default=0)
                c["intlinalg.max_entry_bits"] = max(c["intlinalg.max_entry_bits"], bits)
        elif name == "quiver.quiver_window":
            c["quiver.nodes"] += len(result.nodes)
            c["quiver.arrows"] += len(result.arrows)
        elif name.startswith("render."):
            c["render.svg_bytes"] += len(result.encode("utf-8"))
    c["angulation.add_ratio"] = c["angulation.arcs_added"] / completion_tests if completion_tests else 0.0
    c["k0.relation_yield"] = c["k0.relations"] / shapes_tried if shapes_tried else 0.0
    c["intlinalg.fill_ratio"] = transform_nnz / transform_area if transform_area else 0.0
    return c


def _maximality_tests(family, window, witness) -> int:
    """Candidates is_maximal_in_window examines: all non-members, or up to the witness."""
    n = family.params.n
    if witness is None:
        return checks.window_arc_count(n, window.span) - len(family)
    members = {(a.t, a.u) for a in family.arcs}
    cands = checks.window_arcs(n, window.lo, window.hi)
    upto = cands[: cands.index((witness.t, witness.u)) + 1]
    return sum(1 for a in upto if a not in members)
