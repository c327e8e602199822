"""Deterministic SVG drawings of arc diagrams and quiver windows.

Output is plain SVG 1.1 text assembled by string formatting: rendering the
same input twice yields byte-identical files, every figure parses as XML,
and element counts follow the input sizes exactly (one path per arc, one
circle per vertex or node, one line per arrow).  Element classes:

    arc diagrams:   baseline, baseline-ext, vertex, vertex-label, arc
    quiver windows: arrow, node, node-label

Highlighted members additionally carry the "highlight" class.
"""

from __future__ import annotations

from .arcs import Arc, FrozenValue, Window, _require_int, require_inside, short_repr

TYPE_CHECKING = False  # typing.TYPE_CHECKING without the cost of importing typing
if TYPE_CHECKING:
    from .angulation import ArcFamily
    from .quiver import QuiverWindow

_MARGIN = 36  # blank border on every side of the canvas

MAX_DIAGRAM_POINTS = 2001
"""The most window points `arc_diagram_svg` draws, a span of 2000.  Each point
costs a circle and a label, about 120 bytes, so a wider window raises
ValueError before anything is built."""

_STYLE = (
    ".baseline{stroke:#444;stroke-width:1.5;fill:none}"
    ".baseline-ext{stroke:#444;stroke-width:1.5;stroke-dasharray:4 4;fill:none}"
    ".vertex{fill:#222}"
    ".vertex-label{font:11px sans-serif;fill:#222;text-anchor:middle}"
    ".arc{stroke:#1f4e8c;stroke-width:1.6;fill:none}"
    ".arc.highlight{stroke:#c22;stroke-width:2.2}"
    ".arrow{stroke:#555;stroke-width:1.2}"
    ".node{fill:#1f4e8c}"
    ".node.highlight{fill:#c22}"
    ".node-label{font:10px sans-serif;fill:#222;text-anchor:middle}"
)


class RenderOptions(FrozenValue):
    """Canvas geometry and display toggles shared by both figure kinds."""

    __slots__ = _fields = ("width", "height", "labels", "highlight")
    width: int
    height: int
    labels: bool
    highlight: tuple[Arc, ...]

    def __init__(
        self, width: int = 900, height: int = 360, labels: bool = True,
        highlight: tuple[Arc, ...] = (),
    ) -> None:
        _require_int(width, "width")
        _require_int(height, "height")
        if width <= 0 or height <= 0:
            raise ValueError("canvas dimensions must be positive")
        if 2 * _MARGIN >= width or 2 * _MARGIN >= height:
            raise ValueError("margin leaves no drawing area")
        if not isinstance(labels, bool):
            raise ValueError(f"labels must be True or False, got {short_repr(labels)}")
        super().__init__(width, height, labels, tuple(highlight))


def _svg_open(opts: RenderOptions) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{opts.width}" height="{opts.height}" '
            f'viewBox="0 0 {opts.width} {opts.height}">'
        ),
        f"<style>{_STYLE}</style>",
    ]


class _Text(dict):
    """Coordinate -> its "%.2f" text, formatted once per distinct value.  All
    coordinates are positive, so no -0.0 takes the key of 0.0 and its text."""

    __slots__ = ()

    def __missing__(self, value: float) -> str:
        text = self[value] = f"{value:.2f}"
        return text


def _nodes_and_close(
    parts: list[str], opts: RenderOptions, kind: str, nodes: list, radius: float, label_dy: int
) -> str:
    """Append a circle per (x, y, highlighted, label) node, then with labels on
    a label per node, and close the SVG.  Classes: kind, highlight, kind-label."""
    text, r, lit_kind = _Text(), f"{radius:.2f}", f"{kind} highlight"
    for x, y, lit, _ in nodes:
        cls = lit_kind if lit else kind
        parts.append(f'<circle class="{cls}" cx="{text[x]}" cy="{text[y]}" r="{r}"/>')
    if opts.labels:
        for x, y, _, label in nodes:
            parts.append(
                f'<text class="{kind}-label" x="{text[x]}" y="{text[y + label_dy]}">{label}</text>'
            )
    parts.append("</svg>\n")
    return "\n".join(parts)


def arc_diagram_svg(f: ArcFamily, w: Window, opts: RenderOptions = RenderOptions()) -> str:
    """Draw a family over a window of the number line.

    Vertices are the integers of the window on a baseline with dashed
    continuation stubs at both ends; each arc is a single semicircular path
    whose height grows with u - t.  Arcs must lie inside the window, which
    may hold at most MAX_DIAGRAM_POINTS points.
    """
    if w.span >= MAX_DIAGRAM_POINTS:
        raise ValueError(
            f"window [{short_repr(w.lo)}, {short_repr(w.hi)}] has more than "
            f"{MAX_DIAGRAM_POINTS} points to draw"
        )
    require_inside(w, f.arcs)
    highlight = set(opts.highlight)
    step = (opts.width - 2 * _MARGIN) / w.span
    base_y = opts.height - _MARGIN - 18

    def x_of(p: int) -> float:
        return _MARGIN + (p - w.lo) * step

    # tallest arc caps the height scale; default keeps flat families shallow
    max_len = max((a.length for a in f.arcs), default=w.span)
    unit = (base_y - _MARGIN) / max_len

    parts = _svg_open(opts)
    stub = min(step * 0.75, _MARGIN * 0.8)
    x_lo, x_hi, y = x_of(w.lo), x_of(w.hi), f"{base_y:.2f}"
    for cls, x1, x2 in (("baseline", x_lo, x_hi), ("baseline-ext", x_lo - stub, x_lo),
                        ("baseline-ext", x_hi, x_hi + stub)):
        parts.append(f'<line class="{cls}" x1="{x1:.2f}" y1="{y}" x2="{x2:.2f}" y2="{y}"/>')
    for a in f.arcs:
        x1, x2 = x_of(a.t), x_of(a.u)
        rx = (x2 - x1) / 2
        ry = a.length * unit
        cls = "arc highlight" if a in highlight else "arc"
        parts.append(
            f'<path class="{cls}" d="M {x1:.2f} {y} '
            f'A {rx:.2f} {ry:.2f} 0 0 1 {x2:.2f} {y}"/>'
        )
    vertices = [(x_of(p), base_y, False, p) for p in range(w.lo, w.hi + 1)]
    return _nodes_and_close(parts, opts, "vertex", vertices, 2.5, 16)


def quiver_svg(qw: QuiverWindow, opts: RenderOptions = RenderOptions()) -> str:
    """Draw a quiver window on its standard grid.

    A node (t, u) sits at horizontal position t + u and vertical position
    equal to its row, rows increasing upwards.  Arrows are straight segments
    with a shared arrowhead marker, drawn beneath the nodes.
    """
    if not qw.nodes:
        raise ValueError("cannot render an empty quiver window")
    highlight = {(a.t, a.u) for a in opts.highlight}
    n = qw.params.n
    xs = [a.t + a.u for a in qw.nodes]
    rows = [(a.u - a.t - 1) // n for a in qw.nodes]  # every node is checked
    x_lo, x_hi = min(xs), max(xs)
    r_lo, r_hi = min(rows), max(rows)
    sx = (opts.width - 2 * _MARGIN) / max(x_hi - x_lo, 1)
    sy = (opts.height - 2 * _MARGIN) / max(r_hi - r_lo, 1)
    places = [(_MARGIN + (x - x_lo) * sx, _MARGIN + (r_hi - r) * sy) for x, r in zip(xs, rows)]

    parts = _svg_open(opts)
    parts.append(
        '<defs><marker id="arrowhead" markerWidth="7" markerHeight="6" '
        'refX="6" refY="3" orient="auto">'
        '<path d="M 0 0 L 7 3 L 0 6 z" fill="#555"/></marker></defs>'
    )
    radius = 3.5
    trim = radius + 2.0
    text = _Text()
    for i, j in qw.arrow_index:
        x1, y1 = places[i]
        x2, y2 = places[j]
        dx, dy = x2 - x1, y2 - y1
        norm = (dx * dx + dy * dy) ** 0.5 or 1.0
        ox, oy = dx / norm * trim, dy / norm * trim  # each end moves trim along the arrow
        parts.append(
            f'<line class="arrow" x1="{text[x1 + ox]}" y1="{text[y1 + oy]}" '
            f'x2="{text[x2 - ox]}" y2="{text[y2 - oy]}" marker-end="url(#arrowhead)"/>'
        )
    nodes = [
        (x, y, (a.t, a.u) in highlight, f"({a.t},{a.u})") for a, (x, y) in zip(qw.nodes, places)
    ]
    return _nodes_and_close(parts, opts, "node", nodes, radius, -7)
