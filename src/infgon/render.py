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

from dataclasses import dataclass

from .angulation import ArcFamily
from .arcs import Arc, Window, require_inside
from .quiver import QuiverWindow, row_index

_MARGIN = 36  # blank border on every side of the canvas

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


@dataclass(frozen=True)
class RenderOptions:
    """Canvas geometry and display toggles shared by both figure kinds."""

    width: int = 900
    height: int = 360
    labels: bool = True
    highlight: tuple[Arc, ...] = ()

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("canvas dimensions must be positive")
        if 2 * _MARGIN >= self.width or 2 * _MARGIN >= self.height:
            raise ValueError("margin leaves no drawing area")
        object.__setattr__(self, "highlight", tuple(self.highlight))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


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


def arc_diagram_svg(f: ArcFamily, w: Window, opts: RenderOptions = RenderOptions()) -> str:
    """Draw a family over a window of the number line.

    Vertices are the integers of the window on a baseline with dashed
    continuation stubs at both ends; each arc is a single semicircular path
    whose height grows with u - t.  Arcs must lie inside the window.
    """
    require_inside(w, f.arcs)
    highlight = set(opts.highlight)
    inner = opts.width - 2 * _MARGIN
    step = inner / w.span
    base_y = opts.height - _MARGIN - 18

    def x_of(p: int) -> float:
        return _MARGIN + (p - w.lo) * step

    # tallest arc caps the height scale; default keeps flat families shallow
    max_len = max((a.length for a in f.arcs), default=w.span)
    usable = base_y - _MARGIN
    unit = usable / max_len

    parts = _svg_open(opts)
    stub = min(step * 0.75, _MARGIN * 0.8)
    parts.append(
        f'<line class="baseline" x1="{_fmt(x_of(w.lo))}" y1="{_fmt(base_y)}" '
        f'x2="{_fmt(x_of(w.hi))}" y2="{_fmt(base_y)}"/>'
    )
    parts.append(
        f'<line class="baseline-ext" x1="{_fmt(x_of(w.lo) - stub)}" y1="{_fmt(base_y)}" '
        f'x2="{_fmt(x_of(w.lo))}" y2="{_fmt(base_y)}"/>'
    )
    parts.append(
        f'<line class="baseline-ext" x1="{_fmt(x_of(w.hi))}" y1="{_fmt(base_y)}" '
        f'x2="{_fmt(x_of(w.hi) + stub)}" y2="{_fmt(base_y)}"/>'
    )
    for a in f.arcs:
        x1, x2 = x_of(a.t), x_of(a.u)
        rx = (x2 - x1) / 2
        ry = a.length * unit
        cls = "arc highlight" if a in highlight else "arc"
        parts.append(
            f'<path class="{cls}" d="M {_fmt(x1)} {_fmt(base_y)} '
            f'A {_fmt(rx)} {_fmt(ry)} 0 0 1 {_fmt(x2)} {_fmt(base_y)}"/>'
        )
    for p in range(w.lo, w.hi + 1):
        parts.append(
            f'<circle class="vertex" cx="{_fmt(x_of(p))}" cy="{_fmt(base_y)}" r="2.50"/>'
        )
    if opts.labels:
        for p in range(w.lo, w.hi + 1):
            parts.append(
                f'<text class="vertex-label" x="{_fmt(x_of(p))}" '
                f'y="{_fmt(base_y + 16)}">{p}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def quiver_svg(qw: QuiverWindow, opts: RenderOptions = RenderOptions()) -> str:
    """Draw a quiver window on its standard grid.

    A node (t, u) sits at horizontal position t + u and vertical position
    equal to its row, rows increasing upwards.  Arrows are straight segments
    with a shared arrowhead marker, drawn beneath the nodes.
    """
    if not qw.nodes:
        raise ValueError("cannot render an empty quiver window")
    highlight = set(opts.highlight)
    params = qw.params
    xs = [a.t + a.u for a in qw.nodes]
    rows = [row_index(params, a) for a in qw.nodes]
    x_lo, x_hi = min(xs), max(xs)
    r_lo, r_hi = min(rows), max(rows)
    inner_w = opts.width - 2 * _MARGIN
    inner_h = opts.height - 2 * _MARGIN
    sx = inner_w / max(x_hi - x_lo, 1)
    sy = inner_h / max(r_hi - r_lo, 1)

    def pos(a: Arc) -> tuple[float, float]:
        x = _MARGIN + (a.t + a.u - x_lo) * sx
        y = _MARGIN + (r_hi - row_index(params, a)) * sy
        return x, y

    parts = _svg_open(opts)
    parts.append(
        '<defs><marker id="arrowhead" markerWidth="7" markerHeight="6" '
        'refX="6" refY="3" orient="auto">'
        '<path d="M 0 0 L 7 3 L 0 6 z" fill="#555"/></marker></defs>'
    )
    radius = 3.5
    for s, t in qw.arrows:
        x1, y1 = pos(s)
        x2, y2 = pos(t)
        dx, dy = x2 - x1, y2 - y1
        norm = (dx * dx + dy * dy) ** 0.5 or 1.0
        trim = radius + 2.0
        x1, y1 = x1 + dx / norm * trim, y1 + dy / norm * trim
        x2, y2 = x2 - dx / norm * trim, y2 - dy / norm * trim
        parts.append(
            f'<line class="arrow" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" marker-end="url(#arrowhead)"/>'
        )
    for a in qw.nodes:
        x, y = pos(a)
        cls = "node highlight" if a in highlight else "node"
        parts.append(
            f'<circle class="{cls}" cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(radius)}"/>'
        )
    if opts.labels:
        for a in qw.nodes:
            x, y = pos(a)
            parts.append(
                f'<text class="node-label" x="{_fmt(x)}" y="{_fmt(y - 7)}">'
                f"({a.t},{a.u})</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
