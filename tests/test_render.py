"""Tests for the SVG renderers: well-formed XML, exact counts, determinism."""

import xml.etree.ElementTree as ET

import pytest

from infgon import (
    Arc,
    ArcFamily,
    CategoryParams,
    RenderOptions,
    Window,
    arc_diagram_svg,
    canonical_family,
    quiver_svg,
    quiver_window,
)
from infgon.render import MAX_DIAGRAM_POINTS


def tagged(svg):
    """(local tag, class attribute) for every element in document order."""
    root = ET.fromstring(svg)
    return [(el.tag.split("}")[-1], el.get("class")) for el in root.iter()]


def count(svg, tag, cls):
    return sum(1 for t, c in tagged(svg) if t == tag and c == cls)


def texts(svg):
    root = ET.fromstring(svg)
    return [el.text for el in root.iter() if el.tag.endswith("text")]


FIG_ARCS = canonical_family(CategoryParams(3), 5)
FIG_WINDOW = Window(-8, 12)


# ------------------------------------------------------------ arc diagrams


def test_arc_diagram_is_valid_xml_with_declared_version():
    svg = arc_diagram_svg(FIG_ARCS, FIG_WINDOW)
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    root = ET.fromstring(svg)
    assert root.get("version") == "1.1"
    assert root.get("viewBox") == "0 0 900 360"


def test_arc_diagram_element_counts():
    svg = arc_diagram_svg(FIG_ARCS, FIG_WINDOW)
    assert count(svg, "path", "arc") == 5
    assert count(svg, "circle", "vertex") == FIG_WINDOW.span + 1
    assert count(svg, "line", "baseline") == 1
    assert count(svg, "line", "baseline-ext") == 2
    assert count(svg, "text", "vertex-label") == FIG_WINDOW.span + 1


def test_arc_diagram_labels_cover_endpoints():
    svg = arc_diagram_svg(FIG_ARCS, FIG_WINDOW)
    shown = set(texts(svg))
    assert {"-5", "-2", "1", "5", "8", "11"} <= shown


def test_arc_diagram_labels_toggle():
    svg = arc_diagram_svg(FIG_ARCS, FIG_WINDOW, RenderOptions(labels=False))
    assert count(svg, "text", "vertex-label") == 0
    assert count(svg, "path", "arc") == 5


def test_arc_diagram_highlight():
    opts = RenderOptions(highlight=(Arc(1, 5), Arc(-2, 8)))
    svg = arc_diagram_svg(FIG_ARCS, FIG_WINDOW, opts)
    assert count(svg, "path", "arc highlight") == 2
    assert count(svg, "path", "arc") == 3


def test_arc_diagram_rejects_arc_outside_window():
    with pytest.raises(ValueError, match=r"\(-5, 8\) lies outside"):
        arc_diagram_svg(FIG_ARCS, Window(-4, 12))


def test_arc_diagram_is_byte_identical_between_runs():
    a = arc_diagram_svg(FIG_ARCS, FIG_WINDOW)
    b = arc_diagram_svg(FIG_ARCS, FIG_WINDOW)
    assert a == b
    assert a.encode() == b.encode()


def test_empty_family_still_draws_the_window():
    svg = arc_diagram_svg(ArcFamily(CategoryParams(2), []), Window(0, 4))
    assert count(svg, "path", "arc") == 0
    assert count(svg, "circle", "vertex") == 5


def test_arc_diagram_refuses_a_window_past_the_point_limit():
    family = ArcFamily(CategoryParams(1), [Arc(0, 2)])
    largest = Window(0, MAX_DIAGRAM_POINTS - 1)
    assert count(arc_diagram_svg(family, largest), "circle", "vertex") == MAX_DIAGRAM_POINTS
    for hi in (MAX_DIAGRAM_POINTS, 10**12):
        with pytest.raises(ValueError, match=f"more than {MAX_DIAGRAM_POINTS} points to draw"):
            arc_diagram_svg(family, Window(0, hi))


# ---------------------------------------------------------- quiver windows


P3 = CategoryParams(3)
FIG8 = quiver_window(
    P3, component=1, t_range=Window(-8, 4), depth=4, columns=Window(-6, 12)
)


def test_quiver_svg_counts_match_window():
    svg = quiver_svg(FIG8)
    assert len(FIG8.nodes) == 14
    assert count(svg, "circle", "node") == 14
    assert count(svg, "line", "arrow") == len(FIG8.arrows)
    assert count(svg, "text", "node-label") == 14


def test_quiver_svg_highlights_family_members():
    members = tuple(canonical_family(P3, 6))
    svg = quiver_svg(FIG8, RenderOptions(highlight=members))
    assert count(svg, "circle", "node highlight") == 4
    assert count(svg, "circle", "node") == 10
    shown = set(texts(svg))
    assert {"(1,5)", "(-2,5)", "(-2,8)", "(-5,8)"} <= shown


def test_quiver_svg_has_one_arrowhead_marker():
    svg = quiver_svg(FIG8)
    root = ET.fromstring(svg)
    markers = [el for el in root.iter() if el.tag.endswith("marker")]
    assert len(markers) == 1
    assert markers[0].get("id") == "arrowhead"


def test_quiver_svg_is_byte_identical_between_runs():
    opts = RenderOptions(width=640, height=300, labels=False)
    assert quiver_svg(FIG8, opts) == quiver_svg(FIG8, opts)


def test_quiver_svg_rejects_empty_window():
    empty = quiver_window(
        P3, component=1, t_range=Window(-8, 4), depth=4, columns=Window(100, 101)
    )
    with pytest.raises(ValueError, match="empty quiver window"):
        quiver_svg(empty)


def test_quiver_svg_single_node_degenerate_scale():
    one = quiver_window(
        CategoryParams(1), component=0, t_range=Window(0, 1), depth=1,
        columns=Window(2, 3),
    )
    assert len(one.nodes) == 1
    svg = quiver_svg(one)
    assert count(svg, "circle", "node") == 1
    assert count(svg, "line", "arrow") == 0


# ------------------------------------------------------------- options


def test_render_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(width=0)
    with pytest.raises(ValueError, match="margin leaves no drawing area"):
        RenderOptions(width=60)
    assert RenderOptions(highlight=[Arc(1, 3)]).highlight == (Arc(1, 3),)


@pytest.mark.parametrize("kwargs, error", [
    ({"height": float("nan")}, "height must be an exact integer, got nan"),
    ({"width": float("inf")}, "width must be an exact integer, got inf"),
    ({"width": 900.5}, "width must be an exact integer, got 900.5"),
    ({"width": True}, "width must be an exact integer, got True"),
    ({"height": "360"}, "height must be an exact integer, got '360'"),
    ({"labels": "no"}, "labels must be True or False, got 'no'"),
    ({"labels": 0}, "labels must be True or False, got 0"),
])
def test_render_options_refuse_what_no_figure_can_show(kwargs, error):
    # a float or a string once reached the SVG as width="inf" or height="nan"
    with pytest.raises(ValueError) as raised:
        RenderOptions(**kwargs)
    assert str(raised.value) == error
