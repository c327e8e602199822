"""Arc model of the n-cluster categories of the infinity-gon.

Admissible arcs between integers model the indecomposable objects; this
package exposes the arc calculus, the mesh structure of the translation
quiver, non-crossing families with window-local maximality certificates,
and exact Grothendieck group presentations reduced by integer Smith normal
form.  A CLI (`infgon`) wraps every operation and renders deterministic
SVG figures.
"""

from .angulation import (
    ArcFamily,
    canonical_family,
    complete_in_window,
    is_maximal_in_window,
    parse_family,
    validate_noncrossing,
)
from .arcs import (
    Arc,
    CategoryParams,
    Window,
    component_index,
    crosses,
    enumerate_arcs,
    is_admissible,
    minimal_length,
    require_admissible,
    serre,
    suspend,
    tau,
    tau_inverse,
    window_pairs,
)
from .intlinalg import Cokernel, IntMatrix, SnfResult, cokernel, smith_normal_form
from .k0 import (
    K0Basis,
    K0Presentation,
    RelationVector,
    TheoremReport,
    ar_relations,
    expected_canonical_class,
    k0_presentation,
    verify_theorem,
)
from .quiver import (
    ArTriangle,
    QuiverWindow,
    ar_triangle,
    arrows_from,
    quiver_window,
    row_index,
)
from .render import RenderOptions, arc_diagram_svg, quiver_svg

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "ArcFamily",
    "ArTriangle",
    "CategoryParams",
    "Cokernel",
    "IntMatrix",
    "K0Basis",
    "K0Presentation",
    "QuiverWindow",
    "RelationVector",
    "RenderOptions",
    "SnfResult",
    "TheoremReport",
    "Window",
    "ar_relations",
    "ar_triangle",
    "arc_diagram_svg",
    "arrows_from",
    "canonical_family",
    "cokernel",
    "complete_in_window",
    "component_index",
    "crosses",
    "enumerate_arcs",
    "expected_canonical_class",
    "is_admissible",
    "is_maximal_in_window",
    "k0_presentation",
    "minimal_length",
    "parse_family",
    "quiver_svg",
    "quiver_window",
    "require_admissible",
    "row_index",
    "serre",
    "smith_normal_form",
    "suspend",
    "tau",
    "tau_inverse",
    "validate_noncrossing",
    "verify_theorem",
    "window_pairs",
    "__version__",
]
