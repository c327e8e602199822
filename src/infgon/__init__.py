"""Arc model of the n-cluster categories of the infinity-gon.

Admissible arcs between integers model the indecomposable objects; this
package exposes the arc calculus, the mesh structure of the translation
quiver, non-crossing families with window-local maximality certificates,
and exact Grothendieck group presentations reduced by integer Smith normal
form.  A CLI (`infgon`) wraps every operation and renders deterministic
SVG figures.

The exports are lazy: `import infgon` loads no submodule, and the first
access to an exported name (`infgon.X` or `from infgon import X`) imports
the one submodule that defines it.  So a CLI command loads only the modules
it runs.  Each access reads the name off its submodule, never a copy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "angulation": (
        "ArcFamily",
        "canonical_family",
        "complete_in_window",
        "is_maximal_in_window",
        "parse_family",
        "validate_noncrossing",
    ),
    "arcs": (
        "Arc",
        "CategoryParams",
        "Window",
        "component_index",
        "crosses",
        "enumerate_arcs",
        "is_admissible",
        "minimal_length",
        "require_admissible",
        "serre",
        "suspend",
        "tau",
        "tau_inverse",
        "window_rows",
    ),
    "intlinalg": ("Cokernel", "IntMatrix", "SnfResult", "cokernel", "smith_normal_form"),
    "k0": (
        "K0Basis",
        "K0Presentation",
        "RelationVector",
        "TheoremReport",
        "ar_relations",
        "expected_canonical_class",
        "k0_presentation",
        "verify_theorem",
    ),
    "quiver": (
        "ArTriangle",
        "QuiverWindow",
        "ar_triangle",
        "arrows_from",
        "quiver_window",
        "row_index",
    ),
    "render": ("RenderOptions", "arc_diagram_svg", "quiver_svg"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_MODULE_OF), "__version__"]


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
