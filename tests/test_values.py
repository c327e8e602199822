"""The package's immutable value classes: construction, equality, hash, repr,
ordering, immutability, copy and pickle.

Expected reprs and messages are the texts these classes printed when they
were dataclasses, so the hand-written classes are held to the same behaviour.
"""

import copy
import pickle

import pytest

from infgon import (
    Arc,
    ArcFamily,
    ArTriangle,
    CategoryParams,
    Cokernel,
    IntMatrix,
    K0Basis,
    K0Presentation,
    QuiverWindow,
    RelationVector,
    RenderOptions,
    SnfResult,
    TheoremReport,
    Window,
    canonical_family,
    verify_theorem,
)

P1, P2, P3 = CategoryParams(1), CategoryParams(2), CategoryParams(3)
NODES = (Arc(0, 2), Arc(0, 3), Arc(1, 3))
ARROWS = ((Arc(0, 2), Arc(0, 3)), (Arc(0, 3), Arc(1, 3)))
ONE = IntMatrix(1, 1, (((0, 1),),))
ONE_TEXT = "IntMatrix(rows=1, cols=1, terms=(((0, 1),),))"
FAMILY = ArcFamily(P3, [Arc(1, 5), Arc(-2, 5)])
FAMILY_TEXT = "ArcFamily(params=CategoryParams(n=3), arcs=(Arc(t=1, u=5), Arc(t=-2, u=5)))"
RELATION = RelationVector(2, ((0, 1), (1, -2)))
REPORT_FIELDS = ("params", "truncation", "free_rank", "invariant_factors", "classes",
                 "relations_used", "passed", "first_violation")


def report():
    return TheoremReport(params=P2, truncation=2, free_rank=1, invariant_factors=(),
                         classes=((1,), (2,)), relations_used=1, passed=True,
                         first_violation=None)


# (build by keyword, its repr, its compared fields in order)
VALUES = [
    (lambda: CategoryParams(n=3), "CategoryParams(n=3)", ("n",)),
    (lambda: Arc(t=1, u=3), "Arc(t=1, u=3)", ("t", "u")),
    (lambda: Window(lo=0, hi=3), "Window(lo=0, hi=3)", ("lo", "hi")),
    (lambda: RenderOptions(),
     "RenderOptions(width=900, height=360, labels=True, highlight=())",
     ("width", "height", "labels", "highlight")),
    (lambda: RenderOptions(width=640, height=300, labels=False, highlight=[Arc(1, 5)]),
     "RenderOptions(width=640, height=300, labels=False, highlight=(Arc(t=1, u=5),))",
     ("width", "height", "labels", "highlight")),
    (lambda: ArcFamily(params=P3, arcs=[Arc(1, 5), Arc(-2, 5)]),
     "ArcFamily(params=CategoryParams(n=3), arcs=(Arc(t=1, u=5), Arc(t=-2, u=5)))",
     ("params", "arcs")),
    (lambda: ArTriangle(start=Arc(-1, 2), middle=(Arc(-1, 3), Arc(0, 2)), end=Arc(0, 3)),
     "ArTriangle(start=Arc(t=-1, u=2), middle=(Arc(t=-1, u=3), Arc(t=0, u=2)), end=Arc(t=0, u=3))",
     ("start", "middle", "end")),
    (lambda: QuiverWindow(params=P1, component=0, nodes=NODES, arrows=ARROWS),
     "QuiverWindow(params=CategoryParams(n=1), component=0, nodes=(Arc(t=0, u=2), "
     "Arc(t=0, u=3), Arc(t=1, u=3)), arrows=((Arc(t=0, u=2), Arc(t=0, u=3)), "
     "(Arc(t=0, u=3), Arc(t=1, u=3))))",
     ("params", "component", "nodes", "arrows")),
    (lambda: IntMatrix(rows=2, cols=3, terms=(((0, 2),), ((1, -1), (2, 4)))),
     "IntMatrix(rows=2, cols=3, terms=(((0, 2),), ((1, -1), (2, 4))))",
     ("rows", "cols", "terms")),
    (lambda: SnfResult(matrix=IntMatrix(1, 1, (((0, 2),),)), u=ONE, diagonal=(2,), v=ONE,
                       u_inv=ONE, v_inv=ONE),
     f"SnfResult(matrix=IntMatrix(rows=1, cols=1, terms=(((0, 2),),)), u={ONE_TEXT}, "
     f"diagonal=(2,), v={ONE_TEXT}, u_inv={ONE_TEXT}, v_inv={ONE_TEXT})",
     ("matrix", "u", "diagonal", "v", "u_inv", "v_inv")),
    (lambda: Cokernel(generators=3, invariant_factors=(2,), free_rank=1,
                      classes=((1, 0), (0, 1), (1, 1))),
     "Cokernel(generators=3, invariant_factors=(2,), free_rank=1, "
     "classes=((1, 0), (0, 1), (1, 1)))",
     ("generators", "invariant_factors", "free_rank", "classes")),
    (lambda: K0Basis(family=FAMILY), f"K0Basis(family={FAMILY_TEXT})", ("family",)),
    (lambda: RelationVector(generators=2, terms=((0, 1), (1, -2))),
     "RelationVector(generators=2, terms=((0, 1), (1, -2)))", ("generators", "terms")),
    (lambda: K0Presentation(basis=K0Basis(FAMILY), relations=(RELATION,), invariant_factors=(),
                            free_rank=1, classes=((2,), (1,))),
     f"K0Presentation(basis=K0Basis(family={FAMILY_TEXT}), relations=(RelationVector("
     "generators=2, terms=((0, 1), (1, -2))),), invariant_factors=(), free_rank=1, "
     "classes=((2,), (1,)))",
     ("basis", "relations", "invariant_factors", "free_rank", "classes")),
    (report,
     "TheoremReport(params=CategoryParams(n=2), truncation=2, free_rank=1, "
     "invariant_factors=(), classes=((1,), (2,)), relations_used=1, passed=True, "
     "first_violation=None)",
     REPORT_FIELDS),
]
IDS = [text.split("(", 1)[0] for _, text, _ in VALUES]


@pytest.mark.parametrize("build, text, fields", VALUES, ids=IDS)
def test_repr_equality_and_hash_are_over_the_fields(build, text, fields):
    x, y = build(), build()
    assert repr(x) == text
    assert x == y and not x != y and x is not y
    assert hash(x) == hash(y) == hash(tuple(getattr(x, f) for f in fields))
    assert x.__eq__(object()) is NotImplemented
    assert x != tuple(getattr(x, f) for f in fields)


@pytest.mark.parametrize("build, text, fields", VALUES, ids=IDS)
def test_fields_can_be_neither_set_nor_deleted(build, text, fields):
    x = build()
    for name in (*fields, "index", "arrow_index", "arcs", "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert repr(x) == text


@pytest.mark.parametrize("build, text, fields", VALUES, ids=IDS)
def test_copy_and_pickle_give_equal_values(build, text, fields):
    x = build()
    for y in (copy.copy(x), copy.deepcopy(x),
              *(pickle.loads(pickle.dumps(x, protocol)) for protocol in range(6))):
        assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == text


def test_derived_fields_survive_copy_and_are_not_compared():
    f = ArcFamily(P3, [Arc(1, 5), Arc(-2, 5)])
    assert copy.deepcopy(f).index == pickle.loads(pickle.dumps(f)).index == f.index
    qw = QuiverWindow(P1, 0, NODES, ARROWS)
    assert copy.deepcopy(qw).arrow_index == qw.arrow_index == ((0, 1), (1, 2))
    assert "index" not in repr(f) and "arrow_index" not in repr(qw)


@pytest.mark.parametrize("n", range(1, 5))
def test_theorem_report_json_survives_copy_and_keys_the_canonical_arcs(n):
    p = CategoryParams(n)
    for m in range(2, 7):
        x = verify_theorem(p, m)
        want = x.to_json_dict()
        assert list(want["classes"]) == [f"[{a.t},{a.u}]" for a in canonical_family(p, m)]
        for y in (copy.copy(x), copy.deepcopy(x),
                  *(pickle.loads(pickle.dumps(x, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert y.to_json_dict() == want


# (class, its field values in order): one class that only stores, one that checks
BINDINGS = [
    (K0Presentation, (K0Basis(FAMILY), (RELATION,), (), 1, ((2,), (1,)))),
    (Window, (0, 3)),
]


@pytest.mark.parametrize("cls, args", BINDINGS, ids=["K0Presentation", "Window"])
def test_constructor_binds_by_position_and_by_keyword(cls, args):
    by_keyword = cls(**dict(zip(cls._fields, args)))
    for k in range(len(args) + 1):
        assert cls(*args[:k], **dict(zip(cls._fields[k:], args[k:]))) == by_keyword


@pytest.mark.parametrize("cls, args", BINDINGS, ids=["K0Presentation", "Window"])
@pytest.mark.parametrize("call", [
    lambda cls, args: cls(*args[:-1]),
    lambda cls, args: cls(*args, args[-1]),
    lambda cls, args: cls(*args[:-1], **{cls._fields[0]: args[0]}),
    lambda cls, args: cls(*args[:-1], not_a_field=args[-1]),
], ids=["missing", "extra", "doubled", "unknown"])
def test_a_wrong_call_raises_type_error(cls, args, call):
    with pytest.raises(TypeError):
        call(cls, args)


def test_classes_do_not_compare_equal_across_types():
    assert Arc(1, 3) != (1, 3) and (1, 3) != Arc(1, 3)
    assert Arc(0, 3) != Window(0, 3)
    assert CategoryParams(3) != 3
    assert len({Arc(0, 3), Window(0, 3), (0, 3)}) == 3


def test_arcs_are_ordered_by_t_then_u():
    a, b = Arc(1, 3), Arc(1, 4)
    assert a < b and a <= b and b > a and b >= a and a <= Arc(1, 3) and a >= Arc(1, 3)
    assert not (b < a or b <= a or a > b or a >= b)
    assert not (a < Arc(1, 3) or a > Arc(1, 3))
    arcs = [Arc(2, 4), Arc(-1, 5), Arc(1, 4), Arc(1, 3)]
    assert sorted(arcs) == [Arc(-1, 5), Arc(1, 3), Arc(1, 4), Arc(2, 4)]
    assert max(arcs) == Arc(2, 4) and min(arcs) == Arc(-1, 5)


@pytest.mark.parametrize("compare", [
    lambda: Arc(1, 3) < (1, 4),
    lambda: Arc(1, 3) <= (1, 4),
    lambda: Arc(1, 3) > (1, 2),
    lambda: Arc(1, 3) >= (1, 2),
    lambda: (1, 4) > Arc(1, 3),
    lambda: Arc(0, 3) < Window(0, 4),
    lambda: Window(0, 3) < Window(0, 4),
])
def test_arcs_do_not_order_against_other_types(compare):
    with pytest.raises(TypeError):
        compare()


class Exact(int):
    """An int subclass that is not bool: accepted wherever an int is."""


@pytest.mark.parametrize("build, error", [
    (lambda: Arc(True, 0), "arc endpoint t must be an exact integer, got True"),
    (lambda: Arc(5, True), "arc endpoint u must be an exact integer, got True"),
    (lambda: Arc(2, 1.5), "arc endpoint u must be an exact integer, got 1.5"),
    (lambda: Arc(3, 3), "arc (3, 3): endpoints must satisfy t < u"),
    (lambda: Window(True, "x"), "window lo must be an exact integer, got True"),
    (lambda: Window(0, "x"), "window hi must be an exact integer, got 'x'"),
    (lambda: Window(3, 3), "window [3, 3]: bounds must satisfy lo < hi"),
    (lambda: CategoryParams(0), "parameter n must be >= 1, got 0"),
    (lambda: CategoryParams(1.0), "parameter n must be an exact integer, got 1.0"),
    (lambda: CategoryParams(False), "parameter n must be an exact integer, got False"),
    (lambda: RenderOptions(width=0, highlight=5), "canvas dimensions must be positive"),
    (lambda: RenderOptions(height=72), "margin leaves no drawing area"),
    (lambda: ArcFamily(P3, [Arc(1, 5), Arc(1, 4), Arc(1, 5)]),
     "arc (1, 4) is not 3-admissible: length 3 is not congruent to 1 modulo 3"),
    (lambda: ArcFamily(P3, [Arc(1, 5), Arc(1, 5), Arc(1, 4)]), "duplicate arc (1, 5) in family"),
    (lambda: QuiverWindow(P1, 0, (Arc(0, 2),), ((Arc(0, 2), Arc(0, 3)),)),
     "arrow (0, 2) -> (0, 3): an end is not a node"),
    (lambda: IntMatrix(-1, 2.0, ((0,),)), "matrix dimensions must be non-negative"),
    (lambda: IntMatrix(2, 2, (((0, 1.0),),)), "expected 2 rows, got 1"),
    (lambda: IntMatrix(1, 2, (((1, 1.0), (0, 0)),)),
     "matrix entries must be exact integers, got 1.0"),
    (lambda: IntMatrix(1, 2, (((1, 1), (0, 0)),)), "columns must ascend in [0, 2), got (1, 0)"),
    (lambda: IntMatrix(1, 2, (((0, 1), (2, 1)),)), "columns must ascend in [0, 2), got (0, 2)"),
    (lambda: IntMatrix(2, 2, (((0, 1),), ((1, 0),))), "matrix terms must not store a zero"),
])
def test_construction_checks_in_the_same_order_with_the_same_words(build, error):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == error


def test_construction_accepts_int_subclasses_and_normalizes_sequences():
    a = Arc(Exact(1), Exact(4))
    assert a == Arc(1, 4) and type(a.t) is Exact
    assert Window(Exact(0), 3) == Window(0, 3)
    assert RenderOptions(highlight=[Arc(1, 3)]).highlight == (Arc(1, 3),)
    assert ArcFamily(P1, [Arc(0, 2)]).arcs == (Arc(0, 2),)
    with pytest.raises(TypeError, match="'int' object is not iterable"):
        RenderOptions(highlight=5)
