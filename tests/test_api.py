"""The package's public surface: every export resolves, removed names stay gone."""

import infgon
from infgon import IntMatrix, RelationVector, SnfResult, angulation


def test_every_export_resolves():
    assert len(set(infgon.__all__)) == len(infgon.__all__)
    for name in infgon.__all__:
        assert hasattr(infgon, name), name


def test_removed_names_are_gone():
    for name in ("classify_ends", "EndKind", "EndBehavior"):
        assert name not in infgon.__all__
        assert not hasattr(infgon, name)
        assert not hasattr(angulation, name)
    assert not hasattr(IntMatrix, "transpose")
    assert not hasattr(SnfResult, "invariant_factors")
    assert not hasattr(RelationVector, "evaluate")
