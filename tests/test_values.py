"""The value classes: equality and hashing by class and fields, read-only
fields, slots that are the fields and nothing else, constructor
signatures, and ``InstanceSpec.replace``."""

import pickle
from fractions import Fraction

import pytest

from cubegeo import (
    AntipodalWitness,
    CubeSubgraph,
    DirectionOrdering,
    EdgeColouring,
    GeodesicPath,
    IncreasingGeodesic,
    LTable,
    SetFamily,
    UniformFamily,
    increasing_geodesic_table,
    induced_subgraph,
)
from cubegeo.colourings import random_colouring
from cubegeo.core import _Value
from cubegeo.harness import InstanceSpec, obj_to_colouring

_ID2 = DirectionOrdering.identity(2)
_TABLE = increasing_geodesic_table(induced_subgraph(2, [0, 1, 3]))

#: Per class: a value, an equal value built another way, and a value that
#: differs from the first in one field.
VALUES = {
    "CubeSubgraph": (induced_subgraph(2, [0, 1, 3]), CubeSubgraph(2, 0b1011, (1, 2)),
                     CubeSubgraph(2, 0b1011, (1, 0))),
    "EdgeColouring": (EdgeColouring(2, 0b100),
                      obj_to_colouring({"n": 2, "pairs": [[0, 0, "red"], [2, 0, "blue"], [0, 1, "red"],
                                                          [1, 1, "red"]]}),
                      EdgeColouring(2, 0b101)),
    "AntipodalWitness": (AntipodalWitness("mono-path", (0, 1, 3), (0, 3)),
                         AntipodalWitness("mono-path", (0, 1, 3), (0, 3), None),
                         AntipodalWitness("mono-path", (0, 1, 3), (0, 3), 0)),
    "DirectionOrdering": (_ID2, DirectionOrdering((0, 1)), DirectionOrdering((1, 0))),
    "GeodesicPath": (GeodesicPath((0, 1, 3), (0, 1)), GeodesicPath((0, 1, 3), (0, 1)),
                     GeodesicPath((3, 1, 0), (1, 0))),
    "IncreasingGeodesic": (IncreasingGeodesic((0, 1, 3), (0, 1), _ID2),
                           IncreasingGeodesic((0, 1, 3), (0, 1), DirectionOrdering((0, 1))),
                           IncreasingGeodesic((0, 2, 3), (1, 0), DirectionOrdering((1, 0)))),
    "LTable": (_TABLE, LTable(2, _ID2, _TABLE.lo_masks, _TABLE.levels),
               LTable(2, _ID2, _TABLE.lo_masks, _TABLE.levels[:-1])),
    "SetFamily": (SetFamily(2, 0b0110), SetFamily.of(2, [2, 1]), SetFamily(2, 0b0111)),
    "UniformFamily": (UniformFamily(2, 0b0110, 1), UniformFamily.of(2, [1, 2], 1), UniformFamily(2, 0b1000, 2)),
    "InstanceSpec": (InstanceSpec("random-family", n=3, density=Fraction(1, 2)),
                     InstanceSpec("random-family", 3, 0, Fraction(1, 2)),
                     InstanceSpec("random-family", n=3, density=Fraction(1, 2), seed=1)),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_covered():
    assert {cls.__name__ for cls in _subclasses(_Value)} == set(VALUES)
    assert {name: type(values[0]).__name__ for name, values in VALUES.items()} == {name: name for name in VALUES}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equality_is_by_class_and_fields(name):
    a, same, other = VALUES[name]
    assert type(a) is type(same) is type(other)
    assert a == same and not a != same
    assert a != other and not a == other
    assert a != a._values() and a != object()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_hash_is_by_fields(name):
    a, same, other = VALUES[name]
    assert hash(a) == hash(same)
    assert len({a, same, other}) == 2


def test_values_of_different_classes_never_equal():
    assert EdgeColouring(2, 0) != SetFamily(2, 0)  # both hold (2, 0)
    assert SetFamily(2, 0b0110) != UniformFamily(2, 0b0110, 1)
    assert UniformFamily(2, 0b0110, 1) != SetFamily(2, 0b0110)
    path = GeodesicPath((0, 1, 3), (0, 1))
    assert path != IncreasingGeodesic((0, 1, 3), (0, 1), _ID2)
    assert IncreasingGeodesic((0, 1, 3), (0, 1), _ID2) != path


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_are_read_only(name):
    a, same, _ = VALUES[name]
    for field in a._fields:
        with pytest.raises(AttributeError, match="read-only"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(a, field)
    with pytest.raises(AttributeError, match="read-only"):
        a.extra = 1
    assert a == same


#: Per class, the views that were deleted; none may come back.
GONE = {
    "CubeSubgraph": ("vertices",),
    "LTable": ("lengths",),
    "SetFamily": ("sets",),
    "UniformFamily": ("sets",),
    "EdgeColouring": ("colour_between", "blue_count"),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_mask_values_keep_only_their_fields(name):
    """No ``__dict__``, so no cached view: the slots of the class and its
    bases, base first, are the fields (a subclass's own slots extend its
    base class's); ``GONE`` names the views that were deleted."""
    a = VALUES[name][0]
    assert not hasattr(a, "__dict__")
    slots = [slot for cls in reversed(type(a).__mro__) for slot in vars(cls).get("__slots__", ())]
    assert tuple(slots) == a._fields
    assert [view for view in GONE.get(name, ()) if hasattr(a, view)] == []


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_pickle_and_print_by_fields(name):
    a = VALUES[name][0]
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a).startswith(f"{name}(")
    if name != "LTable":  # its repr leaves out the masks
        assert eval(repr(a), {**globals(), "Fraction": Fraction}) == a


@pytest.mark.parametrize("build", [
    lambda: induced_subgraph(14, (1 << (1 << 14)) - 1),
    lambda: SetFamily(14, (1 << (1 << 14)) - 1),
    lambda: random_colouring(11, 0),
], ids=["CubeSubgraph", "SetFamily", "EdgeColouring"])
def test_repr_writes_masks_of_over_4300_digits_in_hex(build):
    """Python 3.11+ refuses to write such an int in decimal."""
    value = build()
    text = repr(value)
    assert "=0x" in text
    assert eval(text) == value


def test_repr_keeps_ints_of_64_bits_in_decimal():
    assert repr(SetFamily(7, 2**64 - 1)) == f"SetFamily(n=7, mask={2**64 - 1})"
    assert repr(SetFamily(7, 2**64)) == "SetFamily(n=7, mask=0x10000000000000000)"
    assert repr(CubeSubgraph(7, 2**64, (2**64, 1))) == \
        "CubeSubgraph(n=7, vertex_mask=0x10000000000000000, lo_masks=(0x10000000000000000, 1))"
    assert repr(CubeSubgraph(1, 3, (1,))) == "CubeSubgraph(n=1, vertex_mask=3, lo_masks=(1,))"


def test_instance_spec_keeps_its_field_order():
    assert InstanceSpec._fields == (
        "kind", "n", "seed", "density", "radius", "centre", "subdim", "copies", "k", "t", "size", "path",
    )
    spec = InstanceSpec(*range(12))
    assert [getattr(spec, f) for f in InstanceSpec._fields] == list(range(12))
    assert InstanceSpec("full-cube")._values() == ("full-cube", 0, 0, None, None, 0, None, None, None, None,
                                                   None, None)


def test_instance_spec_replace():
    spec = InstanceSpec("hamming-ball", n=4, radius=2, centre=3)
    moved = spec.replace(seed=6, radius=1)
    assert moved == InstanceSpec("hamming-ball", n=4, seed=6, radius=1, centre=3)
    assert spec == InstanceSpec("hamming-ball", n=4, radius=2, centre=3)
    assert spec.replace() == spec
    with pytest.raises(TypeError, match="unexpected keyword argument 'radiuss'"):
        spec.replace(radiuss=1)
