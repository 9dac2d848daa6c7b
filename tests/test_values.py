"""The hot value classes are frozen dataclasses whose ``__init__`` sets each
slot once: equality, hashing, ``repr`` and pattern matching are the generated
ones, and no field can be assigned after construction."""

import dataclasses
from fractions import Fraction

import pytest

from balg import places
from balg.algebra import Elem
from balg.free_product import FreeProduct, Rectangle, RectForm
from balg.places import PlaceFunction
from balg.tensor import AtomVector
from conftest import FC, P3

FP = FreeProduct(P3, FC)

# name -> (build a value, build a different value of the same class); each
# call builds fresh objects, so equal values are never the same object
VALUES = {
    "Elem": (lambda: P3.subset([1, 3]), lambda: P3.subset([2])),
    "Rectangle": (lambda: Rectangle(P3.subset([1]), FC.fin([0, 4])),
                  lambda: Rectangle(P3.subset([1]), FC.cof([0]))),
    "RectForm": (lambda: FP.rect(P3.subset([1]), FC.fin([0, 4])),
                 lambda: ~FP.rect(P3.subset([1]), FC.fin([0, 4]))),
    "PlaceFunction": (lambda: places.scale(Fraction(3, 2), places.chi(FC.fin([2]))),
                      lambda: places.chi(FC.fin([2]))),
    "AtomVector": (lambda: AtomVector((1, 2, 3), (Fraction(1), Fraction(0), Fraction(-2, 3))),
                   lambda: AtomVector((1, 2, 3), (Fraction(1), Fraction(0), Fraction(2, 3)))),
}
CLASSES = {"Elem": Elem, "Rectangle": Rectangle, "RectForm": RectForm,
           "PlaceFunction": PlaceFunction, "AtomVector": AtomVector}


def field_values(x) -> tuple:
    return tuple(getattr(x, f.name) for f in dataclasses.fields(x))


@pytest.fixture(params=sorted(VALUES))
def case(request):
    make, make_other = VALUES[request.param]
    return CLASSES[request.param], make, make_other


def test_every_field_is_frozen(case):
    cls, make, _ = case
    x = make()
    assert type(x) is cls and not hasattr(x, "__dict__")
    for f in dataclasses.fields(x):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, getattr(x, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f.name)
    with pytest.raises((AttributeError, TypeError)):
        x.extra = 1


def test_hash_is_the_hash_of_the_field_tuple(case):
    _, make, make_other = case
    for x in (make(), make_other()):
        assert hash(x) == hash(field_values(x))


def test_repr_is_the_generated_one(case):
    cls, make, _ = case
    x = make()
    shown = ", ".join(f"{f.name}={getattr(x, f.name)!r}" for f in dataclasses.fields(x))
    assert repr(x) == f"{cls.__name__}({shown})"


def test_equality_is_fieldwise_and_class_bound(case):
    cls, make, make_other = case
    x, y = make(), make()
    assert x is not y and x == y and not x != y
    assert x != make_other()
    assert x != field_values(x)
    for other in (object(), field_values(x), *(v[0]() for k, v in VALUES.items()
                                               if CLASSES[k] is not cls)):
        assert x.__eq__(other) is NotImplemented


def test_construction_by_position_keyword_and_replace(case):
    cls, make, _ = case
    x = make()
    names = [f.name for f in dataclasses.fields(x)]
    assert cls.__match_args__ == tuple(names)
    assert cls(*field_values(x)) == x
    assert cls(**{n: getattr(x, n) for n in names}) == x
    assert dataclasses.replace(x) == x
    match x:
        case cls(first) if first is getattr(x, names[0]):
            pass
        case _:
            pytest.fail("a positional class pattern does not bind the first field")


def test_atom_vector_rejects_a_length_mismatch():
    with pytest.raises(ValueError, match="coordinate count"):
        AtomVector((1, 2), (Fraction(1),))
    with pytest.raises(ValueError, match="coordinate count"):
        AtomVector((), (Fraction(0),))
    x = AtomVector((1, 2), (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError, match="coordinate count"):
        dataclasses.replace(x, values=(Fraction(1),))
