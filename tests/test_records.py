"""The package's immutable records: MonomialIdeal, NewtonPolyhedron,
Factorization, IntegralPolytope, PolytopeGroupElement, BasisElement,
IdealClassElement and ColonFactorization.

Each is built positionally or by keyword, refuses assignment and deletion,
equals only a record of its own class with equal fields, hashes as the
tuple of its fields (so set and dict orders follow the fields alone),
survives pickle, copy and deepcopy, and prints as pinned below.
"""

import copy
import pickle

import pytest

from icm.ideals import MonomialIdeal
from icm.monoid import Factorization
from icm.newton import NewtonPolyhedron
from icm.polytopes import (BasisElement, ColonFactorization,
                           IdealClassElement, IntegralPolytope,
                           PolytopeGroupElement)

I = MonomialIdeal(2, ((0, 1), (1, 0)))
UNIT = MonomialIdeal(2, ((0, 0),))
SEGMENT = IntegralPolytope(2, ((0, 0), (1, 0)))
POINT = IntegralPolytope(2, ((0, 0),))

# class, field names, field values, repr
RECORDS = [
    (MonomialIdeal, ("dim", "gens"), (2, ((0, 1), (1, 0))),
     "MonomialIdeal(dim=2, gens=[(0, 1), (1, 0)])"),
    (NewtonPolyhedron, ("dim", "points"), (2, ((0, 2), (1, 1))),
     "NewtonPolyhedron(dim=2, points=((0, 2), (1, 1)))"),
    (Factorization, ("base", "atoms"), (I, (I,)),
     "Factorization(base=MonomialIdeal(dim=2, gens=[(0, 1), (1, 0)]), "
     "atoms=(MonomialIdeal(dim=2, gens=[(0, 1), (1, 0)]),))"),
    (IntegralPolytope, ("dim", "verts"), (2, ((0, 0), (1, 0))),
     "IntegralPolytope(dim=2, verts=((0, 0), (1, 0)))"),
    (PolytopeGroupElement, ("pos", "neg"), (SEGMENT, POINT),
     "PolytopeGroupElement(pos=IntegralPolytope(dim=2, verts=((0, 0), "
     "(1, 0))), neg=IntegralPolytope(dim=2, verts=((0, 0),)))"),
    (BasisElement, ("kind", "v"), ("segment", (-1, 2)), "Segment(-1,2)"),
    (IdealClassElement, ("num", "den"), (I, UNIT),
     "IdealClassElement(num=MonomialIdeal(dim=2, gens=[(0, 1), (1, 0)]), "
     "den=MonomialIdeal(dim=2, gens=[(0, 0)]))"),
    (ColonFactorization, ("base", "num_monomial", "num_factors"),
     (I, (0, 0), ((1, 1),)),
     "ColonFactorization(base=MonomialIdeal(dim=2, gens=[(0, 1), (1, 0)]), "
     "num_monomial=(0, 0), num_factors=((1, 1),))"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.fixture(params=RECORDS, ids=IDS)
def record(request):
    cls, names, values, text = request.param
    return cls, names, values, text, cls(*values)


def test_positional_and_keyword_construction(record):
    cls, names, values, _, obj = record
    assert tuple(getattr(obj, n) for n in names) == values
    by_keyword = cls(**dict(zip(names, values)))
    assert type(by_keyword) is cls
    assert by_keyword == obj


def test_assignment_and_deletion_raise(record):
    cls, names, values, _, obj = record
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert tuple(getattr(obj, n) for n in names) == values


def test_equality_is_by_class_and_fields(record):
    cls, names, values, _, obj = record
    assert obj == cls(*values)
    assert not obj != cls(*values)


@pytest.mark.parametrize("a, b", [
    (MonomialIdeal(1, ((1,),)), NewtonPolyhedron(1, ((1,),))),
    (MonomialIdeal(1, ((1,),)), IntegralPolytope(1, ((1,),))),
    (NewtonPolyhedron(1, ((1,),)), IntegralPolytope(1, ((1,),))),
    (IdealClassElement(I, UNIT), Factorization(I, UNIT)),
], ids=["ideal-np", "ideal-polytope", "np-polytope", "class-factorization"])
def test_equal_fields_in_different_classes_compare_unequal(a, b):
    assert a != b and b != a
    assert not (a == b or b == a)


def test_hash_is_the_field_tuple_hash(record):
    _, _, values, _, obj = record
    assert hash(obj) == hash(values)


@pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)),
                                   copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_clones_are_equal(record, clone):
    cls, names, values, text, obj = record
    again = clone(obj)
    assert type(again) is cls
    assert again == obj and hash(again) == hash(obj)
    assert tuple(getattr(again, n) for n in names) == values
    assert repr(again) == text


def test_repr_is_pinned(record):
    _, _, _, text, obj = record
    assert repr(obj) == text
