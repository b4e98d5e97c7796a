"""Value semantics of the library's value classes and of the simplex
oracle's LPProblem: equal fields give equal objects with equal hashes,
_make builds the value its fields name, an object of another class never
compares equal, the repr reads like a constructor call, a pickle round
trip gives an equal object, and fields cannot be assigned or deleted."""

import pickle
from fractions import Fraction

import pytest

from oracles import LPProblem
from rdiv.polyhedra import HPolytope
from rdiv.scalars import Scalar
from rdiv.surface import SDivisor, SurfaceModel, ZariskiPair, zariski
from rdiv.toric import Fan, TDivisor


def _fan():
    return Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)), (("H", 2),))


def _polytope():
    return HPolytope(2, [((1, 0), 0), ((0, 1), Scalar(1, 2, 2)), ((-1, -1), -3)])


def _model():
    return SurfaceModel(1, ("F1", "F2"))


def _sdivisor():
    return _model().divisor({"C": 1, "F1": Scalar(0, 1, 2)})


def _lp():
    return LPProblem((1, 1), _polytope())


def _tdivisor():
    return TDivisor(_fan(), (1, Fraction(1, 2), Scalar(0, 1, 2)))


# (factory, the same fields in a tuple, repr as the former dataclasses printed it)
CASES = {
    "Fan": (
        _fan,
        lambda v: (v.dim, v.rays, v.max_cones, v.names),
        "Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (1, 2), (0, 2)), names=(('H', 2),))",
    ),
    "HPolytope": (
        _polytope,
        lambda v: (v.dim, v.normals, v.den, v.disc, v.A, v.B),
        "HPolytope(dim=2, normals=((1, 0), (0, 1), (-1, -1)), den=1, disc=2, A=(0, 1, -3), B=(0, 2, 0))",
    ),
    "SurfaceModel": (
        _model,
        lambda v: (v.e, v.fibers),
        "SurfaceModel(e=1, fibers=('F1', 'F2'))",
    ),
    "SDivisor": (
        _sdivisor,
        lambda v: (v.model, v.cE, v.cC, v.fiber_coeffs),
        "SDivisor(model=SurfaceModel(e=1, fibers=('F1', 'F2')), cE=Scalar('0'), cC=Scalar('1'), "
        "fiber_coeffs=(Scalar('sqrt(2)'), Scalar('0')))",
    ),
    "LPProblem": (
        _lp,
        lambda v: (v.objective, v.constraints, v.constant),
        "LPProblem(objective=(1, 1), constraints=HPolytope(dim=2, normals=((1, 0), (0, 1), (-1, -1)), "
        "den=1, disc=2, A=(0, 1, -3), B=(0, 2, 0)), constant=Scalar('0'))",
    ),
    "TDivisor": (
        _tdivisor,
        lambda v: (v.fan, v.polytope),
        "TDivisor(fan=Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (1, 2), (0, 2)), "
        "names=(('H', 2),)), coeffs=(Scalar('1'), Scalar('1/2'), Scalar('sqrt(2)')))",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_give_equal_objects_with_equal_hashes(name):
    make, _, _ = CASES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", CASES)
def test_every_field_takes_part_in_equality_and_hash(name):
    """The hash is that of the field tuple, _make builds the value of its
    fields, and a value that differs in any one field is another value."""
    make, fields, _ = CASES[name]
    a = make()
    assert hash(a) == hash(fields(a))
    values = fields(a)
    assert type(a)._make(*values) == a
    for i in range(len(values)):
        b = type(a)._make(*values[:i], object(), *values[i + 1 :])
        assert a != b and not a == b


@pytest.mark.parametrize("name", CASES)
def test_another_class_never_compares_equal(name):
    make, fields, _ = CASES[name]
    a = make()
    assert a != fields(a)
    assert a.__eq__(fields(a)) is NotImplemented
    for other in CASES:
        if other != name:
            assert a != CASES[other][0]()


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, fields, _ = CASES[name]
    a = make()
    for field in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert fields(a) == fields(make())


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_format(name):
    make, _, text = CASES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", CASES)
def test_pickle_round_trip(name):
    a = CASES[name][0]()
    b = pickle.loads(pickle.dumps(a))
    assert b == a and hash(b) == hash(a) and repr(b) == repr(a)


def test_a_divisor_cannot_be_moved_off_its_coefficients():
    """Assigning a divisor's polytope would leave it equal to one divisor
    while its coefficients read another's; the assignment raises, and the
    coefficients are always the offsets of the polytope's record, negated."""
    fan = _fan()
    D, twice = fan.divisor({"H": 1}), fan.divisor({"H": 2})
    with pytest.raises(AttributeError):
        D.polytope = twice.polytope
    assert D != twice and D.coeffs == (0, 0, 1)
    for X in (D, twice, _tdivisor(), D.scale(Scalar(0, 1, 2)) - twice):
        assert X.coeffs == tuple(-o for _, o in X.polytope.rows)


def test_a_record_is_a_read_only_named_tuple():
    """Result records are named tuples: equal fields give equal records with
    equal hashes, fields are read-only and the repr names each field."""
    pair = zariski(_model().divisor({"C": 1, "E": 1}))
    again = ZariskiPair(pair.P, SDivisor(_model(), 1, 0, (0, 0)))
    assert pair == again and hash(pair) == hash(again)
    assert pair != ZariskiPair(pair.P, SDivisor(_model(), 2, 0, (0, 0)))
    with pytest.raises(AttributeError):
        pair.N = None
    with pytest.raises(AttributeError):
        pair.extra = 1
    assert repr(pair) == (
        "ZariskiPair(P=(Scalar('1'), Scalar('1')), N=SDivisor(model=SurfaceModel(e=1, fibers=('F1', 'F2')), "
        "cE=Scalar('1'), cC=Scalar('0'), fiber_coeffs=(Scalar('0'), Scalar('0'))))"
    )
    assert pair.volume() == Scalar(1)
