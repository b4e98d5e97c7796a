import math
import operator
import pickle
import sys
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import FractionScalar, scalar_ceil
from rdiv.errors import DivisionByZero, MixedDiscriminant
from rdiv.scalars import (
    MAX_DISC_DIGITS,
    Scalar,
    _squarefree_split,
    parse_scalar,
    sqrt,
)

R2 = sqrt(2)


def fractions(max_num=60, max_den=12):
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def scalars(disc=2):
    return st.builds(Scalar, fractions(), fractions(), st.just(disc))


def to_sympy(x: Scalar):
    return sympy.Rational(x.rat) + sympy.Rational(x.surd) * sympy.sqrt(x.disc)


# ---- spec examples ---------------------------------------------------------


def test_conjugate_product():
    assert (Scalar(1, 1, 2) * Scalar(1, -1, 2)) == Scalar(-1)


def test_rational_add():
    assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 3)) == Scalar(Fraction(5, 6))


def test_sqrt2_squared():
    assert R2 * R2 == Scalar(2)


def test_cmp_examples():
    assert R2._cmp(Scalar(Fraction(141, 100))) == 1
    assert Scalar(Fraction(3, 2))._cmp(Scalar(Fraction(3, 2))) == 0
    assert (Scalar(1) - R2)._cmp(Scalar(0)) == -1


def test_floor_examples():
    assert math.floor(R2) == 1
    assert math.floor(-R2) == -2
    assert math.floor(3 * R2) == 4


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        Scalar(1) / Scalar(0)


@pytest.mark.parametrize("value", [0.1, 1.0, float("nan"), float("inf")], ids=repr)
def test_scalar_rejects_a_float_part(value):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10; nan and
    # inf raised Fraction's own ValueError and OverflowError
    for args in ((value,), (0, value, 2), (Fraction(1, 2), value, 2)):
        with pytest.raises(TypeError, match="float"):
            Scalar(*args)


def test_mixed_discriminants_rejected():
    with pytest.raises(MixedDiscriminant):
        sqrt(2) + sqrt(3)
    with pytest.raises(MixedDiscriminant):
        sqrt(2)._cmp(sqrt(5))


def test_rational_operand_joins_any_disc():
    assert sqrt(2) + Scalar(1) == Scalar(1, 1, 2)
    assert Scalar(3) * sqrt(2) == Scalar(0, 3, 2)


def test_canonical_forms():
    assert Scalar(1, 0, 2) == Scalar(1)
    assert Scalar(0, 1, 4) == Scalar(2)
    assert Scalar(0, 1, 8) == Scalar(0, 2, 2)
    assert Scalar(0, 1, 1) == Scalar(1)
    assert Scalar(2, 3, 0) == Scalar(2)
    assert hash(Scalar(1, 0, 2)) == hash(Scalar(1))


# ---- parsing / rendering ---------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", Scalar(3)),
        ("-7/2", Scalar(Fraction(-7, 2))),
        ("sqrt(2)", R2),
        ("-sqrt(2)", -R2),
        ("3/4*sqrt(2)", Scalar(0, Fraction(3, 4), 2)),
        ("1 + sqrt(2)", Scalar(1, 1, 2)),
        ("1/2 - 3/2 * sqrt(2)", Scalar(Fraction(1, 2), Fraction(-3, 2), 2)),
        ("0", Scalar(0)),
        ("sqrt(8)", 2 * R2),
    ],
)
def test_parse(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("bad", ["", "x", "1/0", "sqrt(-1)", "1 sqrt(2)", "1+2", "sqrt(2)+1"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@given(scalars())
@settings(max_examples=150)
def test_roundtrip(x):
    assert parse_scalar(str(x)) == x


def test_decimal_rendering():
    assert Scalar(Fraction(1, 2)).decimal(4) == "0.5000"
    assert R2.decimal(8) == "1.41421356"
    assert (-R2).decimal(4) == "-1.4143"  # truncation toward -inf
    # a 30-digit surd needs sqrt(2) to far more than digits + 10 places
    assert Scalar(0, 10**30, 2).decimal(4) == "1414213562373095048801688724209.6980"
    assert Scalar(0, -(10**30), 2).decimal(4) == "-1414213562373095048801688724209.6981"


@pytest.fixture
def default_digit_limit():
    """Python's default 4,300-digit limit on int-to-str conversion, in force
    for the test (3.10.7 and later; earlier versions have no limit)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "x,text",
    [
        (Scalar(10**5000), "1" + "0" * 5000),
        (Scalar(-(10**5000)), "-1" + "0" * 5000),
        (Scalar(Fraction(1, 10**5000)), "1/1" + "0" * 5000),
        (Scalar(10**5000, -3, 2), "1" + "0" * 5000 + "-3*sqrt(2)"),
        (Scalar(0, Fraction(7, 10**4400), 2), "7/1" + "0" * 4400 + "*sqrt(2)"),
        (Scalar(10**4299 + 1), "1" + "0" * 4298 + "1"),
    ],
    ids=["int", "negative", "fraction", "surd", "small-surd", "at-the-limit"],
)
def test_str_prints_any_length_without_lifting_the_digit_limit(default_digit_limit, x, text):
    assert str(x) == text
    if hasattr(sys, "get_int_max_str_digits"):
        assert sys.get_int_max_str_digits() == 4300


def test_decimal_prints_any_length_without_lifting_the_digit_limit(default_digit_limit):
    assert Scalar(10**5000).decimal(2) == "1" + "0" * 5000 + ".00"
    assert Scalar(Fraction(1, 3)).decimal(5000) == "0." + "3" * 5000
    assert (-R2).decimal(4500)[:9] == "-1.414213"
    assert Scalar(Fraction(-1, 10**4400)).decimal(4400) == "-0." + "0" * 4399 + "1"


def test_decimal_rejects_a_negative_or_inexact_digit_count():
    # refused before 10**digits can turn into float arithmetic
    with pytest.raises(ValueError, match="digits >= 0"):
        Scalar(7).decimal(-1)
    with pytest.raises(ValueError, match="digits >= 0"):
        R2.decimal(-3)
    with pytest.raises(TypeError):
        Scalar(7).decimal(2.0)


# ---- properties ------------------------------------------------------------


@given(scalars())
@settings(max_examples=200)
def test_floor_bounds(x):
    f = math.floor(x)
    assert Scalar(f) <= x < Scalar(f + 1)


@given(scalars())
@settings(max_examples=200)
def test_floor_reflection(x):
    s = math.floor(x) + math.floor(-x)
    assert s in (0, -1)
    assert (s == 0) == x.is_integer()


@given(scalars(), scalars(), scalars())
@settings(max_examples=100)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars(), scalars())
@settings(max_examples=100)
def test_division_inverts_multiplication(a, b):
    if b != 0:
        assert (a * b) / b == a


@given(st.one_of(scalars(), fractions().map(Scalar)), st.one_of(scalars(), fractions().map(Scalar)))
@settings(max_examples=150)
def test_mul_matches_sympy(a, b):
    # rational factors too, with b = 0 on either side
    assert sympy.simplify(to_sympy(a * b) - to_sympy(a) * to_sympy(b)) == 0


@given(scalars(), scalars())
@settings(max_examples=150)
def test_cmp_matches_sympy(a, b):
    expected = sympy.sign(to_sympy(a) - to_sympy(b))
    assert a._cmp(b) == int(expected)


@given(scalars())
@settings(max_examples=100)
def test_floor_matches_sympy(x):
    assert math.floor(x) == int(sympy.floor(to_sympy(x)))
    assert scalar_ceil(x) == int(sympy.ceiling(to_sympy(x)))


def test_sign_analysis_opposite_parts():
    assert (Scalar(3) - 2 * R2).sign() == 1  # 9 > 8
    assert (Scalar(-3) + 2 * R2).sign() == -1
    assert (Scalar(7, -5, 2)).sign() == -1  # 49 < 50
    assert (Scalar(-7, 5, 2)).sign() == 1


def test_floor_of_large_values():
    big = Scalar(Fraction(10**12), Fraction(10**6), 2)
    f = math.floor(big)
    assert Scalar(f) <= big < Scalar(f + 1)


def test_floor_of_huge_irrational_values_is_exact():
    # far past what a fixed-precision estimate of sqrt(d) can round correctly
    n = 10**24 + 1
    assert math.floor(Scalar(0, n, 2)) == math.isqrt(2 * n * n)
    assert math.floor(Scalar(0, -n, 2)) == -math.isqrt(2 * n * n) - 1
    # 30-digit parts that nearly cancel: 10^30*sqrt(2) minus its own floor
    k = 10**30
    frac = Scalar(-math.isqrt(2 * k * k), k, 2)
    assert math.floor(frac) == 0 and math.floor(-frac) == -1
    for x in (
        Scalar(Fraction(10**30 + 7, 3), Fraction(-(10**29) - 11, 7), 2),
        Scalar(Fraction(-(10**30) + 1, 13), Fraction(10**30 - 3, 11), 3),
        Scalar(Fraction(123456789012345678901234567890, 7), Fraction(1, 10**30), 5),
    ):
        f = math.floor(x)
        assert x._cmp(f) >= 0 and x._cmp(f + 1) < 0


def test_pickle_roundtrip():
    import pickle

    x = Scalar(Fraction(3, 7), Fraction(-2, 5), 2)
    assert pickle.loads(pickle.dumps(x)) == x


# ---- hashing agrees with equality ----------------------------------------


def test_hash_agrees_with_equality_across_int_fraction_and_scalar():
    values = [
        0,
        1,
        -1,
        7,
        2**64 + 1,
        Fraction(1, 2),
        Fraction(-22, 7),
        Fraction(10**30 + 1, 3),
        Scalar(0),
        Scalar(1),
        Scalar(-1),
        Scalar(7),
        Scalar(2**64 + 1),
        Scalar(Fraction(1, 2)),
        Scalar(Fraction(-22, 7)),
        Scalar(Fraction(10**30 + 1, 3)),
        Scalar(0, 1, 4),
        Scalar(Fraction(1, 2), 0, 3),
        Scalar(0, 1, 2),
        Scalar(0, 2, 2),
        Scalar(0, 1, 8),
        Scalar(1, Fraction(1, 2), 3),
    ]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert 1 in {Scalar(1)}
    assert Scalar(2) in {2}
    assert Fraction(1, 2) in {Scalar(Fraction(1, 2))}
    assert {Scalar(Fraction(-22, 7)): "x"}[Fraction(-22, 7)] == "x"


# ---- the integer triple against the two-Fraction reference ----------------


def digits30():
    return st.one_of(st.integers(-12, 12), st.integers(-(10**30), 10**30))


def fractions30():
    return st.builds(Fraction, digits30(), st.one_of(st.integers(1, 12), st.integers(1, 10**30)))


def triples():
    """(rat, surd, disc) over Q(sqrt 2), Q(sqrt 3) and Q(sqrt 5); a zero surd
    gives a rational value."""
    return st.tuples(fractions30(), st.one_of(st.just(Fraction(0)), fractions30()), st.sampled_from([2, 3, 5]))


def operands():
    return st.one_of(
        triples().map(lambda t: ("scalar", t)),
        digits30().map(lambda n: ("int", n)),
        fractions30().map(lambda q: ("fraction", q)),
        st.booleans().map(lambda b: ("bool", b)),
        st.sampled_from([0.5, "a", None]).map(lambda v: ("unsupported", v)),
    )


def _build(operand, cls):
    kind, value = operand
    return cls(*value) if kind == "scalar" else value


def _canon(value):
    """A class-free image of a result, so Scalar and FractionScalar results
    compare equal exactly when they agree in value, field and rendering.
    A Scalar must also be in its reduced form."""
    if isinstance(value, Scalar):
        assert value.den > 0 and math.gcd(value.a, value.b, value.den) == 1
        assert (value.b == 0) == (value.disc == 0)
    if isinstance(value, (Scalar, FractionScalar)):
        return ("scalar", value.rat, value.surd, value.disc, str(value))
    return (type(value), value)


def _outcome(fn):
    try:
        return _canon(fn())
    except (DivisionByZero, MixedDiscriminant, ValueError, TypeError) as exc:
        return type(exc)


BINARY = [
    operator.add,
    operator.sub,
    operator.mul,
    operator.truediv,
    operator.lt,
    operator.le,
    operator.eq,
    operator.ne,
    operator.gt,
    operator.ge,
]


@given(triples(), operands())
@settings(max_examples=300, deadline=None)
def test_binary_operations_match_the_fraction_reference(t, other):
    x, ref = Scalar(*t), FractionScalar(*t)
    o, oref = _build(other, Scalar), _build(other, FractionScalar)
    for op in BINARY:
        assert _outcome(lambda: op(x, o)) == _outcome(lambda: op(ref, oref)), op
        assert _outcome(lambda: op(o, x)) == _outcome(lambda: op(oref, ref)), op
    assert _outcome(lambda: x._cmp(o)) == _outcome(lambda: ref._cmp(oref))


@given(triples(), st.integers(0, 4), st.integers(0, 30))
@settings(max_examples=300, deadline=None)
def test_unary_operations_match_the_fraction_reference(t, n, digits):
    x, ref = Scalar(*t), FractionScalar(*t)
    for fn in (
        operator.neg,
        operator.pos,
        abs,
        lambda v: v**n,
        lambda v: v.sign(),
        math.floor,
        math.ceil,
        lambda v: v.is_integer(),
        bool,
        str,
        lambda v: v.decimal(digits),
        lambda v: (v.rat, v.surd, v.disc),
        lambda v: pickle.loads(pickle.dumps(v)),
    ):
        assert _outcome(lambda: fn(x)) == _outcome(lambda: fn(ref))
    if not x.surd:
        assert hash(x) == hash(x.rat)


@given(st.one_of(digits30(), fractions30()), st.one_of(digits30(), fractions30()), st.integers(-3, 50))
@settings(max_examples=200, deadline=None)
def test_construction_matches_the_fraction_reference(rat, surd, disc):
    assert _outcome(lambda: Scalar(rat, surd, disc)) == _outcome(lambda: FractionScalar(rat, surd, disc))


@given(
    st.one_of(digits30(), fractions30()),
    st.one_of(digits30(), fractions30()),
    st.sampled_from([0, 1, 2, 4, 8, 12, 18, 10**6]),
)
@settings(max_examples=300, deadline=None)
def test_integer_construction_matches_the_fraction_reference_and_parses_back(rat, surd, disc):
    # int and Fraction parts build the triple from their integers; square
    # factors of disc move into the surd, and disc 0, 1 and 4 leave Q
    x = Scalar(rat, surd, disc)
    assert _canon(x) == _canon(FractionScalar(rat, surd, disc))
    assert parse_scalar(str(x)) == x


# ---- powers -------------------------------------------------------------------


def test_a_huge_exponent_costs_one_product_per_bit():
    # one product per unit of n took 0.7 s at n = 10**6, and minutes at 10**9
    start = time.perf_counter()
    assert Scalar(1) ** 10**18 == 1
    assert Scalar(-1) ** (10**18 + 1) == -1
    assert time.perf_counter() - start < 1


def test_a_power_is_the_repeated_product():
    x, product = 1 + R2, Scalar(1)
    for k in range(41):
        assert x**k == product
        product = product * x


# ---- large discriminants ------------------------------------------------------


def test_a_discriminant_past_the_digit_bound_raises_value_error_at_once():
    start = time.perf_counter()
    for d in (10**16 + 61, 10**MAX_DISC_DIGITS, 10**40):
        with pytest.raises(ValueError):
            Scalar(0, 1, d)
        with pytest.raises(ValueError):
            parse_scalar(f"1+sqrt({d})")
    assert time.perf_counter() - start < 1


def test_a_discriminant_at_the_digit_bound_splits_quickly():
    # 10**14 + 31 took 1.4 s by trial division up to its square root
    start = time.perf_counter()
    assert Scalar(0, 1, 10**14 + 31).disc == 10**14 + 31
    assert Scalar(0, 1, 10**MAX_DISC_DIGITS - 11).disc == 10**MAX_DISC_DIGITS - 11  # a prime
    assert time.perf_counter() - start < 1


def _split_by_sympy(n):
    s, f = 1, 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        f *= p ** (e % 2)
    return s, f


@given(
    st.one_of(
        st.integers(1, 10**MAX_DISC_DIGITS - 1),
        # the cofactor left by trial division is a prime, a square of one or
        # a product of two
        st.builds(
            lambda k, p, q: k * p * q,
            st.sampled_from((1, 2, 12, 49, 360)),
            st.sampled_from((1, 99991, 100003, 999983)),
            st.sampled_from((1, 99991, 100003, 1000003)),
        ),
    )
)
@settings(max_examples=80)
def test_squarefree_split_matches_sympy(n):
    assert _squarefree_split(n) == _split_by_sympy(n)
