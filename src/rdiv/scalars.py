"""Exact arithmetic in Q and in a real quadratic field Q(sqrt(d)).

A Scalar is a value (a + b*sqrt(disc)) / den held as plain integers, with
den > 0, gcd(a, b, den) = 1 and a square-free disc > 1, or disc = 0 exactly
when b = 0 (the rational values).  This reduced form is unique, so equality
is structural.  Each field operation reads its operand (a Scalar, an int or
a Fraction) through _coerce and runs one formula: integer products and one
three-way gcd (Cohen, A Course in Computational Algebraic Number Theory,
1993).  Rational values hash like the equal int or Fraction.  One instance
works inside a single field: combining scalars from distinct irrational
fields raises MixedDiscriminant instead of building a compositum.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd, isqrt
from operator import index

from .errors import DivisionByZero, MixedDiscriminant

__all__ = [
    "Scalar",
    "sqrt",
    "parse_scalar",
    "scalar_cmp",
    "scalar_floor",
]

# A disc is factored by trial division up to its cube root, about 10**5
# steps at this bound; larger ones are refused rather than left to hang.
MAX_DISC_DIGITS = 15


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*f with f square-free; returns (s, f).  Raises ValueError when
    n has more than MAX_DISC_DIGITS digits.

    Trial division runs up to the cube root of what is left, so the cofactor
    has at most two prime factors: it is 1, p, p*q or p*p, and an isqrt
    tells the square apart."""
    if n >= 10**MAX_DISC_DIGITS:
        raise ValueError(f"sqrt({n}): discriminants have at most {MAX_DISC_DIGITS} digits")
    s, f, k = 1, 1, 2
    while k * k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            s *= k
        if n % k == 0:
            n //= k
            f *= k
        k += 1
    r = isqrt(n)
    if r > 1 and r * r == n:
        return s * r, f
    return s, f * n


def _new(a: int, b: int, den: int, disc: int) -> "Scalar":
    """The reduced Scalar (a + b*sqrt(disc)) / den, for den != 0 and b = 0
    whenever disc = 0."""
    if den != 1:
        g = gcd(a, b, den)
        if den < 0:
            g = -g
        if g != 1:
            a, b, den = a // g, b // g, den // g
    self = object.__new__(Scalar)
    self.a = a
    self.b = b
    self.den = den
    self.disc = disc if b else 0
    return self


def _coerce(value):
    """The operand of every field operation: value as a Scalar when it is a
    Scalar, an int (bool included) or a Fraction, else None."""
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return _new(value.numerator, 0, value.denominator, 0)
    return None


def _as_scalar(x) -> "Scalar":
    """x as a Scalar: a Scalar passes through, anything else goes to Scalar(x)."""
    return x if isinstance(x, Scalar) else Scalar(x)


def _join(d: int, e: int) -> int:
    """The common disc of two discs, which are equal or have one 0."""
    if d and e and d != e:
        raise MixedDiscriminant(d, e)
    return d or e


def _sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d)."""
    if not b:
        return (a > 0) - (a < 0)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    # a and b have strictly opposite signs: compare a^2 with b^2 d
    t = a * a - b * b * d
    s = (t > 0) - (t < 0)
    return s if a > 0 else -s


def _floor(a: int, b: int, den: int, disc: int) -> int:
    """floor((a + b*sqrt(disc)) / den) for den > 0, with disc square-free and
    > 1 whenever b != 0, so that floor(b*sqrt(disc)) is an exact isqrt."""
    if b:
        t = isqrt(b * b * disc)
        a += t if b > 0 else -t - 1
    return a // den


# A vector of Scalars of one field is held as one record (den, disc, A, B):
# entry i is (A_i + B_i*sqrt(disc)) / den for integers A_i and B_i over one
# den > 0, with gcd(den, A, B) = 1 and disc = 0 exactly when every B_i is 0.
# That form is unique, so records compare and hash structurally.


def _record(values) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The record of a sequence of Scalars, over the lcm of their reduced
    denominators (which leaves no common factor).  Raises MixedDiscriminant
    when two values lie in distinct irrational fields."""
    den = math.lcm(*[v.den for v in values])
    disc, A, B = 0, [], []
    for v in values:
        t = den // v.den
        A.append(v.a * t)
        B.append(v.b * t)
        disc = _join(disc, v.disc)
    return den, disc, tuple(A), tuple(B)


def _reduce(den: int, disc: int, A, B) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The record of integer arithmetic's result (A_i + B_i*sqrt(disc)) / den
    for den > 0: one gcd divides out the common factor."""
    g = gcd(den, *A, *B)
    if g != 1:
        den, A, B = den // g, tuple(a // g for a in A), tuple(b // g for b in B)
    return den, disc if any(B) else 0, tuple(A), tuple(B)


class _Frozen:
    """Base of the library's immutable value classes.  The fields are the
    subclass's __slots__, set once in __init__ through object.__setattr__;
    assigning or deleting one afterwards raises AttributeError.  The repr
    lists each field as name=value, in slot order, and a pickle stores the
    fields.  Each subclass writes its own __eq__ (same class, else
    NotImplemented) and __hash__, over a direct tuple of its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return _unpickle, (type(self), tuple(getattr(self, name) for name in self.__slots__))


def _unpickle(cls, values):
    """The _Frozen instance of class cls with these field values."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    return obj


class Scalar:
    """Immutable element of Q or Q(sqrt(d)), rat + surd sqrt(disc), from
    exact parts: a float part raises TypeError."""

    __slots__ = ("a", "b", "den", "disc")

    def __init__(self, rat=0, surd=0, disc: int = 0):
        if disc < 0:
            raise ValueError(f"negative discriminant {disc}")
        if type(rat) is int and type(surd) is int and not surd:
            self.a, self.b, self.den, self.disc = rat, 0, 1, 0
            return
        if isinstance(rat, float) or isinstance(surd, float):
            # a float is a binary fraction: 0.1 would become 3602879701896397/2**55
            raise TypeError(f"Scalar parts must be exact, not float: {rat!r}, {surd!r}")
        rat = rat if isinstance(rat, Fraction) else Fraction(rat)
        surd = surd if isinstance(surd, Fraction) else Fraction(surd)
        if surd:
            s, f = _squarefree_split(disc)
            surd *= s
            disc = f
            if disc <= 1:
                rat += surd * disc
                surd = Fraction(0)
                disc = 0
        else:
            disc = 0
        p, q = rat.numerator, rat.denominator
        r, s = surd.numerator, surd.denominator
        den = q * s // gcd(q, s)
        # rat and surd are in lowest terms, so a, b and den have no common factor
        self.a = p * (den // q)
        self.b = r * (den // s)
        self.den = den
        self.disc = disc

    @property
    def rat(self) -> Fraction:
        """The rational part, a / den."""
        return Fraction(self.a, self.den)

    @property
    def surd(self) -> Fraction:
        """The coefficient of sqrt(disc), b / den."""
        return Fraction(self.b, self.den)

    # ---- field operations ------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        return _new(self.a * d2 + o.a * d1, self.b * d2 + o.b * d1, d1 * d2, _join(self.disc, o.disc))

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        d = _join(self.disc, o.disc)
        return _new(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, self.den * o.den, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise DivisionByZero("scalar division by zero")
        # times the inverse: the conjugate n*(a2 - b2 sqrt(d)) over the norm
        # a2^2 - b2^2 d, which is nonzero since sqrt(d) is irrational
        a1, b1, a2, b2, n = self.a, self.b, o.a, o.b, o.den
        d = _join(self.disc, o.disc)
        return _new((a1 * a2 - b1 * b2 * d) * n, (b1 * a2 - a1 * b2) * n, self.den * (a2 * a2 - b2 * b2 * d), d)

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return _new(-self.a, -self.b, self.den, self.disc)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = _new(1, 0, 1, 0)
        for _ in range(n):
            out = out * self
        return out

    # ---- order -----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0 or 1."""
        return _sign(self.a, self.b, self.disc)

    def _cmp(self, other) -> int:
        o = _coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Scalar with {type(other).__name__}")
        d1, d2 = self.den, o.den
        return _sign(self.a * d2 - o.a * d1, self.b * d2 - o.b * d1, _join(self.disc, o.disc))

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.den == o.den and self.disc == o.disc

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.b:
            return hash((self.a, self.b, self.den, self.disc))
        return hash(Fraction(self.a, self.den))

    def __bool__(self):
        return bool(self.a or self.b)

    # ---- rounding --------------------------------------------------------

    def __floor__(self) -> int:
        return _floor(self.a, self.b, self.den, self.disc)

    def __ceil__(self) -> int:
        return -math.floor(-self)

    def is_integer(self) -> bool:
        return not self.b and self.den == 1

    # ---- presentation ----------------------------------------------------

    def decimal(self, digits: int = 20) -> str:
        """Fixed-point decimal rendering, rounded down toward -infinity (so
        -sqrt(2) shows as -1.4143 at 4 digits), for display only.  Raises
        ValueError for a negative digit count."""
        digits = index(digits)
        if digits < 0:
            raise ValueError(f"decimal needs digits >= 0, got {digits}")
        scale = 10**digits
        n = _floor(self.a * scale, self.b * scale, self.den, self.disc)
        sign = "-" if n < 0 else ""
        n = abs(n)
        return f"{sign}{n // scale}.{n % scale:0{digits}d}"

    def __str__(self):
        if not self.b:
            return _frac_str(self.rat)
        head = _frac_str(self.rat) if self.a else ""
        op = "-" if self.b < 0 else ("+" if head else "")
        coef = abs(self.surd)
        body = "" if coef == 1 else _frac_str(coef) + "*"
        return f"{head}{op}{body}sqrt({self.disc})"

    def __repr__(self):
        return f"Scalar('{self}')"

    def __reduce__(self):
        return (Scalar, (self.rat, self.surd, self.disc))


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def sqrt(d: int) -> Scalar:
    """The positive square root of a non-negative integer, as a Scalar."""
    return Scalar(0, 1, d)


_RAT = r"[0-9]+(?:/[0-9]+)?"
# the rational head must be followed by a sign or the end, so that greedy
# backtracking cannot split "1/10*sqrt(2)" into head 1/1 and coefficient 0
_LITERAL = re.compile(
    rf"^(?P<a>[+-]?{_RAT}(?=$|[+-]))?(?:(?P<sign>[+-])?(?:(?P<b>{_RAT})\*)?sqrt\((?P<d>[0-9]+)\))?$"
)


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar literal: 'p/q', '[p/q +- ][r/s*]sqrt(d)'.

    Whitespace-insensitive.  Raises ValueError on malformed input.
    """
    compact = "".join(text.split())
    m = _LITERAL.match(compact)
    if not m or not compact:
        raise ValueError(f"bad scalar literal {text!r}")
    a, sign, b, d = m.group("a"), m.group("sign"), m.group("b"), m.group("d")
    if a is None and d is None:
        raise ValueError(f"bad scalar literal {text!r}")
    try:
        rat = Fraction(a) if a is not None else Fraction(0)
        surd = Fraction(0)
        disc = 0
        if d is not None:
            surd = Fraction(b) if b is not None else Fraction(1)
            if sign == "-":
                surd = -surd
            disc = int(d)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return Scalar(rat, surd, disc)


def scalar_cmp(x, y) -> int:
    """-1 (LT), 0 (EQ) or 1 (GT), exactly."""
    return _as_scalar(x)._cmp(y)


def scalar_floor(x) -> int:
    return math.floor(_as_scalar(x))
