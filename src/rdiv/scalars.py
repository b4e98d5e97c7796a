"""Exact arithmetic in Q and in a real quadratic field Q(sqrt(d)).

A Scalar is a value (a + b*sqrt(disc)) / den held as plain integers, with
den > 0, gcd(a, b, den) = 1 and a square-free disc > 1, or disc = 0 exactly
when b = 0 (the rational values).  This reduced form is unique, so equality
is structural.  A Scalar is built from the numerators and denominators of
its parts, and written as text from its triple at any length.  Each field
operation reads its operand (a Scalar, an int or a Fraction) through
_coerce and runs one formula: integer products and one three-way gcd
(Cohen, A Course in Computational Algebraic Number Theory, 1993).
Rational values hash like the equal int or Fraction.  One instance works
inside a single field: combining scalars from distinct irrational fields
raises MixedDiscriminant instead of building a compositum.
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
    """Base of the library's immutable value classes.  A value is its
    fields, the subclass's __slots__: _set(self, *fields) stores them once,
    in slot order, and assigning or deleting one afterwards raises
    AttributeError.  cls._make(*fields) is the one maker of a value from
    fields that are already checked, as namedtuple's _make is: a new
    instance, no __init__, and each field stored through its slot.
    __eq__ holds for the same class with equal fields (another class gets
    NotImplemented), __hash__ is the hash of the field tuple, the repr
    lists each field as name=value and a pickle stores the fields.
    __init_subclass__ writes _set, _make, __eq__ and __hash__ out as source
    and compiles them once per class, as collections.namedtuple does: the
    caches key on these values, and a generic rule reading the slots
    through operator.attrgetter makes == about 1.5 times as slow."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        fields = ", ".join(names)
        stores = "".join(f"    _set_{name}(self, {name})\n" for name in names)
        mine, theirs = ("".join(f"{obj}.{name}, " for name in names) for obj in ("self", "other"))
        source = (
            f"def _set(self, {fields}):\n{stores}"
            f"def _make({fields}):\n    self = _new(cls)\n{stores}    return self\n"
            "def __eq__(self, other):\n"
            "    if type(other) is not cls:\n"
            "        return NotImplemented\n"
            f"    return ({mine}) == ({theirs})\n"
            "def __hash__(self):\n"
            f"    return hash(({mine}))\n"
        )
        namespace = {f"_set_{name}": cls.__dict__[name].__set__ for name in names}
        namespace.update(cls=cls, _new=object.__new__, __name__=cls.__module__)
        exec(source, namespace)
        for method in ("_set", "_make", "__eq__", "__hash__"):
            function = namespace[method]
            function.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, staticmethod(function) if method == "_make" else function)

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
    return cls._make(*values)


class Scalar:
    """Immutable element of Q or Q(sqrt(d)), rat + surd sqrt(disc), from
    exact parts: an int or a Fraction part is read as its numerator and
    denominator, and the reduced triple is built from those integers and
    one gcd (any other part goes through Fraction(part) first); a float
    part raises TypeError."""

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
        p, q = _ratio(rat)
        r, s = _ratio(surd)
        if not r:  # p/q is an int's or a Fraction's, so in lowest terms
            self.a, self.b, self.den, self.disc = p, 0, q, 0
            return
        a, b, den, disc = _triple(p, q, r, s, disc)
        g = gcd(a, b, den)
        self.a, self.b, self.den, self.disc = a // g, b // g, den // g, disc

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
        # square and multiply: one product per bit of n
        out, base = _new(1, 0, 1, 0), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
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
        -sqrt(2) shows as -1.4143 at 4 digits), for display only, and at
        any length, as __str__ is.  Raises ValueError for a negative digit
        count."""
        digits = index(digits)
        if digits < 0:
            raise ValueError(f"decimal needs digits >= 0, got {digits}")
        scale = 10**digits
        n = _floor(self.a * scale, self.b * scale, self.den, self.disc)
        sign = "-" if n < 0 else ""
        whole, frac = divmod(abs(n), scale)
        try:
            return f"{sign}{whole}.{frac:0{digits}d}"
        except ValueError:  # past the interpreter's int-to-str digit limit
            return f"{sign}{_long_digits(whole)}.{_long_digits(frac).rjust(digits, '0')}"

    def __str__(self):
        """The literal parse_scalar reads back: p/q, and [p/q+-][r/s*]sqrt(d)
        with the rational part left out when 0, written from the reduced
        triple with one gcd per irrational part (a rational triple is in
        lowest terms already).  Any length prints without touching the
        interpreter: str(int) below its int-to-str digit limit, _long_digits
        past it."""
        a, b, den = self.a, self.b, self.den
        if not b:
            return _quotient(a, den)  # the triple is reduced: gcd(a, den) = 1
        g = gcd(a, den)
        head = _quotient(a // g, den // g) if a else ""
        op = "-" if b < 0 else ("+" if head else "")
        b = abs(b)
        g = gcd(b, den)
        body = "" if b == den else _quotient(b // g, den // g) + "*"
        return f"{head}{op}{body}sqrt({self.disc})"

    def __repr__(self):
        return f"Scalar('{self}')"

    def __reduce__(self):
        return (Scalar, (self.rat, self.surd, self.disc))


def _ratio(x) -> tuple[int, int]:
    """The numerator and positive denominator of an exact part: an int
    (bool included) or a Fraction as it stands, anything else through
    Fraction(x), which reads a numbers.Rational, a Decimal or a string."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def _triple(p: int, q: int, r: int, s: int, disc: int) -> tuple[int, int, int, int]:
    """(a, b, den, disc) with (a + b*sqrt(disc)) / den = p/q + r/s*sqrt(disc)
    for q, s > 0 and disc >= 0, not reduced: den > 0, and disc square-free
    and > 1 when b != 0, 0 when b = 0.  Raises ValueError for a disc past
    MAX_DISC_DIGITS under a nonzero r."""
    if not r:
        return p, 0, q, 0
    root, disc = _squarefree_split(disc)
    a, b, den = p * s, r * root * q, q * s
    if disc <= 1:  # sqrt(0) = 0 and sqrt(1) = 1
        return a + b * disc, 0, den, 0
    return a, b, den, disc


# Pieces of at most this many digits convert with str(): the interpreter's
# digit limit is 0 (none) or at least 640.
_PIECE_DIGITS = 512


def _long_digits(n: int) -> str:
    """str(n) at any length, without the interpreter's limit on int-to-str
    conversion: split n at 10**h with h about half its digits, recursively,
    down to pieces of at most _PIECE_DIGITS digits, each a str() call."""
    if n < 0:
        return "-" + _long_digits(-n)
    powers = {}

    def digits(n: int, width: int) -> str:
        """n < 10**width, written with exactly width digits."""
        if width <= _PIECE_DIGITS:
            return str(n).zfill(width)
        h = width // 2
        if h not in powers:
            powers[h] = 10**h
        hi, lo = divmod(n, powers[h])
        return digits(hi, width - h) + digits(lo, h)

    # 4/13 > log10(2), so this width has room for every digit of n
    return digits(n, n.bit_length() * 4 // 13 + 1).lstrip("0") or "0"


def _quotient(n: int, d: int) -> str:
    """n/d as a literal, n alone when d = 1, at any length."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # past the interpreter's int-to-str digit limit
        return _long_digits(n) if d == 1 else f"{_long_digits(n)}/{_long_digits(d)}"


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
    p, q = _literal_ratio(a or "0")
    r, s = _literal_ratio(b or "1") if d is not None else (0, 1)
    if not q or not s:
        raise ValueError(f"zero denominator in {text!r}")
    if sign == "-":
        r = -r
    return _new(*_triple(p, q, r, s, int(d) if d is not None else 0))


def _literal_ratio(text: str) -> tuple[int, int]:
    """The numerator and denominator that a matched '[+-]p[/q]' writes."""
    num, _, den = text.partition("/")
    return int(num), int(den) if den else 1
