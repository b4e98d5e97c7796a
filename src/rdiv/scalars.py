"""Exact arithmetic in Q and in a real quadratic field Q(sqrt(d)).

A Scalar is a value rat + surd*sqrt(disc) with rational rat, surd and a
square-free non-negative integer disc.  Rational values are canonicalized
to disc = 0, so equality and hashing are structural.  One instance works
inside a single field: combining scalars from distinct irrational fields
raises MixedDiscriminant instead of building a compositum.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import DivisionByZero, MixedDiscriminant

__all__ = [
    "Scalar",
    "sqrt",
    "parse_scalar",
    "scalar_cmp",
    "scalar_floor",
]


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = s*s*f with f square-free; returns (s, f)."""
    s, f, k = 1, 1, 2
    while k * k <= n:
        while n % (k * k) == 0:
            n //= k * k
            s *= k
        if n % k == 0:
            n //= k
            f *= k
        k += 1
    return s, f * n


class Scalar:
    """Immutable element of Q or Q(sqrt(d))."""

    __slots__ = ("rat", "surd", "disc")

    def __init__(self, rat=0, surd=0, disc: int = 0):
        rat = rat if isinstance(rat, Fraction) else Fraction(rat)
        surd = surd if isinstance(surd, Fraction) else Fraction(surd)
        if disc < 0:
            raise ValueError(f"negative discriminant {disc}")
        if surd:
            s, f = _squarefree_split(disc)
            surd *= s
            disc = f
            if disc <= 1:
                rat += surd * disc
                surd = Fraction(0)
                disc = 0
        else:
            surd = Fraction(0)
            disc = 0
        self.rat = rat
        self.surd = surd
        self.disc = disc

    # internal: operands already canonical Fractions, disc valid
    @classmethod
    def _make(cls, rat: Fraction, surd: Fraction, disc: int) -> "Scalar":
        self = object.__new__(cls)
        self.rat = rat
        if surd:
            self.surd = surd
            self.disc = disc
        else:
            self.surd = Fraction(0)
            self.disc = 0
        return self

    @staticmethod
    def _coerce(value):
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar._make(Fraction(value), Fraction(0), 0)
        return None

    def _join_disc(self, other: "Scalar") -> int:
        if self.disc and other.disc and self.disc != other.disc:
            raise MixedDiscriminant(self.disc, other.disc)
        return self.disc or other.disc

    # ---- field operations ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_disc(o)
        return Scalar._make(self.rat + o.rat, self.surd + o.surd, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_disc(o)
        return Scalar._make(self.rat - o.rat, self.surd - o.surd, d)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_disc(o)
        if not o.surd:
            return Scalar._make(self.rat * o.rat, self.surd * o.rat, d)
        if not self.surd:
            return Scalar._make(self.rat * o.rat, self.rat * o.surd, d)
        return Scalar._make(
            self.rat * o.rat + self.surd * o.surd * d,
            self.rat * o.surd + self.surd * o.rat,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.rat and not o.surd:
            raise DivisionByZero("scalar division by zero")
        d = self._join_disc(o)
        if not o.surd:
            return Scalar._make(self.rat / o.rat, self.surd / o.rat, d)
        # multiply by the conjugate; the norm is nonzero since sqrt(d) is irrational
        norm = o.rat * o.rat - o.surd * o.surd * d
        return self * Scalar._make(o.rat / norm, -o.surd / norm, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return Scalar._make(-self.rat, -self.surd, self.disc)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Scalar._make(Fraction(1), Fraction(0), 0)
        for _ in range(n):
            out = out * self
        return out

    # ---- order -----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0 or 1."""
        a, b = self.rat, self.surd
        if not b:
            return (a > 0) - (a < 0)
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
            return -1
        # a and b have strictly opposite signs: compare a^2 with b^2 d
        t = a * a - b * b * self.disc
        s = (t > 0) - (t < 0)
        return s if a > 0 else -s

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Scalar with {type(other).__name__}")
        return (self - o).sign()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.rat, self.surd, self.disc) == (o.rat, o.surd, o.disc)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.rat, self.surd, self.disc))

    def __bool__(self):
        return bool(self.rat) or bool(self.surd)

    # ---- rounding --------------------------------------------------------

    def __floor__(self) -> int:
        a, b = self.rat.numerator, self.rat.denominator
        if not self.surd:
            return a // b
        # value = (a*q + m*sqrt(d)) / (b*q); floor(m*sqrt(d)) is an isqrt
        p, q = self.surd.numerator, self.surd.denominator
        m = p * b
        t = math.isqrt(m * m * self.disc)
        if m < 0:
            # exact because disc is square-free and > 1 whenever surd != 0
            t = -t - 1
        return (a * q + t) // (b * q)

    def __ceil__(self) -> int:
        return -math.floor(-self)

    def is_integer(self) -> bool:
        return not self.surd and self.rat.denominator == 1

    # ---- presentation ----------------------------------------------------

    def decimal(self, digits: int = 20) -> str:
        """Fixed-point decimal rendering (truncated), for display only."""
        scale = 10**digits
        approx = self.rat
        if self.surd:
            guard = Fraction(math.isqrt(self.disc * 10 ** (2 * digits + 20)), 10 ** (digits + 10))
            approx = self.rat + self.surd * guard
        n = math.floor(approx * scale)
        sign = "-" if n < 0 else ""
        n = abs(n)
        return f"{sign}{n // scale}.{n % scale:0{digits}d}"

    def __str__(self):
        if not self.surd:
            return _frac_str(self.rat)
        head = _frac_str(self.rat) if self.rat else ""
        op = "-" if self.surd < 0 else ("+" if head else "")
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
    x = x if isinstance(x, Scalar) else Scalar(x)
    return x._cmp(y)


def scalar_floor(x) -> int:
    return math.floor(x if isinstance(x, Scalar) else Scalar(x))
