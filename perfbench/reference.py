"""Closed-form section counts used as golden values by the hilbert workload.

Every value here is computed with integer and Fraction arithmetic only, so
the goldens do not depend on the library's Scalar type, its floor or its
lattice enumeration.  A quadratic number is a pair (r, s) meaning
r + s*sqrt(2).
"""

from __future__ import annotations

import math
from fractions import Fraction

DISC = 2


def q_mul(x, y):
    """Product of r + s*sqrt(2) numbers given as (r, s) pairs."""
    return (x[0] * y[0] + DISC * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q_floor(x) -> int:
    """floor(r + s*sqrt(2)) by integer square roots."""
    r, s = Fraction(x[0]), Fraction(x[1])
    if not s:
        return math.floor(r)
    q = math.lcm(r.denominator, s.denominator)
    a, b = int(r * q), int(s * q)
    root = math.isqrt(b * b * DISC)  # b*b*2 is never a square, so b*sqrt(2) is not an integer
    floor_b = root if b > 0 else -root - 1
    return (a + floor_b) // q


def _series(lo: int, hi: int, c: int, e: int) -> int:
    """sum over lo <= t <= hi of max(0, c + e*t), for e >= 0."""
    if e == 0:
        return max(0, c) * max(0, hi - lo + 1)
    lo = max(lo, -((c - 1) // e))  # first t with c + e*t >= 1
    if lo > hi:
        return 0
    count = hi - lo + 1
    return count * c + e * (lo + hi) * count // 2


def h0_projective(floors) -> int:
    """h0 on P^n of a divisor whose rounded coefficients are `floors`:
    C(N + n, n) with N their sum."""
    n = len(floors) - 1
    total = sum(floors)
    return math.comb(total + n, n) if total >= 0 else 0


def h0_p1xp1(floors) -> int:
    f0, f1, f2, f3 = floors
    return max(0, f0 + f2 + 1) * max(0, f1 + f3 + 1)


def h0_hirzebruch_fan(floors, e: int) -> int:
    """Toric F_e with rays (1,0), (0,1), (-1,e), (0,-1): for u2 in [-b1, b3]
    the first coordinate runs over b0 + b2 + e*u2 + 1 values."""
    b0, b1, b2, b3 = floors
    return _series(-b1, b3, b0 + b2 + 1, e)


def h0_surface_class(x: int, y: int, e: int) -> int:
    """Sections of x*E + y*F on F_e: sum over 0 <= k <= x of max(0, y - k*e + 1)."""
    if x < 0:
        return 0
    # substitute t = -k so the slope is non-negative
    return _series(-x, 0, y + 1, e)


def twisted_surface_h0(m, e: int) -> int:
    """h0 of floor(m * (C + F1 - F2 + sqrt(2) (F3 - F4))) on F_e."""
    fc = q_floor(m)
    fibers = (
        q_floor(m),
        q_floor(q_mul(m, (Fraction(-1), Fraction(0)))),
        q_floor(q_mul(m, (Fraction(0), Fraction(1)))),
        q_floor(q_mul(m, (Fraction(0), Fraction(-1)))),
    )
    return h0_surface_class(fc, e * fc + sum(fibers), e)


def sigma_oracle_p2(coeffs, m: int):
    """(1/m) min over sections of mD on P2 of the multiplicity along ray 0.

    The minimum sits on the slice u1 = -floor(m a0), which meets the
    triangle whenever the rounded coefficients sum to N >= 0; the value is
    frac(m a0) / m, returned as (r, s).
    """
    scaled = [q_mul((Fraction(m), Fraction(0)), c) for c in coeffs]
    if sum(q_floor(c) for c in scaled) < 0:
        raise ValueError("mD has no sections")
    r, s = scaled[0]
    return ((r - q_floor(scaled[0])) / m, s / m)
