"""Small exact integer linear algebra.

inverse is the library's one linear solve: every normals-only fact the
toric side needs comes from inverting a square integer matrix, namely the
vertices, boundedness and facet-record weights of a section polytope
(polyhedra's vertex table, which also reads the determinant) and the cone
coordinates behind the fan's simplicial, overlap and wall
tests (toric).  It runs fraction-free, so every entry stays an integer.
"""

from __future__ import annotations

from math import gcd

__all__ = ["inverse", "primitive"]


def inverse(rows):
    """rows^-1 = M / q for a square integer matrix, as (M, q, |det rows|)
    with integer rows M, q > 0 and gcd(q, M) = 1; None when the matrix is
    singular.

    Fraction-free Gauss-Jordan on [rows | I] (Bareiss, Math. Comp. 22,
    1968): each step divides exactly by the previous pivot, so the left
    block ends as d I and the right block as d rows^-1, with d = +-det."""
    n = len(rows)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    prev = 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return None
        a[k], a[piv] = a[piv], a[k]
        pk = a[k]
        p = pk[k]
        for r in range(n):
            if r != k:
                f = a[r][k]
                a[r] = [(p * x - f * y) // prev for x, y in zip(a[r], pk)]
        prev = p
    g = gcd(prev, *(x for r in a for x in r[n:]))
    if prev < 0:
        g = -g
    return tuple(tuple(x // g for x in r[n:]) for r in a), prev // g, abs(prev)


def primitive(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in vec)

