"""Small exact integer linear algebra.

inverse is the library's one linear solve: every normals-only fact the
toric side needs comes from inverting a square integer matrix, namely the
vertices and boundedness of a section polytope (polyhedra's vertex table)
and the cone coordinates behind the fan's simplicial, overlap and wall
tests (toric).  It runs fraction-free, so every entry stays an integer.
kernel_basis gives a lattice basis of a hyperplane, for the faces that
Lasserre's recursion measures.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

__all__ = ["inverse", "kernel_basis", "primitive"]


def inverse(rows):
    """rows^-1 = M / q for a square integer matrix, as (M, q) with integer
    rows M, q > 0 and gcd(q, M) = 1; None when the matrix is singular.

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
    return tuple(tuple(x // g for x in r[n:]) for r in a), prev // g


def primitive(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in vec)


@lru_cache(maxsize=4096)
def kernel_basis(g: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Z-basis of the lattice {x in Z^n : <g, x> = 0} for integer g != 0.

    Column-reduces g to gcd(g)*e_1 by unimodular operations tracked on the
    identity; the remaining columns span the kernel lattice.
    """
    n = len(g)
    w = list(g)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    while True:
        nonzero = [i for i in range(n) if w[i] != 0]
        if not nonzero:
            raise ValueError("zero vector")
        if len(nonzero) == 1:
            k = nonzero[0]
            w[0], w[k] = w[k], w[0]
            cols[0], cols[k] = cols[k], cols[0]
            return tuple(tuple(cols[j]) for j in range(1, n))
        i0 = min(nonzero, key=lambda i: abs(w[i]))
        for j in nonzero:
            if j == i0:
                continue
            q = w[j] // w[i0]
            if q:
                w[j] -= q * w[i0]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[i0])]
