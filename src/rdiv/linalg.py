"""Small exact integer linear algebra.

inverse is the library's one linear solve: every normals-only fact the
toric side needs comes from inverting a square integer matrix, namely the
vertices and boundedness of a section polytope (polyhedra's vertex table)
and the cone coordinates behind the fan's simplicial, overlap and wall
tests (toric).  It runs fraction-free, so every entry stays an integer.
unimodular_basis completes an integer vector g to a lattice basis whose
first vector y has <g, y> = gcd(g) and whose others span g's kernel.  Its
last n - 1 vectors give the lattice of a hyperplane, for the faces that
Lasserre's recursion measures (polyhedra's face table, cached there per
normal set and g), and the whole basis puts <g, u> on the first
coordinate, for polyhedra's lattice minimum.
"""

from __future__ import annotations

from math import gcd

__all__ = ["inverse", "primitive", "unimodular_basis"]


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


def unimodular_basis(g: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Z-basis (y, k_1, ..., k_(n-1)) of Z^n for integer g != 0, with
    <g, y> = gcd(g) and <g, k_i> = 0: the columns of a unimodular matrix, so
    the k_i span the kernel lattice.

    Column-reduces g to +-gcd(g)*e_1 by unimodular operations tracked on the
    identity; the first column, negated if needed, is y.
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
            cols[0], cols[k] = cols[k], cols[0]
            if w[k] < 0:
                cols[0] = [-x for x in cols[0]]
            return tuple(map(tuple, cols))
        i0 = min(nonzero, key=lambda i: abs(w[i]))
        for j in nonzero:
            if j == i0:
                continue
            q = w[j] // w[i0]
            if q:
                w[j] -= q * w[i0]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[i0])]
