"""Small exact linear algebra helpers.

All routines are generic over the entry type: python ints are lifted to
Fractions on entry, so integer data gives Fraction results.  A Scalar entry,
such as a polytope offset, turns every result it reaches into a Scalar,
because Fraction defers to Scalar's reflected dunders; so the same Gaussian
elimination serves rational and quadratic-field data.

In the library the elimination runs on integer data only: solve_square
gives toric's cone coordinates and the inverses in the vertex table of
polyhedra, both once per fan or normal set.  Elimination on Scalar offsets
is left to the test oracles.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

__all__ = [
    "solve_square",
    "matrix_rank",
    "nullspace_vector",
    "kernel_basis",
    "primitive",
]


def _lift(x):
    return Fraction(x) if isinstance(x, int) else x


def solve_square(matrix, rhs):
    """Solve an n x n system exactly; returns None when singular."""
    n = len(rhs)
    aug = [[_lift(x) for x in matrix[i]] + [_lift(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        prow = aug[col]
        pval = prow[col]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if f != 0:
                ratio = f / pval
                aug[r] = [a - ratio * b for a, b in zip(aug[r], prow)]
    return tuple(aug[i][n] / aug[i][i] for i in range(n))


def matrix_rank(rows) -> int:
    rows = [[_lift(x) for x in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            if f != 0:
                ratio = f / pval
                rows[r] = [a - ratio * b for a, b in zip(rows[r], prow)]
        rank += 1
        col += 1
    return rank


def nullspace_vector(rows, dim):
    """One nonzero vector orthogonal to all rows, or None if none exists."""
    rows = [[_lift(x) for x in r] for r in rows]
    pivots = []
    rank = 0
    for col in range(dim):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pval = rows[rank][col]
        rows[rank] = [x / pval for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    if rank == dim:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    vec = [Fraction(0)] * dim
    vec[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -rows[r][free]
    return tuple(vec)


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
