"""Exact H-polytope computations: LP, vertices, volumes, lattice points.

Polytopes are given by integer normal vectors and offsets, with each row
read as <u, normal> >= offset.  Everything is exact, and every quantity
takes one path, on the polytope's offset record: each offset is
(A_i + B_i sqrt(disc)) / den for integers A_i and B_i over one positive
den.  The internals compute on those integers; a Scalar is built only for
an LP value handed back, never for the facet record.  A rational record
(disc 0) has every B_i = 0, so the row test, the vertices and the facet
record sum no product with B there and sign a value by its rational part
alone, in the same pass that handles a surd.

What depends on the normals alone is computed once per normal set, in a
bounded cache, since the section polytopes of one fan share their normals
and differ only in offsets.  The vertex table holds, for each nonsingular
n-subset of rows, its inverse M / q from the integer linalg.inverse (an
integer matrix over a positive integer denominator) and the integer forms
g_r M that test every other row r on the subset's candidate vertex, so a
polytope's vertices cost integer products and one sign test per row, and
no elimination.

Boundedness is read off the same table, once per normal set.  Column k of
M is the edge direction of the subset's cone on which every row of the
subset but the k-th vanishes, and the forms give its products with the
other rows; the recession cone {u : <u, g> >= 0} is the origin alone
exactly when the table is not empty (the normals have full rank) and no
such column has a nonnegative product with every other row.

A polytope's row test runs in one place, _feasible: it tests every row
r at each candidate v as <g_r, v> - o_r >= 0 on integers, and yields the
feasible candidates with the rows they meet with slack 0.  Vertices have
one form, the integer numerators (X + Y sqrt(disc)) / Q of _vertices,
never built as Scalars or cached.  A linear objective's minimum over a
bounded polytope is at a vertex, so _minima reads a list of integer
objectives in one pass over them, with no simplex: lp_solve's Scalars
serve toric's sigma on the rays of B+, and _lattice_min rounds integers.

Bigness and the facet record come from one lexicographic selection on
those rows of slack 0, _selected.  With each offset o_i moved to o_i +
eps^(i+1) the polytope is simple for small eps > 0, and its vertices are
the feasible entries whose rows of slack 0 pass a sign test the table
holds per row.  _has_interior is "some entry is selected", since the moved
polytope is empty exactly when p lies in a hyperplane.  The facet record,
each row's face measured in the lattice of its hyperplane, is Lawrence's
volume formula (Math. Comp. 57, 1991; Bueler-Enge-Fukuda 2000)
differentiated in the row's offset: one sum over the selected entries, on
integer numerators over one denominator, kept and handed out as integers,
one record per polytope in a bounded cache, so the callers that read
several rows hash the polytope once.

Lattice counts never leave the integers: on a lattice point <u, normal> is
an integer, so a row holds there exactly when <u, normal> >= ceil(offset),
and each offset is rounded once per polytope, by one floor division (and
one isqrt in Q(sqrt d)).  A count is then taken once per class of the
round-down.  Translating by an integer vector w adds <w, normal> to every
rounded offset and carries lattice points to lattice points, so
lattice_form picks one translate per class, read off the vertex table's
first subset, and the count is cached on that.  On a fan this is exact:
the rounded offsets are the round-down of the divisor, negated, its class
in Cl(X) is its orbit under the principal divisors div(u) for integer u
(Cox-Little-Schenck, Toric Varieties, Thm 4.1.3), and h0 depends on the
class alone.  A real translation is never taken out: D + sqrt(2) div(u)
has the volume of D but not its sections.

A count is an interval in dimension 1 and a polygon in dimension 2,
counted without its vertices: between consecutive crossings of its rows
one lower and one upper edge are active, and the points over that stretch
are two Euclid-like floor sums, so the cost does not grow with the
dilation.  Above that it is a chamber sum over the first coordinate t,
_count_by_chambers.  The heights of the vertices split t's range into
stretches on which the slices keep their tangent cones, and on each
residue class of a stretch modulo the vertex table's period (the lcm of
the (n-1)-minors of the slice normals) the slice count is a polynomial of
degree at most n - 1 in t, by Brion's theorem, so its first n values and
their differences sum the class (Clauss-Loechner's parametric count).  So a
count costs a few slices per stretch and class, each counted by the same
rule one dimension down, and its cost does not grow with the dilation
either.

toric's sigma limit oracle asks for the least <g, u> over the lattice
points, for a ray g.  _lattice_min walks t up the multiples of gcd(g)
from the least <g, v> over the vertices, and counts each cut <g, u> <= t
of the polytope by the same rule: the first cut that holds a lattice
point gives the minimum, and the cost does not grow with the dilation
either.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import index, mul

from .errors import UnboundedPolytope
from .linalg import inverse
from .scalars import Scalar, _as_scalar, _floor, _Frozen, _new, _record, _sign

__all__ = [
    "HPolytope",
    "lp_solve",
    "lattice_points",
    "lattice_form",
    "is_bounded",
]


class HPolytope(_Frozen):
    """{u in R^dim : <u, normal_i> >= offset_i for every row i}, held as its
    offset record: offset_i = (A_i + B_i sqrt(disc)) / den for integers A_i
    and B_i, one den > 0 (the lcm of the reduced offset denominators) and
    one disc (0 when every offset is rational), built by scalars._record,
    or passed to HPolytope._make already canonical with checked normals.
    The record is canonical, so equality and hashing, which _Frozen writes
    over the fields, read it."""

    __slots__ = ("dim", "normals", "den", "disc", "A", "B")

    def __init__(self, dim: int, rows):
        dim = index(dim)
        if dim < 1:
            raise ValueError(f"polytope dimension must be at least 1, got {dim}")
        rows = tuple(rows)
        normals = tuple(tuple(map(index, g)) for g, _ in rows)
        for g in normals:
            if len(g) != dim:
                raise ValueError(f"normal {g} has wrong length for dim {dim}")
            if not any(g):
                raise ValueError("zero normal vector in polytope row")
        self._set(dim, normals, *_record([_as_scalar(o) for _, o in rows]))

    @property
    def rows(self) -> tuple[tuple[tuple[int, ...], Scalar], ...]:
        """(normal, offset) per row, the offsets built as Scalars.  No library
        output reads it.  It stays as the one public read of what a public
        HPolytope holds, whose offset record is private, as TDivisor.coeffs
        is for a divisor."""
        den, disc = self.den, self.disc
        return tuple((g, _new(a, b, den, disc)) for g, a, b in zip(self.normals, self.A, self.B))


# ---------------------------------------------------------------------------
# LP by the vertex minimum


def lp_solve(p: HPolytope, objectives) -> tuple[Scalar, ...] | None:
    """The least <g, v> over the vertices v of a bounded polytope, for each
    integer objective g, in objective order, as Scalars built off _minima;
    None when p is empty.  Raises TypeError for an entry that is not an
    integer, ValueError when an objective's length is not p's dimension,
    and UnboundedPolytope on unbounded input."""
    objectives = [tuple(map(index, g)) for g in objectives]
    if any(len(g) != p.dim for g in objectives):
        raise ValueError("objective length does not match the polytope's dimension")
    best = _minima(p, objectives)
    return None if best is None else tuple(_new(*v, p.disc) for v in best)


def _minima(p: HPolytope, objectives):
    """lp_solve's minima as integers (x, y, Q), each (x + y sqrt(disc)) / Q
    with Q > 0.  Each is attained at a vertex, so one pass over _vertices
    answers every objective: <g, v> = (<g, X> + <g, Y> sqrt(disc)) / Q, and
    two values compare by the sign of their cross-multiplied difference."""
    disc, best = p.disc, None
    for X, Y, Q in _vertices(p):
        values = [(sum(map(mul, g, X)), sum(map(mul, g, Y)), Q) for g in objectives]
        best = values if best is None else [
            (x, y, Q) if _sign(x * q - a * Q, y * q - b * Q, disc) < 0 else (a, b, q)
            for (x, y, _), (a, b, q) in zip(values, best)
        ]
    return best


# ---------------------------------------------------------------------------
# vertices and feasibility


@lru_cache(maxsize=256)
def _vertex_table(normals: tuple[tuple[int, ...], ...], n: int):
    """The normals-only part of vertex enumeration, of the facet record and
    of the lattice count, as (bounded, table, scale, parallel, period).  For
    each nonsingular n-subset S of the rows, in increasing order, the table
    holds (S, M, q, forms, lex, cm, weights) with A_S^-1 = M / q from
    linalg.inverse, and forms the integer (r, w_r = g_r M) of every other
    row r.  The candidate vertex of S is M o_S / q, and <g_r, v> >= o_r
    there is sum_k w_r,k o_S_k >= q o_r.

    lex holds, per row of forms, the lexicographic test of _selected: with
    offsets o_i + eps^(i+1), a row r that S's vertex meets with slack 0
    keeps the slack (sum_k w_r,k eps^(S_k+1) - q eps^(r+1)) / q, whose sign
    for small eps is that of its lowest power of eps.  As S is increasing,
    that is the first nonzero w_r,k when S_k < r, and -q otherwise.

    cm and weights serve Lawrence's formula (see _facet_volumes): cm holds
    <c, m_k> for the columns m_k of M, the edge directions of S's cone, with
    c = (1, t, t^2, ...) for the least t >= 2 that no column of the table is
    orthogonal to, and weights the integer -<c, m_j> gcd(g_S_j) L / (|det
    A_S| prod_k -<c, m_k>) per row S_j of S, for L the lcm of those
    denominators; scale is L (n-1)!.  parallel lists each set of two or more
    rows with one primitive normal, as pairs (i, K / gcd(g_i)) in row order,
    for K the lcm of the set's gcds: o_i K / gcd(g_i) is one value on the
    rows of one hyperplane.  period is the lcm of |det| over the nonsingular
    (n-1)-subsets of the slice normals, each normal less its first entry:
    a slice's vertices are those subsets' inverses applied to its offsets,
    so moving the first coordinate by period moves every one of them by an
    integer vector (see _count_by_chambers).

    bounded is True iff the recession cone {u : <u, g> >= 0 for all g} is
    the origin alone.  Column k of M is zero on every row of S but s_k and
    meets s_k positively, so it lies in the cone exactly when w_r,k >= 0
    for every other row r.  With normals of rank below n the table is empty
    and the cone holds a line.  Otherwise the cone is pointed, and if it is
    not the origin it has an extreme ray, on which n - 1 independent rows
    vanish: the ray is column k of the entry of those rows and one more."""
    bases = [
        (subset, *inv)
        for subset in itertools.combinations(range(len(normals)), n)
        if (inv := inverse([normals[s] for s in subset])) is not None
    ]
    cols = [list(zip(*M)) for _, M, _, _ in bases]
    for t in itertools.count(2):
        cms = [tuple(sum(x * t**i for i, x in enumerate(m)) for m in ms) for ms in cols]
        if all(map(all, cms)):
            break
    dens = [det * math.prod(-x for x in cm) for (*_, det), cm in zip(bases, cms)]
    lcm = math.lcm(*map(abs, dens))
    table = []
    for (subset, M, q, _), ms, cm, d in zip(bases, cols, cms, dens):
        forms = tuple(
            (r, tuple(sum(map(mul, g, m)) for m in ms))
            for r, g in enumerate(normals)
            if r not in subset
        )
        lex = tuple(next((s < r and x > 0 for s, x in zip(subset, w) if x), False) for r, w in forms)
        weights = tuple(-x * math.gcd(*normals[s]) * lcm // d for s, x in zip(subset, cm))
        table.append((subset, M, q, forms, lex, cm, weights))
    bounded = bool(table) and not any(
        all(w[k] >= 0 for _, w in entry[3]) for entry in table for k in range(n)
    )
    by_normal = {}
    for i, g in enumerate(normals):
        k = math.gcd(*g)
        by_normal.setdefault(tuple(x // k for x in g), []).append((i, k))
    parallel = tuple(
        tuple((i, math.lcm(*(k for _, k in rows)) // k) for i, k in rows)
        for rows in by_normal.values()
        if len(rows) > 1
    )
    heads = [g[1:] for g in normals]
    period = math.lcm(
        *(inv[2] for rows in itertools.combinations(heads, n - 1) if (inv := inverse(rows)))
    )
    return bounded, tuple(table), lcm * math.factorial(n - 1), parallel, period


def is_bounded(p: HPolytope) -> bool:
    return _vertex_table(p.normals, p.dim)[0]


def _feasible(p: HPolytope):
    """Yield (entry, a, b, tight) for each entry (S, M, q, forms, ...) of the
    vertex table whose candidate vertex v satisfies every row of p: a and b
    are S's offset numerators (b is 0 on a rational record), and tight the
    positions in forms of the rows r that v meets with slack 0, where the
    row test's <g_r, v> - o_r = (x + y sqrt(disc)) / (q den) has x = y = 0.
    y is summed only when disc is not 0, and with y = 0 the sign is x's.  A
    vertex on more than n rows comes once per entry.  Raises
    UnboundedPolytope."""
    bounded, table = _vertex_table(p.normals, p.dim)[:2]
    if not bounded:
        raise UnboundedPolytope("polytope has a nontrivial recession cone")
    A, B, disc = p.A, p.B, p.disc
    for entry in table:
        subset, q = entry[0], entry[2]
        a, b, tight = [A[s] for s in subset], disc and [B[s] for s in subset], []
        for k, (r, w) in enumerate(entry[3]):
            x = sum(map(mul, a, w)) - q * A[r]
            y = disc and sum(map(mul, b, w)) - q * B[r]
            if (_sign(x, y, disc) if y else x) < 0:
                break
            if not (x or y):
                tight.append(k)
        else:
            yield entry, a, b, tight


def _selected(p: HPolytope):
    """Yield (entry, a, b) of _feasible for each entry whose vertex stays a
    vertex with offsets o_i + eps^(i+1), for every small eps > 0: each row
    of forms passes with a slack > 0, or with a slack 0 and its lex test
    (see _vertex_table), which runs only when some row is tight.  That
    perturbed polytope is simple, since n + 1 of its rows meet only where a
    nonzero polynomial in eps vanishes, so its vertices are these entries,
    once each."""
    for entry, a, b, tight in _feasible(p):
        if not tight or all(entry[4][k] for k in tight):
            yield entry, a, b


def _vertices(p: HPolytope):
    """Yield the vertex (X + Y sqrt(disc)) / Q of each feasible entry, with
    X = M a, Y = M b (0 on a rational record) and Q = q den."""
    for (_, M, q, *_), a, b, _ in _feasible(p):
        Y = [p.disc and sum(map(mul, b, row)) for row in M]
        yield [sum(map(mul, a, row)) for row in M], Y, q * p.den


def _has_interior(p: HPolytope) -> bool:
    """True iff p has an interior point (positive volume), i.e. iff some
    entry is selected.  The polytope with offsets o_i + eps^(i+1) lies in p
    and is empty exactly when p has no interior point.  An interior point
    of p passes every row with room to spare.  A nonempty p without one
    has an implicit equality: weights l_i >= 0, not all 0, with sum l_i g_i
    = 0 and sum l_i o_i = 0, so a point of the moved polytope would give
    0 >= sum l_i eps^(i+1) > 0."""
    return next(_selected(p), None) is not None


# ---------------------------------------------------------------------------
# lattice points


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum of floor((a*i + b) / m) over 0 <= i < n, for n >= 0 and m >= 1.

    The Euclid-like recursion: reduce a and b modulo m, then swap the roles
    of a and m on the transposed lattice-point count; O(log m) steps, any
    signs of a and b."""
    if m == 1:
        # no remainder: the sum is arithmetic, as on every row with |b| = 1
        return a * (n * (n - 1) // 2) + b * n
    total = 0
    while True:
        q, a = divmod(a, m)
        total += q * (n * (n - 1) // 2)
        q, b = divmod(b, m)
        total += q * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _count_2d(rows) -> int:
    """Integer points of the bounded polygon {a*x + b*y >= c} for integer
    rows ((a, b), c).

    Rows with b = 0 bound x.  Every crossing x* of two other rows cuts the
    x-axis at ceil(x*) and floor(x*) + 1, so an integer crossing is a piece
    of its own and no lattice vertex is lost.  Over a piece the order of the
    rows' y-bounds is fixed, so one lower row (b > 0) and one upper row
    (b < 0) are active, compared at the piece's midpoint by integer
    cross-multiplication; the piece holds sum floor(upper) - sum ceil(lower)
    + length points when upper >= lower there, and none otherwise."""
    # the rows with b = 0 keep x in [lo, end), a bound being None when no row
    # sets it; the bounds stay integers, which compare faster than with inf
    lo = end = None
    lower, upper = [], []
    for (a, b), c in rows:
        if b > 0:
            lower.append((a, b, c))
        elif b < 0:
            upper.append((a, b, c))
        elif a > 0:
            t = -(-c // a)
            if lo is None or t > lo:
                lo = t
        else:
            t = c // a + 1
            if end is None or t < end:
                end = t
    slanted = lower + upper
    cuts = set()
    for i, (a, b, c) in enumerate(slanted):
        for a2, b2, c2 in slanted[:i]:
            det = a * b2 - a2 * b
            if det:
                num = c * b2 - c2 * b
                cuts.add(-(-num // det))
                cuts.add(num // det + 1)
    if lo is not None:
        cuts = {t for t in cuts if t >= lo} | {lo}
    if end is not None:
        cuts = {t for t in cuts if t <= end} | {end}
    # the leftmost and rightmost vertices are crossings or lie on b = 0 rows,
    # so every integer point has its x in [cuts[0], cuts[-1])
    cuts = sorted(cuts)
    total = 0
    for p, end in zip(cuts, cuts[1:]):
        s = p + end - 1  # twice the midpoint of the piece [p, end - 1]
        la, lb, lc = lower[0]
        for a, b, c in lower[1:]:
            if (2 * c - a * s) * lb > (2 * lc - la * s) * b:
                la, lb, lc = a, b, c
        ua, ub, uc = upper[0]
        for a, b, c in upper[1:]:
            if (2 * c - a * s) * ub < (2 * uc - ua * s) * b:
                ua, ub, uc = a, b, c
        # upper < lower at the midpoint; ub * lb < 0 flips the cross-multiplication
        if (2 * lc - la * s) * ub < (2 * uc - ua * s) * lb:
            continue
        n = end - p
        # ceil((c - a x)/b) = -floor((a x - c)/b) below, floor((a x - c)/|b|) above
        total += n + _floor_sum(n, lb, la, la * p - lc) + _floor_sum(n, -ub, ua, ua * p - uc)
    return total


def _interval(rows) -> range:
    """The integers t with a*t >= c for every one-dimensional integer row
    ((a,), c), rows bounding t on both sides."""
    lo = max(-(-c // a) for (a,), c in rows if a > 0)
    hi = min(c // a for (a,), c in rows if a < 0)
    return range(lo, hi + 1)


def _ceil_offsets(den: int, disc: int, A, B):
    """ceil((A_i + B_i sqrt(disc)) / den) for every row of an offset record,
    reduced or not; an integer record's own numerators, unrounded."""
    if disc:
        return [-_floor(-a, -b, den, disc) for a, b in zip(A, B)]
    if den == 1:
        return A
    return [-(-a // den) for a in A]


def _integer_rows(p: HPolytope):
    """The rows (g, ceil(offset)) of a bounded polytope, with the lattice
    points of p, since on a lattice point <u, g> is an integer; an integer
    record (a lattice form) is not rounded again.  Raises UnboundedPolytope
    on unbounded input."""
    if not is_bounded(p):
        raise UnboundedPolytope("polytope has a nontrivial recession cone")
    return list(zip(p.normals, _ceil_offsets(p.den, p.disc, p.A, p.B)))


def _count_by_chambers(rows) -> int:
    """Integer points of the bounded polytope of integer rows (g, c), by a
    chamber sum over the first coordinate t in dimension n >= 3 (the
    parametric count of Clauss and Loechner, J. VLSI Signal Processing 19,
    1998).

    The slice at t is the (n-1)-polytope of the rows (h, c_i - a_i t) for
    g_i = (a_i, h) with h != 0; a row with h = 0 bounds t alone, and holds
    between the lowest and the highest vertex, where t runs.  The events
    are the heights of the polytope's vertices, the first coordinates of
    the feasible vertex-table candidates M c_S / q.  Between two of them every slice vertex is where one edge
    crosses height t, tight on that edge's rows, so the slices keep their
    tangent cones, and each vertex is H^-1 (c_T - a_T t) for n - 1 of those
    rows T, whose slice normals H are nonsingular as the edge is not level.
    On a residue class t0 + s period of such a stretch each slice vertex
    therefore moves by s times an integer vector (see _vertex_table), and
    by Brion's theorem the slice count f is a polynomial of degree at most
    n - 1 in s: its N terms sum to sum_j C(N, j+1) Delta^j f(t0) over its
    first n values.  An integer event, and a class of at most n terms, is
    counted slice by slice.  Each slice is counted by the same rule, down to
    _count_2d in dimension 2."""
    n = len(rows[0][0])
    if n == 2:
        return _count_2d(rows)
    _, table, _, _, period = _vertex_table(tuple(g for g, _ in rows), n)
    c = [o for _, o in rows]
    # each event e cuts before ceil(e) and after floor(e): an integer event
    # is a stretch of its own, and the stretches cover [min e, max e]
    cuts = set()
    for subset, M, q, forms, *_ in table:
        cs = [c[s] for s in subset]
        if all(sum(map(mul, w, cs)) >= q * c[r] for r, w in forms):
            x = sum(map(mul, M[0], cs))
            cuts.add(-(-x // q))
            cuts.add(x // q + 1)
    cuts = sorted(cuts)
    cut = [(g[0], g[1:], o) for g, o in rows if any(g[1:])]

    def f(t):
        return _count_by_chambers([(h, o - a * t) for a, h, o in cut])

    total = 0
    for start, end in zip(cuts, cuts[1:]):
        for t0 in range(start, min(end, start + period)):
            terms = (end - 1 - t0) // period + 1
            if terms <= n:
                total += sum(f(t0 + period * s) for s in range(terms))
                continue
            diffs = [f(t0 + period * s) for s in range(n)]
            for j in range(n):
                total += math.comb(terms, j + 1) * diffs[0]
                diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return total


def _lattice_min(p: HPolytope, g: tuple[int, ...]):
    """The least <g, u> over the lattice points u of a bounded polytope, for
    integer g != 0; None when p has no lattice point.

    On the lattice <g, u> is a multiple of k = gcd(g), between the least
    and the greatest <g, v> over the vertices, which one _minima pass reads
    as integers.  So t rises in steps of k from the first multiple of k at
    or above the least, and the first t whose cut, p with the row <u, -g>
    >= -t, holds a lattice point is the minimum.  Each cut is counted as
    lattice_points counts, so the cost does not grow with the dilation."""
    cut = tuple(-x for x in g)
    ends = _minima(p, [g, cut])
    if ends is None:
        return None
    (x, y, q), (x2, y2, q2) = ends
    k = math.gcd(*g)
    rows = _integer_rows(p)
    holds = _interval if p.dim == 1 else _count_by_chambers
    for t in range(-k * (_floor(-x, -y, q, p.disc) // k), _floor(-x2, -y2, q2, p.disc) + 1, k):
        if holds(rows + [(cut, -t)]):
            return t
    return None


def lattice_form(p: HPolytope, c=None) -> HPolytope:
    """The integer polytope {<u, g> >= c'} with the lattice points of p,
    translated by an integer vector chosen from the class alone.  Given c,
    the integer offsets of rows on p's normals, the form is that of the
    polytope {<u, g> >= c}, and p's own offsets are not read: toric.h0
    rounds the offsets of mD + G straight off the records that way.

    With c = ceil(offset) and A_S^-1 = M / q for the first subset S of the
    vertex table, c' = c - G t for t = floor(M c_S / q).  Replacing c by
    c + G w for an integer w moves M c_S / q by exactly w, so c' is the
    same for every integer translate of p: the lattice points of p and of
    lattice_form(p) differ by the translation -t, and translates share a
    form.  With normals of rank below n the table is empty and the rounded
    rows are kept as they are, so that lattice_points still raises."""
    if c is None:
        c = _ceil_offsets(p.den, p.disc, p.A, p.B)
    table = _vertex_table(p.normals, p.dim)[1]
    if table:
        # indexed, not unpacked: this runs once per count, hits included
        entry = table[0]
        subset, M, q = entry[0], entry[1], entry[2]
        cs = [c[s] for s in subset]
        if q == 1:
            # t = M c_S, so c' is 0 on S and c_r - <g_r M, c_S> on every
            # other row r, whose g_r M the table holds
            form = [0] * len(c)
            for r, w in entry[3]:
                form[r] = c[r] - sum(map(mul, w, cs))
            c = form
        else:
            t = [sum(map(mul, row, cs)) // q for row in M]
            c = [x - sum(map(mul, g, t)) for g, x in zip(p.normals, c)]
    return HPolytope._make(p.dim, p.normals, 1, 0, tuple(c), (0,) * len(c))


@lru_cache(maxsize=2048)
def lattice_points(p: HPolytope) -> int:
    """Number of integer points; 0 for empty, error when unbounded.

    No point is listed: an interval in dimension 1, floor sums on the
    polygon in dimension 2 (no vertex is needed there), and a chamber sum
    over the first coordinate above that (_count_by_chambers), which counts
    a few slices per stretch between the vertex table's events, so its cost
    does not grow with the dilation.  One count per record, kept in a
    bounded cache keyed by the canonical record.  Asked on lattice_form(p),
    as toric.h0 asks, that is one count per class of the round-down: D, its
    shifts D + div(u) for integer u, and every divisor whose round-down is
    linearly equivalent to D's share one entry."""
    rows = _integer_rows(p)
    if p.dim == 1:
        return len(_interval(rows))
    return _count_by_chambers(rows)


# ---------------------------------------------------------------------------
# facet volume against the induced lattice


@lru_cache(maxsize=256)
def _facet_volumes(p: HPolytope):
    """The facet record of a bounded polytope, as integers (xs, ys, Q): row
    i's face has (n-1)-volume (xs_i + ys_i sqrt(disc)) / Q in the lattice of
    its hyperplane, for p's disc and one Q > 0; 0 when the face has lower
    dimension, and 0 on every row when p has no interior point.  One entry
    per polytope, so a caller that needs several rows hashes the polytope
    once.

    Lawrence's formula (Math. Comp. 57, 1991) sums over the vertices v of
    a simple polytope: vol = sum_v <c, v>^n / (n! |det A_S| prod_k -<c, m_k>
    / q), for the rows S at v, A_S^-1 = M / q and m_k the columns of M.
    The polytope of _selected is simple and tends to p, and the derivative
    of its volume in o_S_j, times -gcd(g_S_j), is row S_j's entry:
    <c, v>^(n-1) gcd(g_S_j) / ((n-1)! |det A_S| prod_(k != j) -<c, m_k> /
    q).  With <c, v> = (X + Y sqrt(disc)) / (q den) for X = sum_k <c, m_k>
    A_S_k (and Y on B), the q's cancel, and the entry is (X + Y
    sqrt(disc))^(n-1) times the table's weight over scale den^(n-1); on a
    rational record Y is 0, the power is X^(n-1) and ys stays 0.  Of the
    rows of one hyperplane only the lowest keeps a facet once moved, and
    the others copy its value.  Raises UnboundedPolytope."""
    _, _, scale, parallel, _ = _vertex_table(p.normals, p.dim)
    A, B, disc, n = p.A, p.B, p.disc, p.dim - 1
    xs, ys = [0] * len(A), [0] * len(A)
    for entry, a, b in _selected(p):
        X, Y = sum(map(mul, entry[5], a)), disc and sum(map(mul, entry[5], b))
        x, y = X**n, 0
        if Y:
            x = 1
            for _ in range(n):
                x, y = x * X + y * Y * disc, x * Y + y * X
        for i, w in zip(entry[0], entry[6]):
            xs[i] += w * x
            if y:
                ys[i] += w * y
    for rows in parallel:
        shared = {}
        for i, t in rows:
            xs[i], ys[i] = shared.setdefault((A[i] * t, B[i] * t), (xs[i], ys[i]))
    return tuple(xs), tuple(ys), scale * p.den ** (p.dim - 1)
