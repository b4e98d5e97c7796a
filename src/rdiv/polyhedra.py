"""Exact H-polytope computations: LP, vertices, volumes, lattice points.

Polytopes are given by integer normal vectors and offsets, with each row
read as <u, normal> >= offset.  Everything is exact, and every quantity
takes one path, on the polytope's offset record: each offset is
(A_i + B_i sqrt(disc)) / den for integers A_i and B_i over one positive
den.  The internals compute on those integers, rational or not; a Scalar
is built only for a value handed back (an LP value, a volume).

What depends on the normals alone is computed once per normal set, in
bounded caches, since the section polytopes of one fan share their normals
and differ only in offsets.  The vertex table holds, for each nonsingular
n-subset of rows, its inverse M / q from the integer linalg.inverse (an
integer matrix over a positive integer denominator) and the integer forms
g_r M that test every other row r on the subset's candidate vertex, so a
polytope's vertices cost integer products and one sign test per row, and
no elimination.  The face table holds the projections of the normals onto
the lattice of a face's hyperplane, so a face only shifts numerators.

Boundedness is read off the same table, once per normal set.  Column k of
M is the edge direction of the subset's cone on which every row of the
subset but the k-th vanishes, and the forms give its products with the
other rows; the recession cone {u : <u, g> >= 0} is the origin alone
exactly when the table is not empty (the normals have full rank) and no
such column has a nonnegative product with every other row.

A polytope's row test runs in one place, _feasible, which keeps each
row's slack <g_r, v> - o_r at each feasible candidate v as integers.
_has_interior reads full dimension off them (the test with offsets o + eps,
toric's bigness), and _least_slacks every row's least slack (toric's sigma,
as o_r = -a_r).  Vertices have one form, the integer numerators (X + Y
sqrt(disc)) / Q of _vertices, never built as Scalars or cached.  A linear
objective's minimum over a bounded polytope is at a vertex, so lp_solve
answers a list of integer objectives in one pass over them, with no
simplex, and the slicer reads its box off them.

Volumes come from Lasserre's recursion: n times the volume is the sum, over
the rows, of the signed lattice distance of the origin from the row's
hyperplane times the lattice volume of the face there, and each face is
sliced into the lattice of its hyperplane and measured the same way, down
to intervals, whose length is read off their two ends.  A face's rows stay
integer numerators over a common denominator, and a volume stays an
unreduced integer fraction until it is returned.  The lattice volumes of
the faces on all rows of a polytope are measured together and kept as one
record per polytope, in a bounded cache, so the callers that read several
rows hash the polytope once.

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

Every lattice scan runs through one slicer, _slices(p, keep): it walks the
integer prefixes of the leading n - keep coordinates over the vertex box,
one coordinate at a time and one product per row, and yields the integer
rows of each slice on the last keep coordinates.  On one coordinate a slice
is an interval.  A polygon is counted without its vertices: between
consecutive crossings of its rows one lower and one upper edge are active,
and the points over that stretch are two Euclid-like floor sums, so the
cost does not grow with the dilation.  So a count is an interval in
dimension 1 and a sum over the polygons of _slices(p, 2) above that.

toric's sigma limit oracle asks for the least <g, u> over the lattice
points, for a ray g.  _lattice_min changes coordinates unimodularly so that
<g, u> / gcd(g) is the first one, which keeps the lattice and the offset
record, and stops at the first slice that holds a lattice point: the first
coordinate rises from its lower box end, so that slice is the minimum, and
its cost does not grow with the dilation either.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from operator import index, mul

from .errors import UnboundedPolytope
from .linalg import inverse, unimodular_basis
from .scalars import Scalar, _as_scalar, _floor, _Frozen, _new, _record, _sign

__all__ = [
    "HPolytope",
    "lp_solve",
    "lattice_points",
    "lattice_form",
    "facet_lattice_volume",
    "is_bounded",
]


class HPolytope(_Frozen):
    """{u in R^dim : <u, normal_i> >= offset_i for every row i}, held as its
    offset record: offset_i = (A_i + B_i sqrt(disc)) / den for integers A_i
    and B_i, one den > 0 (the lcm of the reduced offset denominators) and
    one disc (0 when every offset is rational), built by scalars._record.
    The record is canonical, so equality and hashing read it.  Immutable:
    the fields are set once, by _set."""

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

    @classmethod
    def _of_record(cls, dim: int, normals, den: int, disc: int, A, B) -> "HPolytope":
        """The polytope of checked integer normals and a canonical offset
        record, as scalars._record builds it."""
        p = object.__new__(cls)
        p._set(dim, normals, den, disc, A, B)
        return p

    def _set(self, dim, normals, den, disc, A, B):
        # each slot's own setter: one C call, with no attribute lookup by name
        d, g, q, s, a, b = _SLOT_SETTERS
        d(self, dim)
        g(self, normals)
        q(self, den)
        s(self, disc)
        a(self, A)
        b(self, B)

    def __eq__(self, other):
        if type(other) is not HPolytope:
            return NotImplemented
        return (self.dim, self.normals, self.den, self.disc, self.A, self.B) == (
            other.dim, other.normals, other.den, other.disc, other.A, other.B
        )

    def __hash__(self):
        return hash((self.dim, self.normals, self.den, self.disc, self.A, self.B))

    @property
    def rows(self) -> tuple[tuple[tuple[int, ...], Scalar], ...]:
        """(normal, offset) per row, the offsets built as Scalars."""
        den, disc = self.den, self.disc
        return tuple((g, _new(a, b, den, disc)) for g, a, b in zip(self.normals, self.A, self.B))


_SLOT_SETTERS = tuple(HPolytope.__dict__[name].__set__ for name in HPolytope.__slots__)


# ---------------------------------------------------------------------------
# LP by the vertex minimum


def lp_solve(p: HPolytope, objectives) -> tuple[Scalar, ...] | None:
    """The least <g, v> over the vertices v of a bounded polytope, for each
    integer objective g, in objective order; None when p is empty.  Each
    minimum is attained at a vertex, so one pass over _vertices answers
    every objective: <g, v> = (<g, X> + <g, Y> sqrt(disc)) / Q, and two
    values compare by the sign of their cross-multiplied difference.
    Raises TypeError for an entry that is not an integer, ValueError when
    an objective's length is not p's dimension, and UnboundedPolytope on
    unbounded input."""
    objectives = [tuple(map(index, g)) for g in objectives]
    if any(len(g) != p.dim for g in objectives):
        raise ValueError("objective length does not match the polytope's dimension")
    disc, best = p.disc, None
    for X, Y, Q in _vertices(p):
        values = [(sum(map(mul, g, X)), sum(map(mul, g, Y)), Q) for g in objectives]
        best = values if best is None else [
            (x, y, Q) if _sign(x * q - a * Q, y * q - b * Q, disc) < 0 else (a, b, q)
            for (x, y, _), (a, b, q) in zip(values, best)
        ]
    return None if best is None else tuple(_new(*v, disc) for v in best)


# ---------------------------------------------------------------------------
# vertices and feasibility


@lru_cache(maxsize=256)
def _vertex_table(normals: tuple[tuple[int, ...], ...], n: int):
    """The normals-only part of vertex enumeration, as (bounded, table): for
    each nonsingular n-subset S of the rows, the table holds (S, M, q,
    forms) with A_S^-1 = M / q from linalg.inverse, and forms the integer
    (r, w_r = g_r M) of every other row r.  The candidate vertex of S is
    M o_S / q, and <g_r, v> >= o_r there is sum_k w_r,k o_S_k >= q o_r.

    bounded is True iff the recession cone {u : <u, g> >= 0 for all g} is
    the origin alone.  Column k of M is zero on every row of S but s_k and
    meets s_k positively, so it lies in the cone exactly when w_r,k >= 0
    for every other row r.  With normals of rank below n the table is empty
    and the cone holds a line.  Otherwise the cone is pointed, and if it is
    not the origin it has an extreme ray, on which n - 1 independent rows
    vanish: the ray is column k of the entry of those rows and one more."""
    table = []
    for subset in itertools.combinations(range(len(normals)), n):
        inv = inverse([normals[s] for s in subset])
        if inv is None:
            continue
        M, q = inv
        cols = list(zip(*M))
        forms = tuple(
            (r, tuple(sum(map(mul, g, col)) for col in cols))
            for r, g in enumerate(normals)
            if r not in subset
        )
        table.append((subset, M, q, forms))
    bounded = bool(table) and not any(
        all(w[k] >= 0 for _, w in entry[3]) for entry in table for k in range(n)
    )
    return bounded, tuple(table)


def is_bounded(p: HPolytope) -> bool:
    return _vertex_table(p.normals, p.dim)[0]


def _feasible(p: HPolytope):
    """Yield (entry, a, b, slacks) for each entry (S, M, q, forms) of the
    vertex table whose candidate vertex v satisfies every row of p: a and b
    are S's offset numerators, and slacks the row test's (x, y) for each row
    r of forms, <g_r, v> - o_r = (x + y sqrt(disc)) / (q den) >= 0.  A vertex
    on more than n rows comes once per entry.  Raises UnboundedPolytope."""
    bounded, table = _vertex_table(p.normals, p.dim)
    if not bounded:
        raise UnboundedPolytope("polytope has a nontrivial recession cone")
    A, B, disc = p.A, p.B, p.disc
    for entry in table:
        subset, _, q, forms = entry
        a, b, slacks = [A[s] for s in subset], [B[s] for s in subset], []
        for r, w in forms:
            x, y = sum(map(mul, a, w)) - q * A[r], sum(map(mul, b, w)) - q * B[r]
            if _sign(x, y, disc) < 0:
                break
            slacks.append((x, y))
        else:
            yield entry, a, b, slacks


def _vertices(p: HPolytope):
    """Yield the vertex (X + Y sqrt(disc)) / Q of each feasible entry, with
    X = M a, Y = M b and Q = q den."""
    for (_, M, q, _), a, b, _ in _feasible(p):
        yield [sum(map(mul, a, row)) for row in M], [sum(map(mul, b, row)) for row in M], q * p.den


def _has_interior(p: HPolytope) -> bool:
    """True iff p has an interior point (positive volume), i.e. iff p with
    offsets o + eps is nonempty for small eps > 0.  That adds eps (sum_k
    w_r,k - q) to each slack, so some entry passes every row with a slack
    > 0, or with a slack 0 and sum_k w_r,k >= q."""
    return any(
        all(x or y or sum(w) >= q for (_, w), (x, y) in zip(forms, slacks))
        for (_, _, q, forms), _, _, slacks in _feasible(p)
    )


def _least_slacks(p: HPolytope):
    """The least <g_r, v> - o_r over the vertices v of p for each row r, as
    (x, y, Q) meaning (x + y sqrt(disc)) / Q: the least slack over the
    feasible entries, 0 on an entry's own rows; None when p is empty."""
    disc, best = p.disc, None
    for (_, _, q, forms), _, _, slacks in _feasible(p):
        values = [(0, 0, 1)] * len(p.normals)
        for (r, _), (x, y) in zip(forms, slacks):
            values[r] = (x, y, q)
        best = values if best is None else [
            (x, y, s) if _sign(x * t - a * s, y * t - b * s, disc) < 0 else (a, b, t)
            for (x, y, s), (a, b, t) in zip(values, best)
        ]
    return None if best is None else [(x, y, q * p.den) for x, y, q in best]


# ---------------------------------------------------------------------------
# volume


@lru_cache(maxsize=1024)
def _face_table(normals: tuple[tuple[int, ...], ...], g: tuple[int, ...]):
    """The normals-only part of _face_rows: |g_j| for the first nonzero entry
    g_j of g, and for each normal h its coordinates hb on the lattice basis
    of the hyperplane's direction (() when h is parallel to g), with
    h_j sign(g_j)."""
    j = next(i for i, x in enumerate(g) if x)
    basis = unimodular_basis(g)[1:]
    sign = 1 if g[j] > 0 else -1
    table = []
    for h in normals:
        hb = tuple(sum(map(mul, h, b)) for b in basis)
        table.append((hb if any(hb) else (), h[j] * sign))
    return abs(g[j]), tuple(table)


def _face_rows(rows, den, disc, g, a, b):
    """The face <u, g> = (a + b sqrt(disc)) / den of {<u, h> >= (A + B
    sqrt(disc)) / den}, as (rows, den) in the coordinates of a lattice basis
    of the hyperplane's direction, so that its volume there is its lattice
    volume; None when a row parallel to g excludes the hyperplane.  The base
    point (a + b sqrt(disc)) / (den g_j) e_j lies on it, so each numerator
    shifts to (A g_j - a h_j) sign(g_j) over den |g_j|; the projected
    normals come from the face table."""
    m, table = _face_table(tuple([h for h, _, _ in rows]), g)
    out = []
    for (_, x, y), (hb, t) in zip(rows, table):
        x, y = x * m - a * t, y * m - b * t
        if hb:
            out.append((hb, x, y))
        elif _sign(x, y, disc) > 0:
            return None
    return out, den * m


def _volume(n: int, face, disc: int) -> tuple[int, int, int]:
    """Lattice n-volume of the bounded polytope face = (rows, den), read
    {<u, g> >= (A + B sqrt(disc)) / den} for rows (g, A, B), as an
    unreduced (X, Y, Q) meaning (X + Y sqrt(disc)) / Q; 0 for face None.

    Lasserre's recursion: with each row divided by the gcd k of its normal,
    n * vol = sum over rows of -c * vol(face), the signed lattice distance
    of the origin from the row's hyperplane times the lattice volume of its
    face.  Dividing by k puts every row over den * lcm(k).  Faces of
    dimension below n - 1 measure 0.  Identical rows are one hyperplane and
    are counted once: on a flat polytope the faces of a hyperplane and of
    its opposite are the whole polytope, and their terms cancel only in
    pairs.

    The recursion ends at intervals.  In dimension 1 a row ((k,), A, B)
    bounds u by (A + B sqrt(disc)) / (den k), from below when k > 0, and the
    length is the least upper end minus the greatest lower end, or 0 when
    they meet or cross.  Two ends on one side have k's of one sign, so they
    compare by the sign of their numerators cross-multiplied by the k's,
    with no gcd taken.  A bounded interval has both ends."""
    if face is None:
        return 0, 0, 1
    if n == 0:
        return 1, 0, 1
    rows, den = face
    if n == 1:
        # kl or kh is 0 while that side has no end yet, as no row has k = 0
        kl = kh = 0
        for (k,), a, b in rows:
            if k > 0:
                if not kl or _sign(a * kl - al * k, b * kl - bl * k, disc) > 0:
                    kl, al, bl = k, a, b
            elif not kh or _sign(a * kh - ah * k, b * kh - bh * k, disc) < 0:
                kh, ah, bh = k, a, b
        # upper minus lower end over den kh kl, negated, since kh kl < 0
        x, y = al * kh - ah * kl, bl * kh - bh * kl
        if _sign(x, y, disc) <= 0:
            return 0, 0, 1
        return x, y, -den * kh * kl
    ks = [math.gcd(*g) for g, _, _ in rows]
    lcm = math.lcm(*ks)
    if lcm == 1:
        unique = dict.fromkeys(rows)
    else:
        unique = {}
        for (g, a, b), k in zip(rows, ks):
            t = lcm // k
            unique[(g if k == 1 else tuple(x // k for x in g), a * t, b * t)] = None
        den *= lcm
    terms = []
    for g, a, b in unique:
        if a or b:
            x, y, q = _volume(n - 1, _face_rows(unique, den, disc, g, a, b), disc)
            if x or y:
                terms.append((-a * x - b * y * disc, -a * y - b * x, den * q))
    q = math.lcm(*(t[2] for t in terms))
    return sum(x * (q // t) for x, _, t in terms), sum(y * (q // t) for _, y, t in terms), q * n


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


def _ceil_offsets(p: HPolytope):
    """ceil(offset) for every row of p's record; an integer record's own
    numerators, unrounded."""
    den, disc = p.den, p.disc
    if disc:
        return [-_floor(-a, -b, den, disc) for a, b in zip(p.A, p.B)]
    if den == 1:
        return p.A
    return [-(-a // den) for a in p.A]


def _integer_rows(p: HPolytope):
    """The rows (g, ceil(offset)) of a bounded polytope, with the lattice
    points of p, since on a lattice point <u, g> is an integer; an integer
    record (a lattice form) is not rounded again.  Raises UnboundedPolytope
    on unbounded input."""
    if not is_bounded(p):
        raise UnboundedPolytope("polytope has a nontrivial recession cone")
    return list(zip(p.normals, _ceil_offsets(p)))


def _slices(p: HPolytope, keep: int):
    """Yield (prefix, rows) for each integer prefix of the leading dim - keep
    coordinates in the vertex box that no row vanishing on the last keep
    coordinates excludes: the integer points over the prefix are those of
    the integer rows (h, c) of _integer_rows, sliced, read <v, h> >= c on
    the last keep coordinates.  With keep == dim the one empty prefix is
    yielded and no vertex is read."""
    rows = _integer_rows(p)
    lead = p.dim - keep
    if not lead:
        yield (), rows
        return
    # the integer ends (ceil, floor) of each leading coordinate of each
    # vertex, read off its numerators, so no vertex is built and none is
    # compared: ceil(min) = min(ceil)
    disc, ends = p.disc, []
    for X, Y, Q in _vertices(p):
        ends.append(
            [(-_floor(-x, -y, Q, disc), _floor(x, y, Q, disc)) for x, y in zip(X[:lead], Y[:lead])]
        )
    if ends:
        # each coordinate's box as the two rows t >= ceil(min) and -t >= -floor(max)
        boxes = [
            [((1,), min(c for c, _ in col)), ((-1,), -max(f for _, f in col))] for col in zip(*ends)
        ]
        yield from _sliced(rows, boxes, ())


def _sliced(rows, boxes, prefix):
    """_slices past its set-up: the leading coordinate t runs over the
    interval of its box and of the rows that vanish beyond it, each other
    row moves its offset by one product, and the next box slices on."""
    free = [((g[0],), c) for g, c in rows if not any(g[1:])]
    cut = [(g[0], g[1:], c) for g, c in rows if any(g[1:])]
    for t in _interval(free + boxes[0]):
        sliced = [(g, c - h * t) for h, g, c in cut]
        if len(boxes) > 1:
            yield from _sliced(sliced, boxes[1:], prefix + (t,))
        else:
            yield prefix + (t,), sliced


@lru_cache(maxsize=256)
def _ray_normals(normals: tuple[tuple[int, ...], ...], g: tuple[int, ...]):
    """The normals in the coordinates of linalg.unimodular_basis(g): each
    normal h becomes W^T h for the basis W = (y, kernel of g), so a row
    <u, h> >= o reads <v, W^T h> >= o at u = W v, and <g, u> = gcd(g) v_1."""
    basis = unimodular_basis(g)
    return tuple(tuple(sum(map(mul, h, w)) for w in basis) for h in normals)


def _lattice_min(p: HPolytope, g: tuple[int, ...]):
    """The least <g, u> over the lattice points u of a bounded polytope, for
    integer g != 0; None when p has no lattice point.

    The unimodular change of coordinates of _ray_normals puts <g, u> / gcd(g)
    on the first coordinate and keeps the lattice and the offset record.
    The slices then rise from the first coordinate's lower box end, and the
    first one holding a lattice point is the minimum: an interval in
    dimension 2, and a polygon, counted by _count_2d without its points,
    above that.  So the cost does not grow with the dilation."""
    q = HPolytope._of_record(p.dim, _ray_normals(p.normals, g), p.den, p.disc, p.A, p.B)
    k = math.gcd(*g)
    if p.dim == 1:
        ts = _interval(_integer_rows(q))
        return k * ts[0] if ts else None
    keep, holds = (1, _interval) if p.dim == 2 else (2, _count_2d)
    return next((k * prefix[0] for prefix, rows in _slices(q, keep) if holds(rows)), None)


def lattice_form(p: HPolytope) -> HPolytope:
    """The integer polytope {<u, g> >= c'} with the lattice points of p,
    translated by an integer vector chosen from the class alone.

    With c = ceil(offset) and A_S^-1 = M / q for the first subset S of the
    vertex table, c' = c - G t for t = floor(M c_S / q).  Replacing c by
    c + G w for an integer w moves M c_S / q by exactly w, so c' is the
    same for every integer translate of p: the lattice points of p and of
    lattice_form(p) differ by the translation -t, and translates share a
    form.  With normals of rank below n the table is empty and the rounded
    rows are kept as they are, so that lattice_points still raises."""
    c = _ceil_offsets(p)
    table = _vertex_table(p.normals, p.dim)[1]
    if table:
        subset, M, q, forms = table[0]
        cs = [c[s] for s in subset]
        if q == 1:
            # t = M c_S, so c' is 0 on S and c_r - <g_r M, c_S> on every
            # other row r, whose g_r M the table holds
            form = [0] * len(c)
            for r, w in forms:
                form[r] = c[r] - sum(map(mul, w, cs))
            c = form
        else:
            t = [sum(map(mul, row, cs)) // q for row in M]
            c = [x - sum(map(mul, g, t)) for g, x in zip(p.normals, c)]
    return HPolytope._of_record(p.dim, p.normals, 1, 0, tuple(c), (0,) * len(c))


@lru_cache(maxsize=2048)
def lattice_points(p: HPolytope) -> int:
    """Number of integer points; 0 for empty, error when unbounded.

    No point is listed: an interval in dimension 1, floor sums on the
    polygon in dimension 2 (no vertex is needed there), and on each polygon
    of _slices(p, 2) above that.  One count per record, kept in a bounded
    cache keyed by the canonical record.  Asked on
    lattice_form(p), as toric.h0 asks, that is one count per class of the
    round-down: D, its shifts D + div(u) for integer u, and every divisor
    whose round-down is linearly equivalent to D's share one entry."""
    if p.dim == 1:
        return len(_interval(_integer_rows(p)))
    if p.dim == 2:
        return _count_2d(_integer_rows(p))
    return sum(_count_2d(rows) for _, rows in _slices(p, 2))


# ---------------------------------------------------------------------------
# facet volume against the induced lattice


@lru_cache(maxsize=256)
def _facet_volumes(p: HPolytope) -> tuple[Scalar, ...]:
    """The facet record of a bounded polytope: for each row, the (n-1)-volume
    of its face in the lattice of its hyperplane, 0 when the face has lower
    dimension.  One entry per polytope, so a caller that needs several rows
    hashes the polytope once."""
    if not is_bounded(p):
        raise UnboundedPolytope("facet volume needs a bounded polytope")
    rows, den, disc = tuple(zip(p.normals, p.A, p.B)), p.den, p.disc
    return tuple(
        _new(*_volume(p.dim - 1, _face_rows(rows, den, disc, *row), disc), disc) for row in rows
    )


def facet_lattice_volume(p: HPolytope, facet_row: int) -> Scalar:
    """(n-1)-volume of a facet, measured in the lattice of its affine hull:
    one entry of the polytope's facet record.

    Returns 0 when the row supports a face of dimension below n-1, and
    raises IndexError for a row index that is negative or a bool.
    """
    if isinstance(facet_row, bool) or facet_row < 0:
        raise IndexError(f"row index {facet_row!r} out of range")
    return _facet_volumes(p)[facet_row]
