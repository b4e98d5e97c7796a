"""Exact H-polytope computations: LP, vertices, volumes, lattice points.

Polytopes are given by integer normal vectors and offsets, with each row
read as <u, normal> >= offset.  Everything is exact, and every quantity
takes one path, on the polytope's offset record: each offset is
(A_i + B_i sqrt(disc)) / den for integers A_i and B_i over one positive
den.  The internals compute on those integers, rational or not; a Scalar
is built only for a value handed back (a vertex, an LP value, a volume).

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

An LP over a bounded polytope attains its minimum at a vertex, so it is
solved exactly as the least objective value over the cached vertex set; no
simplex runs.

Volumes come from Lasserre's recursion: n times the volume is the sum, over
the rows, of the signed lattice distance of the origin from the row's
hyperplane times the lattice volume of the face there, and each face is
sliced into the lattice of its hyperplane and measured the same way, down
to points.  A face's rows stay integer numerators over a common
denominator, and a volume stays an unreduced integer fraction until it is
returned.  The lattice volumes of the faces on all rows of a polytope are
measured together and kept as one record per polytope, in a bounded cache,
so the callers that read several rows hash the polytope once.

Lattice counts never leave the integers: on a lattice point <u, normal> is
an integer, so a row holds there exactly when <u, normal> >= ceil(offset),
and each offset is rounded once per polytope, by one isqrt and one floor
division.  Every lattice scan runs through one slicer, _slices(p, keep): it
walks the integer prefixes of the leading n - keep coordinates over the
vertex box, one coordinate at a time and one product per row, and yields
the integer rows of each slice on the last keep coordinates.  On one
coordinate a slice is an interval.  A polygon is counted without its
vertices: between consecutive crossings of its rows one lower and one
upper edge are active, and the points over that stretch are two
Euclid-like floor sums, so the cost does not grow with the dilation.  So a
count is an interval in dimension 1 and a sum over the polygons of
_slices(p, 2) above that, and toric's sigma limit oracle minimizes over the
intervals of _slices(p, 1).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .errors import UnboundedPolytope
from .linalg import inverse, kernel_basis
from .scalars import Scalar, _floor, _Frozen, _join, _new, _record, _sign

__all__ = [
    "HPolytope",
    "LPProblem",
    "LPResult",
    "lp_solve",
    "lattice_points",
    "facet_lattice_volume",
    "is_bounded",
]


def _as_scalar(x) -> Scalar:
    return x if isinstance(x, Scalar) else Scalar(x)


class HPolytope(_Frozen):
    """{u in R^dim : <u, normal_i> >= offset_i for every row i}, held as its
    offset record: offset_i = (A_i + B_i sqrt(disc)) / den for integers A_i
    and B_i, one den > 0 (the lcm of the reduced offset denominators) and
    one disc (0 when every offset is rational), built by scalars._record.
    The record is canonical, so equality and hashing read it.  Immutable:
    the fields are set once, by _set."""

    __slots__ = ("dim", "normals", "den", "disc", "A", "B")

    def __init__(self, dim: int, rows):
        rows = tuple(rows)
        normals = tuple(tuple(int(c) for c in g) for g, _ in rows)
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
        put = object.__setattr__
        put(self, "dim", dim)
        put(self, "normals", normals)
        put(self, "den", den)
        put(self, "disc", disc)
        put(self, "A", A)
        put(self, "B", B)

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


# ---------------------------------------------------------------------------
# LP by the vertex minimum


class LPProblem(_Frozen):
    """Minimize <objective, u> + constant over an HPolytope."""

    __slots__ = ("objective", "constraints", "constant")

    def __init__(self, objective, constraints: HPolytope, constant=0):
        objective = tuple(int(c) for c in objective)
        if len(objective) != constraints.dim:
            raise ValueError("objective length does not match constraint dimension")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "constant", _as_scalar(constant))

    def __eq__(self, other):
        if type(other) is not LPProblem:
            return NotImplemented
        return (self.objective, self.constraints, self.constant) == (
            other.objective, other.constraints, other.constant
        )

    def __hash__(self):
        return hash((self.objective, self.constraints, self.constant))


class LPResult(namedtuple("LPResult", "status value point", defaults=(None, None))):
    """status "optimal" or "infeasible"; the least value and a point
    attaining it when optimal."""

    __slots__ = ()


def lp_solve(problem: LPProblem) -> LPResult:
    """Exact LP over a bounded polytope: its minimum is attained at a vertex,
    so it is the least <objective, v> + constant over the vertex set, with
    the first minimizing vertex in sorted order as the point.  Raises
    UnboundedPolytope on unbounded input."""
    poly = problem.constraints
    vs = _vertex_set(poly)
    if not vs:
        return LPResult("infeasible")
    disc, best = poly.disc, None
    # <objective, v> = (x + y sqrt(disc)) / q over the lcm q of v's denominators
    for k, v in enumerate(vs):
        q = math.lcm(*(c.den for c in v))
        x = sum(w * c.a * (q // c.den) for w, c in zip(problem.objective, v))
        y = sum(w * c.b * (q // c.den) for w, c in zip(problem.objective, v))
        if best is None or _sign(x * best[2] - best[0] * q, y * best[2] - best[1] * q, disc) < 0:
            best = x, y, q, k
    x, y, q, k = best
    c = problem.constant
    d = disc if y else 0
    if d != c.disc:
        d = _join(d, c.disc)
    return LPResult("optimal", _new(x * c.den + c.a * q, y * c.den + c.b * q, q * c.den, d), vs[k])


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


@lru_cache(maxsize=4096)
def _vertex_set(p: HPolytope) -> tuple[tuple[Scalar, ...], ...]:
    """All vertices of a bounded polytope (empty tuple when infeasible), in
    sorted order: the feasible candidates of the vertex table.  On the
    offset record the test of row r is the sign of an integer pair, and a
    vertex is (M A_S + M B_S sqrt(disc)) / (q den)."""
    bounded, table = _vertex_table(p.normals, p.dim)
    if not bounded:
        raise UnboundedPolytope("polytope has a nontrivial recession cone")
    A, B, disc = p.A, p.B, p.disc
    found = {}
    for subset, M, q, forms in table:
        a = [A[s] for s in subset]
        b = [B[s] for s in subset]
        if all(
            _sign(sum(map(mul, a, w)) - q * A[r], sum(map(mul, b, w)) - q * B[r], disc) >= 0
            for r, w in forms
        ):
            qd = q * p.den
            v = tuple(
                _new(sum(map(mul, a, row)), sum(map(mul, b, row)), qd, disc) for row in M
            )
            found[tuple((c.a, c.b, c.den) for c in v)] = v
    return tuple(sorted(found.values()))


# ---------------------------------------------------------------------------
# volume


@lru_cache(maxsize=1024)
def _face_table(normals: tuple[tuple[int, ...], ...], g: tuple[int, ...]):
    """The normals-only part of _face_rows: |g_j| for the first nonzero entry
    g_j of g, and for each normal h its coordinates hb on the lattice basis
    of the hyperplane's direction (() when h is parallel to g), with
    h_j sign(g_j)."""
    j = next(i for i, x in enumerate(g) if x)
    basis = kernel_basis(g)
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
    pairs."""
    if face is None:
        return 0, 0, 1
    if n == 0:
        return 1, 0, 1
    rows, den = face
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
    lo, hi = -math.inf, math.inf
    lower, upper = [], []
    for (a, b), c in rows:
        if b > 0:
            lower.append((a, b, c))
        elif b < 0:
            upper.append((a, b, c))
        elif a > 0:
            lo = max(lo, -(-c // a))
        else:
            hi = min(hi, c // a)
    slanted = lower + upper
    cuts = {lo, hi + 1} - {-math.inf, math.inf}
    for i, (a, b, c) in enumerate(slanted):
        for a2, b2, c2 in slanted[:i]:
            det = a * b2 - a2 * b
            if det:
                num = c * b2 - c2 * b
                cuts.add(-(-num // det))
                cuts.add(num // det + 1)
    # the leftmost and rightmost vertices are crossings or lie on b = 0 rows,
    # so every integer point has its x in [cuts[0], cuts[-1])
    cuts = sorted(t for t in cuts if lo <= t <= hi + 1)
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


def _slices(p: HPolytope, keep: int):
    """Yield (prefix, rows) for each integer prefix of the leading dim - keep
    coordinates in the vertex box that no row vanishing on the last keep
    coordinates excludes: the integer points over the prefix are those of
    the integer rows (h, c), read <v, h> >= c on the last keep coordinates.
    Each offset is rounded up once, since on a lattice point <u, g> is an
    integer; with keep == dim the one empty prefix is yielded and no vertex
    is read."""
    if not is_bounded(p):
        raise UnboundedPolytope("polytope has a nontrivial recession cone")
    den, disc = p.den, p.disc
    rows = [(g, -_floor(-a, -b, den, disc)) for g, a, b in zip(p.normals, p.A, p.B)]
    lead = p.dim - keep
    if not lead:
        yield (), rows
        return
    vs = _vertex_set(p)
    if vs:
        # each coordinate's box as the two rows t >= ceil(min) and -t >= -floor(max)
        boxes = [
            [((1,), math.ceil(min(col))), ((-1,), -math.floor(max(col)))]
            for col in list(zip(*vs))[:lead]
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


@lru_cache(maxsize=2048)
def lattice_points(p: HPolytope) -> int:
    """Number of integer points; 0 for empty, error when unbounded.

    No point is listed: an interval in dimension 1, floor sums on each
    polygon of _slices(p, 2) above that (the polygon itself when dim is 2,
    so no vertex is needed there).  One count per polytope, kept in a
    bounded cache keyed by the canonical record like _vertex_set, since
    callers comparing D, its multiples and its shifts ask again."""
    if p.dim == 1:
        return sum(len(_interval(rows)) for _, rows in _slices(p, 1))
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

    Returns 0 when the row supports a face of dimension below n-1.
    """
    return _facet_volumes(p)[facet_row]
