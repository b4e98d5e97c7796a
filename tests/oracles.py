"""Independent brute-force oracles used to freeze expected values.

Most deliberately avoid the library's own code paths: Gaussian
elimination over the Fractions (the reference for the integer
linalg.inverse), small hand-rolled Cramer solves, exhaustive 2-subset
vertex enumeration, shoelace areas, box-membership lattice counts and
point lists (sharing nothing with the library's counts or with the
slicer below) and degree-by-degree section sums on F_e, all in exact
arithmetic.  Helpers that only tests use (translation, dilation, the
Euclidean volume, ceilings, the principal divisor of a character, a run
in a fresh interpreter) sit here too, with the EmptyPolytope error that only the vertex and volume
oracles raise, and so does the vertex set by Scalar elimination of every
n-subset of rows, the old library rule that the integer vertex table of
polyhedra must match exactly once its numerators are built as Scalars
(vertex_set_from_table).  The references at the end are older library
rules, kept to cross-check the direct ones that replaced them: the
surface model's closed forms on F_e (the section series, nefness and
bigness against E and F, the two-step Zariski decomposition and its B+
rule) against the toric F_e it reads its numbers off, the two-phase
simplex, with its LPProblem and LPResult records, against the
vertex-minimum LP and the table's boundedness rule, the per-slice
lattice count, on the slicer that the library's lattice minimum walked
before it counted cuts, against the chamber sum, the triangulated
volume, vertex-rank bigness and tight-set B+ against the facet record,
the sigma decomposition by one lp_solve over every ray against the one
that sends only the rays of B+, Lasserre's recursion in Scalar
arithmetic, on unimodular bases of the faces, against the facet record
by Lawrence's formula (read as Scalars by facet_scalars), the
ample-divisor epsilon schedule against the facet rule for B+, per-cone
nefness and Fraction cone coordinates against the wall rule, the
two-Fraction Scalar against the integer-triple one, and the corpus
generator that drew Scalar coefficients against the one that draws
integer offset records, and the eager walk of the sampled clause, which
built every shift before it started, against the one that builds a shift
only when it reaches it.
"""

import math
import os
import random
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul

from rdiv.errors import (
    DivisionByZero,
    MixedDiscriminant,
    NonSimplicialCone,
    NotBig,
    NotPseudoeffective,
    RdivError,
    UnboundedPolytope,
)
from rdiv.polyhedra import (
    HPolytope,
    _count_2d,
    _facet_volumes,
    _integer_rows,
    _interval,
    _vertices,
    is_bounded,
    lp_solve,
)
from rdiv.scalars import Scalar, _as_scalar, _floor, _Frozen, _new, _record, _squarefree_split
from rdiv.surface import SDivisor, ZariskiPair, class_of, intersect_classes
from rdiv.theorems import _PRESETS, R_GRID, ClauseValue, CorpusInstance
from rdiv.toric import (
    Fan,
    SigmaDecomposition,
    TDivisor,
    _divisor,
    is_big,
    polytope_of,
    preset_fan,
    sigma,
)


# ---------------------------------------------------------------------------
# Gaussian elimination over Fractions, generic over the entry type: python
# ints are lifted to Fractions, and a Scalar entry turns every result it
# reaches into a Scalar, because Fraction defers to Scalar's reflected
# dunders.  The library's own solve is the integer linalg.inverse; these
# are the references it and the rules built on it must agree with.


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


# ---------------------------------------------------------------------------
# Brute-force references and test-only helpers.


def solve2(rows, rhs):
    """2x2 solve by Cramer's rule; None when singular."""
    (a, b), (c, d) = rows
    det = a * d - b * c
    if det == 0:
        return None
    r0, r1 = rhs
    return (Fraction(r0 * d - b * r1, det), Fraction(a * r1 - r0 * c, det))


def brute_vertices_2d(rows):
    """rows: [((a, b), c)] meaning a*x + b*y >= c with integer data."""
    found = set()
    for (g1, c1), (g2, c2) in combinations(rows, 2):
        sol = solve2((g1, g2), (c1, c2))
        if sol is None:
            continue
        if all(g[0] * sol[0] + g[1] * sol[1] >= c for g, c in rows):
            found.add(sol)
    return found


def shoelace(points):
    """Area of a convex polygon given as an unordered vertex set."""
    pts = list(points)
    if len(pts) < 3:
        return Fraction(0)
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    shifted = [(p[0] - cx, p[1] - cy) for p in pts]
    upper = [q for q in shifted if q[1] > 0 or (q[1] == 0 and q[0] > 0)]
    lower = [q for q in shifted if q not in upper]

    def cross_sorted(group):
        out = list(group)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if out[i][0] * out[j][1] - out[j][0] * out[i][1] < 0:
                    out[i], out[j] = out[j], out[i]
        return out

    ordered = cross_sorted(upper) + cross_sorted(lower)
    area2 = Fraction(0)
    for i in range(len(ordered)):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % len(ordered)]
        area2 += x1 * y2 - x2 * y1
    return abs(area2) / 2


def naive_lattice_count(rows, dim, lo=-200, hi=200):
    """Membership test over an explicit box; rows as (normal, offset)."""
    count = 0
    pts = []
    for p in product(range(lo, hi + 1), repeat=dim):
        if all(sum(c * x for c, x in zip(g, p)) >= o for g, o in rows):
            count += 1
            pts.append(p)
    return count, pts


def vertex_set_by_elimination(p: HPolytope) -> tuple:
    """All vertices of a bounded polytope in sorted order (empty tuple when
    infeasible): every n-subset of rows solved by Gaussian elimination in
    Scalar arithmetic, and kept when it satisfies every row.  The reference
    for the integer vertex table behind polyhedra._vertices."""
    if not is_bounded(p):
        raise UnboundedPolytope("polytope has a nontrivial recession cone")
    found = {}
    for rows in combinations(p.rows, p.dim):
        # the offsets are Scalars, so the solution is a tuple of Scalars
        sol = solve_square([g for g, _ in rows], [o for _, o in rows])
        if sol is not None and all(sum(c * x for c, x in zip(g, sol)) >= o for g, o in p.rows):
            found[sol] = None
    return tuple(sorted(found))


def vertex_set_from_table(p: HPolytope) -> tuple:
    """The vertices that polyhedra._vertices yields, built as Scalars from
    their integer numerators, distinct and sorted (empty tuple when
    infeasible): the library's vertex table in the form of
    vertex_set_by_elimination."""
    found = {tuple(_new(x, y, q, p.disc) for x, y in zip(X, Y)) for X, Y, q in _vertices(p)}
    return tuple(sorted(found))


class EmptyPolytope(RdivError):
    """An oracle that needs a point was given an empty polytope."""


def vertices(p: HPolytope) -> set:
    """Vertex set; raises on unbounded or empty input."""
    vs = vertex_set_by_elimination(p)
    if not vs:
        raise EmptyPolytope("polytope has no feasible point")
    return set(vs)


def lattice_point_list(p: HPolytope) -> list:
    """The integer points of a bounded polytope in lexicographic order: a
    membership test, in Scalar arithmetic, of every point of the box of
    vertex_set_by_elimination."""
    vs = vertex_set_by_elimination(p)
    if not vs:
        return []
    box = [range(math.ceil(min(col)), math.floor(max(col)) + 1) for col in zip(*vs)]
    return [
        u
        for u in product(*box)
        if all(sum(c * x for c, x in zip(g, u)) >= o for g, o in p.rows)
    ]


def scale(p: HPolytope, factor) -> HPolytope:
    """Dilation by factor > 0 about the origin.  Any other factor raises
    ValueError: scaling the offsets by a negative one does not reflect the
    polytope, and by 0 it turns an empty polytope into the origin."""
    f = _as_scalar(factor)
    if not f > 0:
        raise ValueError(f"dilation factor must be positive, got {f}")
    return HPolytope(p.dim, tuple((g, o * f) for g, o in p.rows))


def euclidean_volume(p: HPolytope) -> Scalar:
    """Exact n-volume by Lasserre's recursion in Scalar arithmetic
    (scalar_lasserre_volume); raises on unbounded or empty input."""
    if not vertex_set_from_table(p):
        raise EmptyPolytope("cannot take the volume of an empty polytope")
    return scalar_lasserre_volume(p.dim, p.rows)


def translate(p: HPolytope, shift) -> HPolytope:
    return HPolytope(
        p.dim,
        tuple((g, o + sum(c * s for c, s in zip(g, shift))) for g, o in p.rows),
    )


def scalar_ceil(x) -> int:
    return math.ceil(x if isinstance(x, Scalar) else Scalar(x))


def simplex_count(m):
    """Lattice points of the dilated unit simplex in the plane."""
    return (m + 1) * (m + 2) // 2


def h0_class_loop(x, y, e):
    """Sections of x*E + y*F on F_e, one P^1 degree y - k*e at a time."""
    if x < 0:
        return 0
    return sum(max(0, y - k * e + 1) for k in range(x + 1))


def fresh(*args, timeout=60):
    """(exit code, stdout, stderr) of `python ARGS` in a fresh interpreter
    on this run's import path, killed after timeout seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# The surface model's closed forms on F_e, the references for the answers
# it reads off the toric F_e: an arithmetic series for sections, the two
# extremal curves E and F for nefness and bigness, and the two-step Zariski
# decomposition over the one negative curve E for volume, sigma and B+.


def h0_class(x: int, y: int, e: int) -> int:
    """Sections of x*E + y*F: the ruling pushes them down to P^1 degrees
    y, y-e, ..., y-x*e, and the non-negative ones sum as an arithmetic series."""
    if x < 0 or y < 0:
        return 0
    top = x if e == 0 else min(x, y // e)
    return (top + 1) * (y + 1) - e * top * (top + 1) // 2


def h0_surface_by_class(D: SDivisor) -> int:
    """Round down per prime component and count through the class of the
    round-down: x = floor(cE) + floor(cC), y = e floor(cC) + sum floor(b_i)."""
    e, c = D.model.e, math.floor(D.cC)
    return h0_class(math.floor(D.cE) + c, e * c + sum(map(math.floor, D.fiber_coeffs)), e)


def is_nef_class(cls: tuple[Scalar, Scalar], e: int) -> bool:
    x, y = cls
    # non-negative against the extremal curves E and F
    return (y - Scalar(e) * x).sign() >= 0 and x.sign() >= 0


def is_big_class(cls: tuple[Scalar, Scalar], e: int) -> bool:
    # interior of the effective cone spanned by E and F
    x, y = cls
    return x.sign() > 0 and y.sign() > 0


def zariski_two_step(D: SDivisor) -> ZariskiPair:
    """Two-step Zariski decomposition over the candidate negative set {E}."""
    model = D.model
    e = model.e
    x, y = class_of(D)
    de = y - Scalar(e) * x  # [D].E
    if e > 0 and de.sign() < 0:
        c = x - y / e
        P = (y / Scalar(e), y)
    else:
        c = Scalar(0)
        P = (x, y)
    if not is_nef_class(P, e):
        raise NotPseudoeffective("positive part fails nefness against E or F")
    if intersect_classes(P, P, e).sign() <= 0:
        raise NotBig("divisor class is not big")
    N = SDivisor(model, c, Scalar(0), tuple(Scalar(0) for _ in model.fibers))
    return ZariskiPair(P, N)


def volume_surface(D: SDivisor) -> Scalar:
    """vol(D) = P^2 through the Zariski decomposition; 0 off the big cone."""
    try:
        pair = zariski_two_step(D)
    except (NotBig, NotPseudoeffective):
        return Scalar(0)
    return pair.volume()


def sigma_surface(D: SDivisor, component: str) -> Scalar:
    """sigma multiplicity along a prime component; only E can carry one.
    KeyError when the model has no such component."""
    D.model.component(component)
    pair = zariski_two_step(D)
    return pair.N.cE if component == "E" else Scalar(0)


def bplus_surface(D: SDivisor) -> frozenset[str]:
    """Divisorial augmented base locus on F_e: {E} exactly when [D].E <= 0."""
    x, y = class_of(D)
    if not is_big_class((x, y), D.model.e):
        raise NotBig("the divisorial augmented base locus needs a big divisor")
    e = D.model.e
    if e > 0 and (y - Scalar(e) * x).sign() <= 0:
        return frozenset({"E"})
    return frozenset()


# ---------------------------------------------------------------------------
# The two-phase simplex: the reference that polyhedra.lp_solve's vertex
# minimum and the boundedness rule of polyhedra._vertex_table must agree with.
# It works on any H-polytope, bounded or not, and never enumerates vertices,
# so ample_divisor's 17-variable LP runs on it.


class LPProblem(_Frozen):
    """Minimize <objective, u> + constant over an HPolytope."""

    __slots__ = ("objective", "constraints", "constant")

    def __init__(self, objective, constraints: HPolytope, constant=0):
        objective = tuple(int(c) for c in objective)
        if len(objective) != constraints.dim:
            raise ValueError("objective length does not match constraint dimension")
        self._set(objective, constraints, _as_scalar(constant))


class LPResult(namedtuple("LPResult", "status value point", defaults=(None, None))):
    """status "optimal" or "infeasible"; the least value and a point
    attaining it when optimal."""

    __slots__ = ()


def _pivot(tableau, basis, row, col):
    prow = tableau[row]
    pval = prow[col]
    if pval != 1:
        tableau[row] = prow = [x / pval for x in prow]
    # rows are distinct lists: update each in place, on the pivot row's support
    support = [j for j, b in enumerate(prow) if b]
    for r, trow in enumerate(tableau):
        if r != row and trow[col] != 0:
            f = trow[col]
            for j in support:
                trow[j] -= f * prow[j]
    basis[row] = col


def _bland(tableau, basis, cost, allowed):
    """Run simplex with Bland's rule; returns 'optimal' or 'unbounded'.

    cost is the reduced-cost row (mutated in place), tableau rows end with
    the rhs column.
    """
    m = len(tableau)
    while True:
        enter = next((j for j in allowed if cost[j] < 0), None)
        if enter is None:
            return "optimal"
        best = None
        for r in range(m):
            a = tableau[r][enter]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best[0] or (ratio == best[0] and basis[r] < basis[best[1]]):
                    best = (ratio, r)
        if best is None:
            return "unbounded"
        row = best[1]
        _pivot(tableau, basis, row, enter)
        f = cost[enter]
        if f != 0:
            prow = tableau[row]
            for j in range(len(cost)):
                cost[j] -= f * prow[j]


def _fraction_offsets(p: HPolytope):
    """Offsets as Fractions when every one is rational, else Scalars, so
    that the reference simplex runs on Fraction arithmetic, not on the
    library's Scalar, whenever it can."""
    if all(o.disc == 0 for _, o in p.rows):
        return [o.rat for _, o in p.rows]
    return [o for _, o in p.rows]


def simplex_solve(problem: LPProblem) -> LPResult:
    """Exact two-phase simplex over the ordered field of the offsets; unlike
    lp_solve it reports an unbounded objective as status "unbounded"."""
    poly = problem.constraints
    n = poly.dim
    m = len(poly.rows)
    offs = _fraction_offsets(poly)
    zero = offs[0] * 0 if m else Fraction(0)

    # columns: u+ (n) | u- (n) | slack (m) | artificial (m) | rhs
    nstruct = 2 * n + m
    ncols = nstruct + m
    tableau = []
    basis = []
    for i, (g, _) in enumerate(poly.rows):
        o = offs[i]
        flip = -1 if o < 0 else 1
        row = [zero] * (ncols + 1)
        for j, c in enumerate(g):
            row[j] = row[j] + flip * c
            row[n + j] = row[n + j] - flip * c
        row[2 * n + i] = row[2 * n + i] - flip
        row[nstruct + i] = row[nstruct + i] + 1
        row[-1] = flip * o
        tableau.append(row)
        basis.append(nstruct + i)

    # phase 1: minimize sum of artificials
    cost = [zero] * (ncols + 1)
    for r in range(m):
        cost = [c - t for c, t in zip(cost, tableau[r])]
    for i in range(m):
        cost[nstruct + i] = cost[nstruct + i] + 1
    status = _bland(tableau, basis, cost, range(ncols))
    if -cost[-1] > 0:
        return LPResult("infeasible")
    for r in range(m):
        if basis[r] >= nstruct:
            col = next((j for j in range(nstruct) if tableau[r][j] != 0), None)
            if col is not None:
                _pivot(tableau, basis, r, col)
    live = [r for r in range(m) if basis[r] < nstruct]
    tableau = [tableau[r] for r in live]
    basis = [basis[r] for r in live]

    # phase 2
    cost = [zero] * (ncols + 1)
    for j, c in enumerate(problem.objective):
        cost[j] = cost[j] + c
        cost[n + j] = cost[n + j] - c
    for r, b in enumerate(basis):
        f = cost[b]
        if f != 0:
            cost = [a - f * t for a, t in zip(cost, tableau[r])]
    status = _bland(tableau, basis, cost, range(nstruct))
    if status == "unbounded":
        return LPResult("unbounded")

    values = {b: tableau[r][-1] for r, b in enumerate(basis)}
    point = tuple(values.get(j, zero) - values.get(n + j, zero) for j in range(n))
    point = _purify(poly, problem.objective, point)
    value = sum((c * x for c, x in zip(problem.objective, point)), _as_scalar(zero) * 0)
    return LPResult(
        "optimal",
        _as_scalar(value) + problem.constant,
        tuple(_as_scalar(x) for x in point),
    )


def _purify(poly: HPolytope, objective, point):
    """Walk within the optimal face until the point is a vertex.

    Keeps the objective value fixed and only ever tightens constraints, so
    the result is a vertex of the feasible region attaining the optimum
    whenever the region is pointed.
    """
    offs = _fraction_offsets(poly)
    n = poly.dim
    for _ in range(n + 1):
        slack = [sum(c * x for c, x in zip(g, point)) - offs[i] for i, (g, _) in enumerate(poly.rows)]
        tight = [list(poly.rows[i][0]) for i in range(len(slack)) if slack[i] == 0]
        d = nullspace_vector(tight + [list(objective)], n)
        if d is None:
            return point
        moved = False
        for direction in (d, tuple(-x for x in d)):
            tmax = None
            for i, (g, _) in enumerate(poly.rows):
                gd = sum(c * x for c, x in zip(g, direction))
                if gd < 0:
                    t = slack[i] / (-gd)
                    if tmax is None or t < tmax:
                        tmax = t
            if tmax is not None:
                point = tuple(x + tmax * dx for x, dx in zip(point, direction))
                moved = True
                break
        if not moved:
            return point
    return point


def simplex_recession_bounded(normals, dim) -> bool:
    """True iff {u : <u, g> >= 0 for all g} is the origin alone: the simplex
    finds every coordinate bounded in both directions over that cone."""
    cone = HPolytope(dim, tuple((g, Scalar(0)) for g in normals))
    for axis in range(dim):
        for sign in (1, -1):
            obj = tuple(sign if j == axis else 0 for j in range(dim))
            if simplex_solve(LPProblem(obj, cone)).status == "unbounded":
                return False
    return True


# ---------------------------------------------------------------------------
# The per-slice lattice count: the reference that polyhedra.lattice_points'
# chamber sum must agree with.  Its slicer is the one the library's lattice
# minimum walked before that minimum counted cuts by the chamber sum.


def polygon_slices(p: HPolytope):
    """Yield the integer rows of the polygon over each integer prefix of the
    leading dim - 2 coordinates in the vertex box, for dim >= 3: the integer
    points over the prefix are those of the rows (h, c) of
    polyhedra._integer_rows, sliced, read <v, h> >= c on the last two
    coordinates.  Each box end is read off the vertex numerators, so no
    vertex is built: ceil(min) = min(ceil)."""
    rows = _integer_rows(p)
    lead = p.dim - 2
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
        yield from _sliced(rows, boxes)


def _sliced(rows, boxes):
    """polygon_slices past its set-up: the leading coordinate t runs over
    the interval of its box and of the rows that vanish beyond it, each
    other row moves its offset by one product, and the next box slices on."""
    free = [((g[0],), c) for g, c in rows if not any(g[1:])]
    cut = [(g[0], g[1:], c) for g, c in rows if any(g[1:])]
    for t in _interval(free + boxes[0]):
        sliced = [(g, c - h * t) for h, g, c in cut]
        if len(boxes) > 1:
            yield from _sliced(sliced, boxes[1:])
        else:
            yield sliced


def lattice_points_by_slices(p: HPolytope) -> int:
    """The integer points of a bounded polytope of dimension 3 or more, one
    polygon of polygon_slices per integer value of the leading coordinates,
    each counted by its floor sums, so the cost grows as the dilation to the
    power n - 2."""
    return sum(map(_count_2d, polygon_slices(p)))


# ---------------------------------------------------------------------------
# B+ by the epsilon schedule: the reference that toric.bplus_div's facet rule
# must agree with.  It runs on the simplex above and on the library's sigma.


@lru_cache(maxsize=None)
def ample_divisor(fan: Fan) -> TDivisor:
    """Some ample divisor, from the strict-convexity margin LP.

    Variables: one coefficient per ray, one linear functional per maximal
    cone, and a margin t capped at 1; the functional of the first cone is
    pinned to zero to remove the translation freedom.  Maximizing t with
    equality on each cone's own rays and slack >= t elsewhere yields a
    strictly convex support function exactly when the fan is projective.
    """
    R, C, n = fan.nrays, len(fan.max_cones), fan.dim
    nvars = R + C * n + 1
    tvar = nvars - 1
    rows = []

    def row(indexed, offset=0):
        g = [0] * nvars
        for j, c in indexed:
            g[j] += c
        return (tuple(g), Scalar(offset))

    for ci, cone in enumerate(fan.max_cones):
        base = R + ci * n
        for ri in range(R):
            ray = fan.rays[ri]
            entries = [(base + j, ray[j]) for j in range(n)] + [(ri, 1)]
            if ri in cone:
                rows.append(row(entries))
                rows.append(row([(j, -c) for j, c in entries]))
            else:
                rows.append(row(entries + [(tvar, -1)]))
    for j in range(n):  # gauge: first cone's functional is zero
        rows.append(row([(R + j, 1)]))
        rows.append(row([(R + j, -1)]))
    rows.append(row([(tvar, -1)], -1))  # t <= 1

    objective = tuple(-1 if j == tvar else 0 for j in range(nvars))
    result = simplex_solve(LPProblem(objective, HPolytope(nvars, tuple(rows))))
    if result.status != "optimal" or result.point[tvar].sign() <= 0:
        raise RdivError("fan admits no strictly convex support function")
    return TDivisor(fan, result.point[:R])


def bplus_halving(D: TDivisor, max_halvings: int = 20):
    """The support of the negative part of D - eps*A along a halving eps
    schedule, as the list of (eps, support) pairs; it ends once the support
    has repeated three times in a row, and its last support is B+(D)."""
    if not is_big(D):
        raise NotBig("the divisorial augmented base locus needs a big divisor")
    A = ample_divisor(D.fan)
    eps = Scalar(1)
    guard = 0
    while not is_big(D - A.scale(eps)):
        eps = eps / 2
        guard += 1
        if guard > 60:
            raise RdivError("could not make D - eps*A big")
    history = []
    for _ in range(max_halvings + 1):
        shifted = D - A.scale(eps)
        support = frozenset(i for i in range(D.fan.nrays) if sigma(shifted, i).sign() > 0)
        history.append((eps, support))
        if len(history) >= 3 and history[-1][1] == history[-2][1] == history[-3][1]:
            return history
        eps = eps / 2
    raise RdivError(
        f"support of the negative part did not stabilize within {max_halvings} halvings"
    )


# ---------------------------------------------------------------------------
# Volume, bigness and B+ from the vertex set: the references that the facet
# record of polyhedra and toric.volume/is_big/bplus_div must agree with.
# They run on the elimination vertex oracle above.


def det(matrix):
    """Determinant by exact elimination."""
    a = [[x if isinstance(x, Scalar) else Fraction(x) for x in row] for row in matrix]
    n = len(a)
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            result = -result
        result = a[col][col] * result
        for r in range(col + 1, n):
            ratio = a[r][col] / a[col][col]
            a[r] = [x - ratio * y for x, y in zip(a[r], a[col])]
    return result


def affine_rank(points) -> int:
    """Dimension of the affine hull of a point set (-1 for empty)."""
    pts = list(points)
    if not pts:
        return -1
    return matrix_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]) if pts[1:] else 0


def tight_sets(verts, rows):
    """For each row, the indices of the vertices on its hyperplane."""
    return [
        frozenset(k for k, v in enumerate(verts) if sum(c * x for c, x in zip(g, v)) == o)
        for g, o in rows
    ]


def _triangulate(face, dim, verts, tight):
    """Simplices (vertex-index tuples) of a dim-dimensional face, coned from
    its least vertex over the faces of its facets."""
    if dim == 0:
        return [(min(face),)]
    apex = min(face)
    seen = set()
    out = []
    for row in tight:
        sub = face & row
        if not sub or sub == face or apex in sub or sub in seen:
            continue
        if affine_rank([verts[k] for k in sub]) != dim - 1:
            continue
        seen.add(sub)
        out += [(apex,) + s for s in _triangulate(sub, dim - 1, verts, tight)]
    return out


def triangulated_volume(p: HPolytope) -> Scalar:
    """n-volume by coning facet triangulations over the vertex centroid."""
    verts = sorted(vertices(p))
    n = p.dim
    if affine_rank(verts) < n:
        return Scalar(0)
    tight = tight_sets(verts, p.rows)
    centroid = [sum((v[j] for v in verts), Scalar(0)) / len(verts) for j in range(n)]
    total = Scalar(0)
    for facet in set(tight):
        if affine_rank([verts[k] for k in facet]) != n - 1:
            continue
        for simplex in _triangulate(facet, n - 1, verts, tight):
            total += abs(det([[verts[k][j] - centroid[j] for j in range(n)] for k in simplex]))
    return total / math.factorial(n)


def vertex_rank_big(D: TDivisor) -> bool:
    """Big iff the vertices of the section polytope span dimension n."""
    return affine_rank(vertex_set_by_elimination(polytope_of(D))) == D.fan.dim


def tight_set_bplus(D: TDivisor) -> frozenset:
    """Rays whose tight vertices have affine rank below n - 1."""
    p = polytope_of(D)
    verts = vertex_set_by_elimination(p)
    return frozenset(
        i
        for i, tight in enumerate(tight_sets(verts, p.rows))
        if affine_rank([verts[k] for k in tight]) < D.fan.dim - 1
    )


def sigma_decomposition_by_lp(D: TDivisor) -> SigmaDecomposition:
    """toric.sigma_decomposition with every ray's minimum read by one
    lp_solve over all the rays, and bigness by is_big: the reference for
    the rule that reads sigma = 0 off the facet record outside B+."""
    if not is_big(D):
        raise NotBig("sigma decomposition is defined for big divisors only")
    pos = _divisor(D.fan, *_record(lp_solve(D.polytope, D.fan.rays)))
    return SigmaDecomposition(D - pos, pos)


# ---------------------------------------------------------------------------
# A lattice basis that puts <g, u> on the first coordinate, for the face
# rows of the Lasserre reference below.


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


# ---------------------------------------------------------------------------
# Lasserre's recursion in Scalar arithmetic: the reference for the facet
# record that polyhedra reads off the vertex table by Lawrence's formula.
# It projects every face with its own kernel basis and shifts Scalar
# offsets, and measures the faces of a flat polytope on their hyperplanes,
# where the record reads 0.


def _scalar_face_rows(rows, g, c):
    """Rows of the face <u, g> = c of {<u, h> >= d} in the coordinates of a
    lattice basis of the hyperplane's direction; None when a row parallel to
    g excludes the hyperplane."""
    j = next(i for i, x in enumerate(g) if x)
    shift = c / g[j]  # the base point shift * e_j lies on the hyperplane
    basis = unimodular_basis(g)[1:]
    out = []
    for h, d in rows:
        hb = tuple(sum(x * y for x, y in zip(h, b)) for b in basis)
        if any(hb):
            out.append((hb, d - shift * h[j] if h[j] else d))
        elif d > shift * h[j]:
            return None
    return out


def scalar_lasserre_volume(n: int, rows) -> Scalar:
    """Lattice n-volume of the bounded polytope {<u, g> >= c} for Scalar
    offsets c (0 for None): n * vol = sum over the distinct gcd-normalised
    rows of -c * vol(face)."""
    if rows is None:
        return Scalar(0)
    if n == 0:
        return Scalar(1)
    unique = {}
    for g, c in rows:
        k = math.gcd(*g)
        unique[(g, c) if k == 1 else (tuple(x // k for x in g), c / k)] = None
    total = Scalar(0)
    for g, c in unique:
        if c:
            total = total - c * scalar_lasserre_volume(n - 1, _scalar_face_rows(unique, g, c))
    return total / n


def facet_scalars(p: HPolytope) -> tuple:
    """The integer facet record of polyhedra._facet_volumes, one Scalar per
    row."""
    xs, ys, q = _facet_volumes(p)
    return tuple(_new(x, y, q, p.disc) for x, y in zip(xs, ys))


def scalar_facet_volumes(p: HPolytope) -> tuple:
    """The facet record of a bounded polytope by the Scalar recursion."""
    rows = p.rows
    return tuple(scalar_lasserre_volume(p.dim - 1, _scalar_face_rows(rows, g, c)) for g, c in rows)


# ---------------------------------------------------------------------------
# Nefness cone by cone and the wall forms by Fraction elimination: the
# references for the wall rule of toric.is_nef and the integer cone
# coordinates behind it.


def wall_forms_by_elimination(fan: Fan) -> tuple:
    """toric._wall_forms with each wall's cone coordinates solved over the
    Fractions: for the wall shared by cone = wall + rho and opposite = wall
    + rho2, v_rho2 = sum of c_i v_i over the cone, and the form's dense row
    is den on rho2, -c_i den on each i of the cone and 0 elsewhere, for the
    lcm den of the c_i's denominators.  Assumes a valid fan."""
    cones_at = {}
    for cone in fan.max_cones:
        for wall in combinations(cone, fan.dim - 1):
            cones_at.setdefault(wall, []).append(cone)
    forms = []
    for wall, (cone, opposite) in cones_at.items():
        (rho2,) = set(opposite) - set(wall)
        c = dict(zip(cone, solve_square(list(zip(*(fan.rays[i] for i in cone))), fan.rays[rho2])))
        den = math.lcm(*(x.denominator for x in c.values()))
        row = [0] * fan.nrays
        row[rho2] = den
        for i, x in c.items():
            row[i] = int(-x * den)
        forms.append(tuple(row))
    return tuple(forms)


def is_nef_by_cones(D: TDivisor) -> bool:
    """Convexity of the support function over every maximal cone: the
    linear form m_sigma that matches -coeff on the rays of sigma must be
    >= -coeff on every ray."""
    fan = D.fan
    for cone in fan.max_cones:
        mat = [fan.rays[i] for i in cone]
        rhs = [-D.coeffs[i] for i in cone]
        u = solve_square(mat, rhs)
        if u is None:
            raise NonSimplicialCone(f"cone {cone} is degenerate")
        for i, ray in enumerate(fan.rays):
            if sum(c * x for c, x in zip(ray, u)) < -D.coeffs[i]:
                return False
    return True


# ---------------------------------------------------------------------------
# Scalar on two Fractions: the reference for rdiv.scalars.Scalar, which holds
# one reduced integer triple over a common denominator instead.


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class FractionScalar:
    """Immutable element of Q or Q(sqrt(d)) as two Fractions: rat + surd*sqrt(disc)."""

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
    def _make(cls, rat: Fraction, surd: Fraction, disc: int) -> "FractionScalar":
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
        if isinstance(value, FractionScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return FractionScalar._make(Fraction(value), Fraction(0), 0)
        return None

    def _join_disc(self, other: "FractionScalar") -> int:
        if self.disc and other.disc and self.disc != other.disc:
            raise MixedDiscriminant(self.disc, other.disc)
        return self.disc or other.disc

    # ---- field operations ------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_disc(o)
        return FractionScalar._make(self.rat + o.rat, self.surd + o.surd, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._join_disc(o)
        return FractionScalar._make(self.rat - o.rat, self.surd - o.surd, d)

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
            return FractionScalar._make(self.rat * o.rat, self.surd * o.rat, d)
        if not self.surd:
            return FractionScalar._make(self.rat * o.rat, self.rat * o.surd, d)
        return FractionScalar._make(
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
            return FractionScalar._make(self.rat / o.rat, self.surd / o.rat, d)
        # multiply by the conjugate; the norm is nonzero since sqrt(d) is irrational
        norm = o.rat * o.rat - o.surd * o.surd * d
        return self * FractionScalar._make(o.rat / norm, -o.surd / norm, d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return FractionScalar._make(-self.rat, -self.surd, self.disc)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = FractionScalar._make(Fraction(1), Fraction(0), 0)
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
            raise TypeError(f"cannot compare FractionScalar with {type(other).__name__}")
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
        n = math.floor(self * scale)
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
        return f"FractionScalar('{self}')"

    def __reduce__(self):
        return (FractionScalar, (self.rat, self.surd, self.disc))


# ---------------------------------------------------------------------------
# The principal divisor of a character, which no library output reads: the
# corpus generator below and the tests of the divisor's record build it.


def principal_divisor(fan: Fan, u) -> TDivisor:
    """div of the character u: coefficient <u, ray> on each ray, so offset
    -<u, ray> on u's record.  Raises ValueError unless u has one entry per
    coordinate."""
    u = tuple(map(_as_scalar, u))
    if len(u) != fan.dim:
        raise ValueError(f"a character of a {fan.dim}-fold has {fan.dim} entries, not {len(u)}")
    den, disc, A, B = _record(u)
    return _divisor(
        fan,
        den,
        disc,
        [-sum(map(mul, A, ray)) for ray in fan.rays],
        [-sum(map(mul, B, ray)) for ray in fan.rays],
    )


# ---------------------------------------------------------------------------
# The corpus generator that builds each coefficient as a Fraction, then a
# Scalar, and each divisor through Fan.divisor and principal_divisor: the
# reference for theorems.generate_corpus, which draws the same integers in
# the same order and builds each divisor straight from its offset record.
# It draws instances equal to the library's, with equal to_json().  It is
# kept as it stood in the library, but for its imports, which are global here.


def _rand_fraction(rng, lo=-3, hi=3, dens=(1, 2, 4)):
    den = rng.choice(dens)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _nef_big_divisor(fan, preset: str, rng):
    """Random point of the nef cone interior of a preset fan, dressed with a
    principal shift."""
    if preset == "P2":
        D = fan.divisor({"H": Scalar(_rand_fraction(rng, 1, 3))})
    elif preset == "P3":
        D = fan.divisor({"H": Scalar(_rand_fraction(rng, 1, 2))})
    elif preset == "P1xP1":
        D = fan.divisor(
            {"H1": Scalar(_rand_fraction(rng, 1, 2)), "H2": Scalar(_rand_fraction(rng, 1, 2))}
        )
    else:  # F_e: aC + bF with a > 0, b >= 0
        D = fan.divisor(
            {"C": Scalar(_rand_fraction(rng, 1, 2)), "F": Scalar(_rand_fraction(rng, 0, 1))}
        )
    shift = tuple(rng.randint(-1, 1) for _ in range(fan.dim))
    return D + principal_divisor(fan, shift)


def _random_big_divisor(fan, rng):
    for _ in range(200):
        D = fan.divisor([Scalar(_rand_fraction(rng)) for _ in range(fan.nrays)])
        if is_big(D):
            return D
    raise RuntimeError("could not sample a big divisor")


def _random_effective(fan, rng):
    coeffs = []
    for _ in range(fan.nrays):
        if rng.random() < 0.5:
            coeffs.append(Scalar(0))
        else:
            coeffs.append(Scalar(_rand_fraction(rng, 0, 2)))
    return fan.divisor(coeffs)


def generate_corpus_by_scalars(seed: int, count: int) -> list[CorpusInstance]:
    """Deterministic instance list; about 30% of the divisors are drawn
    from the nef cone so the nef clauses get exercised."""
    rng = random.Random(seed)
    out = []
    for index in range(count):
        preset = rng.choice(_PRESETS)
        fan = preset_fan(preset)
        nef_wanted = rng.random() < 0.3
        D = _nef_big_divisor(fan, preset, rng) if nef_wanted else _random_big_divisor(fan, rng)
        E = _random_effective(fan, rng)
        out.append(CorpusInstance(index, preset, D, E, nef_wanted))
    return out


# ---------------------------------------------------------------------------
# The eager walk of clause iv), kept as the library walked it before a shift
# stayed a draw until the walk reached it: every shift P is built before the
# walk starts, with D + P and D + P + F, and so are A's F = -E and B's steps
# rE.  It reads the draws of X.shifts(rng), the one rng stream a corpus
# shares, but builds each P on its own, as principal_divisor on a fan and as
# the divisor t F_i - t F_j on a surface, and decides mP ~_Z 0 on P's
# coefficients: the reference for theorems._sampled_clause, which must give
# the same clause and leave the rng in the same state.


def shift_divisor(D, s):
    """The shift P of a draw s of X.shifts, for X the model of D: div(v) of
    the character s = v on a fan, and t(F_i - F_j) for s = (i, j, t) on a
    surface model."""
    if isinstance(D, TDivisor):
        return principal_divisor(D.fan, s)
    i, j, t = s
    fibers = D.model.fibers
    return D.model.divisor({fibers[i]: t, fibers[j]: -t})


def _shift_is_integral(P, m) -> bool:
    """mP ~_Z 0: m an integer for a principal div(v) on a fan, and every
    coefficient of mP an integer for t(F_i - F_j), whose fibers are
    linearly equivalent."""
    if isinstance(P, TDivisor):
        return _as_scalar(m).is_integer()
    return all((b * m).is_integer() for b in P.fiber_coeffs)


def _sampled_witness(m, r, shift_idx) -> ClauseValue:
    witness = {"m": str(m)}
    if r is not None:
        witness["r"] = str(r)
    if shift_idx:
        witness["shift"] = shift_idx
    return ClauseValue("false", witness)


def sampled_clause_eagerly(X, theorem, D, E, m_grid, rng) -> ClauseValue:
    """Clause iv) of checker theorem ("A" or "B") on the Scalar multiples
    m_grid, with every divisor the walk may need built before it starts."""
    if theorem == "A":
        F, DF, steps = (E if E.is_zero() else E.scale(-1)), D - E, ()
    else:
        F, DF = E, D + E
        steps = () if E.is_zero() else [(r, E.scale(r)) for r in R_GRID]
    shifts = [shift_divisor(D, s) for s in X.shifts(rng)]
    if F.is_zero():
        for m in m_grid:
            X.h0(D, m)
        return ClauseValue("true")
    plain = {}  # k: h0(mD) for the k-th m, until a shift is trivial at m
    for shift_idx, P in enumerate([None] + shifts):
        base = D if P is None else D + P
        moved = DF if P is None else base + F
        for k, m in enumerate(m_grid):
            if P is not None and _shift_is_integral(P, m):
                if k not in plain:
                    continue
                at, h = D, plain.pop(k)
            else:
                at, h = base, X.h0(base, m)
                if X.h0(moved, m) != h:
                    return _sampled_witness(m, m if steps else None, shift_idx)
                if P is None:
                    plain[k] = h
                    continue
            for r, G in steps:
                if X.h0(at, m, G) != h:
                    return _sampled_witness(m, r, shift_idx)
    return ClauseValue("true")
