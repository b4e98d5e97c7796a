import hashlib
import math
import random
import sys
from operator import mul
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    EmptyPolytope,
    LPProblem,
    affine_rank,
    brute_vertices_2d,
    det,
    euclidean_volume,
    facet_scalars,
    lattice_point_list,
    lattice_points_by_slices,
    naive_lattice_count,
    scalar_facet_volumes,
    scalar_lasserre_volume,
    scale,
    shoelace,
    simplex_count,
    simplex_recession_bounded,
    simplex_solve,
    solve_square,
    translate,
    unimodular_basis,
    vertex_set_by_elimination,
    vertex_set_from_table,
    vertices,
)
from rdiv import scalars
from rdiv.errors import MixedDiscriminant, UnboundedPolytope
from rdiv.linalg import inverse, primitive
from rdiv.polyhedra import (
    HPolytope,
    _facet_volumes,
    _feasible,
    _floor_sum,
    _has_interior,
    _lattice_min,
    _minima,
    _vertex_table,
    is_bounded,
    lattice_form,
    lattice_points,
    lp_solve,
)
from rdiv.scalars import Scalar, sqrt
from rdiv.theorems import generate_corpus
from rdiv.toric import TDivisor, is_nef, polytope_of, preset_fan


def poly(rows, dim=2):
    return HPolytope(dim, tuple((tuple(g), Scalar(c) if not isinstance(c, Scalar) else c) for g, c in rows))


UNIT_SQUARE = poly([((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])
TRIANGLE = poly([((1, 0), 0), ((-1, 1), 0), ((0, -1), -1)])  # {0 <= x <= y <= 1}
SIMPLEX = poly([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)])


# ---- lp --------------------------------------------------------------------


def test_lp_basic_minimum():
    p = poly([((1, 0), 0), ((-1, 1), 0), ((0, -1), -1)])
    assert lp_solve(p, [(0, 1)]) == (Scalar(0),)


def test_lp_infeasible():
    p = HPolytope(1, (((1,), Scalar(0)), ((-1,), Scalar(1))))
    assert lp_solve(p, [(1,)]) is None
    assert lp_solve(p, []) is None


def test_lp_answers_every_objective_in_order():
    assert lp_solve(SIMPLEX, [(1, 0), (-1, 0), (0, -1), (-1, -1), (2, 3)]) == tuple(
        map(Scalar, (0, -1, -1, -1, 0))
    )
    assert lp_solve(SIMPLEX, []) == ()
    assert lp_solve(SIMPLEX, iter([(1, 0), (-1, 0)])) == (Scalar(0), Scalar(-1))


@pytest.mark.parametrize("objectives", [[(1,)], [(1, 0), (0, 1, 0)], [(1, 0), ()]])
def test_lp_rejects_an_objective_of_another_dimension(objectives):
    # zip would read a short or long objective as a shorter one; the check
    # holds on an empty polytope too, and on an iterator of objectives
    for p in (SIMPLEX, poly([((1, 0), 1), ((-1, 0), 0), ((0, 1), 0)])):
        for given in (objectives, iter(objectives)):
            with pytest.raises(ValueError, match="dimension"):
                lp_solve(p, given)


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 0.5, Scalar(1)])
def test_lp_rejects_an_objective_that_is_not_integer(entry):
    with pytest.raises(TypeError):
        lp_solve(SIMPLEX, [(entry, 0)])


def test_lp_sigma_shape():
    # min 1 + y over {x>=0, y>=-1, y>=x, y<=1}; frozen from the 2-subset oracle
    rows = [((1, 0), 0), ((0, 1), -1), ((-1, 1), 0), ((0, -1), -1)]
    cand = brute_vertices_2d(rows)
    assert cand == {(0, 0), (0, 1), (1, 1)}
    best = min(1 + y for _, y in cand)
    assert best == 1
    (value,) = lp_solve(poly(rows), [(0, 1)])
    assert 1 + value == Scalar(best)


def test_lp_unbounded():
    # the vertex minimum needs a bounded polytope; a half-line raises
    p = HPolytope(1, (((1,), Scalar(0)),))
    with pytest.raises(UnboundedPolytope):
        lp_solve(p, [(-1,)])


def test_simplex_oracle_reports_unbounded():
    p = HPolytope(1, (((1,), Scalar(0)),))
    assert simplex_solve(LPProblem((-1,), p)).status == "unbounded"
    assert simplex_solve(LPProblem((1,), p)).value == Scalar(0)


def test_lp_flat_objective():
    # every vertex attains the zero objective
    assert lp_solve(UNIT_SQUARE, [(0, 0)]) == (Scalar(0),)


def test_lp_irrational_offsets():
    r2 = sqrt(2)
    p = HPolytope(1, (((1,), -r2), ((-1,), -r2)))
    assert lp_solve(p, [(1,), (-1,)]) == (-r2, -r2)


# ---- construction ----------------------------------------------------------


@pytest.mark.parametrize(
    "dim, rows",
    [(1, [((1.5,), 0), ((-1,), -3)]), (1.0, [((1,), 0), ((-1,), -3)])],
    ids=["float-normal", "float-dimension"],
)
def test_polytope_rejects_entries_that_are_not_integers(dim, rows):
    # int() would truncate the normal 1.5 to 1, and the float dimension
    # would be stored and fail only at the first query
    with pytest.raises(TypeError):
        HPolytope(dim, rows)


@pytest.mark.parametrize("dim", [0, -1])
def test_polytope_rejects_a_dimension_below_one(dim):
    # at 0 a lattice count would index a missing coordinate, and below 0
    # every query would fail inside itertools
    with pytest.raises(ValueError, match="at least 1"):
        HPolytope(dim, [])


@pytest.mark.parametrize(
    "rows, message",
    [([((1, 0, 0), 0)], "wrong length"), ([((1, 0), 0), ((0, 0), 1)], "zero normal")],
    ids=["long-normal", "zero-normal"],
)
def test_polytope_rejects_a_normal_it_cannot_read(rows, message):
    with pytest.raises(ValueError, match=message):
        HPolytope(2, rows)


# ---- vertices --------------------------------------------------------------


def test_vertices_unit_square():
    assert vertices(UNIT_SQUARE) == {
        (Scalar(0), Scalar(0)),
        (Scalar(1), Scalar(0)),
        (Scalar(0), Scalar(1)),
        (Scalar(1), Scalar(1)),
    }


def test_vertices_triangle_against_oracle():
    rows = [((1, 0), 0), ((-1, 1), 0), ((0, -1), -1)]
    expected = {tuple(map(Scalar, v)) for v in brute_vertices_2d(rows)}
    assert expected == {(Scalar(0), Scalar(0)), (Scalar(0), Scalar(1)), (Scalar(1), Scalar(1))}
    assert vertices(poly(rows)) == expected


def test_vertices_empty():
    p = HPolytope(1, (((1,), Scalar(1)), ((-1,), Scalar(0))))
    with pytest.raises(EmptyPolytope):
        vertices(p)


def test_vertices_unbounded():
    p = poly([((1, 0), 0), ((0, 1), 0)])
    with pytest.raises(UnboundedPolytope):
        vertices(p)
    assert not is_bounded(p)


# ---- volume ----------------------------------------------------------------


def test_volume_unit_square():
    assert euclidean_volume(UNIT_SQUARE) == Scalar(1)


def test_volume_triangle():
    assert euclidean_volume(TRIANGLE) == Scalar(Fraction(1, 2))


def test_volume_lower_dimensional_is_zero():
    segment = poly([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])
    assert euclidean_volume(segment) == Scalar(0)


def test_volume_empty_raises():
    p = HPolytope(1, (((1,), Scalar(1)), ((-1,), Scalar(0))))
    with pytest.raises(EmptyPolytope):
        euclidean_volume(p)


def test_volume_matches_shoelace_on_random_polygons():
    rng = random.Random(5)
    fans = [preset_fan("P2"), preset_fan("F1"), preset_fan("P1xP1")]
    checked = 0
    while checked < 25:
        fan = rng.choice(fans)
        D = fan.divisor([Fraction(rng.randint(-6, 12), rng.choice((1, 2, 3))) for _ in fan.rays])
        p = polytope_of(D)
        rows = [(g, o.rat) for g, o in p.rows]
        try:
            vs = vertices(p)
        except EmptyPolytope:
            continue
        expected = shoelace({(v[0].rat, v[1].rat) for v in vs})
        assert euclidean_volume(p) == Scalar(expected)
        checked += 1


def test_volume_3d_cube_and_simplex():
    cube = HPolytope(
        3,
        tuple(
            (tuple(s if j == i else 0 for j in range(3)), Scalar(c))
            for i in range(3)
            for s, c in ((1, 0), (-1, -1))
        ),
    )
    assert euclidean_volume(cube) == Scalar(1)
    simplex3 = HPolytope(
        3,
        (
            ((1, 0, 0), Scalar(0)),
            ((0, 1, 0), Scalar(0)),
            ((0, 0, 1), Scalar(0)),
            ((-1, -1, -1), Scalar(-1)),
        ),
    )
    assert euclidean_volume(simplex3) == Scalar(Fraction(1, 6))


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=4))
@settings(max_examples=30)
def test_volume_dilation_homogeneity(num, den):
    lam = Fraction(num, den)
    assert euclidean_volume(scale(TRIANGLE, lam)) == Scalar(lam**2 * Fraction(1, 2))


def _random_unimodular(rng, n=2):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(4):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_unimodular_invariance():
    rng = random.Random(11)
    for _ in range(15):
        u = _random_unimodular(rng)
        # transform u' = U u => normals pick up U^{-T}; equivalently use U^T on rows
        transformed = HPolytope(
            2,
            tuple(
                (tuple(sum(g[k] * u[k][j] for k in range(2)) for j in range(2)), o)
                for g, o in TRIANGLE.rows
            ),
        )
        assert euclidean_volume(transformed) == euclidean_volume(TRIANGLE)
        assert lattice_points(transformed) == lattice_points(TRIANGLE)
        assert len(vertices(transformed)) == len(vertices(TRIANGLE))


# ---- lattice points --------------------------------------------------------


def test_lattice_unit_simplex():
    assert lattice_points(SIMPLEX) == 3


def test_lattice_dilated_simplex_binomial():
    m = 5
    assert simplex_count(m) == 21
    assert lattice_points(scale(SIMPLEX, m)) == 21


def test_lattice_empty():
    p = HPolytope(1, (((1,), Scalar(1)), ((-1,), Scalar(0))))
    assert lattice_points(p) == 0


def test_lattice_unbounded_raises():
    p = poly([((1, 0), 0), ((0, 1), 0)])
    with pytest.raises(UnboundedPolytope):
        lattice_points(p)


def test_lattice_against_membership_oracle():
    rng = random.Random(3)
    fans = [preset_fan("P2"), preset_fan("F2"), preset_fan("P1xP1")]
    checked = 0
    while checked < 20:
        fan = rng.choice(fans)
        D = fan.divisor([Fraction(rng.randint(-4, 8), rng.choice((1, 2))) for _ in fan.rays])
        p = polytope_of(D)
        rows = [(g, o.rat) for g, o in p.rows]
        expected, pts = naive_lattice_count(rows, 2, -20, 20)
        assert lattice_points(p) == expected
        assert sorted(lattice_point_list(p)) == sorted(pts)
        checked += 1


@st.composite
def offsets(draw, lo, hi):
    """A rational offset in [lo, hi], plus a surd part in [0, sqrt 2] half the time."""
    den = draw(st.integers(1, 4))
    value = Scalar(Fraction(draw(st.integers(lo * den, hi * den)), den))
    if draw(st.booleans()):
        value = value + Scalar(0, Fraction(draw(st.integers(0, 3)), 3), 2)
    return value


@st.composite
def small_polytopes(draw):
    """A box |u_i| <= 5 in dimension 1 to 4, cut by up to two random rows;
    half of those leave the last coordinate free, so they filter prefixes.
    Dimension 4 slices twice before the planar count."""
    dim = draw(st.integers(1, 4))
    rows = []
    for i in range(dim):
        for sign in (1, -1):
            rows.append((tuple(sign if j == i else 0 for j in range(dim)), -draw(offsets(0, 3))))
    for _ in range(draw(st.integers(0, 2))):
        g = draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
        if draw(st.booleans()):
            g[-1] = 0
        assume(any(g))
        rows.append((tuple(g), draw(offsets(-6, 6))))
    return HPolytope(dim, tuple(rows))


# normals of P1, P2, F1, P3 and the non-unimodular P2/mu3, whose first
# vertex table entry has q = 3, with a box around their section polytopes
# for offsets in [-4, 4 + sqrt 2]
FORM_NORMALS = {
    "P1": (((1,), (-1,)), (-6, 15)),
    "P2": (((1, 0), (0, 1), (-1, -1)), (-6, 15)),
    "F1": (((1, 0), (0, 1), (-1, 1), (0, -1)), (-10, 15)),
    "P3": (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), (-6, 16)),
    "P2/mu3": (((2, -1), (-1, 2), (-1, -1)), (-15, 15)),
}


@st.composite
def section_polytopes(draw):
    """A polytope on the normals of FORM_NORMALS, with rational or Q(sqrt 2)
    offsets in [-4, 4 + sqrt 2]; some are empty.  Returns (p, box)."""
    normals, box = FORM_NORMALS[draw(st.sampled_from(sorted(FORM_NORMALS)))]
    return HPolytope(len(normals[0]), [(g, draw(offsets(-4, 4))) for g in normals]), box


@given(section_polytopes())
@settings(max_examples=80, deadline=None)
def test_interior_by_the_eps_rule_is_positive_volume(drawn):
    p, _ = drawn
    volume = scalar_lasserre_volume(p.dim, p.rows) if vertex_set_by_elimination(p) else 0
    assert _has_interior(p) == (volume > 0)


def test_lattice_form_of_the_mu3_normals_divides_by_q():
    p = HPolytope(2, [(g, Fraction(1, 3)) for g in FORM_NORMALS["P2/mu3"][0]])
    assert _vertex_table(p.normals, 2)[1][0][2] == 3
    assert lattice_form(p) == lattice_form(translate(p, (5, -7)))


@given(section_polytopes(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
# x, y >= 2 and x + y <= -2: empty
@example((HPolytope(2, [(g, Scalar(2)) for g in FORM_NORMALS["P2"][0]]), (-6, 15)), [1, -2, 0])
def test_lattice_form_counts_the_polytope_and_forgets_integer_translations(drawn, shift):
    p, (lo, hi) = drawn
    form = lattice_form(p)
    assert (form.normals, form.den, form.disc) == (p.normals, 1, 0)
    expected, _ = naive_lattice_count(p.rows, p.dim, lo, hi)
    assert lattice_points(form) == lattice_points.__wrapped__(p) == expected
    assert lattice_form(translate(p, shift[: p.dim])) == form


@given(section_polytopes(), st.lists(st.integers(-4, 4), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
# x, y >= 2 and x + y <= -2: empty
@example((HPolytope(2, [(g, Scalar(2)) for g in FORM_NORMALS["P2"][0]]), (-6, 15)), [2, -1, 0])
# 1/3 <= u <= 2/3 and the triangle sqrt(2)/4 <= x, y and x + y <= 5/4: no lattice point
@example((HPolytope(1, [((1,), Fraction(1, 3)), ((-1,), Fraction(-2, 3))]), (-6, 15)), [3, 0, 0])
@example(
    (HPolytope(2, zip(FORM_NORMALS["P2"][0], (sqrt(2) / 4, sqrt(2) / 4, Fraction(-5, 4)))), (-6, 15)),
    [1, 1, 0],
)
def test_lattice_min_is_the_least_value_over_the_lattice_points(drawn, g):
    p, _ = drawn
    pts = lattice_point_list(p)
    g = tuple(g[: p.dim])
    # every normal, a random vector when it is not zero, and its primitive form
    for h in p.normals + ((g, primitive(g)) if any(g) else ()):
        expected = min((sum(map(mul, h, u)) for u in pts), default=None)
        assert _lattice_min(p, h) == expected, h


def test_lattice_min_rounds_its_range_off_the_integers_and_builds_no_scalar():
    # the range of <g, u> over the vertices is read as integer numerators and
    # rounded by one floor each: no Scalar is built, by Scalar() or _new, and
    # none is rounded by math.ceil
    p = HPolytope(3, zip(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), (sqrt(2) / 4, 0, 0, -7 - sqrt(2))))
    watched = {Scalar.__init__.__code__, scalars._new.__code__, Scalar.__ceil__.__code__}
    built = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            built.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        lows = [_lattice_min(p, g) for g in p.normals + ((2, -4, 6),)]
    finally:
        sys.setprofile(None)
    assert lows == [1, 0, 0, -8, -26]
    assert built == []


@pytest.mark.parametrize("g", [(1,), (-3,), (0, -1), (6, -4), (2, 3, 0), (0, 0, -5), (3, -7, 12, 5)])
def test_unimodular_basis_puts_the_gcd_on_its_first_vector(g):
    y, *kernel = basis = unimodular_basis(g)
    assert sum(map(mul, g, y)) == math.gcd(*g)
    assert all(sum(map(mul, g, k)) == 0 for k in kernel)
    assert abs(det(basis)) == 1


@pytest.mark.parametrize("zero", [(0,), (0, 0, 0)])
def test_the_zero_vector_has_no_primitive_form_and_no_basis(zero):
    with pytest.raises(ValueError, match="zero vector"):
        primitive(zero)
    with pytest.raises(ValueError, match="zero vector"):
        unimodular_basis(zero)


@pytest.mark.parametrize(
    "rows",
    [
        # normals of rank 1: an empty vertex table
        [((1, 0), 0), ((-1, 0), -2)],
        [((1, 0), Fraction(1, 2)), ((-1, 0), -2), ((2, 0), sqrt(2))],
        # full rank, with a nonzero recession cone (e1 lies in both)
        [((1, 0), 0), ((0, 1), Fraction(-1, 3))],
        [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, -1), -5)],
    ],
)
def test_lattice_form_of_an_unbounded_polytope_still_raises(rows):
    p = poly(rows, dim=len(rows[0][0]))
    with pytest.raises(UnboundedPolytope):
        lattice_points(lattice_form(p))


def test_rows_free_in_the_last_coordinate_filter_prefixes():
    # the cube |u_i| <= 1 cut by x + y >= 1 keeps the prefixes (0, 1), (1, 0), (1, 1)
    cube = [(tuple(s if j == i else 0 for j in range(3)), -1) for i in range(3) for s in (1, -1)]
    p = poly(cube + [((1, 1, 0), 1)], dim=3)
    assert lattice_points(p) == 9
    assert {u[:2] for u in lattice_point_list(p)} == {(0, 1), (1, 0), (1, 1)}


@given(small_polytopes())
@settings(max_examples=60)
def test_interval_count_matches_membership_oracle(p):
    expected, pts = naive_lattice_count(p.rows, p.dim, -5, 5)
    assert lattice_points(p) == expected
    assert sorted(lattice_point_list(p)) == pts


# slice normals, each set with a chamber-sum period (the lcm of |det| over
# its (n-1)-subsets) of 1, 2 or 3
SLICE_NORMALS = {
    3: (
        ((1, 0), (0, 1), (-1, -1)),
        ((1, 0), (0, 1), (-1, 1), (0, -1)),
        ((1, 0), (1, 2), (-1, -1)),
        ((2, -1), (-1, 2), (-1, -1)),
    ),
    4: (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
        ((1, 0, 0), (0, 1, 0), (1, 1, 2), (-1, -1, -1)),
    ),
}


@st.composite
def wide_polytopes(draw):
    """A 3-D or 4-D polytope 20 to 200 wide (20 to 40 in 4-D, where the
    per-slice oracle counts one polygon per pair of leading coordinates),
    so that its stretches outrun n slices per residue class and the chamber
    sum samples.  Its rows are a set of SLICE_NORMALS and up to two copies
    of its members, each led by a first entry in [-2, 2], so that parallel
    slice rows trade places, and the two rows +-t >= c that bound t.  One
    of four options then moves every offset by a rational in [-1, 1] with
    a sqrt 2 part half the time, keeps them integers, adds the row g_0 +
    g_1 on c_0 + c_1 through every point where rows 0 and 1 meet (non-simple
    vertices), or presses the polytope flat on the opposite of row 0."""
    dim = draw(st.sampled_from([3, 4]))
    width = draw(st.integers(20, 200 if dim == 3 else 40))
    heads = draw(st.sampled_from(SLICE_NORMALS[dim]))
    heads += tuple(draw(st.lists(st.sampled_from(heads), max_size=2)))
    ends = [(1,) + (0,) * (dim - 1), (-1,) + (0,) * (dim - 1)]
    normals = [(draw(st.integers(-2, 2)),) + h for h in heads] + ends
    # t spans width / 2 to width; a slice row sits up to width / 2 from the
    # t axis, on either side, and tilts with t
    quarters = [draw(st.integers(-1, 2)) for _ in heads] + [draw(st.integers(1, 2)) for _ in ends]
    c = [-(width * k // 4) for k in quarters]
    option = draw(st.sampled_from(["moved", "integer", "non-simple", "flat"]))
    if option == "moved":
        c = [x + draw(offsets(-1, 1)) for x in c]
    elif option == "non-simple":
        g = tuple(a + b for a, b in zip(normals[0], normals[1]))
        assume(any(g))
        normals, c = normals + [g], c + [c[0] + c[1]]
    elif option == "flat":
        normals, c = normals + [tuple(-x for x in normals[0])], c + [-c[0]]
    return HPolytope(dim, zip(normals, c))


@given(wide_polytopes())
@settings(max_examples=60, deadline=None)
# P3 blown up at a fixed point, 30 H - E: four rows meet at the origin
@example(poly([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -30), ((1, 1, 1), 0)], dim=3))
def test_chamber_sum_matches_the_per_slice_count(p):
    assert lattice_points(p) == lattice_points_by_slices(p)


@given(
    st.integers(0, 60),
    st.integers(1, 50),
    st.integers(-200, 200),
    st.integers(-200, 200),
)
@example(0, 7, -3, -5)
@example(9, 1, -4, 11)
@settings(max_examples=300)
def test_floor_sum_matches_the_direct_sum(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_lattice_edges_crossing_at_a_lattice_vertex():
    # |x| + |y| <= 1: every vertex is a crossing of two slanted edges, and the
    # ends (-1, 0), (1, 0) are the only points with their x
    diamond = poly([((1, 1), -1), ((-1, 1), -1), ((1, -1), -1), ((-1, -1), -1)])
    assert lattice_points(diamond) == 5
    # the same through a non-lattice vertex: |x| + |y| <= 3/2
    assert lattice_points(scale(diamond, Fraction(3, 2))) == 5


def test_lattice_one_point_polytope():
    # {|x| <= y <= 0} is the origin, where three slanted rows cross
    point = poly([((-1, 1), 0), ((1, 1), 0), ((0, -1), 0)])
    assert lattice_points(point) == 1
    assert lattice_points(translate(point, (Fraction(1, 2), 0))) == 0
    assert lattice_points(HPolytope(1, (((1,), Scalar(4)), ((-1,), Scalar(-4))))) == 1


def test_lattice_segment():
    # the diagonal from (0, 0) to (3, 3), once with and once without x-bounds
    diagonal = [((1, -1), 0), ((-1, 1), 0)]
    assert lattice_points(poly(diagonal + [((1, 0), 0), ((-1, 0), -3)])) == 4
    assert lattice_points(poly(diagonal + [((1, 1), 0), ((-1, -1), -6)])) == 4
    # a slope-1/2 segment from (0, 0) to (4, 2) meets the lattice in 3 points
    slope = [((-1, 2), 0), ((1, -2), 0)]
    assert lattice_points(poly(slope + [((1, 0), 0), ((-1, 0), -4)])) == 3


def test_lattice_empty_thin_polygon():
    # 1/3 <= y - x <= 2/3 over 0 <= x <= 5: nonempty, with no integer point
    thin = poly([((-3, 3), 1), ((3, -3), -2), ((1, 0), 0), ((-1, 0), -5)])
    assert euclidean_volume(thin) > 0
    assert lattice_points(thin) == 0
    # a polygon whose rows have no common point at all
    assert lattice_points(poly([((1, 1), 3), ((-1, -1), -2), ((1, -1), -5), ((-1, 1), -5)])) == 0


@given(
    st.integers(10**29, 10**30),
    st.integers(-2 * 10**29, 2 * 10**29),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**30), 10**30),
    st.integers(0, 10**29 - 10**7),
)
# the lower row passes through the origin, slope just below 1
@example(3 * 10**29 + 7, 3 * 10**29 + 6, 0, 0, 10**29)
# both rows on the line y = x / 3 + 1: a segment with 7 points
@example(3 * 10**29, 10**29, 0, 3 * 10**29, 0)
@settings(max_examples=80)
def test_lattice_count_of_thin_polygons_with_30_digit_rows(b, a, tilt, c, width):
    # (a x + c) / b <= y <= ((a + tilt) x + c + width) / b over |x| <= 9: two
    # nearly parallel rows with slopes below 2 and intercepts below 10 in size,
    # less than 1 apart, that may cross inside the range
    rows = [((-a, b), c), ((a + tilt, -b), -(c + width)), ((1, 0), -9), ((-1, 0), -9)]
    expected, _ = naive_lattice_count(rows, 2, -30, 30)
    assert lattice_points(poly(rows)) == expected


def test_lattice_with_irrational_offsets():
    r2 = sqrt(2)
    # [-sqrt2, sqrt2]^2 box; integer points have coordinates in {-1, 0, 1}
    box = HPolytope(
        2,
        (((1, 0), -r2), ((0, 1), -r2), ((-1, 0), -r2), ((0, -1), -r2)),
    )
    assert lattice_points(box) == 9


def test_lattice_convergence_to_volume():
    for rows in (
        [((1, 0), 0), ((0, 1), 0), ((-1, -1), Fraction(-3, 2))],
        [((1, 0), 0), ((-1, 1), 0), ((0, -1), -2)],
    ):
        p = poly(rows)
        vol = euclidean_volume(p)
        errors = []
        for m in (10, 20, 40, 80):
            approx = Scalar(Fraction(lattice_points(scale(p, m)), m**2))
            errors.append(abs(approx - vol))
        assert all(errors[i + 1] <= errors[i] for i in range(len(errors) - 1))


# ---- facet lattice volume --------------------------------------------------


def test_facet_unit_square_top_edge():
    idx = UNIT_SQUARE.rows.index(((0, -1), Scalar(-1)))
    assert facet_scalars(UNIT_SQUARE)[idx] == Scalar(1)


def test_facet_vertex_only_is_zero():
    # row y >= 0 of {0 <= x <= y <= 1} touches only the vertex (0,0)
    p = poly([((1, 0), 0), ((0, 1), 0), ((-1, 1), 0), ((0, -1), -1)])
    idx = p.rows.index(((0, 1), Scalar(0)))
    assert facet_scalars(p)[idx] == Scalar(0)


def test_facet_skew_edge_lattice_length():
    # edge from (0,0) to (2,2) along x - y = 0 has lattice length 2
    p = poly([((1, -1), 0), ((-1, 0), -2), ((0, 1), 0), ((1, 1), 0)])
    idx = 0
    assert facet_scalars(p)[idx] == Scalar(2)


def test_facet_slack_row_is_zero():
    slack = poly([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1), ((1, 1), -5)])
    assert facet_scalars(slack)[3] == Scalar(0)


def test_facet_3d_area():
    cube = HPolytope(
        3,
        tuple(
            (tuple(s if j == i else 0 for j in range(3)), Scalar(c))
            for i in range(3)
            for s, c in ((1, 0), (-1, -2))
        ),
    )
    assert facet_scalars(cube)[1] == Scalar(4)


def _edge_lattice_length(v1, v2):
    """Oracle: the rational t with (v2 - v1) = t * primitive integer vector."""
    from math import gcd

    dx, dy = v2[0] - v1[0], v2[1] - v1[1]
    den = dx.denominator * dy.denominator // gcd(dx.denominator, dy.denominator)
    g = gcd(int(dx * den), int(dy * den))
    return Fraction(g, den)


def test_facet_volume_matches_edge_length_oracle():
    rng = random.Random(31)
    fans = [preset_fan("P2"), preset_fan("F1"), preset_fan("F2"), preset_fan("P1xP1")]
    checked = 0
    while checked < 25:
        fan = rng.choice(fans)
        D = fan.divisor([Fraction(rng.randint(-4, 8), rng.choice((1, 2, 3))) for _ in fan.rays])
        p = polytope_of(D)
        try:
            vs = sorted(vertices(p))
        except EmptyPolytope:
            continue
        if affine_rank(vs) < 2:
            # a flat polygon has no facet: the record reads every row 0
            assert not any(facet_scalars(p))
            checked += 1
            continue
        for row_idx, (g, o) in enumerate(p.rows):
            tight = [
                v for v in vs if sum(c * x.rat for c, x in zip(g, v)) == o.rat
            ]
            expected = Fraction(0)
            if len(tight) == 2:
                expected = _edge_lattice_length(
                    (tight[0][0].rat, tight[0][1].rat), (tight[1][0].rat, tight[1][1].rat)
                )
            elif len(tight) > 2:
                continue  # cannot happen for a 2d polytope edge
            assert facet_scalars(p)[row_idx] == Scalar(expected)
        checked += 1


# ---- lp vs the simplex oracle ------------------------------------------------


@given(section_polytopes(), st.lists(st.integers(-3, 3), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None)
# x, y >= 2 and x + y <= -2: empty
@example((HPolytope(2, [(g, Scalar(2)) for g in FORM_NORMALS["P2"][0]]), (-6, 15)), [1, -2, 0])
def test_lp_matches_simplex_oracle(drawn, g):
    """One call minimises every normal and a random objective, each to the
    two-phase simplex's value; an empty polytope gives None where the
    simplex finds it infeasible."""
    p, _ = drawn
    objectives = p.normals + (tuple(g[: p.dim]),)
    refs = [simplex_solve(LPProblem(h, p)) for h in objectives]
    values = lp_solve(p, objectives)
    if values is None:
        assert all(ref.status == "infeasible" for ref in refs)
    else:
        assert values == tuple(ref.value for ref in refs)


def test_lp_matches_simplex_oracle_on_sqrt2_polytopes():
    rng = random.Random(41)
    fans = [preset_fan("P2"), preset_fan("F1"), preset_fan("P3")]
    checked = 0
    while checked < 24:
        fan = rng.choice(fans)
        coeffs = [
            Scalar(
                Fraction(rng.randint(-3, 6), rng.choice((1, 2))),
                Fraction(rng.randint(-2, 3), rng.choice((1, 3))),
                2,
            )
            for _ in fan.rays
        ]
        p = polytope_of(fan.divisor(coeffs))
        obj = tuple(rng.randint(-3, 3) for _ in range(fan.dim))
        problem = LPProblem(obj, p, Scalar(rng.randint(-2, 2), rng.randint(-1, 1), 2))
        values, ref = lp_solve(p, [obj]), simplex_solve(problem)
        if values is None:
            assert ref.status == "infeasible"
            continue
        assert ref.status == "optimal"
        (value,) = values
        assert value + problem.constant == ref.value
        # the simplex's purified optimum is one of the table's vertices
        assert ref.point in vertex_set_from_table(p)
        assert sum(map(mul, ref.point, obj)) == value
        checked += 1


# ---- the integer inverse against Fraction elimination -----------------------


@st.composite
def square_matrices(draw):
    """Small integer n x n matrices, n = 1..4, with determinants of both
    signs; a row is sometimes a multiple of another or zero, so that
    singular matrices are common, and the rows are shuffled so that the
    dependent row can be the first pivot."""
    n = draw(st.integers(1, 4))
    rows = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.integers(0, 3)) == 0:
        k = draw(st.integers(-2, 2))
        rows[draw(st.integers(1, n - 1))] = [k * x for x in rows[0]]
    return draw(st.permutations(rows))


@given(square_matrices())
@settings(max_examples=300)
@example([[1]])
@example([[0]])
@example([[-3]])
@example([[0, 1], [1, 0]])  # determinant -1
@example([[2, 4], [1, 2]])
@example([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
@example([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 3, 0, 0]])
def test_inverse_matches_fraction_elimination(rows):
    n = len(rows)
    cols = [solve_square(rows, [int(i == k) for i in range(n)]) for k in range(n)]
    inv = inverse(rows)
    if cols[0] is None:
        assert inv is None
        return
    M, q, d = inv
    assert q > 0 and math.gcd(q, *(x for row in M for x in row)) == 1
    assert d == abs(det(rows))
    assert all(Fraction(M[i][k], q) == cols[k][i] for i in range(n) for k in range(n))


def _random_normals(rng, dim):
    """Integer normal sets that are often degenerate: a few rows with small
    entries, sometimes a repeated row or a row and its negative."""
    rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, dim + 3))]
    rows = [g for g in rows if any(g)] or [(1,) * dim]
    if rng.random() < 0.3:
        rows.append(rng.choice(rows))
    if rng.random() < 0.2:
        rows.append(tuple(-c for c in rng.choice(rows)))
    return tuple(rows)


def test_recession_kernel_rule_matches_simplex():
    rng = random.Random(31)
    cases = [
        (((1,),), 1),  # a half-line
        (((1,), (-1,)), 1),
        (((2,), (1,)), 1),
        (((1, 0), (-1, 0)), 2),  # rank 1: holds the line of the second axis
        (((1, 1), (-1, -1), (2, 2)), 2),
        (((1, 0), (0, 1), (-1, -1), (-1, -1)), 2),  # a duplicate row
        (((1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)), 3),  # rank 3, unbounded in e3
        (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)), 3),
        (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)), 4),
        (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (-1, -1, -1, 0), (0, 0, 0, 1)), 4),
    ]
    cases += [(_random_normals(rng, dim), dim) for dim in (1, 2, 3, 4) for _ in range(40)]
    bounded = 0
    for normals, dim in cases:
        expected = simplex_recession_bounded(normals, dim)
        cone = HPolytope(dim, tuple((g, 0) for g in normals))
        assert is_bounded(cone) == expected, normals
        bounded += expected
    assert 10 <= bounded <= len(cases) - 10


# ---- the vertex table against Scalar elimination ---------------------------


def _vertex_table_cases():
    """Polytopes on which the integer vertex table must reproduce the
    elimination oracle: corpus section polytopes and their dilations, P3,
    30-digit Q(sqrt 2) offsets, duplicate rows, degenerate vertices, empty
    polytopes and the 1-dimensional fan."""
    r2 = sqrt(2)
    for inst in generate_corpus(2026, 40):
        _, D, _ = inst.realize()
        for m in (Scalar(1), Scalar(Fraction(5, 2)), r2):
            yield polytope_of(D.scale(m))
    P3 = preset_fan("P3")
    yield polytope_of(P3.divisor([1, 0, Fraction(1, 2), r2]))
    yield polytope_of(P3.divisor([0, 0, 0, 3]).scale(7))
    big = 10**30
    for fan in ("P2", "F1", "P3"):
        f = preset_fan(fan)
        coeffs = [Scalar(big + k, 3 * big - k, 2) / (k + 2) for k in range(f.nrays)]
        yield polytope_of(f.divisor(coeffs))
    # duplicate rows, with equal and with different offsets
    yield poly([((1, 0), 0), ((0, 1), 0), ((-1, -1), -2), ((-1, -1), -2), ((1, 0), -1)])
    # degenerate vertices: three or four rows through one vertex
    yield poly([((1, 0), 0), ((0, 1), 0), ((1, 1), 0), ((-1, -1), -1)])
    yield poly(
        [((a, b, c), -1) for a in (1, -1) for b in (1, -1) for c in (1, -1)], dim=3
    )  # the octahedron: four facets at each vertex
    yield poly([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 0)], dim=3)
    # empty polytopes
    yield poly([((1, 0), 1), ((0, 1), 0), ((-1, -1), 0)])
    yield poly([((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 1)], dim=3)
    # the 1-dimensional fan: a segment, a point, an empty interval
    for lo, hi in ((Fraction(-1, 2), r2), (3, 3), (2, 1)):
        yield HPolytope(1, (((1,), lo), ((-1,), -hi)))


def test_vertex_table_matches_elimination_oracle():
    checked = 0
    for p in _vertex_table_cases():
        assert vertex_set_from_table(p) == vertex_set_by_elimination(p), p
        checked += 1
    assert checked > 120


def test_vertex_table_keeps_raising_on_unbounded_input():
    for p in (
        poly([((1, 0), 0), ((0, 1), 0)]),
        poly([((1, 0), 0), ((-1, 0), -1)]),
        HPolytope(1, (((1,), 0), ((2,), 1))),
    ):
        with pytest.raises(UnboundedPolytope):
            vertex_set_from_table(p)
        with pytest.raises(UnboundedPolytope):
            vertex_set_by_elimination(p)


def test_scale_rejects_a_negative_factor():
    unit = HPolytope(1, (((1,), 0), ((-1,), -1)))
    assert lattice_points(unit) == 2
    assert lattice_points(scale(unit, Fraction(1, 2))) == 1
    for factor in (-1, Scalar(1, -1, 2), 0):
        with pytest.raises(ValueError):
            scale(unit, factor)


# ---- the offset record against Scalar arithmetic ---------------------------


def _full_dimensional(p):
    """True iff p has positive volume, by the oracles alone."""
    return bool(vertex_set_by_elimination(p)) and scalar_lasserre_volume(p.dim, p.rows) > 0


def test_facet_volumes_match_the_scalar_lasserre_oracle():
    checked = full = 0
    for p in _vertex_table_cases():
        if _full_dimensional(p):
            assert facet_scalars(p) == scalar_facet_volumes(p), p
            full += 1
        else:
            assert not any(facet_scalars(p)), p
        checked += 1
    assert checked > 120 and full > 100


def test_facet_record_reads_0_without_an_interior_point():
    """Lasserre measures the faces of a flat polytope on their own
    hyperplanes; the record reads every row 0 there, as no vertex of the
    perturbed polytope exists."""
    point = HPolytope(1, (((1,), 3), ((-1,), -3)))
    assert scalar_facet_volumes(point) == (Scalar(1), Scalar(1))
    assert facet_scalars(point) == (Scalar(0), Scalar(0))
    segment = poly([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), -1)])
    assert scalar_facet_volumes(segment) == tuple(map(Scalar, (1, 1, 0, 0)))
    assert facet_scalars(segment) == (Scalar(0),) * 4
    # the triangle y, z >= 0, y + z <= 1 in the plane x = 0
    triangle = HPolytope(3, zip(((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)), (0, 0, 0, 0, -1)))
    assert scalar_facet_volumes(triangle)[:2] == (Scalar(Fraction(1, 2)),) * 2
    assert facet_scalars(triangle) == (Scalar(0),) * 5


R2 = sqrt(2)
BIG = 10**30


# cut boxes, and the section polytopes of the corpus fans' normals
@given(st.one_of(small_polytopes(), section_polytopes().map(lambda drawn: drawn[0])))
@settings(max_examples=140, deadline=None)
# P3's simplex 0, 0, -1/2 <= u and u1 + u2 + u3 <= 2 + sqrt(2): four triangles
@example(HPolytope(3, zip(FORM_NORMALS["P3"][0], (0, 0, Fraction(-1, 2), -2 - R2))))
def test_facet_volumes_match_the_scalar_lasserre_oracle_on_small_polytopes(p):
    if _full_dimensional(p):
        assert facet_scalars(p) == scalar_facet_volumes(p)
    else:
        assert not any(facet_scalars(p))
    assert vertex_set_from_table(p) == vertex_set_by_elimination(p)


# ---- the Lasserre oracle ends at intervals ---------------------------------


@pytest.mark.parametrize(
    "rows, length",
    [
        ([(1, 2), (-1, -1)], 0),  # 2 <= u <= 1: the ends cross
        ([(-3, -3), (2, 3)], 0),  # 3/2 <= u <= 1, non-primitive
        ([(1, 3), (-1, -3)], 0),  # a single point
        ([(2, 6), (-5, -15), (1, 3)], 0),
        # duplicate and redundant bounds on both sides, largest numerators
        # on the redundant rows: 2 <= u <= 4
        ([(1, 0), (1, 0), (2, 3), (1, 2), (3, 1), (-1, -4), (-1, -4), (-2, -9), (-3, -13)], 2),
        ([(-3, -13), (-1, -4), (3, 1), (1, 2), (-2, -9), (2, 3)], 2),
        ([(2, 1), (-3, -5)], Fraction(7, 6)),  # 1/2 <= u <= 5/3
        ([(1, -R2 / 2), (-1, -1 - R2)], 1 + R2 * Fraction(3, 2)),
        # sqrt(2) > 7/5 and 1 + sqrt(2)/3 < 3/2: the surd decides both ends
        ([(1, Fraction(7, 5)), (2, 2 * R2), (-2, -3), (-3, -3 - R2)], 1 - R2 * Fraction(2, 3)),
        ([(1, BIG + Fraction(1, 3)), (-7, -7 * BIG - 5)], Fraction(8, 21)),
        ([(3, 3 * BIG * R2), (-2, -2 * BIG * R2 - 2 * BIG), (1, BIG * R2 - 1)], BIG),
    ],
)
def test_interval_length_is_read_off_the_ends(rows, length):
    p = HPolytope(1, [((k,), o) for k, o in rows])
    assert scalar_lasserre_volume(1, p.rows) == length


@st.composite
def interval_rows(draw):
    """1-dimensional rows (k, offset) in random order, with k in [-4, 4]
    nonzero and at least one k of each sign, and rational or Q(sqrt 2)
    offsets; half the time both ends sit near 10**30."""
    ks = [draw(st.integers(1, 4)), -draw(st.integers(1, 4))]
    ks += draw(st.lists(st.integers(-4, 4).filter(bool), max_size=4))
    shift = draw(st.sampled_from((0, BIG)))
    return draw(st.permutations([(k, draw(offsets(-4, 4)) + shift * k) for k in ks]))


@given(interval_rows())
@settings(max_examples=200)
def test_interval_length_matches_the_recursion_to_points(rows):
    lo = max(o / k for k, o in rows if k > 0)
    hi = min(o / k for k, o in rows if k < 0)
    expected = hi - lo if hi > lo else Scalar(0)
    p = HPolytope(1, [((k,), o) for k, o in rows])
    assert scalar_lasserre_volume(1, p.rows) == expected


def test_rows_mixing_two_surds_raise_mixed_discriminant():
    with pytest.raises(MixedDiscriminant):
        HPolytope(1, (((1,), -sqrt(2)), ((-1,), -sqrt(3))))
    with pytest.raises(MixedDiscriminant):
        preset_fan("F1").divisor({"C": sqrt(2), "E": sqrt(3)})
    # one surd, or a surd beside rationals, is one field
    assert HPolytope(1, (((1,), -sqrt(2)), ((-1,), Fraction(-1, 2)))).disc == 2


def test_equal_offsets_in_any_form_give_one_polytope():
    def square(o):
        return HPolytope(2, (((1, 0), 0), ((0, 1), 0), ((-1, 0), o), ((0, -1), -2)))

    for forms in (
        (Scalar(-1), -1, Fraction(-2, 2)),
        (Scalar(Fraction(-3, 2)), Fraction(-6, 4)),
        (Scalar(-1, -1, 8), -1 - 2 * sqrt(2)),
    ):
        polys = [square(o) for o in forms]
        assert all(p == polys[0] and hash(p) == hash(polys[0]) for p in polys)
        assert len({*polys}) == 1
    for inst in generate_corpus(2026, 20):
        _, D, _ = inst.realize()
        p = polytope_of(D)
        public = HPolytope(D.fan.dim, [(r, -c) for r, c in zip(D.fan.rays, D.coeffs)])
        assert p == public and hash(p) == hash(public)
        assert p.rows == public.rows == tuple((r, -c) for r, c in zip(D.fan.rays, D.coeffs))


def test_lattice_point_cache_equals_a_fresh_count():
    root2 = sqrt(2)
    for inst in generate_corpus(2026, 20):
        _, D, _ = inst.realize()
        for m in (1, 3, root2):
            p = polytope_of(D.scale(m))
            first = lattice_points(p)
            assert lattice_points(p) == first == lattice_points.__wrapped__(p)


# ---- the vertex-table kernels on the corpus ---------------------------------


def test_vertex_table_kernels_are_pinned_on_the_corpus():
    """For D, D - E, D + E and sqrt(2) D of every instance of the corpus, the
    facet record's integers, the row test's bigness, the wall test, and on a
    big polytope the LP minima over the fan's rays, hashed as one sha256: a
    rewrite of the kernels must give every integer back unchanged."""
    digest = hashlib.sha256()
    for inst in generate_corpus(2026, 200):
        D, E = inst.D, inst.E
        for T in (D, D - E, D + E, D.scale(R2)):
            p = T.polytope
            big = _has_interior(p)
            minima = _minima(p, T.fan.rays) if big else None
            digest.update(repr((_facet_volumes.__wrapped__(p), big, is_nef(T), minima)).encode())
    assert digest.hexdigest() == "9863427fe5f46d80e2cf512b01d74ee5c337a16f98b603d2ad6b2d600280edb4"


@st.composite
def rational_section_polytopes(draw):
    """(fan, p): a polytope on the rays of P2, F1, P1xP1 or P3, with rational
    offsets over a den of 1 to 4 in [-4, 4]; some are empty or flat."""
    fan = preset_fan(draw(st.sampled_from(("P2", "F1", "P1xP1", "P3"))))
    den = draw(st.integers(1, 4))
    offsets = [Fraction(draw(st.integers(-4 * den, 4 * den)), den) for _ in fan.rays]
    return fan, HPolytope(fan.dim, zip(fan.rays, offsets))


@given(rational_section_polytopes())
@settings(max_examples=120, deadline=None)
@example((preset_fan("P2"), HPolytope(2, zip(preset_fan("P2").rays, (0, 0, 0)))))
@example((preset_fan("P3"), HPolytope(3, zip(preset_fan("P3").rays, (0, Fraction(-1, 2), 0, -1)))))
def test_the_kernels_read_a_zero_surd_half_as_a_rational_record(drawn):
    # the same offsets relabelled into Q(sqrt 2) with every B_i = 0 take the
    # kernels' surd half, and a rational record skips it: both give one answer
    fan, p = drawn
    q = HPolytope._make(p.dim, p.normals, p.den, 2, p.A, (0,) * len(p.A))
    assert p.disc == 0 and q != p
    feasible = [(entry, a, tight) for entry, a, _, tight in _feasible(p)]
    assert feasible == [(entry, a, tight) for entry, a, _, tight in _feasible(q)]
    assert all(b == [0] * p.dim for _, _, b, _ in _feasible(q))
    xs, ys, scale = _facet_volumes.__wrapped__(p)
    assert _facet_volumes.__wrapped__(q) == (xs, ys, scale) and not any(ys)
    assert _has_interior(p) == _has_interior(q) == any(xs)
    assert _minima(p, fan.rays) == _minima(q, fan.rays)
    assert is_nef(TDivisor._make(fan, p)) == is_nef(TDivisor._make(fan, q))
