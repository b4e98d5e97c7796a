import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fans import star_fan
from oracles import (
    EmptyPolytope,
    LPProblem,
    ample_divisor,
    bplus_halving,
    euclidean_volume,
    facet_scalars,
    fresh,
    is_nef_by_cones,
    lattice_point_list,
    lattice_points_by_slices,
    principal_divisor,
    scalar_lasserre_volume,
    sigma_decomposition_by_lp,
    simplex_solve,
    tight_set_bplus,
    triangulated_volume,
    vertex_rank_big,
    vertex_set_by_elimination,
    vertex_set_from_table,
    vertices,
    wall_forms_by_elimination,
)
from rdiv import toric
from rdiv.errors import (
    MixedDiscriminant,
    NoSections,
    NonSimplicialCone,
    NotBig,
    NotEffective,
    NotNef,
    RdivError,
    UnsupportedDivisor,
)
from rdiv.polyhedra import lattice_form, lattice_points
from rdiv.scalars import Scalar, sqrt
from rdiv.surface import SurfaceModel
from rdiv.theorems import R_GRID, check_theorem_a, check_theorem_b, default_m_grid, generate_corpus
from rdiv.toric import (
    Fan,
    TDivisor,
    bplus_div,
    h0,
    intersection_nef_div,
    is_big,
    is_nef,
    polytope_of,
    preset_fan,
    sigma,
    sigma_decomposition,
    sigma_limit_oracle,
    volume,
)

P2 = preset_fan("P2")
F1 = preset_fan("F1")
F2 = preset_fan("F2")
P1P1 = preset_fan("P1xP1")
P3 = preset_fan("P3")

H = P2.divisor({"H": 1})
C = F1.divisor({"C": 1})
E = F1.divisor({"E": 1})
F = F1.divisor({"F": 1})


@pytest.mark.parametrize(
    "fan, coeffs",
    [(P2, {"H": 1, "r2": 2}), (P2, {2: 1, "H": 1}), (P2, {"r0": 1, 0: 1}), (F1, {"E": 1, "r1": 1})],
)
def test_fan_divisor_rejects_two_keys_for_one_ray(fan, coeffs):
    with pytest.raises(KeyError, match="both name ray"):
        fan.divisor(coeffs)


def rand_divisor(fan, rng, lo=-3, hi=3):
    return fan.divisor([Fraction(rng.randint(lo * 2, hi * 2), 2) for _ in fan.rays])


def rand_big(fan, rng, lo=-3, hi=3):
    while True:
        D = rand_divisor(fan, rng, lo, hi)
        if is_big(D):
            return D


# ---- fans ------------------------------------------------------------------


def test_presets_validate():
    for name in ("P2", "P3", "P1xP1", "F1", "F2", "F3"):
        preset_fan(name).validate()


def test_preset_fan_is_one_shared_fan_per_name():
    assert preset_fan("p_2") is preset_fan("P2") is P2
    assert preset_fan("f_1") is F1
    with pytest.raises(ValueError, match="unknown fan preset 'p_7'"):
        preset_fan("p_7")


def test_preset_aliases():
    assert F1.ray_index("E") == 1
    assert F1.ray_index("C") == 3
    assert F1.ray_index("F") == 0
    assert F1.ray_index("r2") == 2
    assert P2.ray_index("H") == 2


@pytest.mark.parametrize("key", [True, False])
def test_a_bool_names_no_ray(key):
    # True == 1 and False == 0, but a flag is not a ray index
    with pytest.raises(KeyError, match="unknown ray"):
        P2.ray_index(key)
    with pytest.raises(KeyError):
        P2.divisor({key: 1})
    with pytest.raises(KeyError):
        sigma(P2.divisor({"H": 1}), key)
    with pytest.raises(KeyError):
        sigma_limit_oracle(P2.divisor({"H": 1}), key, [1])


def test_fan_rejects_nonprimitive_ray():
    with pytest.raises(ValueError):
        Fan(2, ((2, 2), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)))


def test_fan_rejects_incomplete():
    with pytest.raises(ValueError):
        Fan(2, ((1, 0), (0, 1)), (((0, 1)),))


@pytest.mark.parametrize(
    "dim, rays, cones, message",
    [
        (2, P2.rays, ((0, 1), (1, 5), (2, 0)), "ray 5 is outside 0..2"),
        (2, P2.rays, ((0, 1), (1, -1), (-1, 0)), "ray -1 is outside 0..2"),
        (0, (), (), "dimension must be at least 1"),
        (2, P2.rays, (), "no maximal cones"),
        (2, P2.rays + ((1, 1),), P2.max_cones, "ray 3 lies in no maximal cone"),
        (2, ((1, 0), (0, 1, 0), (-1, -1)), P2.max_cones, "wrong dimension"),
    ],
    ids=["index-past-the-end", "negative-index", "empty-fan", "no-cones", "uncovered-ray", "3-d-ray"],
)
def test_fan_rejects_malformed_cone_lists(dim, rays, cones, message):
    with pytest.raises(ValueError, match=message):
        Fan(dim, rays, cones)


def test_fan_rejects_nonsimplicial():
    with pytest.raises(NonSimplicialCone):
        Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1, 2), (1, 2), (2, 0)))


def test_fan_rejects_a_cone_of_dependent_rays():
    # (1, 0) and (-1, 0) span a line, not a cone of full dimension
    with pytest.raises(NonSimplicialCone, match="dependent"):
        Fan(2, P1P1.rays, ((0, 2), (1, 2), (2, 3), (3, 0)))


def test_a_divisor_needs_one_coefficient_per_ray_and_one_fan():
    with pytest.raises(ValueError, match="coefficient count"):
        TDivisor(P2, (1, 2))
    with pytest.raises(ValueError, match="different fans"):
        H + C


# eight rays, each cone a quarter turn: every wall lies on two cones with the
# opposite rays on opposite sides, yet the cones cover the plane twice
DOUBLE_COVER = (
    ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)),
    ((0, 2), (2, 4), (4, 6), (6, 1), (1, 3), (3, 5), (5, 7), (7, 0)),
)
# the cones (0, 2) and (1, 2) lie on one side of the wall through ray 2
FOLDED = (((1, 0), (1, 1), (0, 1), (0, -1)), ((0, 2), (1, 2), (1, 3), (0, 3)))


@pytest.mark.parametrize(
    "rays, cones, message",
    [(*DOUBLE_COVER, "overlap"), (*FOLDED, "one side of wall")],
    ids=["double-cover", "folded"],
)
def test_fan_rejects_cones_that_overlap(rays, cones, message):
    with pytest.raises(ValueError, match=message):
        Fan(2, rays, cones)


@pytest.mark.parametrize(
    "names, message",
    [
        ((("X", 7),), "outside"),
        ((("X", -1),), "outside"),
        ((("X", 0), ("X", 1)), "twice"),
        ((("r1", 0),), "default label"),
        ((("2", 1),), "default label"),
    ],
    ids=["past-the-end", "negative", "duplicate", "shadows-r1", "shadows-2"],
)
def test_fan_rejects_bad_names(names, message):
    with pytest.raises(ValueError, match=message):
        Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)), names)


@pytest.mark.parametrize(
    "dim, rays, cones, names",
    [
        (2, ((1.9, 0.2), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)), ()),
        (2.0, P2.rays, P2.max_cones, ()),
        (2, P2.rays, ((0.0, 1), (1, 2), (2, 0)), ()),
        (2, P2.rays, P2.max_cones, (("X", 1.0),)),
    ],
    ids=["float-ray", "float-dimension", "float-cone-index", "float-name-index"],
)
def test_fan_rejects_entries_that_are_not_integers(dim, rays, cones, names):
    # int() would truncate the first fan's rays to P2's, and the others
    # would be stored as floats and fail later, or not at all
    with pytest.raises(TypeError):
        Fan(dim, rays, cones, names)


@pytest.mark.parametrize("value", [0.1, float("nan"), float("inf")], ids=repr)
def test_divisors_reject_a_float_coefficient(value):
    # each reaches Scalar, which refuses a float instead of reading its
    # binary expansion
    with pytest.raises(TypeError, match="float"):
        P2.divisor({"H": value})
    with pytest.raises(TypeError, match="float"):
        H.scale(value)
    with pytest.raises(TypeError, match="float"):
        principal_divisor(P2, (value, 0))


def test_fan_accepts_names_matching_their_default_label():
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (2, 0)), (("r1", 1), ("2", 2)))
    assert fan.ray_index("r1") == 1 and fan.ray_index("2") == 2


# ---- polytopes and h0 ------------------------------------------------------


def test_polytope_of_p2():
    D = P2.divisor({"r2": 1})
    assert polytope_of(D).rows == (
        ((1, 0), Scalar(0)),
        ((0, 1), Scalar(0)),
        ((-1, -1), Scalar(-1)),
    )


def test_polytope_of_f1_c():
    p = polytope_of(C)
    assert vertices(p) == {(Scalar(0), Scalar(0)), (Scalar(0), Scalar(1)), (Scalar(1), Scalar(1))}


def test_polytope_of_zero():
    D = P2.divisor({})
    assert vertices(polytope_of(D)) == {(Scalar(0), Scalar(0))}


def test_h0_examples():
    assert h0(H.scale(5)) == 21
    assert h0(C) == 3
    assert h0(P2.divisor({})) == 1
    assert h0(P3.divisor({})) == 1


def _hirzebruch_count(a, c, e):
    """h0 of a*D_2 + c*D_3 on F_e (rays (-1, e) and (0, -1)): the rows
    u_2 = 0..c hold a + e*u_2 + 1 points each."""
    return (c + 1) * (a + 1) + e * c * (c + 1) // 2


def _triangle_count(k):
    return (k + 1) * (k + 2) // 2


# P4: the rays e_1, ..., e_4 and -(e_1 + ... + e_4), every four of them a cone
P4 = Fan(
    4,
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)),
    tuple(itertools.combinations(range(5), 4)),
)


@pytest.mark.parametrize("m", [10**6, 10**9])
@pytest.mark.parametrize(
    "fan, coeffs, factor, closed_form",
    [
        (P2, [0, 0, 1], 1, _triangle_count),
        (P1P1, [0, 0, 1, 1], 1, lambda m: (m + 1) ** 2),
        (F1, [0, 0, 1, 1], 1, lambda m: _hirzebruch_count(m, m, 1)),
        (F2, [0, 0, 1, 1], 1, lambda m: _hirzebruch_count(m, m, 2)),
        (F2, [0, 0, 3, 2], 1, lambda m: _hirzebruch_count(3 * m, 2 * m, 2)),
        # floor(m*sqrt2*H) = k*H with k = isqrt(2 m^2)
        (P2, [0, 0, 1], sqrt(2), lambda m: _triangle_count(math.isqrt(2 * m * m))),
        (F1, [0, 0, Fraction(1, 2), sqrt(2)], 1, lambda m: _hirzebruch_count(m // 2, math.isqrt(2 * m * m), 1)),
        # on P^n, floor(m D) is k H for k = sum floor(m a_i), with C(k + n, n) sections
        (P3, [Fraction(1, 2), Fraction(2, 3), 0, 1], 1, lambda m: math.comb(m // 2 + 2 * m // 3 + m + 3, 3)),
        (P3, [sqrt(2), 0, Fraction(1, 4), 0], 1, lambda m: math.comb(math.isqrt(2 * m * m) + m // 4 + 3, 3)),
        (P4, [Fraction(1, 3), 0, 1, 0, sqrt(2)], 1, lambda m: math.comb(m // 3 + m + math.isqrt(2 * m * m) + 4, 4)),
    ],
    ids=[
        "P2",
        "P1xP1",
        "F1",
        "F2",
        "F2-3,2",
        "P2-sqrt2-multiple",
        "F1-sqrt2-coefficient",
        "P3",
        "P3-sqrt2-coefficient",
        "P4-sqrt2-coefficient",
    ],
)
def test_h0_at_huge_multiples_matches_closed_forms(fan, coeffs, factor, closed_form, m):
    D = fan.divisor(coeffs).scale(m * factor)
    start = time.perf_counter()
    assert h0(D) == closed_form(m)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("first", ["D", "D'"])
def test_h0_tells_a_real_translate_from_the_divisor(first):
    """The paper's example: D = H and D' = D + sqrt2 div(x^(1, 0)) on P2 are
    R-linearly equivalent with equal volumes, yet h0(mD') != h0(mD) for every
    m.  Only an integer character moves the round-down within its class, so
    the lattice form keeps D and D' apart and merges D with D + div(x^u)."""
    D = P2.divisor({"H": 1})
    Dp = D + principal_divisor(P2, (sqrt(2), 0))
    assert Dp.coeffs == (sqrt(2), Scalar(0), 1 - sqrt(2))
    assert volume(D) == volume(Dp) == 1
    counts = {"D": [3, 6, 10, 15, 21, 28], "D'": [1, 3, 6, 10, 15, 21]}
    divisors = {"D": D, "D'": Dp}
    lattice_points.cache_clear()
    for name in (first, *(n for n in counts if n != first)):
        assert [h0(divisors[name].scale(m)) for m in range(1, 7)] == counts[name]
    for m in range(1, 7):
        form = lattice_form(polytope_of(D.scale(m)))
        assert lattice_form(polytope_of(Dp.scale(m))) != form
        for u in ((1, 0), (-2, 3), (5, 7)):
            shifted = (D + principal_divisor(P2, u)).scale(m)
            assert lattice_form(polytope_of(shifted)) == form


@st.composite
def star_divisors(draw):
    """(D, m, perm): a big divisor with coefficients in quarters on a star
    subdivision of P3 or P4 with 5 to 8 rays (tests/fans.py), a multiple m
    in 1..4, and a permutation of the coordinates that moves the first."""
    n = draw(st.sampled_from([3, 4]))
    fan = star_fan(n, draw(st.integers(5, 8)), draw(st.integers(0, 2**16)))
    D = fan.divisor([Fraction(draw(st.integers(-2, 8)), 4) for _ in fan.rays])
    assume(is_big(D))
    perm = draw(st.permutations(range(n)).filter(lambda s: s[0] != 0))
    return D, draw(st.integers(1, 4)), perm


@given(star_divisors())
@settings(max_examples=100, deadline=None)
def test_h0_on_a_generated_fan_matches_the_per_slice_count(drawn):
    D, m, perm = drawn
    count = h0(D, m)
    assert count == lattice_points_by_slices(polytope_of(D.scale(m)))
    # the same rays with their coordinates permuted slice another coordinate
    # first, with other events, stretches and periods
    fan = D.fan
    moved = Fan(fan.dim, [tuple(r[i] for i in perm) for r in fan.rays], fan.max_cones)
    assert h0(moved.divisor(D.coeffs), m) == count


# ---- volume and positivity -------------------------------------------------


def test_volume_examples():
    assert volume(H) == Scalar(1)
    assert volume(C + E) == Scalar(1)
    assert volume(C) == Scalar(1)


def test_big_examples():
    assert is_big(C + E)
    assert not is_big(F)
    assert not is_big(F1.divisor({}))


def test_nef_examples():
    assert is_nef(C)
    assert not is_nef(C + E)
    assert is_nef(F1.divisor({}))
    assert is_nef(F)


# a complete 2-D fan that is no preset: P2 blown up at its three fixed points
HEXAGON = Fan(
    2, ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)), tuple((i, (i + 1) % 6) for i in range(6))
)


def test_wall_rule_matches_per_cone_nefness_on_corpus():
    verdicts = set()
    for inst in generate_corpus(2026, 40):
        _, D, E = inst.realize()
        for X in (D, D + E, D - E):
            assert is_nef(X) == is_nef_by_cones(X), inst.to_json()
            verdicts.add(is_nef(X))
    assert verdicts == {True, False}


@pytest.mark.parametrize("scale", [1, 10**30], ids=["small", "30-digit-sqrt2"])
@pytest.mark.parametrize(
    "fan",
    [P2, P1P1, F1, F2, preset_fan("F3"), P3, HEXAGON],
    ids=["P2", "P1xP1", "F1", "F2", "F3", "P3", "hexagon"],
)
def test_wall_rule_matches_per_cone_nefness_on_sampled_divisors(fan, scale):
    # a_i = -min over a point set M of <m, v_i> is nef on these fans (the
    # minimum over M is superadditive); lowering one coefficient may break it
    rng = random.Random(41)
    r2 = sqrt(2) if scale > 1 else Scalar(0)

    def number(lo, hi):
        return (rng.randint(lo, hi) + rng.randint(lo, hi) * r2) * scale

    verdicts = set()
    for _ in range(20):
        points = [[number(-3, 3) for _ in range(fan.dim)] for _ in range(rng.randint(1, 4))]
        D = fan.divisor(
            [-min(sum((m * v for m, v in zip(u, ray)), Scalar(0)) for u in points) for ray in fan.rays]
        )
        assert is_nef(D) and is_nef_by_cones(D), D.coeffs
        X = D - fan.divisor({rng.randrange(fan.nrays): number(1, 4) / 2})
        assert is_nef(X) == is_nef_by_cones(X), X.coeffs
        verdicts.add(is_nef(X))
    assert verdicts == {True, False}


# the non-unimodular 3-D fan over the faces of the simplex with vertices
# e1, e2, e3 and (-1, -2, -3): its cone coordinates have denominators
WEIGHTED = Fan(
    3,
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -2, -3)),
    ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
)


@pytest.mark.parametrize(
    "fan",
    [P2, P3, P1P1, F1, F2, preset_fan("F5"), WEIGHTED, HEXAGON],
    ids=["P2", "P3", "P1xP1", "F1", "F2", "F5", "weighted", "hexagon"],
)
def test_wall_forms_match_fraction_elimination(fan):
    forms = toric._wall_forms(fan)
    assert forms == wall_forms_by_elimination(fan)
    assert len(forms) == len(fan.max_cones) * fan.dim // 2


def test_wall_forms_of_the_weighted_fan():
    # e1 = -2 e2 - 3 e3 - (-1, -2, -3): the wall (1, 2) between cones on 0 and 3
    assert (1, 2, 3, 1) in toric._wall_forms(WEIGHTED)


def test_volume_of_empty_polytope_is_zero():
    D = P2.divisor({"H": -1})
    assert volume(D) == Scalar(0)
    assert not is_big(D)


# ---- sigma -----------------------------------------------------------------


def test_sigma_examples():
    assert sigma(C + E, "E") == Scalar(1)
    assert sigma(C + E, "F") == Scalar(0)
    for i in range(P2.nrays):
        assert sigma(H, i) == Scalar(0)


def test_sigma_requires_big():
    with pytest.raises(NotBig):
        sigma(F, "E")


def test_sigma_decomposition_examples():
    dec = sigma_decomposition(C + E)
    assert dec.nsigma.coeffs == E.coeffs
    assert dec.psigma.coeffs == C.coeffs

    dec = sigma_decomposition(H)
    assert dec.nsigma.is_zero()

    dec = sigma_decomposition(C + E.scale(2))
    assert dec.nsigma.coeffs == E.scale(2).coeffs


def test_sigma_decomposition_errors_are_raised_on_every_call():
    surface_divisor = SurfaceModel(1).divisor({"C": 1})
    for _ in range(3):
        with pytest.raises(NotBig):
            sigma_decomposition(F)
        with pytest.raises(UnsupportedDivisor):
            sigma_decomposition(surface_divisor)


def test_sigma_decomposition_cache_equals_a_fresh_decomposition():
    sigma_decomposition.cache_clear()
    for inst in generate_corpus(2026, 40):
        _, D, _ = inst.realize()
        first = sigma_decomposition(D)
        assert sigma_decomposition(D) is first
        fresh = sigma_decomposition.__wrapped__(D)
        assert (first.nsigma, first.psigma) == (fresh.nsigma, fresh.psigma)
    info = sigma_decomposition.cache_info()
    assert info.hits >= 40 and info.currsize <= info.maxsize


def test_sigma_and_its_decomposition_read_one_vertex_set(monkeypatch):
    # sigma reads its ray off the cached decomposition, which reads the rays
    # of zero facet volume, those of B+, off one lp_solve call on D's
    # polytope, with one objective per such ray, and makes no call when B+
    # is empty; a second sigma or decomposition reads none
    D = C + E.scale(3)
    ample = C.scale(2) + F
    calls, solve = [], toric.lp_solve

    def counted_solve(p, objectives):
        calls.append((p, objectives))
        return solve(p, objectives)

    sigma_decomposition.cache_clear()
    monkeypatch.setattr(toric, "lp_solve", counted_solve)
    try:
        assert sigma(D, "E") == 3
        assert sigma(D, "C") == 0
        sigma_decomposition(D)
        assert bplus_div(ample) == frozenset()
        assert sigma(ample, "E") == sigma(ample, "C") == 0
        assert sigma_decomposition(ample).psigma == ample
    finally:
        sigma_decomposition.cache_clear()
    assert bplus_div(D) == {F1.ray_index("E")}
    assert calls == [(polytope_of(D), [F1.rays[F1.ray_index("E")]])]


def test_sigma_irrational_coefficients():
    r2 = sqrt(2)
    D = F1.divisor({"C": 1, "E": r2})
    assert sigma(D, "E") == r2


# ---- bplus -----------------------------------------------------------------


def test_bplus_examples():
    assert {F1.ray_name(i) for i in bplus_div(C)} == {"E"}
    assert bplus_div(H) == frozenset()
    assert {F1.ray_name(i) for i in bplus_div(C + E)} == {"E"}


def test_bplus_requires_big():
    with pytest.raises(NotBig):
        bplus_div(F)


NOT_BIG = [F, P2.divisor({"H": -1})]


@pytest.mark.parametrize("D", NOT_BIG, ids=["flat", "empty"])
def test_bplus_and_intersection_refuse_a_divisor_that_is_not_big(D):
    with pytest.raises(NotBig, match="^the divisorial augmented base locus needs a big divisor$"):
        bplus_div(D)
    with pytest.raises(NotBig, match="^intersection numbers computed for big divisors$"):
        intersection_nef_div(D, D.fan.divisor({0: 1}))
    # E = 0 pairs to 0 before bigness is asked
    assert intersection_nef_div(D, D.fan.divisor({})) == Scalar(0)


@pytest.mark.parametrize("D", NOT_BIG, ids=["flat", "empty"])
def test_bplus_and_intersection_read_bigness_off_the_facet_record(D):
    calls = {toric.is_big.__code__: 0}

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1

    sys.setprofile(watch)
    try:
        assert {F1.ray_name(i) for i in bplus_div(C)} == {"E"}
        assert intersection_nef_div(C, F) == Scalar(1)
        for call in (bplus_div, lambda D: intersection_nef_div(D, D.fan.divisor({0: 1}))):
            with pytest.raises(NotBig):
                call(D)
    finally:
        sys.setprofile(None)
    assert calls[toric.is_big.__code__] == 0


def test_bplus_contains_nsigma_support_and_stabilizes():
    rng = random.Random(17)
    for fan in (F1, F2, P2, P1P1):
        for _ in range(5):
            D = rand_big(fan, rng)
            trace = bplus_halving(D)
            support = trace[-1][1]
            assert bplus_div(D) == support
            assert support == trace[-2][1] == trace[-3][1]
            dec = sigma_decomposition(D)
            assert dec.nsigma.support() <= support
            # sigma is subadditive against the ample summand, so supports
            # can only shrink as eps halves
            for (_, s1), (_, s2) in zip(trace, trace[1:]):
                assert s2 <= s1


def test_bplus_facet_rule_matches_halving_schedule_on_corpus():
    checked = 0
    for inst in generate_corpus(2026, 40):
        _, D, E = inst.realize()
        for X in (D, D + E):
            if is_big(X):
                assert bplus_div(X) == bplus_halving(X)[-1][1], inst.to_json()
                checked += 1
    assert checked >= 40


def test_bplus_facet_rule_matches_halving_schedule_irrational():
    rng = random.Random(23)
    r2 = sqrt(2)
    checked = 0
    for fan in (P2, P1P1, F1, F2, P3):
        for _ in range(5):
            while True:
                D = fan.divisor(
                    [rng.randint(-4, 6) / Scalar(2) + rng.randint(-3, 3) * r2 / 2 for _ in fan.rays]
                )
                if is_big(D):
                    break
            assert bplus_div(D) == bplus_halving(D)[-1][1], D.coeffs
            checked += 1
    assert checked >= 20


def _assert_facet_recursion_matches_vertex_oracles(X):
    p = polytope_of(X)
    vol, big = volume(X), is_big(X)
    assert isinstance(vol, Scalar)
    assert big == vertex_rank_big(X)
    if vertex_set_from_table(p):
        expected = triangulated_volume(p)
        assert vol == math.factorial(X.fan.dim) * expected
        assert euclidean_volume(p) == expected and isinstance(euclidean_volume(p), Scalar)
    else:
        assert vol == 0
        with pytest.raises(EmptyPolytope):
            euclidean_volume(p)
    if big:
        assert bplus_div(X) == tight_set_bplus(X)
    return big


def test_facet_recursion_matches_triangulation_and_tight_sets_on_corpus():
    not_big = 0
    for inst in generate_corpus(2026, 40):
        _, D, E = inst.realize()
        for X in (D, D + E, D - E):
            not_big += not _assert_facet_recursion_matches_vertex_oracles(X)
    assert not_big >= 10


def test_facet_recursion_matches_triangulation_and_tight_sets_irrational():
    rng = random.Random(29)
    r2 = sqrt(2)
    big = 0
    for fan in (P2, P1P1, F1, F2, P3):
        for k in range(5):
            scale = 10**30 if k == 4 else 1
            D = fan.divisor(
                [(rng.randint(-4, 6) * scale + rng.randint(-3, 3) * r2 * scale) / 2 for _ in fan.rays]
            )
            big += _assert_facet_recursion_matches_vertex_oracles(D)
    assert big >= 10
    # flat polytopes: segments at u2 = -sqrt2 on P1xP1 and u2 = -sqrt2 * 10^30 on F1
    for X in (P1P1.divisor([1, r2, r2, -r2]), F1.divisor([2 * 10**30, r2 * 10**30, 0, -r2 * 10**30])):
        assert not _assert_facet_recursion_matches_vertex_oracles(X)


def _assert_sigma_matches_simplex(X):
    p = polytope_of(X)
    for i, (ray, a) in enumerate(zip(X.fan.rays, X.coeffs)):
        ref = simplex_solve(LPProblem(ray, p, a))
        assert ref.status == "optimal"
        assert sigma(X, i) == ref.value, (X.coeffs, i)


def test_sigma_matches_simplex_on_corpus():
    checked = 0
    for inst in generate_corpus(2026, 40):
        _, D, E = inst.realize()
        for X in (D, D + E, D - E):
            if is_big(X):
                _assert_sigma_matches_simplex(X)
                checked += 1
    assert checked >= 100


def test_sigma_matches_simplex_irrational():
    rng = random.Random(37)
    r2 = sqrt(2)
    for fan in (P2, P1P1, F1, F2, P3):
        for k in range(5):
            scale = 10**30 if k >= 3 else 1
            while True:
                D = fan.divisor(
                    [(rng.randint(-4, 6) * scale + rng.randint(-3, 3) * r2 * scale) / 2 for _ in fan.rays]
                )
                if is_big(D) and any(c.disc for c in D.coeffs):
                    break
            _assert_sigma_matches_simplex(D)


def test_bplus_on_non_projective_fan_is_the_zero_restricted_volume_rays():
    # a triangular prism whose side squares are split by cyclically turning
    # diagonals: complete and simplicial, with no strictly convex support function
    rays = ((1, 0, -1), (0, 1, -1), (-1, -1, -1), (1, 0, 1), (0, 1, 1), (-1, -1, 1))
    cones = [(0, 1, 2), (3, 4, 5)]
    for i in range(3):
        j = (i + 1) % 3
        cones += [(i, j, 3 + j), (i, 3 + j, 3 + i)]
    fan = Fan(3, rays, tuple(cones))
    with pytest.raises(RdivError):
        ample_divisor(fan)
    assert bplus_div(fan.divisor([1] * 6)) == frozenset()
    assert bplus_div(fan.divisor([0, -2, 1, 4, 1, 1])) == {2, 3}
    # a face of lower dimension that still meets the polytope: sigma is zero there
    D = fan.divisor([-2, 4, 1, 1, 2, 4])
    assert bplus_div(D) == {1} and sigma(D, 1) == 0


def test_ample_divisor_is_ample():
    for fan in (P2, F1, F2, P1P1, P3):
        A = ample_divisor(fan)
        assert is_nef(A) and is_big(A)
        # strictness: A - small * (any ray divisor) keeps nef for small epsilon
        dec = sigma_decomposition(A)
        assert dec.nsigma.is_zero()


# ---- intersection numbers --------------------------------------------------


def test_intersection_examples():
    assert intersection_nef_div(C, E) == Scalar(0)
    assert intersection_nef_div(C, F) == Scalar(1)
    for i in range(P2.nrays):
        assert intersection_nef_div(H, P2.divisor({i: 1})) == Scalar(1)


def test_intersection_requires_nef():
    with pytest.raises(NotNef):
        intersection_nef_div(C + E, E)


def test_intersection_errors():
    with pytest.raises(UnsupportedDivisor):
        intersection_nef_div(SurfaceModel(1).divisor({"C": 1}), E)
    with pytest.raises(NotBig):
        intersection_nef_div(F, E)
    with pytest.raises(KeyError):
        intersection_nef_div(C, F1.divisor({"Z": 1}))


@pytest.mark.parametrize(
    "other",
    [F1.divisor({"E": 1}), P1P1.divisor({"r3": 1}), F1.divisor({})],
    ids=["F1", "P1xP1", "zero"],
)
def test_intersection_needs_divisors_on_one_fan(other):
    # E's ray indices would read D's facet record: 1 on F1, an IndexError on
    # P1xP1, whose fourth ray P2 lacks
    with pytest.raises(ValueError, match="different fans"):
        intersection_nef_div(H, other)


def test_intersection_needs_an_effective_divisor():
    with pytest.raises(NotEffective):
        intersection_nef_div(H, P2.divisor({"r0": -1}))


def test_intersection_linearity():
    D = P2.divisor({"r0": 1, "r1": 2})  # ~ 3H, nef and big
    assert intersection_nef_div(D, P2.divisor({"r2": 2})) == Scalar(6)


def test_intersection_p3():
    HH = P3.divisor({"H": 1})
    assert intersection_nef_div(HH, P3.divisor({0: 1})) == Scalar(1)  # H^2 . plane = 1
    assert intersection_nef_div(HH.scale(2), P3.divisor({"H": 1})) == Scalar(4)


def test_intersection_takes_its_field_from_the_facets_and_e():
    # D's record lies in Q(sqrt 2), but D ~ H has the facet volumes 1, 1, 1,
    # so the pairing with a Q(sqrt 3) divisor is defined
    D = H + principal_divisor(P2, (sqrt(2), 0))
    assert polytope_of(D).disc == 2
    assert intersection_nef_div(D, P2.divisor({0: sqrt(3)})) == sqrt(3)
    # C + sqrt(2) F on F1 meets F in 1 but C in 1 + sqrt(2): only the facets
    # that E meets set the field
    D = F1.divisor({"C": 1, "F": sqrt(2)})
    assert intersection_nef_div(D, F1.divisor({"F": sqrt(3)})) == sqrt(3)
    with pytest.raises(MixedDiscriminant):
        intersection_nef_div(D, F1.divisor({"C": sqrt(3)}))


@pytest.mark.parametrize(
    "D,vol",
    [
        (F1.divisor({"C": 1, "F": sqrt(2)}), 1 + 2 * sqrt(2)),
        (P2.divisor({"H": 1 + sqrt(2), "r1": sqrt(2)}), 9 + 4 * sqrt(2)),  # (1 + 2 sqrt 2) H
        (P3.divisor({"H": sqrt(2), "r0": 1, "r1": sqrt(2) - 1}), 16 * sqrt(2)),  # 2 sqrt(2) H
        (P1P1.divisor({"H1": 1, "H2": sqrt(2), "r0": sqrt(2) / 2}), 2 + 2 * sqrt(2)),
    ],
    ids=["F1", "P2", "P3", "P1xP1"],
)
def test_self_intersection_of_a_nef_big_divisor_is_its_volume(D, vol):
    assert is_nef(D) and is_big(D)
    assert intersection_nef_div(D, D) == volume(D) == vol


# ---- sigma limit oracle ----------------------------------------------------


def test_sigma_limit_oracle_examples():
    vals = sigma_limit_oracle(C + E, "E", [1])
    assert vals == [Scalar(1)]
    vals = sigma_limit_oracle(H, 0, [4])
    assert vals == [Scalar(0)]
    vals = sigma_limit_oracle(C + E, "F", [1, 2, 4])
    s = sigma(C + E, "F")
    for m, v in zip([1, 2, 4], vals):
        assert Scalar(0) <= v - s <= Scalar(Fraction(1, m))


def test_sigma_limit_oracle_requires_big():
    with pytest.raises(NotBig):
        sigma_limit_oracle(F, "E", [1])


def test_sigma_limit_dominates_lp():
    rng = random.Random(29)
    for _ in range(8):
        fan = rng.choice((P2, F1, P1P1))
        D = rand_big(fan, rng)
        for ray in range(fan.nrays):
            lp_value = sigma(D, ray)
            for v in sigma_limit_oracle(D, ray, [2, 4, 8]):
                assert v >= lp_value


# P2/mu3: the quotient of P2 by mu3, a complete fan whose cones have index 3
MU3 = Fan(2, ((2, -1), (-1, 2), (-1, -1)), ((0, 1), (1, 2), (2, 0)))


@given(
    st.sampled_from((P2, F1, P1P1, P3, MU3)),
    st.lists(st.fractions(-1, 3, max_denominator=4), min_size=4, max_size=4),
    st.booleans(),
    st.integers(1, 5),
)
@settings(max_examples=60)
def test_sigma_limit_oracle_is_the_minimum_over_lattice_points(fan, coeffs, root2, m):
    D = fan.divisor([Scalar(c) for c in coeffs[: fan.nrays]])
    if root2:
        D = D + fan.divisor({0: sqrt(2) / 2})
    assume(is_big(D))
    pts = lattice_point_list(polytope_of(D.scale(m)))
    assume(pts)
    for ray, (a, v) in enumerate(zip(D.coeffs, fan.rays)):
        expected = min(m * a + sum(c * x for c, x in zip(v, u)) for u in pts) / m
        assert sigma_limit_oracle(D, ray, [m]) == [expected]


@given(
    st.sampled_from((P2, F1, P1P1, P3, MU3)),
    st.lists(st.fractions(-1, 3, max_denominator=4), min_size=4, max_size=4),
    st.booleans(),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_sigma_limit_oracle_dominates_sigma_and_falls_along_doublings(fan, coeffs, root2, m):
    # a section of mD vanishing to order k along a ray squares to one of 2mD
    # vanishing to order 2k, so (1/m) min mult never rises from m to 2m, and
    # sigma is its limit from above
    D = fan.divisor([Scalar(c) for c in coeffs[: fan.nrays]])
    if root2:
        D = D + fan.divisor({0: sqrt(2) / 2})
    assume(is_big(D) and h0(D.scale(m)))
    for ray in range(fan.nrays):
        at_m, at_2m, at_4m = sigma_limit_oracle(D, ray, [m, 2 * m, 4 * m])
        assert at_m >= at_2m >= at_4m >= sigma(D, ray)


# the fractional part of m sqrt(2) over m, at m = 10^9
SIGMA_LIMIT_AT_A_BILLION = """
from fractions import Fraction
from rdiv import preset_fan, sqrt
from rdiv.toric import sigma_limit_oracle
D = preset_fan("P3").divisor({"r0": sqrt(2), "H": 1})
print(sigma_limit_oracle(D, "r0", [10**9]) == [sqrt(2) - Fraction(1414213562, 10**9)])
"""


def test_sigma_limit_oracle_on_p3_at_a_billion():
    # in a fresh process killed after a minute: the oracle's cost does not
    # grow with m
    assert fresh("-c", SIGMA_LIMIT_AT_A_BILLION, timeout=60) == (0, "True\n", "")


@pytest.mark.parametrize("m", [2.7, Fraction(5, 2), True, Scalar(5), 0, -3, "2"])
def test_sigma_limit_oracle_rejects_multiples_that_are_not_positive_ints(m):
    with pytest.raises(ValueError, match="multiples must be positive integers"):
        sigma_limit_oracle(C + E, "E", [m])


def test_sigma_limit_oracle_checks_every_multiple_before_it_counts(monkeypatch):
    # a bad multiple anywhere in the list fails before the first one is counted
    def scaled(D, m):
        raise AssertionError(f"the oracle scaled by {m} before it checked the multiples")

    monkeypatch.setattr(toric.TDivisor, "scale", scaled)
    with pytest.raises(ValueError, match="multiples must be positive integers"):
        sigma_limit_oracle(C + E, "E", [10**6, 0])


def test_sigma_limit_oracle_reads_its_multiples_once():
    # a generator or an iterator of multiples gives the values of the list
    D = P2.divisor({"r0": sqrt(2), "H": 1})
    expected = [sqrt(2) - Fraction(7, 5), sqrt(2) - Fraction(141, 100)]
    assert sigma_limit_oracle(D, "r0", [10, 100]) == expected
    assert sigma_limit_oracle(D, "r0", (m for m in (10, 100))) == expected
    assert sigma_limit_oracle(D, "r0", iter([10, 100])) == expected


@pytest.mark.parametrize("root2", [False, True], ids=["rational", "sqrt2"])
@pytest.mark.parametrize("m", [10**3, 10**9])
@pytest.mark.parametrize("fan", [P2, P3], ids=["P2", "P3"])
def test_sigma_limit_oracle_cost_does_not_grow_with_m(fan, m, root2):
    # on P2 and P3 the slice u_1 = ceil(-m a_0) holds a lattice point once the
    # round-downs of m a_i sum to >= 0, so the value is the fractional part
    # of m a_0 over m
    coeffs = [Scalar(c) for c in (Fraction(1, 3), Fraction(2, 7), Fraction(-1, 5), Fraction(1, 2))]
    if root2:
        coeffs[0] = coeffs[0] + sqrt(2) / 3
    D = fan.divisor(coeffs[: fan.nrays])
    a = m * D.coeffs[0]
    start = time.perf_counter()
    assert sigma_limit_oracle(D, 0, [m]) == [(a - math.floor(a)) / m]
    assert time.perf_counter() - start < 1.0


def test_sigma_limit_no_sections():
    D = F1.divisor({"C": Fraction(1, 3)})  # big but 1/3 C has no new sections... 1*D floor = 0
    with pytest.raises(NoSections):
        # thin big polytope missing lattice points entirely is impossible at m=1
        # once 0 is inside; shift it away from the origin instead
        sigma_limit_oracle(F1.divisor({"C": Fraction(1, 3), "F": Fraction(-1, 4)}), "E", [1])


# ---- invariants ------------------------------------------------------------


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4))
@settings(max_examples=25)
def test_volume_homogeneity(num, den):
    lam = Fraction(num, den)
    D = F1.divisor({"C": 1, "E": Fraction(1, 2)})
    assert volume(D.scale(lam)) == Scalar(lam**2) * volume(D)


def test_h0_monotone_in_effective_direction():
    rng = random.Random(41)
    grid = [Scalar(1), Scalar(2), Scalar(Fraction(5, 2)), sqrt(2)]
    for _ in range(10):
        fan = rng.choice((P2, F1, P1P1))
        D = rand_divisor(fan, rng)
        Eff = fan.divisor([Fraction(rng.randint(0, 3), 2) for _ in fan.rays])
        for m in grid:
            lo = h0(D.scale(m) - Eff.scale(m))
            mid = h0(D.scale(m))
            hi = h0(D.scale(m) + Eff.scale(m))
            assert lo <= mid <= hi
        assert volume(D - Eff) <= volume(D) <= volume(D + Eff)


def test_volume_invariant_under_principal_shift():
    rng = random.Random(43)
    for _ in range(10):
        fan = rng.choice((P2, F1, P3))
        D = rand_big(fan, rng)
        w = [rng.randint(-2, 2) for _ in range(fan.dim)]
        assert volume(D + principal_divisor(fan, w)) == volume(D)


# values of Q(sqrt 2) for coefficients and characters, and a positive scale
_SQRT2 = st.builds(
    Scalar,
    st.fractions(-1, 3, max_denominator=4),
    st.fractions(-1, 1, max_denominator=3),
    st.just(2),
)
_SCALES = st.builds(
    Scalar,
    st.fractions(1, 3, max_denominator=4),
    st.fractions(Fraction(-1, 2), 2, max_denominator=2),
    st.just(2),
)


# nonnegative values of Q(sqrt 2), for an effective divisor
_EFFECTIVE = st.sampled_from((Scalar(0), Scalar(0), Scalar(1), Scalar(Fraction(1, 2)), sqrt(2)))


@given(
    st.sampled_from((P2, P3, P1P1, F1, F2, MU3, WEIGHTED)),
    st.lists(_SQRT2, min_size=4, max_size=4),
    st.lists(_SQRT2, min_size=3, max_size=3),
    _SCALES,
    st.lists(_EFFECTIVE, min_size=4, max_size=4),
    st.lists(st.integers(-2, 2), min_size=3, max_size=3),
    st.integers(1, 3),
)
@settings(max_examples=40, deadline=None)
# D = C + 3E on F1, u = (sqrt 2, 1), t = 1 + sqrt 2, E = D_1 + sqrt(2) D_3
@example(
    F1,
    [Scalar(0), Scalar(3), Scalar(0), Scalar(1)],
    [sqrt(2), Scalar(1), Scalar(0)],
    1 + sqrt(2),
    [Scalar(0), Scalar(1), Scalar(0), sqrt(2)],
    [1, -2, 0],
    2,
)
def test_nsigma_is_invariant_under_real_linear_equivalence_and_scales(fan, coeffs, u, t, e, w, m):
    # N_sigma, bigness, nefness, B+, D^(n-1).E and the decidable clauses
    # depend only on the R-linear class of D, which keeps vol; N_sigma is
    # homogeneous of degree 1 and vol of degree n; t >= 1 - sqrt(2)/2 > 0.
    # Sections are kept by integer shifts only: clause iv samples h0, and
    # h0(mD') may differ from h0(mD) for a real shift
    D = fan.divisor(coeffs[: fan.nrays])
    moved = D + principal_divisor(fan, u[: fan.dim])
    assert is_big(moved) == is_big(D)
    assume(is_big(D))
    N = sigma_decomposition(D).nsigma
    assert sigma_decomposition(moved).nsigma == N
    assert volume(moved) == volume(D)
    assert is_nef(moved) == is_nef(D)
    assert bplus_div(moved) == bplus_div(D)
    E = fan.divisor(e[: fan.nrays])
    if is_nef(D):
        assert intersection_nef_div(moved, E) == intersection_nef_div(D, E)
    for check in (check_theorem_a, check_theorem_b):
        before, after = check(fan, D, E, [1]), check(fan, moved, E, [1])
        for clause in ("i", "ii", "v"):
            assert after.clause_values[clause].status == before.clause_values[clause].status
    scaled = D.scale(t)
    assert sigma_decomposition(scaled).nsigma == N.scale(t)
    assert volume(scaled) == t**fan.dim * volume(D)
    assert bplus_div(scaled) == bplus_div(D)
    shifted = D + principal_divisor(fan, w[: fan.dim])
    assert h0(shifted.scale(m)) == h0(D.scale(m))


_FANS = (P2, P3, P1P1, F1, F2, MU3, WEIGHTED, HEXAGON)
# each ray (0, 1), (-1, 0), (0, -1) is the midpoint of its two neighbours
MIDPOINTS = Fan(
    2, ((1, 0), (0, 1), (-1, 2), (-1, 0), (-1, -2), (0, -1)), tuple((i, (i + 1) % 6) for i in range(6))
)


@given(st.sampled_from(_FANS), st.lists(_SQRT2, min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
@example(F1, [Scalar(0)] * 4)  # the zero divisor: the origin, on every row
@example(F1, [Scalar(1), Scalar(0), Scalar(0), Scalar(0)])  # F alone: a segment
@example(P3, [sqrt(2), -sqrt(2), Scalar(0), Scalar(0)])  # the point (-sqrt 2, sqrt 2, 0)
@example(P2, [Scalar(0), Scalar(0), Scalar(-1), Scalar(0)])  # -H: empty
@example(F1, [Scalar(0), Scalar(0), Scalar(0), Scalar(1)])  # C: the origin on three rows
# the triangle 0 <= u1, u2 and u1 + u2 <= 1, each of whose vertices lies on
# three rows, so no entry passes with every slack positive
@example(HEXAGON, [Scalar(0)] * 3 + [Scalar(1)] * 3)
# the triangle (0, 0), (0, 2), (2, 1): at each vertex the midpoint row is
# tight and stays tight with the offsets o + eps, as its eps coefficient
# sum_k w_k - q is 0
@example(MIDPOINTS, [Scalar(c) for c in (0, 0, 0, 2, 4, 2)])
def test_bigness_by_the_eps_rule_is_positive_volume(fan, coeffs):
    # the vertex table's row test with offsets o + eps against the Scalar
    # Lasserre recursion, which needs a nonempty polytope
    D = fan.divisor(coeffs[: fan.nrays])
    p = polytope_of(D)
    volume = scalar_lasserre_volume(fan.dim, p.rows) if vertex_set_by_elimination(p) else 0
    assert is_big(D) == (volume > 0)


# P3 blown up at a torus-fixed point: r4 = (1, 1, 1) subdivides the cone of
# r0, r1, r2, so a vertex of a section polytope can lie on four rows
BLOWUP = Fan(
    3,
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)),
    ((0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
)


@given(st.sampled_from(_FANS), st.lists(_SQRT2, min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
@example(F1, [Scalar(0), Scalar(3), Scalar(0), Scalar(1)])  # C + 3E: sigma_E = 3
@example(P3, [sqrt(2), -sqrt(2), Scalar(0), Scalar(0)])  # a point on four rows
def test_nsigma_of_every_ray_is_its_coefficient_plus_the_simplex_minimum(fan, coeffs):
    D = fan.divisor(coeffs[: fan.nrays])
    if not is_big(D):
        with pytest.raises(NotBig):
            sigma_decomposition(D)
        return
    p = polytope_of(D)
    refs = [simplex_solve(LPProblem(ray, p, a)).value for ray, a in zip(fan.rays, D.coeffs)]
    assert list(sigma_decomposition(D).nsigma.coeffs) == refs


@given(st.sampled_from(_FANS), st.lists(_SQRT2, min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
@example(F1, [Scalar(0), Scalar(3), Scalar(0), Scalar(1)])  # C + 3E: P_sigma = C
@example(P3, [sqrt(2), -sqrt(2), Scalar(0), Scalar(0)])  # a point on four rows: not big
@example(BLOWUP, [Scalar(c) for c in (0, 0, 0, 2, 3, 0)])  # r3:2,r4:3
def test_positive_part_has_no_sigma_by_the_simplex(fan, coeffs):
    # P_sigma's section polytope is D's with every row moved up to touch it
    # (Nakayama III.1), so its least <ray, u> + coeff is 0 on every ray
    D = fan.divisor(coeffs[: fan.nrays])
    if not is_big(D):
        with pytest.raises(NotBig):
            sigma_decomposition(D)
        return
    pos = sigma_decomposition(D).psigma
    p = polytope_of(pos)
    for ray, a in zip(fan.rays, pos.coeffs):
        assert simplex_solve(LPProblem(ray, p, a)).value == 0


@given(st.sampled_from((P2, P1P1, F1, F2, P3, BLOWUP, MU3)), st.lists(_SQRT2, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
@example(F1, [Scalar(0), Scalar(3), Scalar(0), Scalar(1), Scalar(0)])  # C + 3E: B+ is E
@example(F1, [Scalar(0, Fraction(1, 2), 2), Scalar(3), Scalar(0), Scalar(1), Scalar(0)])
@example(BLOWUP, [Scalar(c) for c in (0, 0, 0, 2, 3)])  # r3:2,r4:3
def test_sigma_is_0_off_bplus_and_the_lp_reads_the_rays_of_bplus(fan, coeffs):
    # a ray whose face has positive volume touches the polytope, so its
    # sigma is 0, and the decomposition that sends only the other rays to
    # lp_solve is the one that sends every ray
    D = fan.divisor(coeffs[: fan.nrays])
    if not is_big(D):
        for decompose in (sigma_decomposition, sigma_decomposition_by_lp):
            with pytest.raises(NotBig, match="sigma decomposition"):
                decompose(D)
        return
    assert sigma_decomposition(D) == sigma_decomposition_by_lp(D)
    for i, vol in enumerate(facet_scalars(polytope_of(D))):
        if vol:
            assert sigma(D, i) == 0


@given(
    st.sampled_from(_FANS),
    st.lists(_SQRT2, min_size=6, max_size=6),
    st.lists(_EFFECTIVE, min_size=6, max_size=6),
    st.sampled_from(default_m_grid(2)),
    st.integers(0, 2**32),
)
@settings(max_examples=40, deadline=None)
def test_a_shift_the_query_calls_integral_keeps_every_sampled_h0(fan, coeffs, e, m, seed):
    # the sampled clause skips a shifted point where m P ~_Z 0: there h0 at
    # m(D + P) +- rE must be h0 at mD +- rE for r = m and every R_GRID step
    D, E = fan.divisor(coeffs[: fan.nrays]), fan.divisor(e[: fan.nrays])
    for P in fan.shifts(None) + fan.shifts(random.Random(seed)):
        if fan.shift_is_integral(P, m):
            for r in [m] + R_GRID:
                for step in (E.scale(r), E.scale(-r)):
                    assert h0(fan.shift(D, P).scale(m) + step) == h0(D.scale(m) + step)


def test_sigma_subadditive_and_nonnegative():
    rng = random.Random(47)
    for _ in range(8):
        fan = rng.choice((F1, F2))
        D1, D2 = rand_big(fan, rng), rand_big(fan, rng)
        for ray in range(fan.nrays):
            assert sigma(D1, ray) >= Scalar(0)
            assert sigma(D1 + D2, ray) <= sigma(D1, ray) + sigma(D2, ray)


def test_positive_part_has_same_sections():
    rng = random.Random(53)
    grid = [1, 2, 3, Fraction(5, 2)]
    for _ in range(8):
        fan = rng.choice((F1, F2))
        D = rand_big(fan, rng)
        dec = sigma_decomposition(D)
        for m in grid:
            assert h0(D.scale(m)) == h0(dec.psigma.scale(m))


def test_negative_part_additivity():
    # supp(E) inside supp(N_sigma(D)) forces N_sigma(D+E) = N_sigma(D) + E
    D = C + E.scale(Fraction(3, 2))
    dec = sigma_decomposition(D)
    assert dec.nsigma.support() == {1}
    Eadd = F1.divisor({"E": Fraction(5, 4)})
    dec2 = sigma_decomposition(D + Eadd)
    assert dec2.nsigma.coeffs == (dec.nsigma + Eadd).coeffs
    for m in (1, 2, 3):
        assert h0((D + Eadd).scale(m)) == h0(D.scale(m))


# ---- the divisor's integer record ------------------------------------------------


@pytest.mark.parametrize("u", [(), (1,), (1, 2, 3)], ids=["empty", "short", "long"])
def test_principal_divisor_needs_one_entry_per_coordinate(u):
    with pytest.raises(ValueError, match="character"):
        principal_divisor(P2, u)


def test_a_divisor_lies_in_one_field():
    D, E = F1.divisor({"C": sqrt(2), "E": 1}), F1.divisor({"E": sqrt(3)})
    with pytest.raises(MixedDiscriminant):
        F1.divisor({"C": sqrt(2), "E": sqrt(3)})
    with pytest.raises(MixedDiscriminant):
        D + E
    with pytest.raises(MixedDiscriminant):
        D - E
    with pytest.raises(MixedDiscriminant):
        D.scale(sqrt(3))
    # a rational divisor joins either field
    R = F1.divisor({"F": Fraction(1, 2)})
    assert (R + E).coeffs == (Fraction(1, 2), sqrt(3), 0, 0)
    assert R.scale(sqrt(3)).coeffs == (sqrt(3) / 2, 0, 0, 0)


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=12)
# rational values and values of Q(sqrt(2)), so both records and joins are drawn
_COEFFS = st.one_of(
    _RATIONALS.map(Scalar),
    st.tuples(_RATIONALS, _RATIONALS).map(lambda t: Scalar(t[0], t[1], 2)),
)


@st.composite
def _two_divisors(draw):
    fan = draw(st.sampled_from((P2, F1, P1P1, P3)))
    a = [draw(_COEFFS) for _ in fan.rays]
    b = [draw(_COEFFS) for _ in fan.rays]
    return fan, a, b


@settings(max_examples=150, deadline=None)
@given(_two_divisors(), _COEFFS, st.integers(-3, 3), st.lists(_COEFFS, min_size=3, max_size=3))
def test_record_arithmetic_matches_coefficientwise_scalars(pair, m, k, u):
    fan, a, b = pair
    D, E = fan.divisor(a), fan.divisor(b)
    assert D.coeffs == tuple(a)
    assert (D + E).coeffs == tuple(x + y for x, y in zip(a, b))
    assert (D - E).coeffs == tuple(x - y for x, y in zip(a, b))
    assert D.scale(m).coeffs == tuple(m * x for x in a)
    assert D.scale(k).coeffs == tuple(k * x for x in a)
    assert D.scale(Fraction(k, 7)).coeffs == tuple(Fraction(k, 7) * x for x in a)
    u = u[: fan.dim]
    expected = tuple(sum((x * w for x, w in zip(u, ray)), Scalar(0)) for ray in fan.rays)
    assert principal_divisor(fan, u).coeffs == expected


@settings(max_examples=150, deadline=None)
@given(_two_divisors())
@example((F1, [Scalar(3, -2, 2), Scalar(-1, 1, 2), Scalar(0), Scalar(0)], [Scalar(0)] * 4))
@example((F1, [Scalar(0, 1, 2), Scalar(1, -1, 2), Scalar(0), Scalar(0)], [Scalar(0)] * 4))
def test_effective_zero_and_support_read_off_the_record_match_the_scalars(pair):
    # 3 - 2 sqrt(2) and sqrt(2) - 1 are positive, 1 - sqrt(2) is negative
    fan, a, b = pair
    for D in (fan.divisor(a), fan.divisor(a) - fan.divisor(b)):
        coeffs = D.coeffs
        assert D.is_effective() == all(c >= 0 for c in coeffs)
        assert D.is_zero() == (not any(coeffs))
        assert D.support() == frozenset(i for i, c in enumerate(coeffs) if c)


@settings(max_examples=150, deadline=None)
@given(_two_divisors())
def test_equal_divisors_built_along_different_paths_are_equal_and_hash_alike(pair):
    fan, a, b = pair
    D, E = fan.divisor(a), fan.divisor(b)
    root2 = sqrt(2)
    pairs = [
        (D.scale(2), D + D),
        ((D + E) - E, D),
        (D - D, fan.divisor([0] * fan.nrays)),
        (D.scale(root2).scale(root2), D.scale(2)),
        (D.scale(Fraction(1, 3)).scale(3), D),
        (fan.divisor((D + E).coeffs), D + E),
    ]
    for X, Y in pairs:
        assert X == Y and hash(X) == hash(Y)
        p, q = polytope_of(X), polytope_of(Y)
        assert (p.den, p.disc, p.A, p.B) == (q.den, q.disc, q.A, q.B)
    assert (D + D == D) == D.is_zero()


# ---- h0(D, m, G): the round-down of mD + G off the records --------------------


def _in_field(d):
    """a + b sqrt(d) for small a and b, rational about half the time."""
    return st.builds(
        lambda a, b: Scalar(a, b, d),
        st.fractions(-3, 3, max_denominator=4),
        st.sampled_from((0, 0, 1, Fraction(-1, 2), Fraction(3, 4))),
    )


def _coeffs_in_field():
    """Five coefficients of one field, Q(sqrt(2)) mostly and Q(sqrt(3)) at times."""
    return st.sampled_from((2, 2, 3)).flatmap(lambda d: st.lists(_in_field(d), min_size=5, max_size=5))


def outcome(count):
    """count(), or the type and message of the MixedDiscriminant it raises."""
    try:
        return count()
    except MixedDiscriminant as exc:
        return type(exc), str(exc)


@given(
    st.sampled_from((P2, P1P1, F1, F2, P3, BLOWUP)),
    _coeffs_in_field(),
    st.integers(-2, 3) | st.sampled_from((2, 2, 3)).flatmap(_in_field),
    st.none() | _coeffs_in_field(),
)
@settings(max_examples=150, deadline=None)
@example(F1, [Scalar(1, -1, 2), Scalar(-2, 2, 2)] + [Scalar(0)] * 3, Scalar(1, 1, 2), [sqrt(3)] * 5)
@example(P2, [Scalar(0, 1, 2)] * 5, Scalar(0), [sqrt(3)] * 5)
@example(P3, [Scalar(Fraction(1, 2))] * 5, sqrt(3), [sqrt(2)] * 5)
@example(BLOWUP, [Scalar(0, 1, 3)] * 5, sqrt(2), None)
@example(F2, [Scalar(Fraction(5, 4), -1, 2)] * 5, Fraction(-5, 2), [Scalar(1, Fraction(3, 4), 2)] * 5)
def test_h0_of_m_and_a_step_counts_the_built_divisor(fan, coeffs, m, step):
    # (1 - sqrt(2)) (1 + sqrt(2)) = -1: mD is rational, so a sqrt(3) step joins
    # it; 0 D is rational too, while sqrt(3) D and D + sqrt(3) G raise
    D = fan.divisor(coeffs[: fan.nrays])
    G = None if step is None else fan.divisor(step[: fan.nrays])
    built = outcome(lambda: h0(D.scale(m) if G is None else D.scale(m) + G))
    assert outcome(lambda: h0(D, m, G)) == built
    assert outcome(lambda: fan.h0(D, m, G)) == built
    if G is None:
        assert outcome(lambda: fan.h0(D, m)) == built
    if m == 1 and G is None:
        assert fan.h0(D) == h0(D) == built


def test_h0_step_must_live_on_the_fan_and_be_a_toric_divisor():
    with pytest.raises(ValueError, match="different fans"):
        h0(C, 2, P2.divisor({"H": 1}))
    with pytest.raises(UnsupportedDivisor):
        h0(C, 2, SurfaceModel(1).divisor({"E": 1}))
