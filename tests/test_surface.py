import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    bplus_surface,
    h0_class,
    h0_class_loop,
    h0_surface_by_class,
    is_big_class,
    is_nef_class,
    sigma_surface,
    volume_surface,
    zariski_two_step,
)
from rdiv import scalars
from rdiv.errors import MixedDiscriminant, NotBig, NotPseudoeffective, UnsupportedModel
from rdiv.scalars import Scalar, sqrt
from rdiv.surface import (
    PaperExampleRow,
    SDivisor,
    SurfaceModel,
    class_of,
    h0_surface,
    intersect_classes,
    paper_example,
    zariski,
)
from rdiv.theorems import R_GRID, default_m_grid
from rdiv.toric import h0 as toric_h0
from rdiv.toric import Fan, preset_fan, volume as toric_volume

R2 = sqrt(2)
MODEL1 = SurfaceModel(1, ("F1", "F2", "F3", "F4"))
MODEL2 = SurfaceModel(2, ("F1", "F2", "F3", "F4"))


def twisted(model, m=1):
    return model.divisor(
        {"C": 1, "F1": 1, "F2": -1, "F3": R2, "F4": -R2}
    ).scale(m)


# ---- classes ---------------------------------------------------------------


def test_class_of_c():
    assert class_of(MODEL1.divisor({"C": 1})) == (Scalar(1), Scalar(1))


def test_class_of_twist_collapses_fibers():
    assert class_of(twisted(MODEL1)) == (Scalar(1), Scalar(1))


def test_class_of_zero():
    assert class_of(MODEL1.divisor({})) == (Scalar(0), Scalar(0))


def test_model_rejects_duplicate_fibers():
    with pytest.raises(UnsupportedModel):
        SurfaceModel(1, ("F1", "F1"))


@pytest.mark.parametrize("label", ["E", "C"])
def test_model_rejects_fiber_labelled_as_a_section(label):
    # the label would name two components, and divisor() could only reach one
    with pytest.raises(UnsupportedModel):
        SurfaceModel(1, ("F1", label))


@pytest.mark.parametrize(
    "e", [Fraction(3, 2), 1.5, "1", Fraction(1, 2)], ids=["fraction", "float", "str", "below-1"]
)
def test_model_reads_e_as_an_integer(e):
    # F_e exists for integer e only: an "F_{3/2}" gave h0(2C + E) = 8 and vol 6,
    # and paper_example reads e as an integer before it asks for e >= 1
    with pytest.raises(TypeError):
        SurfaceModel(e, ("A", "B"))
    with pytest.raises(TypeError):
        paper_example(e)


def test_model_rejects_unknown_component():
    with pytest.raises(KeyError):
        MODEL1.divisor({"G": 1})


def test_a_divisor_needs_one_coefficient_per_fiber_and_one_model():
    with pytest.raises(ValueError, match="fiber coefficient count"):
        SDivisor(MODEL1, 1, 0, (0, 0))
    with pytest.raises(ValueError, match="different surface models"):
        MODEL1.divisor({"C": 1}) + MODEL2.divisor({"C": 1})


# ---- section counts --------------------------------------------------------


def test_h0_class_examples():
    assert h0_class(1, 1, 1) == 3
    assert h0_class(1, 0, 1) == 1
    assert h0_class(-1, 5, 1) == 0


@given(st.integers(-6, 30), st.integers(-6, 60), st.integers(0, 5))
@settings(max_examples=300)
def test_h0_class_closed_form_matches_degree_sum(x, y, e):
    assert h0_class(x, y, e) == h0_class_loop(x, y, e)


def test_h0_at_huge_multiples_is_exact_and_fast():
    m, n = 10**9, 10**12
    start = time.perf_counter()
    assert h0_surface(MODEL1.divisor({"C": 1}).scale(m)) == (m + 1) * (m + 2) // 2
    # degrees n + 5, n + 4, ..., 5 on P^1: the sum of j for j = 6..n + 6
    assert h0_class(n, n + 5, 1) == (n + 6) * (n + 7) // 2 - 15
    assert time.perf_counter() - start < 0.5


def test_h0_surface_twist_at_one():
    assert h0_surface(twisted(MODEL1)) == 1


def test_h0_surface_c():
    assert h0_surface(MODEL1.divisor({"C": 1})) == 3


def test_h0_surface_negative_fiber():
    assert h0_surface(MODEL1.divisor({"F1": -1})) == 0


def test_h0_floor_applies_per_component():
    # flooring before collapsing classes matters: sqrt2 - sqrt2 cancels as a
    # class but contributes floor(sqrt2) + floor(-sqrt2) = -1 after rounding
    D = twisted(MODEL1)
    direct = class_of(D.floor())
    assert direct == (Scalar(1), Scalar(0))
    assert h0_surface(D) == h0_class(1, 0, 1) == 1


def test_h0_surface_rounds_the_coefficients_to_ints_and_builds_no_scalar():
    # the round-down's class x E + y F is read off the floors of cE, cC and
    # the fiber coefficients as ints, and counted on the F_e divisor of that
    # integer record: no Scalar is built, by Scalar() or _new, and no divisor
    # goes through Fan.divisor
    watched = {Scalar.__init__.__code__, scalars._new.__code__, Fan.divisor.__code__}
    cases = [twisted(model, m) for model in (MODEL1, MODEL2) for m in (1, 3, R2, 10**9 * R2)]
    cases.append(MODEL2.divisor({"E": Fraction(-7, 2), "C": 3, "F2": Fraction(5, 3)}))
    built = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            built.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        counts = [h0_surface(D) for D in cases]
    finally:
        sys.setprofile(None)
    assert built == []
    assert counts == [h0_surface_by_class(D) for D in cases]


# ---- zariski ---------------------------------------------------------------


def test_zariski_c_plus_e():
    D = MODEL1.divisor({"C": 1, "E": 1})
    pair = zariski(D)
    assert pair.N.cE == Scalar(1)
    assert pair.P == (Scalar(1), Scalar(1))
    assert pair.volume() == Scalar(1)


def test_zariski_nef_input():
    pair = zariski(MODEL1.divisor({"C": 1}))
    assert pair.N.cE == Scalar(0)
    assert pair.volume() == Scalar(1)


def test_zariski_c_plus_2e():
    pair = zariski(MODEL1.divisor({"C": 1, "E": 2}))
    assert pair.N.cE == Scalar(2)
    assert pair.P == (Scalar(1), Scalar(1))
    assert pair.volume() == Scalar(1)


def test_zariski_not_big():
    with pytest.raises(NotBig):
        zariski(MODEL1.divisor({"F1": 1}))
    with pytest.raises(NotBig):
        zariski(MODEL1.divisor({"E": 1}))


def test_bplus_surface_requires_big():
    with pytest.raises(NotBig):
        bplus_surface(MODEL1.divisor({"F1": 1}))


def test_zariski_not_pseudoeffective():
    with pytest.raises(NotPseudoeffective):
        zariski(MODEL1.divisor({"C": -1}))


def test_zariski_invariants_random():
    rng = random.Random(61)
    e_choices = (MODEL1, MODEL2)
    checked = 0
    while checked < 30:
        model = rng.choice(e_choices)
        D = model.divisor(
            {
                "E": Fraction(rng.randint(-4, 6), 2),
                "C": Fraction(rng.randint(-4, 6), 2),
                "F1": Fraction(rng.randint(-2, 4), 2),
                "F2": Fraction(rng.randint(-2, 4), 2),
            }
        )
        try:
            pair = zariski(D)
        except (NotBig, NotPseudoeffective):
            continue
        e = model.e
        assert intersect_classes(pair.P, (Scalar(1), Scalar(0)), e) >= 0  # P.E
        assert intersect_classes(pair.P, (Scalar(0), Scalar(1)), e) >= 0  # P.F
        assert intersect_classes(pair.P, (Scalar(1), Scalar(e)), e) >= 0  # P.C
        assert pair.N.is_effective()
        if not pair.N.is_zero():
            assert intersect_classes(pair.P, (Scalar(1), Scalar(0)), e) == 0
        checked += 1


def test_sections_of_positive_part_match():
    rng = random.Random(67)
    grid = [1, 2, Fraction(5, 2), 3]
    checked = 0
    while checked < 10:
        model = rng.choice((MODEL1, MODEL2))
        D = model.divisor(
            {"E": Fraction(rng.randint(0, 6), 2), "C": Fraction(rng.randint(1, 4), 2)}
        )
        try:
            pair = zariski(D)
        except (NotBig, NotPseudoeffective):
            continue
        # the positive part as an honest divisor is D - N; its class is pair.P
        P = D - pair.N
        assert class_of(P) == pair.P
        for m in grid:
            assert h0_surface(D.scale(m)) == h0_surface(P.scale(m))
        checked += 1


# ---- agreement with the toric model ----------------------------------------


def test_matches_toric_on_invariant_divisors():
    rng = random.Random(71)
    for e, model in ((1, MODEL1), (2, MODEL2)):
        fan = preset_fan(f"F{e}")
        for _ in range(10):
            coeffs = {
                "E": Fraction(rng.randint(-4, 6), 2),
                "C": Fraction(rng.randint(-4, 6), 2),
                "F": Fraction(rng.randint(-2, 4), 2),
            }
            D_t = fan.divisor(coeffs)
            D_s = model.divisor({"E": coeffs["E"], "C": coeffs["C"], "F1": coeffs["F"]})
            assert toric_h0(D_t) == h0_surface(D_s)
            assert toric_volume(D_t) == volume_surface(D_s)


def test_sigma_matches_toric_on_invariant_divisors():
    from rdiv.toric import is_big, sigma as toric_sigma

    rng = random.Random(79)
    for e, model in ((1, MODEL1), (2, MODEL2)):
        fan = preset_fan(f"F{e}")
        checked = 0
        while checked < 8:
            coeffs = {
                "E": Fraction(rng.randint(-2, 8), 2),
                "C": Fraction(rng.randint(1, 6), 2),
                "F": Fraction(rng.randint(0, 4), 2),
            }
            D_t = fan.divisor(coeffs)
            if not is_big(D_t):
                continue
            D_s = model.divisor({"E": coeffs["E"], "C": coeffs["C"], "F1": coeffs["F"]})
            assert toric_sigma(D_t, "E") == sigma_surface(D_s, "E")
            assert toric_sigma(D_t, "C") == sigma_surface(D_s, "C") == Scalar(0)
            checked += 1


def test_a_class_in_two_fields_is_a_domain_error_for_every_class_query():
    # the class (1 + sqrt(3)) E + (1 + sqrt(2)) F has no image on the toric
    # F_1, whose divisors hold one field; h0 rounds each component first
    D = MODEL1.divisor({"C": 1, "E": sqrt(3), "F1": R2})
    for query in (MODEL1.volume, MODEL1.is_big, MODEL1.is_nef, MODEL1.nsigma, MODEL1.bplus):
        with pytest.raises(MixedDiscriminant, match="incompatible discriminants 2 and 3"):
            query(D)
    assert MODEL1.h0(D) == 6


# ---- the irrational twist example -------------------------------------------


def test_paper_example_anchor_values():
    rows = paper_example(1, samples=[Scalar(1)])
    assert rows == [PaperExampleRow(Scalar(1), -1, 1, 3)]


def test_paper_example_default_grid():
    for e in (1, 2):
        for row in paper_example(e):
            assert row.floor_dot_e <= -1
            assert row.h0_twisted < row.h0_straight


def test_paper_example_m2_values():
    row = paper_example(1, samples=[Scalar(2)])[0]
    assert row.floor_dot_e == -1  # floor(2 sqrt2) + floor(-2 sqrt2) = 2 - 3
    assert row.h0_twisted == 3  # h0_class(2, 1, 1) = 2 + 1 + 0
    assert row.h0_straight == 6


def test_paper_example_floor_sum_never_zero():
    rng = random.Random(73)
    for _ in range(50):
        m = Scalar(Fraction(rng.randint(1, 40), rng.randint(1, 8)), Fraction(rng.randint(0, 12), 4), 2)
        assert m.sign() > 0
        s = (
            math.floor(m)
            + math.floor(-m)
            + math.floor(R2 * m)
            + math.floor(-R2 * m)
        )
        assert s <= -1


def test_paper_example_needs_negative_section():
    with pytest.raises(UnsupportedModel):
        paper_example(0)


def test_paper_example_rejects_nonpositive_sample():
    with pytest.raises(ValueError):
        paper_example(1, samples=[Scalar(-1)])


def test_sigma_surface_values():
    D = MODEL1.divisor({"C": 1, "E": 1})
    assert sigma_surface(D, "E") == Scalar(1)
    assert sigma_surface(D, "C") == Scalar(0)
    assert sigma_surface(D, "F1") == Scalar(0)


@pytest.mark.parametrize("label", ["Z", "F5", "e"])
def test_sigma_surface_rejects_components_the_model_lacks(label):
    D = MODEL1.divisor({"C": 1, "E": 1})
    with pytest.raises(KeyError, match=f"unknown component '{label}' on F_1"):
        sigma_surface(D, label)
    with pytest.raises(KeyError, match=f"unknown component '{label}' on F_1"):
        MODEL1.divisor({label: 1})


def test_nef_big_class_predicates():
    assert is_nef_class((Scalar(1), Scalar(1)), 1)
    assert not is_nef_class((Scalar(2), Scalar(1)), 1)  # (C+E).E = -1
    assert is_big_class((Scalar(1), Scalar(1)), 1)
    assert not is_big_class((Scalar(0), Scalar(1)), 1)


@given(
    st.sampled_from((MODEL1, MODEL2)),
    st.lists(
        st.sampled_from((Scalar(0), Scalar(1), Scalar(Fraction(1, 2)), R2, -R2)), min_size=6, max_size=6
    ),
    st.sampled_from((Scalar(0), Scalar(Fraction(1, 2)), Scalar(1), R2)),
    st.sampled_from(default_m_grid(2) + [Scalar(Fraction(1, 2))]),
    st.integers(0, 2**32),
)
@settings(max_examples=60, deadline=None)
def test_a_shift_the_query_calls_integral_keeps_every_sampled_h0(model, coeffs, e, m, seed):
    # the shifts t(F1 - F2), t(F3 - F4) have half-integer t drawn from the
    # rng; where m t is an integer, h0 at m(D + P) +- rE is h0 at mD +- rE
    # for r = m and every R_GRID step
    D = model.divisor(dict(zip(("E", "C") + model.fibers, coeffs)))
    E = model.divisor({"E": e})
    for P in model.shifts(random.Random(seed)):
        if model.shift_is_integral(P, m):
            for r in [m] + R_GRID:
                for step in (E.scale(r), E.scale(-r)):
                    assert h0_surface(model.shift(D, P).scale(m) + step) == h0_surface(D.scale(m) + step)


def _in_field(d):
    return st.builds(
        lambda a, b: Scalar(a, b, d),
        st.fractions(-3, 3, max_denominator=4),
        st.sampled_from((0, 0, 1, Fraction(-1, 2))),
    )


def _surface_divisor(model, coeffs):
    return model.divisor(dict(zip(("E", "C") + model.fibers, coeffs)))


def outcome(count):
    """count(), or the type and message of the MixedDiscriminant it raises."""
    try:
        return count()
    except MixedDiscriminant as exc:
        return type(exc), str(exc)


@given(
    st.sampled_from((MODEL1, MODEL2, SurfaceModel(0, ("F1", "F2")))),
    st.sampled_from((2, 2, 3)).flatmap(lambda d: st.lists(_in_field(d), min_size=6, max_size=6)),
    st.integers(-2, 3) | st.sampled_from((2, 2, 3)).flatmap(_in_field),
    st.none() | st.sampled_from((2, 2, 3)).flatmap(lambda d: st.lists(_in_field(d), min_size=6, max_size=6)),
)
@settings(max_examples=100, deadline=None)
def test_model_h0_of_m_and_a_step_counts_the_built_divisor(model, coeffs, m, step):
    D = _surface_divisor(model, coeffs)
    G = None if step is None else _surface_divisor(model, step)
    built = outcome(lambda: model.h0(D.scale(m) if G is None else D.scale(m) + G))
    assert outcome(lambda: model.h0(D, m, G)) == built
    if G is None:
        assert outcome(lambda: model.h0(D, m)) == built
    if m == 1 and G is None:
        assert model.h0(D) == h0_surface(D) == built


def test_model_h0_of_m_and_a_step_builds_no_divisor():
    # each component of mD + G is floored straight to an int, into the
    # record h0_surface counts: no SDivisor is built for mD or for mD + G
    D, G = twisted(MODEL1), MODEL1.divisor({"E": Fraction(1, 2), "F2": -R2})
    cases = [(D, m, G) for m in (1, 3, R2, Fraction(5, 2))] + [(D, R2, None)]
    built = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is SDivisor.__init__.__code__:
            built.append(frame.f_code.co_name)

    sys.setprofile(watch)
    try:
        counts = [MODEL1.h0(*case) for case in cases]
    finally:
        sys.setprofile(None)
    assert built == []
    assert counts == [h0_surface(D.scale(m) if G is None else D.scale(m) + G) for D, m, G in cases]
    with pytest.raises(ValueError, match="different surface models"):
        MODEL1.h0(D, 2, MODEL2.divisor({"E": 1}))


def _answer(query):
    """query(), or the type and message of the NotBig or NotPseudoeffective
    it raises."""
    try:
        return query()
    except (NotBig, NotPseudoeffective) as exc:
        return type(exc), str(exc)


def _pair(zariski_of, D):
    pair = zariski_of(D)
    return pair.P, pair.N, pair.volume()


# rational and sqrt(2) coefficients, mostly non-negative: most classes are
# big, with or without a negative part, and each of the two errors still shows
_COEFF = st.builds(
    lambda a, b: Scalar(a, b, 2), st.fractions(-1, 3, max_denominator=4), st.sampled_from((0, 0, 1, Fraction(-1, 2)))
)


@given(st.integers(0, 3), st.lists(_COEFF, min_size=5, max_size=5))
# at e = 10^20, D.E = -e + 1/2 - sqrt(2) puts almost all of E in N
@example(10**20, [Scalar(1), R2, Scalar(Fraction(1, 2)), -R2, Scalar(0)])
@settings(max_examples=80, deadline=None)
def test_every_protocol_answer_is_the_closed_forms(e, coeffs):
    # the model reads its numbers off the toric F_e; the closed forms on the
    # class x E + y F (and on the round-down's class for h0) are the reference
    model = SurfaceModel(e, ("F1", "F2", "F3"))
    D = _surface_divisor(model, coeffs)
    cls = class_of(D)
    assert model.volume(D) == volume_surface(D)
    assert model.is_big(D) == is_big_class(cls, e)
    assert model.is_nef(D) == is_nef_class(cls, e)
    for m in (1, Fraction(5, 2), 10**9):
        assert model.h0(D, m) == h0_surface_by_class(D.scale(m))
    for label in ("E", "C") + model.fibers:
        assert _answer(lambda: model.sigma(D, label)) == _answer(lambda: sigma_surface(D, label))
    assert _answer(lambda: model.nsigma(D)) == _answer(lambda: zariski_two_step(D).N)
    assert _answer(lambda: model.bplus(D)) == _answer(lambda: bplus_surface(D))
    assert _answer(lambda: _pair(zariski, D)) == _answer(lambda: _pair(zariski_two_step, D))
