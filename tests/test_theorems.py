import hashlib
import json
import random
import sys
from fractions import Fraction

import pytest
from oracles import generate_corpus_by_scalars

from rdiv import polyhedra, theorems, toric
from rdiv.errors import NotBig, NotEffective
from rdiv.scalars import Scalar, parse_scalar, sqrt
from rdiv.surface import SurfaceModel
from rdiv.theorems import (
    CANDIDATE,
    CONSISTENT,
    R_GRID,
    ClauseValue,
    TheoremReport,
    _verdict,
    check_theorem_a,
    check_theorem_b,
    corpus_run,
    default_m_grid,
    generate_corpus,
    negsections_check,
    summary_to_json,
)
from rdiv.toric import preset_fan

P2 = preset_fan("P2")
F1 = preset_fan("F1")
MODEL1 = SurfaceModel(1, ("F1", "F2", "F3", "F4"))


def statuses(report):
    return {k: v.status for k, v in report.clause_values.items()}


# ---- checker A --------------------------------------------------------------


def test_a_negative_part_subtraction():
    D = F1.divisor({"C": 1, "E": 1})
    E = F1.divisor({"E": 1})
    rep = check_theorem_a(F1, D, E)
    assert rep.verdict == CONSISTENT
    assert statuses(rep) == {"i": "true", "ii": "true", "iv": "true", "v": "skipped"}


def test_a_ample_drop():
    D = P2.divisor({"H": 1})
    E = P2.divisor({"r0": Fraction(1, 3)})
    rep = check_theorem_a(P2, D, E)
    assert rep.verdict == CONSISTENT
    assert statuses(rep) == {"i": "false", "ii": "false", "iv": "false", "v": "false"}
    assert rep.clause_values["iv"].witness is not None


def test_a_nef_zero():
    D = F1.divisor({"C": 1})
    E = F1.divisor({})
    rep = check_theorem_a(F1, D, E)
    assert rep.verdict == CONSISTENT
    assert statuses(rep) == {"i": "true", "ii": "true", "iv": "true", "v": "true"}


def test_a_requires_big():
    with pytest.raises(NotBig):
        check_theorem_a(F1, F1.divisor({"F": 1}), F1.divisor({}))


def test_a_requires_effective():
    with pytest.raises(NotEffective):
        check_theorem_a(P2, P2.divisor({"H": 1}), P2.divisor({"H": -1}))


def test_a_on_surface_model():
    D = MODEL1.divisor({"C": 1, "E": 1})
    E = MODEL1.divisor({"E": 1})
    rep = check_theorem_a(MODEL1, D, E)
    assert rep.verdict == CONSISTENT
    assert statuses(rep)["i"] == "true" and statuses(rep)["ii"] == "true"


def test_a_surface_fiber_component_breaks_domination():
    D = MODEL1.divisor({"C": 1, "E": 1})
    E = MODEL1.divisor({"F1": Fraction(1, 2)})
    rep = check_theorem_a(MODEL1, D, E)
    assert rep.verdict == CONSISTENT
    assert statuses(rep)["ii"] == "false"
    assert statuses(rep)["i"] == "false"


def test_a_surface_witness_is_first_failing_component_in_sorted_order():
    D = MODEL1.divisor({"C": 1, "E": 1})
    E = MODEL1.divisor({"E": 2, "F1": 1})  # E exceeds N = E, and F1 is off N
    rep = check_theorem_a(MODEL1, D, E)
    assert rep.clause_values["ii"].witness == {"component": "E"}


def test_a_fan_witness_names_the_ray():
    rep = check_theorem_a(F1, F1.divisor({"C": 1, "E": 1}), F1.divisor({"E": 2, "F": 1}))
    assert rep.clause_values["ii"].witness == {"ray": "F"}


def _excess_by_coefficients(X, E, N):
    """The first label of Supp(E), in X's order, where E's Scalar coefficient
    exceeds N's: clause ii as it read the two coefficient maps."""
    e, n = E.coeff_map(), N.coeff_map()
    return next((label for label in X.labels(E) if e[label] > n[label]), None)


def test_excess_on_a_fan_reads_the_records_as_the_coefficient_maps_do():
    r2 = sqrt(2)
    cases = [
        (F1, F1.divisor({"C": 1, "E": 1}), F1.divisor({"E": 2, "F": 1})),
        (F1, F1.divisor({"C": 1, "E": 3, "F": r2 / 2}), F1.divisor({"E": 3 - r2 / 2})),
        (F1, F1.divisor({"C": 1, "E": 3, "F": r2 / 2}), F1.divisor({"E": Fraction(5, 2)})),
        (F1, F1.divisor({"C": 1, "E": 3, "F": r2 / 2}), F1.divisor({"E": 3 - r2 / 2, "C": r2 / 10**9})),
        (P2, P2.divisor({"H": 1}), P2.divisor({})),
    ]
    for inst in generate_corpus(2026, 60):
        fan, D, E = inst.realize()
        cases.append((fan, D, E))
    seen = set()
    for X, D, E in cases:
        N = X.nsigma(D)
        bad = X.excess(E, N)
        assert bad == _excess_by_coefficients(X, E, N)
        assert X.excess(N, N) is None
        seen.add(bad is None)
    assert seen == {True, False}


def test_excess_on_a_surface_reads_the_coefficient_maps():
    r2 = sqrt(2)
    D = MODEL1.divisor({"C": 1, "E": 3, "F1": r2 / 2})
    N = MODEL1.nsigma(D)
    for coeffs, bad in [
        ({"E": N.cE + 1, "F1": 1}, "E"),
        ({"E": 2, "F1": 1}, "F1"),
        ({"E": N.cE}, None),
        ({"E": N.cE + r2 / 10**9}, "E"),
        ({"F2": Fraction(1, 2)}, "F2"),
        ({}, None),
    ]:
        E = MODEL1.divisor(coeffs)
        assert MODEL1.excess(E, N) == bad == _excess_by_coefficients(MODEL1, E, N)


def test_checker_a_reads_no_coefficient_tuple_over_a_corpus(monkeypatch):
    # clause ii compares N_sigma(D) and E on their offset records
    calls = []
    coeffs = toric.TDivisor.coeffs

    def counted(D):
        calls.append(D)
        return coeffs.fget(D)

    monkeypatch.setattr(toric.TDivisor, "coeffs", property(counted))
    summary = corpus_run(2026, 30)
    assert summary["consistent"] == 30
    assert calls == []


# ---- checker B --------------------------------------------------------------


def test_b_base_locus_absorbs_e():
    rep = check_theorem_b(F1, F1.divisor({"C": 1}), F1.divisor({"E": 1}))
    assert rep.verdict == CONSISTENT
    assert statuses(rep) == {"i": "true", "ii": "true", "iv": "true", "v": "true"}


def test_b_ample_growth():
    rep = check_theorem_b(P2, P2.divisor({"H": 1}), P2.divisor({"r0": 1}))
    assert rep.verdict == CONSISTENT
    assert statuses(rep) == {"i": "false", "ii": "false", "iv": "false", "v": "false"}


def test_b_zero_e_trivially_true():
    rep = check_theorem_b(P2, P2.divisor({"H": 1}), P2.divisor({}))
    assert rep.verdict == CONSISTENT
    assert statuses(rep) == {"i": "true", "ii": "true", "iv": "true", "v": "true"}


@pytest.mark.parametrize("X", [F1, MODEL1], ids=["fan", "surface"])
def test_a_zero_e_draws_the_shifts_of_both_checkers(X):
    # the corpus shares one rng between instances, so each checker draws its
    # shifts even when E = 0 decides clause iv without them
    D, E, grid = X.divisor({"C": 1, "E": 1}), X.divisor({}), default_m_grid(2)
    rng, expected = random.Random(5), random.Random(5)
    assert check_theorem_a(X, D, E, m_grid=grid, rng=rng).clause_values["iv"].is_true
    assert check_theorem_b(X, D, E, m_grid=grid, rng=rng).clause_values["iv"].is_true
    X.shifts(expected)
    X.shifts(expected)
    assert rng.getstate() == expected.getstate()


@pytest.mark.parametrize("X", [F1, MODEL1], ids=["fan", "surface"])
def test_a_zero_e_builds_no_scaling_of_e(X, monkeypatch):
    # with E = 0 the walk reads only the plain counts h0(mD), neither A's -E
    # nor B's steps rE, so neither checker scales E (the surface's h0 still
    # scales D by m)
    D, E, grid = X.divisor({"C": 1, "E": 1}), X.divisor({}), default_m_grid(2)
    scale, calls = type(E).scale, []

    def counted(divisor, factor):
        if divisor is E:
            calls.append(factor)
        return scale(divisor, factor)

    monkeypatch.setattr(type(E), "scale", counted)
    assert check_theorem_a(X, D, E, m_grid=grid).clause_values["iv"].is_true
    assert calls == []
    assert check_theorem_b(X, D, E, m_grid=grid).clause_values["iv"].is_true
    assert calls == []


def test_b_on_surface_model():
    rep = check_theorem_b(MODEL1, MODEL1.divisor({"C": 1}), MODEL1.divisor({"E": 1}))
    assert rep.verdict == CONSISTENT
    assert statuses(rep) == {"i": "true", "ii": "true", "iv": "true", "v": "true"}


def test_b_surface_irrational_coefficients():
    r2 = sqrt(2)
    D = MODEL1.divisor({"C": 1, "F1": r2, "F2": -r2})
    E = MODEL1.divisor({"E": Fraction(1, 2)})
    rep = check_theorem_b(MODEL1, D, E, m_grid=default_m_grid(2))
    assert rep.verdict == CONSISTENT
    assert statuses(rep)["i"] == "true"


def test_report_json_shape():
    rep = check_theorem_b(P2, P2.divisor({"H": 1}), P2.divisor({"r0": 1}))
    doc = rep.to_json()
    assert doc["theorem"] == "B"
    assert doc["verdict"] == CONSISTENT
    assert set(doc["clauses"]) == {"i", "ii", "iv", "v"}
    json.dumps(doc)  # serializable


# ---- the sampled clause iv ---------------------------------------------------


class OffByOneAt:
    """A model's protocol with h0 one too large at a single divisor, and a
    log of every divisor h0 is asked about: X.h0(D, m, G) stands for the
    divisor D.scale(m) + G (D.scale(m) when G is None)."""

    def __init__(self, X, target):
        self.X, self.target, self.seen = X, target, []

    def __getattr__(self, name):
        return getattr(self.X, name)

    def h0(self, D, m=1, G=None):
        asked = D.scale(m) if G is None else D.scale(m) + G
        self.seen.append(asked)
        return self.X.h0(D, m, G) + (asked == self.target)


@pytest.mark.parametrize("X", [F1, MODEL1], ids=["fan", "surface"])
def test_a_witness_names_the_multiple_and_the_shift_and_stops_there(X):
    D, E = X.divisor({"C": 1, "E": 1}), X.divisor({"E": 1})
    grid = [Fraction(1), Fraction(5, 2), Fraction(3)]
    shift = X.shifts(None)[1]
    probe = OffByOneAt(X, (D + shift).scale(Fraction(5, 2)) - E.scale(Fraction(5, 2)))
    iv = check_theorem_a(probe, D, E, m_grid=grid).clause_values["iv"]
    assert iv == ("false", {"m": "5/2", "shift": 2}, None)
    # D at three multiples; each unit shift is Z-linearly trivial at the
    # integers, so each is asked only at m = 5/2, and the second fails there
    assert len(probe.seen) == 2 * (3 + 1 + 1)
    probe = OffByOneAt(X, D.scale(3) - E.scale(3))
    assert check_theorem_a(probe, D, E, m_grid=grid).clause_values["iv"].witness == {"m": "3"}


@pytest.mark.parametrize("X", [F1, MODEL1], ids=["fan", "surface"])
def test_b_witness_names_the_multiple_the_step_and_the_shift_and_stops_there(X):
    D, E = X.divisor({"C": 1, "E": 1}), X.divisor({"E": 1})
    grid = [Fraction(1), Fraction(5, 2)]
    shift = X.shifts(None)[0]
    probe = OffByOneAt(X, (D + shift).scale(Fraction(5, 2)) + E.scale(R_GRID[1]))
    iv = check_theorem_b(probe, D, E, m_grid=grid).clause_values["iv"]
    assert iv == ("false", {"m": "5/2", "r": "1/2", "shift": 1}, None)
    # D: base and r = m at two multiples; the first shift is trivial at
    # m = 1, so the two R_GRID steps are asked there on D itself, then
    # base and r = m, 1, 1/2 at m = 5/2
    assert len(probe.seen) == 2 * 2 + 2 + 4
    probe = OffByOneAt(X, D.scale(Fraction(5, 2)) + E.scale(Fraction(5, 2)))
    witness = check_theorem_b(probe, D, E, m_grid=grid).clause_values["iv"].witness
    assert witness == {"m": "5/2", "r": "5/2"}
    # an R_GRID step on D itself is named by the first shift trivial at m
    probe = OffByOneAt(X, D + E.scale(R_GRID[1]))
    witness = check_theorem_b(probe, D, E, m_grid=grid).clause_values["iv"].witness
    assert witness == {"m": "1", "r": "1/2", "shift": 1}
    probe = OffByOneAt(X, X.divisor({}))
    assert check_theorem_b(probe, D, E, m_grid=grid).clause_values["iv"].is_true


@pytest.mark.parametrize("X", [F1, MODEL1], ids=["fan", "surface"])
def test_a_defect_at_a_z_linearly_trivial_shifted_point_is_never_asked(X):
    # m P ~_Z 0 at an integer m for a unit shift P, so h0 at m(D + P) is
    # h0 at mD, which the plain walk already compared
    D, E = X.divisor({"C": 1, "E": 1}), X.divisor({"E": 1})
    grid = [Fraction(1), Fraction(5, 2), Fraction(3)]
    shift = X.shifts(None)[1]
    assert X.shift_is_integral(shift, Scalar(3))
    for check, target in (
        (check_theorem_a, (D + shift).scale(3) - E.scale(3)),
        (check_theorem_b, (D + shift).scale(3) + E.scale(3)),
        (check_theorem_b, (D + shift).scale(3) + E.scale(R_GRID[1])),
        (check_theorem_b, (D + shift).scale(3)),
    ):
        probe = OffByOneAt(X, target)
        assert check(probe, D, E, m_grid=grid).clause_values["iv"].is_true
        assert target not in probe.seen


def test_checker_reports_over_a_corpus_are_pinned():
    """Both reports, witnesses included, for 60 corpus instances with random
    shifts drawn from one stream, pinned by the sha256 of their JSON."""
    rng, grid, docs = random.Random(2027), default_m_grid(2), []
    for inst in generate_corpus(2026, 60):
        fan, D, E = inst.realize()
        for check in (check_theorem_a, check_theorem_b):
            docs.append(check(fan, D, E, m_grid=grid, rng=rng).to_json())
    blob = json.dumps(docs, sort_keys=True).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "66a45c5be8ad167a4b0ffc3c4d9770a4c5e01b1aa4508578ba8d5e5e306aef70"
    )


@pytest.mark.parametrize("grid", [[0], [-1], [Fraction(-2)], [1, 0], []], ids=str)
@pytest.mark.parametrize("check", [check_theorem_a, check_theorem_b, negsections_check])
def test_a_grid_without_a_positive_multiple_is_rejected(check, grid):
    # "for all m > 0" sampled at m <= 0, or at no m, proves nothing
    D, E = F1.divisor({"C": 1, "E": 1}), F1.divisor({"E": 1})
    with pytest.raises(ValueError, match="is not positive|no sample"):
        check(F1, D, E, m_grid=grid)


# ---- lemma: adding inside the negative part ----------------------------------


def test_negsections_fan():
    D = F1.divisor({"C": 1, "E": Fraction(3, 2)})
    E = F1.divisor({"E": Fraction(3, 4)})
    assert negsections_check(F1, D, E)


def test_negsections_surface():
    D = MODEL1.divisor({"C": 1, "E": 2})
    E = MODEL1.divisor({"E": Fraction(1, 2)})
    assert negsections_check(MODEL1, D, E)


def test_negsections_rejects_outside_support():
    with pytest.raises(ValueError):
        negsections_check(F1, F1.divisor({"C": 1, "E": 1}), F1.divisor({"F": 1}))


# ---- the verdict ---------------------------------------------------------------


@pytest.mark.parametrize(
    "i, ii, iv, v, verdict",
    [
        ("true", "false", "true", None, CANDIDATE),
        ("false", "true", "true", None, CANDIDATE),
        ("true", "true", "false", None, CANDIDATE),
        ("true", "true", "true", "false", CANDIDATE),
        ("false", "false", "false", "true", CANDIDATE),
        ("true", "true", "true", None, CONSISTENT),
        ("true", "true", "true", "true", CONSISTENT),
        ("false", "false", "false", "false", CONSISTENT),
        ("false", "false", "true", "skipped", CONSISTENT),
        ("false", "false", "false", None, CONSISTENT),
    ],
    ids=[
        "i-true-ii-false",
        "i-false-ii-true",
        "ii-true-iv-false",
        "v-false-i-true",
        "v-true-i-false",
        "all-true-no-v",
        "all-true",
        "all-false",
        "v-skipped",
        "iv-false-under-ii-false",
    ],
)
def test_the_verdict_flags_each_contradiction(i, ii, iv, v, verdict):
    """Three rules make a candidate: i and ii disagree, iv falsifies a true
    ii, or a decided v disagrees with i.  A skipped v decides nothing, and
    a false iv under a false ii contradicts nothing."""
    clauses = {"i": ClauseValue(i), "ii": ClauseValue(ii), "iv": ClauseValue(iv)}
    if v is not None:
        clauses["v"] = ClauseValue(v, reason="D is not nef" if v == "skipped" else None)
    assert _verdict(clauses) == verdict


# ---- corpus ------------------------------------------------------------------


def test_corpus_deterministic():
    a = generate_corpus(5, 12)
    b = generate_corpus(5, 12)
    assert a == b
    s1 = summary_to_json(corpus_run(5, 6))
    s2 = summary_to_json(corpus_run(5, 6))
    assert s1 == s2


def test_corpus_all_consistent():
    summary = corpus_run(1, 10)
    assert summary["consistent"] == 10
    assert summary["candidates"] == []


def test_corpus_empty():
    summary = corpus_run(1, 0)
    assert summary["count"] == 0
    assert summary["consistent"] == 0


def test_corpus_instances_realize():
    for inst in generate_corpus(9, 8):
        fan, D, E = inst.realize()
        assert len(D.coeffs) == fan.nrays
        assert E.is_effective()


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 2026])
def test_corpus_json_replays_each_instance(seed):
    # to_json renders the divisors an instance holds; its literals parse
    # back, on the named preset, to the divisors realize() hands over
    for inst in generate_corpus(seed, 200):
        fan, D, E = inst.realize()
        doc = inst.to_json()
        replay = preset_fan(doc["preset"])
        assert replay is fan
        assert replay.divisor([parse_scalar(c) for c in doc["D"]]) == D
        assert replay.divisor([parse_scalar(c) for c in doc["E"]]) == E


# the six 160-instance corpora of the benchmark's deck, and a few small ones
DRAWN_CORPORA = [(s, 160) for s in range(2026, 2032)] + [(0, 40), (1, 40), (5, 12), (9, 8)]


@pytest.mark.parametrize("seed,count", DRAWN_CORPORA)
def test_corpus_draws_the_instances_of_the_scalar_built_reference(seed, count):
    drawn, reference = generate_corpus(seed, count), generate_corpus_by_scalars(seed, count)
    assert drawn == reference
    assert [inst.to_json() for inst in drawn] == [inst.to_json() for inst in reference]


def test_corpus_draws_build_no_fraction_scalar_or_coefficient_tuple():
    # each divisor is built straight from its integer offset record
    builders = {Fraction.__new__.__code__, Scalar.__init__.__code__, toric.TDivisor.__init__.__code__}
    built = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in builders:
            built.append(frame.f_code.co_qualname)

    sys.setprofile(watch)
    try:
        instances = generate_corpus(2026, 40)
    finally:
        sys.setprofile(None)
    assert len(instances) == 40
    assert built == []


def test_the_sampled_clause_asks_h0_on_the_records_and_builds_no_multiple():
    # the walk asks X.h0(D', m) and X.h0(D', m, G), which round mD' + G off
    # the offset records, and a zero E asks only h0(mD): the only scalings
    # are check A's E.scale(-1) and check B's R_GRID steps, built for the
    # 176 instances whose E is not 0, 176 * (1 + 2);
    # the walk takes D -+ E from clause i, and bplus, intersect and sigma
    # read bigness off the facet record; sigma asks lp_solve only for the
    # rays of zero facet volume, one objective each on this corpus
    calls = {
        toric.Fan.h0.__code__: 0,
        toric.TDivisor.scale.__code__: 0,
        toric.TDivisor.__add__.__code__: 0,
        toric.is_big.__code__: 0,
        polyhedra.lp_solve.__code__: 0,
    }
    objectives = []
    # sigma_decomposition asks lp_solve once per divisor it has not cached
    # and whose B+ is not empty, so the count starts from an empty cache,
    # whatever ran before
    toric.sigma_decomposition.cache_clear()

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in calls:
            calls[frame.f_code] += 1
            if frame.f_code is polyhedra.lp_solve.__code__:
                objectives.append(len(frame.f_locals["objectives"]))

    sys.setprofile(watch)
    try:
        corpus_run(2026, 200)
    finally:
        sys.setprofile(None)
    assert calls[toric.Fan.h0.__code__] == 1324
    assert calls[toric.TDivisor.scale.__code__] == 528
    assert calls[toric.TDivisor.__add__.__code__] == 252
    assert calls[toric.is_big.__code__] == 838
    assert calls[polyhedra.lp_solve.__code__] == 60
    assert sum(objectives) == 60


def test_corpus_json_is_pinned():
    blob = json.dumps([inst.to_json() for inst in generate_corpus(2026, 200)], sort_keys=True)
    assert (
        hashlib.sha256(blob.encode()).hexdigest()
        == "414e8d6f047ca3ccd61665699c463e156e3b9e53e8c43061cd10f2900ab9cb2b"
    )


FLAGGED = TheoremReport(
    "B",
    {"i": ClauseValue("true"), "ii": ClauseValue("false", {"ray": "r0"}), "iv": ClauseValue("true")},
    CANDIDATE,
)


def test_a_flagged_report_is_embedded_for_replay(monkeypatch):
    monkeypatch.setattr(theorems, "check_theorem_b", lambda *args, **kwargs: FLAGGED)
    summary = corpus_run(1, 2, which="B")
    assert summary["consistent"] == 0
    clauses = {
        "i": {"status": "true"},
        "ii": {"status": "false", "witness": {"ray": "r0"}},
        "iv": {"status": "true"},
    }
    reports = {"B": {"theorem": "B", "clauses": clauses, "verdict": CANDIDATE}}
    assert summary["candidates"] == [
        {
            "instance": {
                "index": 0,
                "preset": "P1xP1",
                "D": ["1", "3/2", "0", "2"],
                "E": ["1/2", "0", "5/4", "0"],
                "nef_constructed": False,
            },
            "reports": reports,
        },
        {
            "instance": {
                "index": 1,
                "preset": "P3",
                "D": ["0", "0", "1", "1"],
                "E": ["0", "0", "3/2", "2"],
                "nef_constructed": True,
            },
            "reports": reports,
        },
    ]
    assert json.loads(summary_to_json(summary))["candidates"] == summary["candidates"]


def test_a_failed_negative_part_check_is_a_candidate(monkeypatch):
    # of corpus 10's first 4 instances, only the third has E inside N_sigma(D)
    monkeypatch.setattr(theorems, "negsections_check", lambda *args, **kwargs: False)
    summary = corpus_run(10, 4)
    assert summary["negsections_checked"] == 1
    assert summary["consistent"] == 3
    assert summary["candidates"] == [
        {
            "instance": {
                "index": 2,
                "preset": "F2",
                "D": ["5/4", "0", "-5/2", "3/2"],
                "E": ["0", "1", "0", "0"],
                "nef_constructed": False,
            },
            "failure": "negative-part additivity",
        }
    ]


# ---- long runs -----------------------------------------------------------------


def test_library_caches_stay_bounded_over_a_corpus_run():
    import rdiv.linalg
    import rdiv.polyhedra
    import rdiv.toric

    corpus_run(2026, 200)
    caches = {
        f"{mod.__name__}.{name}": fn.cache_info()
        for mod in (rdiv.linalg, rdiv.polyhedra, rdiv.toric)
        for name, fn in vars(mod).items()
        if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__
    }
    assert set(caches) >= {
        "rdiv.polyhedra._facet_volumes",
        "rdiv.polyhedra._vertex_table",
        "rdiv.polyhedra.lattice_points",
        "rdiv.toric._preset_fan",
        "rdiv.toric.sigma_decomposition",
    }
    for name, info in caches.items():
        assert info.maxsize is not None and info.currsize <= info.maxsize, (name, info)


# ---- pinned exact values ---------------------------------------------------------


def test_library_values_over_a_corpus_are_pinned():
    """volume, N_sigma, B+ and h0 at the default multiples of 60 corpus
    divisors, pinned by the sha256 of their JSON rendering: any change to an
    exact value moves the digest."""
    entries = []
    for inst in generate_corpus(2026, 60):
        _, D, _ = inst.realize()
        entries.append(
            [
                str(toric.volume(D)),
                [str(c) for c in toric.sigma_decomposition(D).nsigma.coeffs],
                sorted(toric.bplus_div(D)),
                [toric.h0(D.scale(m)) for m in default_m_grid(2)],
            ]
        )
    assert entries[0] == ["49/16", ["0", "0", "0"], [], [3, 10, 21, 15, 3]]
    blob = json.dumps(entries, sort_keys=True).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "236d01e49d390c12cc0f1dbe4dcd59c3ad4602f861dca203b4852c2997aaed21"
    )
