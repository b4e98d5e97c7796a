import hashlib
import json
import random
from fractions import Fraction

import pytest

from rdiv import toric
from rdiv.errors import NotBig, NotEffective
from rdiv.scalars import Scalar, sqrt
from rdiv.surface import SurfaceModel
from rdiv.theorems import (
    CONSISTENT,
    R_GRID,
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
    log of every divisor h0 is asked about."""

    def __init__(self, X, target):
        self.X, self.target, self.seen = X, target, []

    def __getattr__(self, name):
        return getattr(self.X, name)

    def h0(self, D):
        self.seen.append(D)
        return self.X.h0(D) + (D == self.target)


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
