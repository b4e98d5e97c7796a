import hashlib
import json
from fractions import Fraction

import pytest

from rdiv import toric
from rdiv.errors import NotBig, NotEffective
from rdiv.scalars import sqrt
from rdiv.surface import SurfaceModel
from rdiv.theorems import (
    CONSISTENT,
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
        "rdiv.polyhedra._face_table",
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
