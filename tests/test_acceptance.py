"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line with its headline numbers; a failed
assertion is the FAIL signal.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import random
import time
from fractions import Fraction

from oracles import facet_scalars
from rdiv.scalars import Scalar, sqrt
from rdiv.surface import SurfaceModel, h0_surface, paper_example, volume_surface, zariski
from rdiv.theorems import check_theorem_a, check_theorem_b, generate_corpus, negsections_check
from rdiv.toric import (
    h0,
    is_big,
    is_nef,
    polytope_of,
    preset_fan,
    sigma,
    sigma_decomposition,
    sigma_limit_oracle,
    volume,
)

CORPUS_SEED = 2026
R2 = sqrt(2)

P2 = preset_fan("P2")
F1 = preset_fan("F1")
F2 = preset_fan("F2")


def _corpus():
    return generate_corpus(CORPUS_SEED, 200)


def rand_big(fan, rng, dens=(1, 2, 4), lo=-3, hi=3):
    while True:
        D = fan.divisor([Fraction(rng.randint(lo * d, hi * d), d) for d in (rng.choice(dens),) * fan.nrays])
        if is_big(D):
            return D


def test_criterion_1_paper_example():
    """Irrational twist of C: fewer sections at every m, grid + 100 random."""
    start = time.time()
    grid = [Scalar(1), Scalar(2), Scalar(Fraction(5, 2)), R2, Scalar(3), Scalar(7)]
    rows = paper_example(1, samples=grid)
    anchors = rows[0]
    assert anchors.h0_twisted == 1 and anchors.h0_straight == 3
    rng = random.Random(CORPUS_SEED)
    randoms = []
    while len(randoms) < 100:
        p = Fraction(rng.randint(0, 24), rng.randint(1, 4))
        q = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        if p or q:
            randoms.append(Scalar(p, q, 2))
    rows += paper_example(1, samples=randoms)
    for row in rows:
        assert row.floor_dot_e <= -1
        assert row.h0_twisted < row.h0_straight
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: PASS ({len(rows)} samples, {elapsed:.2f}s < 5s)")


def test_criterion_2_theorem_a_equivalence():
    """Clause i) <=> clause ii) of checker A over 200 seeded instances."""
    start = time.time()
    instances = _corpus()
    assert len(instances) >= 200
    rng = random.Random(CORPUS_SEED + 1)
    for inst in instances:
        fan, D, E = inst.realize()
        rep = check_theorem_a(fan, D, E, rng=rng)
        ci, cii = rep.clause_values["i"], rep.clause_values["ii"]
        assert ci.status == cii.status, f"instance {inst.index}: i={ci.status} ii={cii.status}"
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2: PASS ({len(instances)} instances, {elapsed:.1f}s < 120s)")


def test_criterion_3_theorem_b_equivalence():
    """Clause i) <=> ii) of checker B; v) <=> i) on the nef sub-corpus."""
    start = time.time()
    instances = _corpus()
    rng = random.Random(CORPUS_SEED + 2)
    nef_checked = 0
    for inst in instances:
        fan, D, E = inst.realize()
        rep = check_theorem_b(fan, D, E, rng=rng)
        ci, cii = rep.clause_values["i"], rep.clause_values["ii"]
        assert ci.status == cii.status, f"instance {inst.index}: i={ci.status} ii={cii.status}"
        if is_nef(D):
            nef_checked += 1
            cv = rep.clause_values["v"]
            assert cv.status == ci.status, f"instance {inst.index}: v={cv.status} i={ci.status}"
    assert nef_checked >= 50
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3: PASS ({len(instances)} instances, nef={nef_checked}, {elapsed:.1f}s < 300s)")


def test_criterion_4_volume_limit():
    """2! h0(mD)/m^2 approaches vol(D) monotonically along 10,20,40,80."""
    start = time.time()
    rng = random.Random(CORPUS_SEED + 3)
    divisors = []
    while len(divisors) < 20:
        fan = P2 if len(divisors) % 2 == 0 else F1
        D = rand_big(fan, rng, dens=(1, 2))
        divisors.append(D)
    for D in divisors:
        vol = volume(D)
        p = polytope_of(D)
        # perimeter-scale constant: total facet lattice length plus facet count
        perimeter = sum(facet_scalars(p), Scalar(0))
        bound = Scalar(Fraction(6, 80)) * (perimeter + len(p.rows))
        errors = []
        for m in (10, 20, 40, 80):
            approx = Scalar(Fraction(2 * h0(D.scale(m)), m * m))
            errors.append(abs(approx - vol))
        for a, b in zip(errors, errors[1:]):
            assert b <= a, f"error grew: {[str(e) for e in errors]} for D={D.coeff_map()}"
        assert errors[-1] <= bound
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 4: PASS (20 divisors, monotone, final error within bound, {elapsed:.1f}s)")


def test_criterion_5_sigma_limit_oracle():
    """Finite-level multiplicity minima dominate the LP value and tighten."""
    start = time.time()
    selected = []
    for inst in _corpus():
        if inst.preset == "P3":
            continue
        fan, D, _ = inst.realize()
        if h0(D.scale(6)) == 0:
            continue
        selected.append((fan, D))
        if len(selected) == 20:
            break
    assert len(selected) == 20
    for fan, D in selected:
        for ray in range(fan.nrays):
            lp_value = sigma(D, ray)
            values = sigma_limit_oracle(D, ray, [6, 12, 24, 48])
            for v in values:
                assert v >= lp_value
            assert values[-1] - lp_value <= values[0] - lp_value
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 5: PASS (20 instances x all rays, {elapsed:.1f}s)")


def test_criterion_6_cross_module_consistency():
    """Toric and ruled-surface answers agree on invariant divisors of F_e,
    query by query through the variety protocol and clause by clause in the
    checkers (clause iv samples model-specific shifts, so it is left out)."""
    start = time.time()
    rng = random.Random(CORPUS_SEED + 4)
    e_rng = random.Random(CORPUS_SEED + 40)  # keeps rng's sequence of D unchanged
    checked = big = 0
    while checked < 50:
        e = rng.choice((1, 2))
        fan = F1 if e == 1 else F2
        model = SurfaceModel(e, ("F1", "F2"))
        coeffs = {
            "E": Fraction(rng.randint(-6, 12), 2),
            "C": Fraction(rng.randint(-6, 12), 2),
            "F": Fraction(rng.randint(-4, 8), 2),
            "r2": Fraction(rng.randint(-4, 8), 2),
        }
        D_t = fan.divisor(coeffs)
        D_s = model.divisor(
            {"E": coeffs["E"], "C": coeffs["C"], "F1": coeffs["F"], "F2": coeffs["r2"]}
        )
        assert h0(D_t) == h0_surface(D_s)
        assert volume(D_t) == volume_surface(D_s)
        assert fan.is_big(D_t) == model.is_big(D_s)
        assert fan.is_nef(D_t) == model.is_nef(D_s)
        if is_big(D_t):
            big += 1
            assert volume(D_t) == zariski(D_s).volume()
            assert fan.sigma(D_t, "E") == model.sigma(D_s, "E")
            assert fan.bplus(D_t) == model.bplus(D_s)
            if fan.is_nef(D_t):
                for ray, fiber in (("E", "E"), ("F", "F1")):
                    pairing = fan.intersect(D_t, fan.divisor({ray: 1}))
                    assert pairing == model.intersect(D_s, model.divisor({fiber: 1}))
            e_coeffs = {k: Fraction(e_rng.randint(0, 2), 2) for k in ("E", "C", "F", "r2")}
            E_t = fan.divisor(e_coeffs)
            E_s = model.divisor(
                {"E": e_coeffs["E"], "C": e_coeffs["C"], "F1": e_coeffs["F"], "F2": e_coeffs["r2"]}
            )
            for check in (check_theorem_a, check_theorem_b):
                rep_t, rep_s = check(fan, D_t, E_t), check(model, D_s, E_s)
                for clause in ("i", "ii", "v"):
                    assert rep_t.clause_values[clause].status == rep_s.clause_values[clause].status
        checked += 1
    assert big >= 10
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE 6: PASS (50 divisors, {big} big, exact agreement of h0, volume and "
        f"the protocol queries, checker clauses i/ii/v, {elapsed:.1f}s)"
    )


def test_criterion_7_negative_part_additivity():
    """Supp(E) inside Supp(N_sigma(D)) forces N_sigma(D+E) = N_sigma(D) + E."""
    start = time.time()
    rng = random.Random(CORPUS_SEED + 5)
    built = 0
    while built < 30:
        fan = F1 if rng.random() < 0.5 else F2
        base = fan.divisor(
            {
                "C": Fraction(rng.randint(1, 6), 2),
                "F": Fraction(rng.randint(0, 4), 2),
                "E": Fraction(rng.randint(1, 8), 2),
            }
        )
        if not is_big(base):
            continue
        dec = sigma_decomposition(base)
        support = dec.nsigma.support()
        if not support:
            continue
        add = {fan.ray_name(i): Fraction(rng.randint(1, 6), 4) for i in support}
        E = fan.divisor(add)
        assert negsections_check(fan, base, E)
        built += 1
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 7: PASS (30 constructed instances, exact additivity, {elapsed:.1f}s)")


def test_criterion_8_invariant_suites():
    """>= 500 randomized exact checks of the structural identities."""
    start = time.time()
    rng = random.Random(CORPUS_SEED + 6)
    cases = 0

    # floor identities (150)
    for _ in range(150):
        x = Scalar(
            Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
            Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
            2,
        )
        f = math.floor(x)
        assert Scalar(f) <= x < Scalar(f + 1)
        s = f + math.floor(-x)
        assert s in (0, -1)
        assert (s == 0) == x.is_integer()
        cases += 1

    # volume homogeneity (100)
    fans = (P2, F1, F2)
    for _ in range(100):
        fan = rng.choice(fans)
        D = rand_big(fan, rng)
        lam = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        assert volume(D.scale(lam)) == Scalar(lam**fan.dim) * volume(D)
        cases += 1

    # section-count monotonicity under effective perturbation (100)
    grid = [Scalar(1), Scalar(2), Scalar(Fraction(5, 2)), R2]
    for _ in range(25):
        fan = rng.choice(fans)
        D = fan.divisor([Fraction(rng.randint(-6, 6), 2) for _ in fan.rays])
        E = fan.divisor([Fraction(rng.randint(0, 4), 2) for _ in fan.rays])
        for m in grid:
            lo = h0(D.scale(m) - E.scale(m))
            mid = h0(D.scale(m))
            hi = h0(D.scale(m) + E.scale(m))
            assert lo <= mid <= hi
            cases += 1

    # volume monotonicity (75)
    for _ in range(75):
        fan = rng.choice(fans)
        D = fan.divisor([Fraction(rng.randint(-6, 6), 2) for _ in fan.rays])
        E = fan.divisor([Fraction(rng.randint(0, 4), 2) for _ in fan.rays])
        assert volume(D - E) <= volume(D) <= volume(D + E)
        cases += 1

    # sigma subadditivity (75)
    for _ in range(75):
        fan = rng.choice((F1, F2))
        D1, D2 = rand_big(fan, rng), rand_big(fan, rng)
        ray = rng.randrange(fan.nrays)
        assert sigma(D1 + D2, ray) <= sigma(D1, ray) + sigma(D2, ray)
        cases += 1

    assert cases >= 500
    elapsed = time.time() - start
    print(f"\nACCEPTANCE 8: PASS ({cases} randomized checks, {elapsed:.1f}s)")
