"""Decision procedures for the two volume/Hilbert-function equivalences.

Checker A decides whether subtracting an effective divisor E preserves
volume, sections and the negative part; checker B does the same for adding
E against the divisorial augmented base locus.  Clauses i) and ii) are
exact and authoritative; the "for all m" section-count clauses are sampled
on a finite grid and can only falsify.  A report whose decidable clauses
disagree, or whose sampled clause contradicts a decidable true clause, is
flagged as a counterexample candidate for replay.  The grid's multiples
must be positive, and there must be one.

The two checkers share their preconditions, the volume clause and one walk
of the sampled clause over D and its principal shifts D' = D + P, which
stops at the first witness: each compares h0(mD') with h0(m(D' - E)) (A)
or h0(m(D' + E)) and h0(mD' + rE) (B).  Section counts depend only on the
Z-linear class (not on the R-linear one), so the walk skips a shifted point
where mP ~_Z 0, whose counts are those of mD.  It starts from the D - E or
D + E that clause i) built, and with E = 0, where each comparison is of a
count with itself, it asks only h0(mD) at each m.  The shifts are drawn
before the walk, but each stays a draw until the walk reaches it, so a
walk that stops at D builds no divisor at all.  D is big exactly when its
volume is positive, so the checkers read bigness off the volume that
clause i) compares.

The checkers take the variety X as a toric.Fan or a surface.SurfaceModel and
ask it only the queries of their shared protocol (h0(D, m=1, G=None), the
count of the round-down of mD + G, and volume, nsigma, excess, bplus,
is_nef, intersect, labels, shifts(rng), the draws, shift(D, s), the
divisor D + P of a draw s, and shift_is_integral(s, m)), so both models
run one path.  This module imports neither model; only the randomized
corpus, drawn on preset fans, imports toric, when it runs.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .errors import NotBig, NotEffective
from .scalars import Scalar, _as_scalar

__all__ = [
    "ClauseValue",
    "TheoremReport",
    "check_theorem_a",
    "check_theorem_b",
    "negsections_check",
    "corpus_run",
    "CorpusInstance",
    "default_m_grid",
]

CONSISTENT = "ConsistentWithPaper"
CANDIDATE = "CounterexampleCandidate"


def default_m_grid(disc: int = 0) -> list[Scalar]:
    grid = [Scalar(1), Scalar(2), Scalar(3), Scalar(Fraction(5, 2))]
    if disc > 1:
        grid.append(Scalar(0, 1, disc))
    return grid


R_GRID = [Scalar(1), Scalar(Fraction(1, 2))]


class ClauseValue(namedtuple("ClauseValue", "status witness reason", defaults=(None, None))):
    """status "true", "false" or "skipped"; a witness dict for a false
    clause and a reason for a skipped one."""

    __slots__ = ()

    @property
    def is_true(self):
        return self.status == "true"

    @property
    def is_false(self):
        return self.status == "false"

    def to_json(self):
        out = {"status": self.status}
        if self.witness:
            out["witness"] = self.witness
        if self.reason:
            out["reason"] = self.reason
        return out


_TRUE = ClauseValue("true")


class TheoremReport(namedtuple("TheoremReport", "theorem clause_values verdict")):
    """The clause values of checker "A" or "B" by clause name, and the
    verdict drawn from them."""

    __slots__ = ()

    def to_json(self):
        return {
            "theorem": self.theorem,
            "clauses": {k: v.to_json() for k, v in sorted(self.clause_values.items())},
            "verdict": self.verdict,
        }


def _verdict(clauses: dict[str, ClauseValue]) -> str:
    ci, cii = clauses["i"], clauses["ii"]
    if ci.status != cii.status:
        return CANDIDATE
    if cii.is_true and clauses["iv"].is_false:
        return CANDIDATE
    v = clauses.get("v")
    if v is not None and v.status in ("true", "false") and v.status != ci.status:
        return CANDIDATE
    return CONSISTENT


def _support_clause(X, bad) -> ClauseValue:
    """Clause ii): true when no component of Supp(E) fails (bad is None),
    else false with the first failing label, in the model's order."""
    return _TRUE if bad is None else ClauseValue("false", {X.label_kind: bad})


def _as_grid(values) -> list[Scalar]:
    """The sample multiples, default_m_grid() when values is None.  A "for
    all m > 0" clause proves nothing at m <= 0 or at no m, so ValueError
    unless there is one sample and every one is positive."""
    grid = default_m_grid() if values is None else [_as_scalar(v) for v in values]
    if not grid:
        raise ValueError("no sample listed")
    for m in grid:
        if m.sign() <= 0:
            raise ValueError(f"sample {m} is not positive")
    return grid


def _checker_grid(X, D, E, m_grid) -> tuple[Scalar, list[Scalar]]:
    """A checker's preconditions, D big and E effective, then vol(D) and
    the grid: D is big exactly when vol(D) > 0, the volume clause i) reads."""
    vol = X.volume(D)
    if vol.sign() <= 0:
        raise NotBig("checker needs a big divisor D")
    if not E.is_effective():
        raise NotEffective("checker needs an effective divisor E")
    return vol, _as_grid(m_grid)


def _volume_clause(vol_d, vol_other, key: str) -> ClauseValue:
    """Clause i): vol_other = vol(D), with both volumes as the witness."""
    if vol_other == vol_d:
        return _TRUE
    return ClauseValue("false", {"vol_D": str(vol_d), key: str(vol_other)})


def _sampled_clause(X, D, E, DE, m_grid, rng, r_grid=()) -> ClauseValue:
    """Clause iv) sampled over D, then over each principal shift D' = D + P
    drawn by X.shifts(rng), in turn, at each m of the grid: false at the
    first point where h0(m(D' -+ E)) != h0(mD'), with D -+ E the DE that
    clause i) built (D - E for checker A, D + E for B), or, on a shift,
    where h0(mD' + rE) != h0(mD') for one of B's steps r in r_grid.  The
    witness names m, r (m itself or the step's) when there are steps, and
    the shift's index.

    The shifts are drawn before the walk, as a corpus shares one rng
    between instances, but a draw s stays a draw until the walk reaches
    it: D' = X.shift(D, s) and D' -+ E = X.shift(DE, s) are built at the
    shift's first m where mP is not Z-linearly trivial, and B's steps
    G = rE once, at the first shift.  So a walk that stops at D builds no
    divisor, and no walk builds a multiple: it asks X.h0(D', m),
    X.h0(D' -+ E, m) and X.h0(D', m, G), which round mD' + G off the
    records.  A zero E makes every comparison one of a count with itself,
    so the clause is true, but h0(mD) is still asked at each m: a multiple
    outside D's field raises MixedDiscriminant from that call, as it does
    on the full walk.
    Where X.shift_is_integral(s, m), mP ~_Z 0, so every h0 at the point is
    the plain walk's at m: its comparison of m(D' -+ E) repeats one already
    passed and is skipped, and its steps, which do not depend on P, are
    compared once per m, at the first such shift, on the plain mD."""
    draws = X.shifts(rng)
    if E.is_zero():
        for m in m_grid:
            X.h0(D, m)
        return _TRUE
    plain = {}  # k: h0(mD) for the k-th m, until a shift is trivial at m
    for k, m in enumerate(m_grid):
        plain[k] = h = X.h0(D, m)
        if X.h0(DE, m) != h:
            return _sampled_witness(m, m if r_grid else None, 0)
    steps = [(r, E.scale(r)) for r in r_grid] if draws else ()
    for shift_idx, s in enumerate(draws, 1):
        base = None
        for k, m in enumerate(m_grid):
            if X.shift_is_integral(s, m):
                if k not in plain:
                    continue
                at, h = D, plain.pop(k)
            else:
                if base is None:
                    base, moved = X.shift(D, s), X.shift(DE, s)
                at, h = base, X.h0(base, m)
                if X.h0(moved, m) != h:
                    return _sampled_witness(m, m if r_grid else None, shift_idx)
            for r, G in steps:
                if X.h0(at, m, G) != h:
                    return _sampled_witness(m, r, shift_idx)
    return _TRUE


def _sampled_witness(m, r, shift_idx) -> ClauseValue:
    """Clause iv) false at m, naming r unless None and the shift unless 0."""
    witness = {"m": str(m)}
    if r is not None:
        witness["r"] = str(r)
    if shift_idx:
        witness["shift"] = shift_idx
    return ClauseValue("false", witness)


def check_theorem_a(X, D, E, m_grid=None, rng=None) -> TheoremReport:
    """Volume drop under subtraction vs domination by the negative part.

    Clauses: i) vol(D-E) = vol(D); ii) E <= N_sigma(D); iv) sampled
    h0(mD'-mE) = h0(mD') over the grid, with D' ranging over the divisor
    and a few principal shifts of it; v) E = 0, evaluated when D is nef.
    """
    vol, m_grid = _checker_grid(X, D, E, m_grid)
    DE = D - E
    clauses = {"i": _volume_clause(vol, X.volume(DE), "vol_D_minus_E")}
    clauses["ii"] = _support_clause(X, X.excess(E, X.nsigma(D)))

    clauses["iv"] = _sampled_clause(X, D, E, DE, m_grid, rng)
    if X.is_nef(D):
        clauses["v"] = _TRUE if E.is_zero() else ClauseValue("false", {"E": "nonzero"})
    else:
        clauses["v"] = ClauseValue("skipped", reason="D is not nef")

    return TheoremReport("A", clauses, _verdict(clauses))


def check_theorem_b(X, D, E, m_grid=None, rng=None) -> TheoremReport:
    """Volume invariance under addition vs the augmented base locus.

    Clauses: i) vol(D+E) = vol(D); ii) Supp(E) inside the divisorial
    augmented base locus of D; iv) sampled h0(mD'+rE) = h0(mD') with r
    running over m itself and, on the principal shifts D', also R_GRID;
    v) D^(n-1).E = 0, evaluated when D is nef.
    """
    vol, m_grid = _checker_grid(X, D, E, m_grid)
    DE = D + E
    clauses = {"i": _volume_clause(vol, X.volume(DE), "vol_D_plus_E")}
    locus = X.bplus(D)
    clauses["ii"] = _support_clause(X, next((label for label in X.labels(E) if label not in locus), None))

    clauses["iv"] = _sampled_clause(X, D, E, DE, m_grid, rng, R_GRID)
    if X.is_nef(D):
        pairing = X.intersect(D, E)
        clauses["v"] = _TRUE if pairing == 0 else ClauseValue("false", {"intersection": str(pairing)})
    else:
        clauses["v"] = ClauseValue("skipped", reason="D is not nef")

    return TheoremReport("B", clauses, _verdict(clauses))


def negsections_check(X, D, E, m_grid=None) -> bool:
    """When Supp(E) sits inside Supp(N_sigma(D)): the negative part grows by
    exactly E and section counts are untouched at every sampled multiple,
    h0(m(D + E)) = h0(mD), each asked as X.h0(D + E, m) and X.h0(D, m) on
    the records, with D + E built once."""
    m_grid = _as_grid(m_grid)
    N = X.nsigma(D)
    if not E.support() <= N.support():
        raise ValueError("E is not supported inside the negative part")
    DE = D + E
    if X.nsigma(DE) != N + E:
        return False
    return all(X.h0(DE, m) == X.h0(D, m) for m in m_grid)


# ---------------------------------------------------------------------------
# randomized corpus


class CorpusInstance(namedtuple("CorpusInstance", "index preset D E nef_constructed")):
    """One corpus instance: the divisors D and E on a preset fan, as drawn.
    realize() hands them to the checkers as they are; to_json() renders
    their coefficients as literals, which parse back to them."""

    __slots__ = ()

    def realize(self):
        return self.D.fan, self.D, self.E

    def to_json(self):
        return {
            "index": self.index,
            "preset": self.preset,
            "D": [str(c) for c in self.D.coeffs],
            "E": [str(c) for c in self.E.coeffs],
            "nef_constructed": self.nef_constructed,
        }


_PRESETS = ("P2", "P1xP1", "F1", "F2", "P3")


# The nef cone interior of each preset, as a range [lo, hi] per named ray
# (aC + bF with a > 0, b >= 0 on F_e), drawn in this order.
_NEF_BOXES = {
    "P2": (("H", 1, 3),),
    "P3": (("H", 1, 2),),
    "P1xP1": (("H1", 1, 2), ("H2", 1, 2)),
}
_FE_BOX = (("C", 1, 2), ("F", 0, 1))


def _rand_quarters(rng, lo=-3, hi=3) -> int:
    """4 times a random rational in [lo, hi] over 1, 2 or 4: the denominator
    is drawn, then the numerator over it, as integers."""
    den = rng.choice((1, 2, 4))
    return rng.randint(lo * den, hi * den) * (4 // den)


def _quarters_divisor(fan, quarters):
    """The divisor with coefficient q_i / 4 on ray i: its offset record is
    -q_i over 4, which toric._divisor reduces by its gcd."""
    from .toric import _divisor

    return _divisor(fan, 4, 0, [-q for q in quarters], (0,) * fan.nrays)


def _nef_big_divisor(fan, preset: str, rng):
    """Random point of the nef cone interior of a preset fan, dressed with a
    principal shift div(u), u in {-1, 0, 1}^n, which adds <u, ray> to the
    coefficient on each ray."""
    quarters = [0] * fan.nrays
    for name, lo, hi in _NEF_BOXES.get(preset, _FE_BOX):
        quarters[fan.ray_index(name)] = _rand_quarters(rng, lo, hi)
    u = [rng.randint(-1, 1) for _ in range(fan.dim)]
    return _quarters_divisor(fan, [q + 4 * sum(map(mul, u, ray)) for q, ray in zip(quarters, fan.rays)])


def _random_big_divisor(fan, rng):
    from .toric import is_big

    for _ in range(200):
        D = _quarters_divisor(fan, [_rand_quarters(rng) for _ in range(fan.nrays)])
        if is_big(D):
            return D
    raise RuntimeError("could not sample a big divisor")


def _random_effective(fan, rng):
    quarters = [0 if rng.random() < 0.5 else _rand_quarters(rng, 0, 2) for _ in range(fan.nrays)]
    return _quarters_divisor(fan, quarters)


def generate_corpus(seed: int, count: int) -> list[CorpusInstance]:
    """Deterministic instance list; about 30% of the divisors are drawn
    from the nef cone so the nef clauses get exercised.  Every coefficient
    is a rational over 1, 2 or 4, drawn as an integer count of quarters, and
    every divisor is built straight from its integer offset record, with no
    Fraction or Scalar on the way."""
    from .toric import preset_fan

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


def corpus_run(seed: int, count: int, which: str = "both") -> dict:
    """Run the checkers over a seeded corpus and aggregate verdicts, on the
    default grid with its sqrt(2) multiple: the divisors are rational, but
    the multiples need not be.

    Returns a JSON-ready summary; any counterexample candidate is embedded
    in full for replay.
    """
    from .toric import is_nef, sigma_decomposition

    instances = generate_corpus(seed, count)
    shift_rng = random.Random(seed + 1)
    m_grid = default_m_grid(2)
    summary = {
        "seed": seed,
        "count": count,
        "which": which,
        "consistent": 0,
        "candidates": [],
        "nef_instances": 0,
        "negsections_checked": 0,
    }
    for inst in instances:
        fan, D, E = inst.realize()
        reports = {}
        if which in ("A", "both"):
            reports["A"] = check_theorem_a(fan, D, E, m_grid=m_grid, rng=shift_rng)
        if which in ("B", "both"):
            reports["B"] = check_theorem_b(fan, D, E, m_grid=m_grid, rng=shift_rng)
        if is_nef(D):
            summary["nef_instances"] += 1
        dec = sigma_decomposition(D)
        if E.support() and E.support() <= dec.nsigma.support():
            summary["negsections_checked"] += 1
            if not negsections_check(fan, D, E, m_grid=m_grid):
                summary["candidates"].append(
                    {"instance": inst.to_json(), "failure": "negative-part additivity"}
                )
                continue
        bad = {k: r for k, r in reports.items() if r and r.verdict == CANDIDATE}
        if bad:
            summary["candidates"].append(
                {
                    "instance": inst.to_json(),
                    "reports": {k: r.to_json() for k, r in reports.items() if r},
                }
            )
        else:
            summary["consistent"] += 1
    return summary


def summary_to_json(summary: dict) -> str:
    import json

    return json.dumps(summary, sort_keys=True, indent=2)
