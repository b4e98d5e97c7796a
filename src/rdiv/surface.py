"""Hirzebruch surfaces with named fibers.

The ruled surface F_e carries the negative section E (E^2 = -e), the fiber
class F and the positive section C = E + eF.  Divisors supported on E, C
and finitely many named fibers admit closed-form section counts and the
classical two-step Zariski decomposition over the single negative curve E,
which is what makes irrational twists like C + (F1-F2) + sqrt(2)(F3-F4)
computable exactly.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import add, index, sub

from .errors import ExampleViolated, NotBig, NotPseudoeffective, UnsupportedModel
from .scalars import Scalar, _as_scalar, _Frozen

__all__ = [
    "SurfaceModel",
    "SDivisor",
    "ZariskiPair",
    "class_of",
    "h0_class",
    "h0_surface",
    "volume_surface",
    "is_nef_class",
    "is_big_class",
    "intersect_classes",
    "zariski",
    "bplus_surface",
    "sigma_surface",
    "paper_example",
    "PaperExampleRow",
]


class SurfaceModel(_Frozen):
    """F_e together with an ordered list of distinct, nonempty fiber labels.
    e is read through operator.index, as Fan reads dim: a Fraction, a float
    or a str raises TypeError."""

    __slots__ = ("e", "fibers")

    def __init__(self, e: int, fibers=()):
        e, fibers = index(e), tuple(fibers)
        if e < 0:
            raise UnsupportedModel("the ruling invariant e must be non-negative")
        if len(set(fibers)) != len(fibers):
            raise UnsupportedModel("fiber labels must be distinct")
        if "" in fibers:
            raise UnsupportedModel("fiber labels must be nonempty")
        if {"E", "C"} & set(fibers):
            raise UnsupportedModel("E and C name the sections, not fibers")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "fibers", fibers)

    def __eq__(self, other):
        if type(other) is not SurfaceModel:
            return NotImplemented
        return (self.e, self.fibers) == (other.e, other.fibers)

    def __hash__(self):
        return hash((self.e, self.fibers))

    def component(self, label: str) -> str:
        """label itself when it names E, C or a fiber; KeyError otherwise."""
        if label not in ("E", "C") + self.fibers:
            raise KeyError(f"unknown component {label!r} on F_{self.e}")
        return label

    def divisor(self, coeffs: dict) -> "SDivisor":
        cE = cC = Scalar(0)
        fib = {}
        for key, val in coeffs.items():
            val = _as_scalar(val)
            if self.component(key) == "E":
                cE = val
            elif key == "C":
                cC = val
            else:
                fib[key] = val
        return SDivisor(self, cE, cC, tuple(fib.get(label, Scalar(0)) for label in self.fibers))

    # The variety protocol, shared with toric.Fan.  Each query is a call to
    # this module's function, looked up at call time, so a patched or traced
    # module name is what runs.
    dim = 2
    label_kind = "component"

    def labels(self, D: "SDivisor") -> list[str]:
        """Labels of the components in the support of D, sorted."""
        return sorted(D.support())

    def h0(self, D):
        return h0_surface(D)

    def volume(self, D):
        return volume_surface(D)

    def is_big(self, D):
        return is_big_class(class_of(D), self.e)

    def is_nef(self, D):
        return is_nef_class(class_of(D), self.e)

    def sigma(self, D, label):
        return sigma_surface(D, label)

    def nsigma(self, D):
        return zariski(D).N

    def bplus(self, D) -> frozenset[str]:
        return bplus_surface(D)

    def intersect(self, D, E):
        return intersect_classes(class_of(D), class_of(E), self.e)

    def shifts(self, rng) -> list["SDivisor"]:
        """Fiber relabelings t*(F_i - F_j), trivial on the class, over the
        first two pairs of fibers; t = 1, or a random half-integer in 1/2..3/2."""
        pairs = [(0, 1), (2, 3)][: len(self.fibers) // 2]
        out = []
        for i, j in pairs:
            t = Scalar(1) if rng is None else Scalar(Fraction(rng.randint(1, 3), 2))
            out.append(self.divisor({self.fibers[i]: t, self.fibers[j]: -t}))
        return out

    def shift_is_integral(self, P, m) -> bool:
        """m P ~_Z 0 for a shift P = t(F_i - F_j) of shifts: the fibers are
        linearly equivalent, so exactly when m t is an integer."""
        return all((b * m).is_integer() for b in P.fiber_coeffs)


class SDivisor(_Frozen):
    """cE*E + cC*C + sum b_i * F_{p_i} on a fixed surface model."""

    __slots__ = ("model", "cE", "cC", "fiber_coeffs")

    def __init__(self, model: SurfaceModel, cE, cC, fiber_coeffs=()):
        fiber_coeffs = tuple(_as_scalar(b) for b in fiber_coeffs)
        if len(fiber_coeffs) != len(model.fibers):
            raise ValueError("fiber coefficient count does not match the model")
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "cE", _as_scalar(cE))
        object.__setattr__(self, "cC", _as_scalar(cC))
        object.__setattr__(self, "fiber_coeffs", fiber_coeffs)

    def __eq__(self, other):
        if type(other) is not SDivisor:
            return NotImplemented
        return (self.model, self.cE, self.cC, self.fiber_coeffs) == (
            other.model, other.cE, other.cC, other.fiber_coeffs
        )

    def __hash__(self):
        return hash((self.model, self.cE, self.cC, self.fiber_coeffs))

    def __add__(self, other: "SDivisor") -> "SDivisor":
        return self._combine(other, add)

    def __sub__(self, other: "SDivisor") -> "SDivisor":
        return self._combine(other, sub)

    def _combine(self, other, op):
        """self op other for op = add or sub, component by component."""
        if self.model != other.model:
            raise ValueError("divisors live on different surface models")
        return SDivisor(
            self.model,
            op(self.cE, other.cE),
            op(self.cC, other.cC),
            tuple(map(op, self.fiber_coeffs, other.fiber_coeffs)),
        )

    def scale(self, m) -> "SDivisor":
        m = _as_scalar(m)
        return SDivisor(
            self.model, m * self.cE, m * self.cC, tuple(m * b for b in self.fiber_coeffs)
        )

    def is_effective(self) -> bool:
        return self.cE >= 0 and self.cC >= 0 and all(b >= 0 for b in self.fiber_coeffs)

    def is_zero(self) -> bool:
        return not (self.cE or self.cC or any(self.fiber_coeffs))

    def floor(self) -> "SDivisor":
        """Round each prime component down; this is the divisor whose
        sections are counted."""
        return SDivisor(
            self.model,
            Scalar(math.floor(self.cE)),
            Scalar(math.floor(self.cC)),
            tuple(Scalar(math.floor(b)) for b in self.fiber_coeffs),
        )

    def support(self) -> frozenset[str]:
        return frozenset(label for label, c in self.coeff_map().items() if c)

    def coeff_map(self) -> dict[str, Scalar]:
        return {"E": self.cE, "C": self.cC, **dict(zip(self.model.fibers, self.fiber_coeffs))}


def class_of(D: SDivisor) -> tuple[Scalar, Scalar]:
    """(x, y) with [D] = x*E + y*F; fibers collapse to the fiber class."""
    x = D.cE + D.cC
    y = Scalar(D.model.e) * D.cC + sum(D.fiber_coeffs, Scalar(0))
    return x, y


def intersect_classes(a: tuple[Scalar, Scalar], b: tuple[Scalar, Scalar], e: int) -> Scalar:
    """Intersection pairing of (E, F)-classes: E^2=-e, E.F=1, F^2=0."""
    return -Scalar(e) * a[0] * b[0] + a[0] * b[1] + a[1] * b[0]


def h0_class(x: int, y: int, e: int) -> int:
    """Sections of x*E + y*F: the ruling pushes them down to P^1 degrees
    y, y-e, ..., y-x*e, and the non-negative ones sum as an arithmetic series."""
    if x < 0 or y < 0:
        return 0
    top = x if e == 0 else min(x, y // e)
    return (top + 1) * (y + 1) - e * top * (top + 1) // 2


def h0_surface(D: SDivisor) -> int:
    """Round down per prime component, then count through the class."""
    x, y = class_of(D.floor())
    assert x.is_integer() and y.is_integer()
    return h0_class(math.floor(x), math.floor(y), D.model.e)


def is_nef_class(cls: tuple[Scalar, Scalar], e: int) -> bool:
    x, y = cls
    # non-negative against the extremal curves E and F
    return (y - Scalar(e) * x).sign() >= 0 and x.sign() >= 0


def is_big_class(cls: tuple[Scalar, Scalar], e: int) -> bool:
    # interior of the effective cone spanned by E and F
    x, y = cls
    return x.sign() > 0 and y.sign() > 0


class ZariskiPair(namedtuple("ZariskiPair", "P N")):
    """D = P + N with P nef, given by its class coordinates (x, y) for
    x*E + y*F, and N effective on the negative section."""

    __slots__ = ()

    def volume(self) -> Scalar:
        e = self.N.model.e
        return intersect_classes(self.P, self.P, e)


def zariski(D: SDivisor) -> ZariskiPair:
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
        pair = zariski(D)
    except (NotBig, NotPseudoeffective):
        return Scalar(0)
    return pair.volume()


def sigma_surface(D: SDivisor, component: str) -> Scalar:
    """sigma multiplicity along a prime component; only E can carry one.
    KeyError when the model has no such component."""
    D.model.component(component)
    pair = zariski(D)
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


class PaperExampleRow(namedtuple("PaperExampleRow", "m floor_dot_e h0_twisted h0_straight")):
    """One sample m of the twist D': floor(mD').E and the section counts
    of mD' and of mC."""

    __slots__ = ()


def paper_example(e: int, samples=None) -> list[PaperExampleRow]:
    """The irrational twist C + (F1 - F2) + sqrt(2)(F3 - F4) of the positive
    section: same R-linear equivalence class as C, strictly fewer sections
    at every positive m.

    For each sample m the rounded twist meets E in floor(m) + floor(-m) +
    floor(sqrt(2) m) + floor(-sqrt(2) m) <= -1, and the section count drops
    strictly below that of mC.  A violation raises ExampleViolated.
    """
    if index(e) < 1:
        raise UnsupportedModel("a negative section needs e >= 1")
    model = SurfaceModel(e, ("F1", "F2", "F3", "F4"))
    root2 = Scalar(0, 1, 2)
    D = model.divisor({"C": 1, "F1": 1, "F2": -1, "F3": root2, "F4": -root2})
    C = model.divisor({"C": 1})
    if samples is None:
        samples = [Scalar(1), Scalar(2), Scalar(Fraction(5, 2)), Scalar(0, 1, 2), Scalar(3)]
    rows = []
    for m in samples:
        m = _as_scalar(m)
        if m.sign() <= 0:
            raise ValueError(f"sample {m} is not positive")
        floored = D.scale(m).floor()
        fclass = class_of(floored)
        s = math.floor(intersect_classes(fclass, (Scalar(1), Scalar(0)), e))
        h_twist = h0_surface(D.scale(m))
        h_plain = h0_surface(C.scale(m))
        row = PaperExampleRow(m, s, h_twist, h_plain)
        if s > -1:
            raise ExampleViolated(f"floor(mD').E = {s} at m = {m}")
        if not h_twist < h_plain:
            raise ExampleViolated(f"h0({m}D') = {h_twist} !< h0({m}C) = {h_plain}")
        rows.append(row)
    return rows
