"""Hirzebruch surfaces with named fibers.

The ruled surface F_e carries the negative section E (E^2 = -e), the fiber
class F and the positive section C = E + eF.  Divisors are supported on E,
C and finitely many named fibers, which is what makes irrational twists
like C + (F1-F2) + sqrt(2)(F3-F4), R-linearly equivalent to C but with
fewer sections at every m, computable exactly.

Every number is read off the toric F_e of toric.preset_fan, on which
D_C ~ D_E + e D_F and the two invariant fibers are linearly equivalent
(Cox-Little-Schenck, Toric Varieties, 4.1): a divisor of class x*E + y*F
(class_of) maps to x D_E + y D_F.  Volume, bigness, nefness, sigma, the
Zariski decomposition and B+ read that divisor; h0 reads the image of the
round-down, taken per prime component.  The intersection pairing stays
here, as it pairs any two classes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import add, index, sub

from . import toric
from .errors import ExampleViolated, NotBig, NotPseudoeffective, UnsupportedModel
from .scalars import Scalar, _as_scalar, _Frozen

__all__ = [
    "SurfaceModel",
    "SDivisor",
    "ZariskiPair",
    "class_of",
    "h0_surface",
    "intersect_classes",
    "zariski",
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
        self._set(e, fibers)

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

    # The variety protocol, shared with toric.Fan.  Each query asks toric's
    # function, looked up at call time, on the divisor's image on the toric
    # F_e (see _toric), so a patched or traced module name is what runs.
    dim = 2
    label_kind = "component"

    def labels(self, D: "SDivisor") -> list[str]:
        """Labels of the components in the support of D, sorted."""
        return sorted(D.support())

    def h0(self, D, m=1, G=None):
        """h0 of the round-down of mD + G, with G None for no step: each
        component m c + g is floored straight to an int, and no divisor is
        built for mD or mD + G."""
        m = _as_scalar(m)
        coeffs = [m * c for c in (D.cE, D.cC, *D.fiber_coeffs)]
        if G is not None:
            _same_model(D, G)
            coeffs = map(add, coeffs, (G.cE, G.cC, *G.fiber_coeffs))
        return _h0_of_floors(D.model.e, *map(math.floor, coeffs))

    def volume(self, D):
        return toric.volume(_toric(D))

    def is_big(self, D):
        return toric.is_big(_toric(D))

    def is_nef(self, D):
        return toric.is_nef(_toric(D))

    def sigma(self, D, label):
        """The coefficient of the component in N_sigma; KeyError when the
        model has no such component."""
        label = self.component(label)
        return zariski(D).N.coeff_map()[label]

    def nsigma(self, D):
        return zariski(D).N

    def excess(self, E, N) -> str | None:
        """The first component of Supp(E), sorted, whose coefficient in E
        exceeds its coefficient in N, or None when there is none."""
        e, n = E.coeff_map(), N.coeff_map()
        return next((label for label in self.labels(E) if e[label] > n[label]), None)

    def bplus(self, D) -> frozenset[str]:
        # only E can lie in B+ on F_e, and the preset names its ray E
        T = _toric(D)
        return T.fan.bplus(T)

    def intersect(self, D, E):
        return intersect_classes(class_of(D), class_of(E), self.e)

    def shifts(self, rng) -> list[tuple[int, int, Scalar]]:
        """The draws (i, j, t) of the fiber relabelings t(F_i - F_j), trivial
        on the class, over the first two pairs of fibers; t = 1, or a random
        half-integer in 1/2..3/2.  shift builds D + t(F_i - F_j)."""
        pairs = [(0, 1), (2, 3)][: len(self.fibers) // 2]
        return [(i, j, Scalar(1) if rng is None else Scalar(Fraction(rng.randint(1, 3), 2))) for i, j in pairs]

    def shift(self, D, s) -> "SDivisor":
        """D + t(F_i - F_j) for a draw s = (i, j, t) of shifts."""
        i, j, t = s
        fibers = list(D.fiber_coeffs)
        fibers[i] += t
        fibers[j] -= t
        return SDivisor(self, D.cE, D.cC, fibers)

    def shift_is_integral(self, s, m) -> bool:
        """m t(F_i - F_j) ~_Z 0 for a draw s = (i, j, t) of shifts: the
        fibers are linearly equivalent, so exactly when m t is an integer."""
        return (s[2] * m).is_integer()


class SDivisor(_Frozen):
    """cE*E + cC*C + sum b_i * F_{p_i} on a fixed surface model."""

    __slots__ = ("model", "cE", "cC", "fiber_coeffs")

    def __init__(self, model: SurfaceModel, cE, cC, fiber_coeffs=()):
        fiber_coeffs = tuple(_as_scalar(b) for b in fiber_coeffs)
        if len(fiber_coeffs) != len(model.fibers):
            raise ValueError("fiber coefficient count does not match the model")
        self._set(model, _as_scalar(cE), _as_scalar(cC), fiber_coeffs)

    def __add__(self, other: "SDivisor") -> "SDivisor":
        return self._combine(other, add)

    def __sub__(self, other: "SDivisor") -> "SDivisor":
        return self._combine(other, sub)

    def _combine(self, other, op):
        """self op other for op = add or sub, component by component."""
        _same_model(self, other)
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


def _toric(D: SDivisor) -> toric.TDivisor:
    """x D_E + y D_F on the toric F_e, for (x, y) = class_of(D): the
    divisor of the same class."""
    x, y = class_of(D)
    return toric.preset_fan(f"F{D.model.e}").divisor({"E": x, "F": y})


def _same_model(D: SDivisor, G: SDivisor) -> None:
    if D.model != G.model:
        raise ValueError("divisors live on different surface models")


def h0_surface(D: SDivisor) -> int:
    """Sections of the round-down of D, taken per prime component before
    the fibers collapse to their class."""
    return _h0_of_floors(D.model.e, math.floor(D.cE), math.floor(D.cC), *map(math.floor, D.fiber_coeffs))


def _h0_of_floors(e: int, fE: int, fC: int, *fibers: int) -> int:
    """Sections of fE E + fC C + sum f_i F_i on F_e, for the ints of a
    round-down: x = fE + fC and y = e fC + sum f_i, and toric.h0 of x D_E +
    y D_F on F_e, built straight off its integer record, with no Scalar."""
    x, y = fE + fC, e * fC + sum(fibers)
    # the preset's rays are F, E, C and F'; offsets are coefficients negated
    return toric.h0(toric._divisor(toric.preset_fan(f"F{e}"), 1, 0, (-y, -x, 0, 0), (0,) * 4))


class ZariskiPair(namedtuple("ZariskiPair", "P N")):
    """D = P + N with P nef, given by its class coordinates (x, y) for
    x*E + y*F, and N effective on the negative section."""

    __slots__ = ()

    def volume(self) -> Scalar:
        e = self.N.model.e
        return intersect_classes(self.P, self.P, e)


def zariski(D: SDivisor) -> ZariskiPair:
    """N = sigma_E(D) E, with sigma_E read off the toric F_e, where no
    other ray carries a sigma, and P = (x - sigma_E, y) for the class
    (x, y) of D.  NotPseudoeffective when x < 0 or y < 0, and NotBig on any
    other class that is not big."""
    x, y = class_of(D)
    if x.sign() < 0 or y.sign() < 0:
        raise NotPseudoeffective("positive part fails nefness against E or F")
    try:
        c = toric.sigma(_toric(D), "E")
    except NotBig:
        raise NotBig("divisor class is not big") from None
    model = D.model
    N = SDivisor(model, c, Scalar(0), tuple(Scalar(0) for _ in model.fibers))
    return ZariskiPair((x - c, y), N)


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
