"""Divisor calculus on complete toric varieties.

A divisor is one coefficient per ray of a complete simplicial fan.
Sections of its rounding are lattice points of the H-polytope with rows
<u, ray> >= -coeff, which turns Hilbert functions, volumes, sigma
multiplicities and base loci into exact polyhedral computations.  Nefness
needs no polytope: it is one integer linear form in the coefficients per
wall of the fan, computed once per fan.

A divisor holds its section polytope, built once: the polytope's offset
record is the coefficients negated, in the canonical form of
scalars._record, so all of a divisor's coefficients lie in one field.
Multiples, sums, differences and principal divisors are integer products
and sums plus one gcd on that record, a wall form is one sign test on it,
and the volume sums the facet record's integers against it; the Scalar
coefficients are built only when asked for.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from operator import add, index, mul, sub

from .errors import (
    NoSections,
    NonSimplicialCone,
    NotBig,
    NotNef,
    NotEffective,
    UnsupportedDivisor,
)
from .linalg import inverse, primitive
from .polyhedra import (
    HPolytope,
    lattice_form,
    lattice_points,
    lp_solve,
    _ceil_offsets,
    _facet_volumes,
    _has_interior,
    _lattice_min,
)
from .scalars import Scalar, _as_scalar, _Frozen, _join, _new, _record, _reduce, _sign

__all__ = [
    "Fan",
    "TDivisor",
    "SigmaDecomposition",
    "preset_fan",
    "polytope_of",
    "h0",
    "volume",
    "is_big",
    "is_nef",
    "sigma",
    "sigma_decomposition",
    "bplus_div",
    "intersection_nef_div",
    "sigma_limit_oracle",
]


class Fan(_Frozen):
    """Complete simplicial rational fan, rays primitive."""

    __slots__ = ("dim", "rays", "max_cones", "names")

    def __init__(self, dim: int, rays, max_cones, names=()):
        rays = tuple(tuple(map(index, r)) for r in rays)
        max_cones = tuple(tuple(sorted(map(index, c))) for c in max_cones)
        self._set(index(dim), rays, max_cones, tuple((name, index(i)) for name, i in names))
        self.validate()

    def validate(self):
        if self.dim < 1:
            raise ValueError(f"fan dimension must be at least 1, got {self.dim}")
        for r in self.rays:
            if len(r) != self.dim:
                raise ValueError(f"ray {r} has wrong dimension")
            if not any(r) or primitive(r) != r:
                raise ValueError(f"ray {r} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")
        seen = set()
        for name, idx in self.names:
            if not 0 <= idx < self.nrays:
                raise ValueError(f"name {name!r}: ray {idx} is outside 0..{self.nrays - 1}")
            if name in seen:
                raise ValueError(f"name {name!r} is given twice")
            seen.add(name)
            default = _default_index(name)
            if default is not None and default != idx:
                raise ValueError(f"name {name!r} is the default label of ray {default}, not {idx}")
        if not self.max_cones:
            raise ValueError("fan has no maximal cones")
        for cone in self.max_cones:
            for i in cone:
                if not 0 <= i < self.nrays:
                    raise ValueError(f"cone {cone}: ray {i} is outside 0..{self.nrays - 1}")
            if len(cone) != self.dim:
                raise NonSimplicialCone(f"cone {cone} is not simplicial of full dimension")
        covered = {i for cone in self.max_cones for i in cone}
        for i in range(self.nrays):
            if i not in covered:
                raise ValueError(f"ray {i} lies in no maximal cone")
        _wall_forms(self)

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def ray_index(self, key) -> int:
        # a bool is an int, but no ray index
        if isinstance(key, int) and not isinstance(key, bool):
            if not 0 <= key < self.nrays:
                raise KeyError(f"ray index {key} out of range")
            return key
        for name, idx in self.names:
            if name == key:
                return idx
        default = _default_index(key) if isinstance(key, str) else None
        if default is None:
            raise KeyError(f"unknown ray {key!r}")
        return self.ray_index(default)

    def ray_name(self, idx: int) -> str:
        for name, i in self.names:
            if i == idx:
                return name
        return f"r{idx}"

    def divisor(self, coeffs) -> "TDivisor":
        """Build a divisor from a sequence or a {ray: coefficient} mapping;
        KeyError when a key names no ray or two keys name one ray, and
        MixedDiscriminant when two coefficients lie in distinct fields."""
        if isinstance(coeffs, dict):
            vec, keys = [Scalar(0)] * self.nrays, {}
            for key, val in coeffs.items():
                i = self.ray_index(key)
                if i in keys:
                    raise KeyError(f"{keys[i]!r} and {key!r} both name ray {i}")
                keys[i], vec[i] = key, val
            coeffs = vec
        return TDivisor(self, tuple(coeffs))

    # The variety protocol, shared with surface.SurfaceModel.  Each query is a
    # call to this module's function, looked up at call time, so a patched or
    # traced module name is what runs.
    label_kind = "ray"
    component = ray_index

    def labels(self, D: "TDivisor") -> list[str]:
        """Names of the rays in the support of D, in ray order."""
        return [self.ray_name(i) for i in sorted(D.support())]

    def h0(self, D, *m_and_G):
        """h0(D, m=1, G=None), the count of the round-down of mD + G off the
        records (see h0); m and G are passed on only when given."""
        return h0(D, *m_and_G)

    def volume(self, D):
        return volume(D)

    def is_big(self, D):
        return is_big(D)

    def is_nef(self, D):
        return is_nef(D)

    def sigma(self, D, label):
        return sigma(D, label)

    def nsigma(self, D):
        return sigma_decomposition(D).nsigma

    def excess(self, E: "TDivisor", N: "TDivisor") -> str | None:
        """The first ray of Supp(E), in ray order, whose coefficient in E
        exceeds its coefficient in N, or None when there is none: one sign
        per ray of Supp(E) on the two offset records, which are the
        coefficients negated."""
        e, n = E.polytope, N.polytope
        disc = _join(e.disc, n.disc)
        for i, (ea, eb, na, nb) in enumerate(zip(e.A, e.B, n.A, n.B)):
            if (ea or eb) and _sign(na * e.den - ea * n.den, nb * e.den - eb * n.den, disc) > 0:
                return self.ray_name(i)
        return None

    def bplus(self, D) -> frozenset[str]:
        return frozenset(self.ray_name(i) for i in bplus_div(D))

    def intersect(self, D, E):
        return intersection_nef_div(D, E)

    def shifts(self, rng) -> list[tuple[int, ...]]:
        """Two small characters v, the draws of the principal divisors
        div(v), trivial on the class: the first unit vectors, or random
        nonzero vectors in {-1, 0, 1}^n.  shift builds D + div(v)."""
        if rng is None:
            return [tuple(int(j == i) for j in range(self.dim)) for i in range(min(2, self.dim))]
        vecs = []
        while len(vecs) < 2:
            v = tuple(rng.randint(-1, 1) for _ in range(self.dim))
            if any(v):
                vecs.append(v)
        return vecs

    def shift(self, D, v) -> "TDivisor":
        """D + div(v) for a character v of shifts, on D's own record: the
        coefficient on ray i grows by <v, ray_i>, so A_i by -den <v, ray_i>."""
        p = D.polytope
        A = [a - p.den * sum(map(mul, v, ray)) for a, ray in zip(p.A, self.rays)]
        return _divisor(self, p.den, p.disc, A, p.B)

    def shift_is_integral(self, v, m) -> bool:
        """m div(v) ~_Z 0 for a character v of shifts: v is an integer
        character, so m div(v) = div(m v) is principal when m is an integer.
        Integer coefficients of m div(v) would not do: on a fan whose rays
        span a sublattice, they can leave a torsion class."""
        return _as_scalar(m).is_integer()


@lru_cache(maxsize=64)
def _wall_forms(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """One integer linear form in the coefficients per wall of the fan, a
    dense row of weights on the rays; D is nef iff every form is >= 0 on it.

    For the wall tau shared by sigma = tau + rho and sigma' = tau + rho',
    write v_rho' = sum over i in sigma of c_i v_i.  The support function is
    convex across the wall iff a_rho' - sum c_i a_i >= 0 (Cox-Little-Schenck,
    Toric Varieties, 6.1 and 6.3: D.C_tau >= 0 on the wall curve), and on a
    complete fan convexity across every wall is convexity.  Each form is
    scaled by the positive common denominator of its c_i.

    The cone coordinates come from one integer inverse per maximal cone:
    with R the matrix of the cone's rays as rows and R^-1 = M / q, the
    coordinates of v are v M / q.  The fan is checked on the way, so
    Fan.validate runs this once per fan.  Raises NonSimplicialCone when a
    cone's rays are dependent, and ValueError unless every wall lies on
    exactly two maximal cones with rho and rho' strictly on opposite sides
    of it, i.e. c_rho < 0, and no two cones overlap."""
    inverses = {}
    for cone in fan.max_cones:
        inv = inverse([fan.rays[i] for i in cone])
        if inv is None:
            raise NonSimplicialCone(f"cone {cone} has linearly dependent rays")
        inverses[cone] = inv

    def coordinates(cone, v):
        """The numerators x with v = sum of x_i / q * ray_i over the cone."""
        M, q, _ = inverses[cone]
        return [sum(a * M[j][i] for j, a in enumerate(v)) for i in range(fan.dim)], q

    cones_at: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for cone in fan.max_cones:
        for wall in itertools.combinations(cone, fan.dim - 1):
            cones_at.setdefault(wall, []).append(cone)
    forms = []
    for wall, cones in cones_at.items():
        if len(cones) != 2:
            raise ValueError(f"wall {wall} lies on {len(cones)} maximal cones; fan is not complete")
        cone, opposite = cones
        (rho,) = set(cone) - set(wall)
        (rho2,) = set(opposite) - set(wall)
        x, q = coordinates(cone, fan.rays[rho2])
        c = dict(zip(cone, x))
        if c[rho] >= 0:
            raise ValueError(f"rays {rho} and {rho2} lie on one side of wall {wall}")
        g = math.gcd(q, *x)
        forms.append(tuple(q // g if r == rho2 else -c.get(r, 0) // g for r in range(fan.nrays)))
    # walls on two cones each, with the opposite rays on opposite sides,
    # still allow cones that wind around the origin more than once; the
    # interior point sum(rays) of a cone then lies in another cone too
    for cone in fan.max_cones:
        inner = [sum(col) for col in zip(*(fan.rays[i] for i in cone))]
        for other in fan.max_cones:
            if other != cone and all(x >= 0 for x in coordinates(other, inner)[0]):
                raise ValueError(f"cones {cone} and {other} overlap")
    return tuple(forms)


def _default_index(label: str) -> int | None:
    """j for the default ray labels r<j> and <j>, None for any other label."""
    digits = label[1:] if label.startswith("r") else label
    return int(digits) if digits.isdecimal() else None


def preset_fan(name: str) -> Fan:
    """Named fans: P2, P3, P1xP1 and the Hirzebruch series F1, F2, ...; one
    shared immutable Fan per name, whatever its case and underscores."""
    fan = _preset_fan(name.replace("_", "").upper())
    if fan is None:
        raise ValueError(f"unknown fan preset {name!r}")
    return fan


@lru_cache(maxsize=64)
def _preset_fan(key: str) -> Fan | None:
    if key == "P2":
        return Fan(
            2,
            ((1, 0), (0, 1), (-1, -1)),
            ((0, 1), (1, 2), (2, 0)),
            (("H", 2),),
        )
    if key == "P3":
        return Fan(
            3,
            ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
            (("H", 3),),
        )
    if key == "P1XP1":
        return Fan(
            2,
            ((1, 0), (0, 1), (-1, 0), (0, -1)),
            ((0, 1), (1, 2), (2, 3), (3, 0)),
            (("H1", 2), ("H2", 3)),
        )
    if key.startswith("F") and key[1:].isdigit():
        e = int(key[1:])
        return Fan(
            2,
            ((1, 0), (0, 1), (-1, e), (0, -1)),
            ((0, 1), (1, 2), (2, 3), (3, 0)),
            (("F", 0), ("E", 1), ("C", 3)),
        )
    return None


class TDivisor(_Frozen):
    """Torus-invariant R-divisor: one coefficient per ray, held as its
    section polytope {u : <u, ray> >= -coeff}.  A divisor is a _Frozen value
    of two fields, its fan and that polytope, whose offset record
    (A_i + B_i sqrt(disc)) / den is the coefficients negated, canonical as
    scalars._record and _reduce make it; so equality and hashing read the
    fan and the record, and scale, + and - are integer products and sums
    plus one gcd on it.  The signs of the coefficients are those of the
    offsets, negated.  The coefficients lie in one field: two irrational
    fields raise MixedDiscriminant, as they do for an HPolytope.  coeffs
    builds the reduced Scalars off the record on each call; nothing is
    kept beside the two fields."""

    __slots__ = ("fan", "polytope")

    def __init__(self, fan: Fan, coeffs):
        if len(coeffs) != fan.nrays:
            raise ValueError("coefficient count does not match ray count")
        den, disc, A, B = _record(tuple(map(_as_scalar, coeffs)))
        polytope = HPolytope._make(fan.dim, fan.rays, den, disc, tuple(-a for a in A), tuple(-b for b in B))
        self._set(fan, polytope)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        p = self.polytope
        return tuple(_new(-a, -b, p.den, p.disc) for a, b in zip(p.A, p.B))

    def __repr__(self):
        return f"TDivisor(fan={self.fan!r}, coeffs={self.coeffs!r})"

    def __add__(self, other: "TDivisor") -> "TDivisor":
        return self._combine(other, add)

    def __sub__(self, other: "TDivisor") -> "TDivisor":
        return self._combine(other, sub)

    def _combine(self, other, op):
        """self op other for op = add or sub, over the lcm of the dens."""
        p = self.polytope
        return _divisor(self.fan, *_summed(self.fan, p.den, p.disc, p.A, p.B, other, op))

    def scale(self, m) -> "TDivisor":
        p = self.polytope
        return _divisor(self.fan, *_scaled(p.den, p.disc, p.A, p.B, m))

    def is_effective(self) -> bool:
        p = self.polytope
        return all(_sign(a, b, p.disc) <= 0 for a, b in zip(p.A, p.B))

    def is_zero(self) -> bool:
        return not (any(self.polytope.A) or any(self.polytope.B))

    def support(self) -> frozenset[int]:
        p = self.polytope
        return frozenset(i for i, (a, b) in enumerate(zip(p.A, p.B)) if a or b)

    def coeff_map(self) -> dict[str, Scalar]:
        return {self.fan.ray_name(i): c for i, c in enumerate(self.coeffs)}


def _scaled(den: int, disc: int, A, B, m):
    """The offset record of m times a canonical record (A_i + B_i
    sqrt(disc)) / den, unreduced, with disc 0 when the product is rational.
    Distinct irrational fields raise MixedDiscriminant."""
    m = _as_scalar(m)
    a, b = m.a, m.b
    if b:
        disc = _join(disc, m.disc)
        bd = b * disc
        A, B = [x * a + y * bd for x, y in zip(A, B)], [x * b + y * a for x, y in zip(A, B)]
        return den * m.den, disc if any(B) else 0, A, B
    if disc and a:
        return den * m.den, disc, [x * a for x in A], [y * a for y in B]
    # a rational record, or m = 0: the product is rational
    return den * m.den, 0, [x * a for x in A], (0,) * len(B)


def _summed(fan: Fan, den: int, disc: int, A, B, other: TDivisor, op):
    """The offset record of op(record, other's) for op = add or sub, over
    the lcm of the dens, unreduced; ValueError when other lives on another
    fan, and MixedDiscriminant when the fields differ."""
    if fan is not other.fan and fan != other.fan:
        raise ValueError("divisors live on different fans")
    q = other.polytope
    disc = _join(disc, q.disc)
    lcm = math.lcm(den, q.den)
    s, t = lcm // den, lcm // q.den
    A = [op(x * s, y * t) for x, y in zip(A, q.A)]
    return lcm, disc, A, [op(x * s, y * t) for x, y in zip(B, q.B)] if disc else B


def _divisor(fan: Fan, den: int, disc: int, A, B) -> TDivisor:
    """The divisor whose section polytope has the integer arithmetic's
    offset record (A_i + B_i sqrt(disc)) / den, reduced by scalars._reduce."""
    return TDivisor._make(fan, HPolytope._make(fan.dim, fan.rays, *_reduce(den, disc, A, B)))


def _check_tdivisor(D):
    if not isinstance(D, TDivisor):
        raise UnsupportedDivisor(
            "toric operations need a torus-invariant divisor on a fan; "
            "divisors with non-invariant components belong to the surface model"
        )
    return D


def polytope_of(D: TDivisor) -> HPolytope:
    """Section polytope {u : <u, v_ray> >= -coeff} of the divisor."""
    return _check_tdivisor(D).polytope


def h0(D: TDivisor, m=1, G: TDivisor | None = None) -> int:
    """Dimension of global sections of the round-down of mD + G, for a real
    m and a divisor G on D's fan, counted once per class of the round-down.
    The offsets of mD + G are read off D's record, m's triple and G's
    record, as D.scale(m) + G would join them (so distinct irrational
    fields raise the same MixedDiscriminant), and rounded with one _floor
    per row: no divisor or polytope is built before the lattice form, and
    h0(D) is the case m = 1.  h0 depends only on the linear equivalence
    class of the round-down, and polyhedra.lattice_form keys the count by
    that class, so D and D + div(u) for an integer u share one cached count
    (but D + sqrt(2) div(u) does not)."""
    p = polytope_of(D)
    record = p.den, p.disc, p.A, p.B
    # the int 1 of a one-argument call multiplies nothing; a Scalar m is
    # multiplied without asking whether it is 1
    if type(m) is not int or m != 1:
        record = _scaled(*record, m)
    if G is not None:
        record = _summed(D.fan, *record, _check_tdivisor(G), add)
    return lattice_points(lattice_form(p, _ceil_offsets(*record)))


def volume(D: TDivisor) -> Scalar:
    """vol(D) = n! * euclidean volume of the section polytope, read off its
    facet record with the primitive rays as normals: the toric identity
    D^n = D^(n-1).D = sum_i a_i * D^(n-1).D_i, which _facet_sum sums on the
    polytope's record (0 when the polytope has no interior point)."""
    p = polytope_of(D)
    return _facet_sum(p, p)


def _facet_sum(p: HPolytope, e: HPolytope) -> Scalar:
    """D^(n-1).E = (n-1)! sum_i c_i vol_i for the section polytopes p of D
    and e of E, with vol_i p's facet record and c_i = -offset_i on e's: one
    integer sum on the record's numerators over its one denominator, in the
    field of e and of the vol_i it meets, not p's, whose faces may be rational."""
    xs, ys, q = _facet_volumes(p)
    disc, x, y = e.disc, 0, 0
    for a, b, vx, vy in zip(e.A, e.B, xs, ys):
        if a or b:
            if vy:
                disc = _join(disc, p.disc)
            x += a * vx + b * vy * disc
            y += a * vy + b * vx
    f = -math.factorial(p.dim - 1)
    return _new(f * x, f * y, e.den * q, disc)


def is_big(D: TDivisor) -> bool:
    """Big iff the section polytope has an interior point (positive volume),
    read off the vertex table's row test with no volume: _has_interior."""
    return _has_interior(polytope_of(D))


def is_nef(D: TDivisor) -> bool:
    """The wall rule: every wall form of the fan is >= 0 on the coefficients
    (see _wall_forms), so <= 0 on the section polytope's record A and B,
    up to the first wall that fails; B is summed only when disc is not 0."""
    p = polytope_of(D)
    A, B, disc = p.A, p.B, p.disc
    for row in _wall_forms(D.fan):
        x = sum(map(mul, row, A))
        y = disc and sum(map(mul, row, B))
        if (_sign(x, y, disc) if y else x) > 0:
            return False
    return True


def sigma(D: TDivisor, ray) -> Scalar:
    """Infimum of the coefficient along the ray over the effective members
    of the R-linear equivalence class, a_i + min <ray, u> over the section
    polytope: its coefficient in N_sigma of the cached sigma_decomposition,
    read off N_sigma's record alone, and 0 on a ray outside B+."""
    i = _check_tdivisor(D).fan.ray_index(ray)
    p = sigma_decomposition(D).nsigma.polytope
    return _new(-p.A[i], -p.B[i], p.den, p.disc)


class SigmaDecomposition(namedtuple("SigmaDecomposition", "nsigma psigma")):
    """D = psigma + nsigma with nsigma carrying the sigma multiplicities; D
    itself is the cache key of sigma_decomposition, not a field."""

    __slots__ = ()


@lru_cache(maxsize=256)
def sigma_decomposition(D: TDivisor) -> SigmaDecomposition:
    """P_sigma(D) has coefficient -min <v_i, u> over D's section polytope on
    each ray i, and N_sigma = D - P_sigma = sum of sigma(D, i) D_i, with
    sigma(D, i) = a_i + min <v_i, u>.  A ray whose face has positive volume
    in the facet record touches the polytope, so its sigma is 0, and one
    lp_solve call reads the minima of the rays of B+ (see bplus_div), none
    when B+ is empty.  Bigness is read off the same record.  P_sigma has no
    sigma by construction, as its section polytope is D's with every row
    moved up to touch it (Nakayama, Zariski-decomposition and abundance,
    III.1).  One decomposition per divisor, in a shared bounded cache;
    errors are not cached."""
    p = polytope_of(D)
    rays = _zero_facets(p)
    if rays is None:
        raise NotBig("sigma decomposition is defined for big divisors only")
    pos = D
    if rays:
        offsets = [_new(a, b, p.den, p.disc) for a, b in zip(p.A, p.B)]
        for i, v in zip(rays, lp_solve(p, [D.fan.rays[i] for i in rays])):
            offsets[i] = v
        pos = _divisor(D.fan, *_record(offsets))
    return SigmaDecomposition(D - pos, pos)


def _zero_facets(p: HPolytope) -> list[int] | None:
    """The rows whose face has zero volume in p's facet record, or None
    when the record is 0 on every row, i.e. p has no interior point."""
    xs, ys, _ = _facet_volumes(p)
    rows = [i for i, (x, y) in enumerate(zip(xs, ys)) if not (x or y)]
    return None if len(rows) == len(xs) else rows


def bplus_div(D: TDivisor) -> frozenset[int]:
    """Divisorial augmented base locus of a big divisor: the rays whose face
    <u, ray> = -coeff of the section polytope is not a facet, i.e. has zero
    restricted volume (Ein-Lazarsfeld-Mustata-Nakamaye-Popa) in the facet
    record.  The rule needs no ample divisor, so on a complete fan without
    one (non-projective, dim >= 3) it still returns the rays of zero
    restricted volume instead of raising.  Bigness is read off the same
    record, 0 on every row exactly when the polytope has no interior point."""
    rays = _zero_facets(polytope_of(D))
    if rays is None:
        raise NotBig("the divisorial augmented base locus needs a big divisor")
    return frozenset(rays)


def intersection_nef_div(D: TDivisor, E: TDivisor) -> Scalar:
    """D^(n-1).E for nef big D and effective invariant E on D's fan, by
    linearity: (n-1)! times entry i of the facet record of D is
    D^(n-1).D_i, and _facet_sum sums its integers against E.  Bigness is
    read off that record, 0 on every row exactly when the polytope has no
    interior point, and nefness by the wall rule, each once and neither
    when E is 0; divisors on two fans raise ValueError before either."""
    _check_tdivisor(D)
    _check_tdivisor(E)
    if D.fan != E.fan:
        raise ValueError("divisors live on different fans")
    if not E.is_effective():
        raise NotEffective("intersection against a non-effective divisor")
    if E.is_zero():
        return Scalar(0)
    if _zero_facets(D.polytope) is None:
        raise NotBig("intersection numbers computed for big divisors")
    if not is_nef(D):
        raise NotNef("facet-volume intersection numbers need a nef divisor")
    return _facet_sum(D.polytope, E.polytope)


def sigma_limit_oracle(D: TDivisor, ray, m_list) -> list[Scalar]:
    """Finite-level approximations (1/m) min mult_ray over sections of mD.

    Each value dominates sigma(D, ray) and the sequence converges to it
    along doubling chains.  Every multiple is checked before any is
    counted, and each costs one lattice minimum, whose cost does not grow
    with m.
    """
    if not is_big(D):
        raise NotBig("the limit oracle needs a big divisor")
    idx = D.fan.ray_index(ray)
    v = D.fan.rays[idx]
    p = D.polytope
    a = _new(-p.A[idx], -p.B[idx], p.den, p.disc)
    # a generator or an iterator would be used up by the checks
    m_list = list(m_list)
    for m in m_list:
        if isinstance(m, bool) or not isinstance(m, int) or m <= 0:
            raise ValueError("multiples must be positive integers")
    out = []
    for m in m_list:
        # the section of u vanishes to order m a + <v, u> on the ray's divisor;
        # the polytope is mD's own, not its lattice form, since a translation
        # moves the minimum
        best = _lattice_min(polytope_of(D.scale(m)), v)
        if best is None:
            raise NoSections(m)
        out.append((m * a + best) / m)
    return out
