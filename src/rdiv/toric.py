"""Divisor calculus on complete toric varieties.

A divisor is one Scalar coefficient per ray of a complete simplicial fan.
Sections of its rounding are lattice points of the H-polytope with rows
<u, ray> >= -coeff, which turns Hilbert functions, volumes, sigma
multiplicities and base loci into exact polyhedral computations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    NoSections,
    NonSimplicialCone,
    NotBig,
    NotNef,
    NotEffective,
    RdivError,
    UnsupportedDivisor,
)
from .linalg import matrix_rank, primitive, solve_square
from .polyhedra import (
    HPolytope,
    LPProblem,
    facet_lattice_volume,
    lattice_points,
    lp_solve,
    _lattice_intervals,
)
from .scalars import Scalar

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
    "intersection_nef",
    "intersection_nef_div",
    "sigma_limit_oracle",
    "principal_divisor",
]


@dataclass(frozen=True)
class Fan:
    """Complete simplicial rational fan, rays primitive."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    names: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(tuple(int(x) for x in r) for r in self.rays))
        object.__setattr__(self, "max_cones", tuple(tuple(sorted(c)) for c in self.max_cones))
        object.__setattr__(self, "names", tuple(self.names))
        self.validate()

    def validate(self):
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
        facets: dict[tuple[int, ...], int] = {}
        for cone in self.max_cones:
            if len(cone) != self.dim:
                raise NonSimplicialCone(f"cone {cone} is not simplicial of full dimension")
            if matrix_rank([self.rays[i] for i in cone]) != self.dim:
                raise NonSimplicialCone(f"cone {cone} has linearly dependent rays")
            for facet in itertools.combinations(cone, self.dim - 1):
                facets[facet] = facets.get(facet, 0) + 1
        for facet, count in facets.items():
            if count != 2:
                raise ValueError(
                    f"wall {facet} lies on {count} maximal cones; fan is not complete"
                )

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def ray_index(self, key) -> int:
        if isinstance(key, int):
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
        """Build a divisor from a sequence or a {ray: coefficient} mapping."""
        if isinstance(coeffs, dict):
            vec = [Scalar(0)] * self.nrays
            for key, val in coeffs.items():
                vec[self.ray_index(key)] = val if isinstance(val, Scalar) else Scalar(val)
            return TDivisor(self, tuple(vec))
        return TDivisor(self, tuple(c if isinstance(c, Scalar) else Scalar(c) for c in coeffs))

    # The variety protocol, shared with surface.SurfaceModel.  Each query is a
    # call to this module's function, looked up at call time, so a patched or
    # traced module name is what runs.
    label_kind = "ray"
    component = ray_index

    def labels(self, D: "TDivisor") -> list[str]:
        """Names of the rays in the support of D, in ray order."""
        return [self.ray_name(i) for i in sorted(D.support())]

    def h0(self, D):
        return h0(D)

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

    def bplus(self, D) -> frozenset[str]:
        return frozenset(self.ray_name(i) for i in bplus_div(D))

    def intersect(self, D, E):
        return intersection_nef_div(D, E)

    def shifts(self, rng) -> list["TDivisor"]:
        """Two principal divisors of small characters, trivial on the class:
        the first unit vectors, or random nonzero vectors in {-1, 0, 1}^n."""
        if rng is None:
            vecs = [tuple(int(j == i) for j in range(self.dim)) for i in range(min(2, self.dim))]
        else:
            vecs = []
            while len(vecs) < 2:
                v = tuple(rng.randint(-1, 1) for _ in range(self.dim))
                if any(v):
                    vecs.append(v)
        return [principal_divisor(self, v) for v in vecs]


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


@dataclass(frozen=True)
class TDivisor:
    """Torus-invariant R-divisor: one coefficient per ray."""

    fan: Fan
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.fan.nrays:
            raise ValueError("coefficient count does not match ray count")
        object.__setattr__(
            self, "coeffs", tuple(c if isinstance(c, Scalar) else Scalar(c) for c in self.coeffs)
        )

    def __add__(self, other: "TDivisor") -> "TDivisor":
        self._same_fan(other)
        return TDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TDivisor") -> "TDivisor":
        self._same_fan(other)
        return TDivisor(self.fan, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def scale(self, m) -> "TDivisor":
        m = m if isinstance(m, Scalar) else Scalar(m)
        return TDivisor(self.fan, tuple(m * c for c in self.coeffs))

    def _same_fan(self, other):
        if self.fan != other.fan:
            raise ValueError("divisors live on different fans")

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self.coeffs) if c)

    def coeff_map(self) -> dict[str, Scalar]:
        return {self.fan.ray_name(i): c for i, c in enumerate(self.coeffs)}


def _check_tdivisor(D):
    if not isinstance(D, TDivisor):
        raise UnsupportedDivisor(
            "toric operations need a torus-invariant divisor on a fan; "
            "divisors with non-invariant components belong to the surface model"
        )
    return D


def polytope_of(D: TDivisor) -> HPolytope:
    """Section polytope {u : <u, v_ray> >= -coeff} of the divisor."""
    _check_tdivisor(D)
    return HPolytope(D.fan.dim, tuple((ray, -c) for ray, c in zip(D.fan.rays, D.coeffs)))


def h0(D: TDivisor) -> int:
    """Dimension of global sections of the rounded-down divisor."""
    return lattice_points(polytope_of(D))


def volume(D: TDivisor) -> Scalar:
    """vol(D) = n! * euclidean volume of the section polytope, by Lasserre's
    facet formula with the primitive rays as normals: the toric identity
    D^n = sum_i a_i * D^(n-1).D_i, where D^(n-1).D_i is (n-1)! times the
    lattice volume of the face on ray i (0 when the polytope is empty)."""
    p = polytope_of(D)
    terms = (a * facet_lattice_volume(p, i) for i, a in enumerate(D.coeffs) if a)
    return Scalar(math.factorial(D.fan.dim - 1)) * sum(terms, Scalar(0))


def is_big(D: TDivisor) -> bool:
    """Big iff the section polytope has positive volume."""
    return volume(D) > 0


def is_nef(D: TDivisor) -> bool:
    """Concavity of the support function across all maximal cones."""
    _check_tdivisor(D)
    fan = D.fan
    for cone in fan.max_cones:
        mat = [fan.rays[i] for i in cone]
        rhs = [-D.coeffs[i] for i in cone]
        u = solve_square(mat, rhs)
        if u is None:
            raise NonSimplicialCone(f"cone {cone} is degenerate")
        for i, ray in enumerate(fan.rays):
            if sum(c * x for c, x in zip(ray, u)) < -D.coeffs[i]:
                return False
    return True


def sigma(D: TDivisor, ray) -> Scalar:
    """Infimum of the coefficient along the ray over the effective members
    of the R-linear equivalence class: a_i + min <ray, u> over the section
    polytope, an exact LP that lp_solve answers by the vertex minimum."""
    _check_tdivisor(D)
    if not is_big(D):
        raise NotBig("sigma is defined for big divisors only")
    idx = D.fan.ray_index(ray)
    result = lp_solve(LPProblem(D.fan.rays[idx], polytope_of(D), D.coeffs[idx]))
    if result.status != "optimal":
        raise RdivError(f"sigma LP unexpectedly {result.status}")
    return result.value


@dataclass(frozen=True)
class SigmaDecomposition:
    """D = psigma + nsigma with nsigma carrying the sigma multiplicities."""

    original: TDivisor
    nsigma: TDivisor
    psigma: TDivisor


def sigma_decomposition(D: TDivisor) -> SigmaDecomposition:
    _check_tdivisor(D)
    if not is_big(D):
        raise NotBig("sigma decomposition is defined for big divisors only")
    neg = TDivisor(D.fan, tuple(sigma(D, i) for i in range(D.fan.nrays)))
    pos = D - neg
    for i in range(D.fan.nrays):
        if sigma(pos, i) != 0:
            raise RdivError("positive part retained a nonzero sigma multiplicity")
    return SigmaDecomposition(D, neg, pos)


def principal_divisor(fan: Fan, u) -> TDivisor:
    """div of the character u: coefficient <u, ray> on each ray."""
    u = tuple(x if isinstance(x, Scalar) else Scalar(x) for x in u)
    return TDivisor(
        fan, tuple(sum((a * b for a, b in zip(u, ray)), Scalar(0)) for ray in fan.rays)
    )


def bplus_div(D: TDivisor) -> frozenset[int]:
    """Divisorial augmented base locus of a big divisor: the rays whose face
    <u, ray> = -coeff of the section polytope is not a facet, i.e. has zero
    restricted volume (Ein-Lazarsfeld-Mustata-Nakamaye-Popa).  The rule
    needs no ample divisor, so on a complete fan without one
    (non-projective, dim >= 3) it still returns the rays of zero restricted
    volume instead of raising."""
    if not is_big(D):
        raise NotBig("the divisorial augmented base locus needs a big divisor")
    p = polytope_of(D)
    return frozenset(i for i in range(D.fan.nrays) if not facet_lattice_volume(p, i))


def intersection_nef(D: TDivisor, ray) -> Scalar:
    """D^(n-1).D_ray for nef big D: a normalized facet volume of the
    section polytope."""
    _check_tdivisor(D)
    if not is_big(D):
        raise NotBig("intersection numbers computed for big divisors")
    if not is_nef(D):
        raise NotNef("facet-volume intersection numbers need a nef divisor")
    idx = D.fan.ray_index(ray)
    n = D.fan.dim
    return Scalar(math.factorial(n - 1)) * facet_lattice_volume(polytope_of(D), idx)


def intersection_nef_div(D: TDivisor, E: TDivisor) -> Scalar:
    """D^(n-1).E for nef big D and effective invariant E, by linearity."""
    _check_tdivisor(D)
    _check_tdivisor(E)
    if not E.is_effective():
        raise NotEffective("intersection against a non-effective divisor")
    total = Scalar(0)
    for i, c in enumerate(E.coeffs):
        if c:
            total = total + c * intersection_nef(D, i)
    return total


def sigma_limit_oracle(D: TDivisor, ray, m_list) -> list[Scalar]:
    """Finite-level approximations (1/m) min mult_ray over sections of mD.

    Each value dominates sigma(D, ray) and the sequence converges to it
    along doubling chains.
    """
    _check_tdivisor(D)
    if not is_big(D):
        raise NotBig("the limit oracle needs a big divisor")
    idx = D.fan.ray_index(ray)
    ray_vec = D.fan.rays[idx]
    a = D.coeffs[idx]
    out = []
    for m in m_list:
        if isinstance(m, bool) or not isinstance(m, int) or m <= 0:
            raise ValueError("multiples must be positive integers")
        # <ray, u> is affine in the last coordinate, so its minimum over each
        # interval of lattice points sits at an end
        best = min(
            (
                sum(c * x for c, x in zip(ray_vec, pre)) + min(ray_vec[-1] * lo, ray_vec[-1] * hi)
                for pre, lo, hi in _lattice_intervals(polytope_of(D.scale(m)))
                if lo <= hi
            ),
            default=None,
        )
        if best is None:
            raise NoSections(m)
        out.append((m * a + best) / m)
    return out
