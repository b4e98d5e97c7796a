"""Complete simplicial fans with many rays, by seeded star subdivision of
P^n: each step takes a maximal cone at random and adds the primitive
vector of a weighted sum of its rays, with weights 1 to 3, which lies
inside the cone, so the cone splits into the n cones that trade one of its
rays for the new one."""

import random

from rdiv.linalg import primitive
from rdiv.toric import Fan


def star_fan(n: int, nrays: int, seed: int) -> Fan:
    """P^n's fan subdivided until it has nrays >= n + 1 rays."""
    rng = random.Random(seed)
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    cones = [tuple(j for j in range(n + 1) if j != i) for i in range(n + 1)]
    while len(rays) < nrays:
        cone = cones.pop(rng.randrange(len(cones)))
        weights = [rng.randint(1, 3) for _ in cone]
        rays.append(primitive([sum(w * rays[i][k] for w, i in zip(weights, cone)) for k in range(n)]))
        cones += [cone[:j] + (len(rays) - 1,) + cone[j + 1 :] for j in range(n)]
    return Fan(n, rays, cones)
