"""Uncached section counts on fans with many rays, the traffic of the chamber
sum that no benchmark deck holds.  Run from the repository root:

    PYTHONPATH=src python tests/count_timings.py

Each case is a star subdivision of P^n from tests/fans.py (seed 1) with a
divisor D whose coefficients are k / 4 for k drawn from 1..8 (seed 7), big
since its section polytope holds a ball around the origin.  The row gives
the seconds of one toric.h0(D, m), with the vertex table built beforehand
and the lattice-count cache emptied, and a sha256 of the count, so that two
trees can be compared for speed and for the same answer."""

import hashlib
import random
import time
from fractions import Fraction

from fans import star_fan
from rdiv.polyhedra import lattice_points
from rdiv.toric import h0, is_big

# (dimension, rays, m)
CASES = ((3, 16, 1000), (3, 24, 1000), (4, 8, 100), (4, 12, 30))

if __name__ == "__main__":
    print("| fan | m | seconds | count sha256 |")
    print("|---|---:|---:|---|")
    for n, nrays, m in CASES:
        fan, rng = star_fan(n, nrays, 1), random.Random(7)
        D = fan.divisor([Fraction(rng.randint(1, 8), 4) for _ in fan.rays])
        is_big(D)
        lattice_points.cache_clear()
        start = time.perf_counter()
        count = h0(D, m)
        seconds = time.perf_counter() - start
        sha = hashlib.sha256(str(count).encode()).hexdigest()
        print(f"| {n}-fold, {nrays} rays | {m:,} | {seconds:.3f} | {sha} |")
