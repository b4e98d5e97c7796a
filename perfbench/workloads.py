"""The benchmark's three workloads.

A workload is built from a seed (that is its set-up) and then offers
operations by index: ``run(k)`` is the timed call into the library,
``digest(out)`` gives a canonical text for its output and ``check(k, out)``
compares that output with the golden value.  Ops must run in index order,
since corpus ops share a shift RNG exactly as ``corpus_run`` does.

- ``corpus``: checker verdicts over seeded corpora.  Bound by the LP and
  the epsilon schedule (sigma, bplus_div, ample_divisor); lattice counting
  is a small share.  Goldens are committed per-instance digests.
- ``hilbert``: section counts h0(mD) at large m.  Bound by lattice
  enumeration and Q(sqrt 2) floor/compare, no LP.  Goldens are closed
  forms from ``reference.py``.
- ``cli``: one cold ``python -m rdiv.cli`` process per op.  Bound by
  interpreter start-up and imports.  Goldens are committed stdout bytes
  and exit codes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"

# Seeded corpora with committed goldens.  Every corpus run interleaves all
# of them (see Corpus), so every run meets the same instances.
CORPUS_POOL = (2026, 2027, 2028, 2029, 2030, 2031)
CORPUS_COUNT = 160  # per corpus: 960 ops, 2.8x what a 25 s run takes on the seed code
HILBERT_CYCLES = 100
CLI_CYCLES = 100
CLI_TIMEOUT_S = 120


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(name: str) -> dict:
    with open(GOLDENS / name, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# corpus


class CorpusStream:
    """One seeded corpus taken instance by instance through exactly the calls
    of ``theorems.corpus_run``, in its order and with its shift RNG."""

    def __init__(self, corpus_seed: int, count: int, golden: dict):
        from rdiv import theorems, toric

        self._theorems, self._toric = theorems, toric
        self.corpus_seed = corpus_seed
        self.golden = golden
        self.instances = theorems.generate_corpus(corpus_seed, count)
        self.realized = [inst.realize() for inst in self.instances]
        self.shift_rng = random.Random(corpus_seed + 1)
        self.m_grid = theorems.default_m_grid(2)

    def run(self, i: int):
        th, toric = self._theorems, self._toric
        fan, D, E = self.realized[i]
        rep_a = th.check_theorem_a(fan, D, E, m_grid=self.m_grid, rng=self.shift_rng)
        rep_b = th.check_theorem_b(fan, D, E, m_grid=self.m_grid, rng=self.shift_rng)
        nef = toric.is_nef(D)
        dec = toric.sigma_decomposition(D)
        neg = None
        if E.support() and E.support() <= dec.nsigma.support():
            neg = th.negsections_check(fan, D, E, m_grid=self.m_grid)
        return {
            "A": rep_a.to_json(),
            "B": rep_b.to_json(),
            "nef": nef,
            "nsigma": [str(c) for c in dec.nsigma.coeffs],
            "negsections": neg,
        }

    def summary(self, outputs) -> dict:
        """The ``corpus_run(corpus_seed, len(outputs))`` summary rebuilt from
        the op outputs."""
        candidate = self._theorems.CANDIDATE
        summary = {
            "seed": self.corpus_seed,
            "count": len(outputs),
            "which": "both",
            "consistent": 0,
            "candidates": [],
            "nef_instances": 0,
            "negsections_checked": 0,
        }
        for inst, out in zip(self.instances, outputs):
            summary["nef_instances"] += bool(out["nef"])
            if out["negsections"] is not None:
                summary["negsections_checked"] += 1
                if not out["negsections"]:
                    summary["candidates"].append(
                        {"instance": inst.to_json(), "failure": "negative-part additivity"}
                    )
                    continue
            reports = {"A": out["A"], "B": out["B"]}
            if any(r["verdict"] == candidate for r in reports.values()):
                summary["candidates"].append({"instance": inst.to_json(), "reports": reports})
            else:
                summary["consistent"] += 1
        return summary

    def expected_summary(self, n: int) -> dict:
        """Golden summary of the first n instances: zero candidates."""
        return {
            "seed": self.corpus_seed,
            "count": n,
            "which": "both",
            "consistent": n,
            "candidates": [],
            "nef_instances": self.golden["nef"][:n].count("1"),
            "negsections_checked": self.golden["neg"][:n].count("1"),
        }


def corpus_digest(out) -> str:
    return _digest(json.dumps(out, sort_keys=True))


class Corpus:
    """One op = one corpus instance (see CorpusStream).  Ops take the corpora
    of CORPUS_POOL in turn, the seed choosing which leads, so op k is instance
    k // 6 of corpus (seed + k) mod 6.  A run thus covers the same instances
    whatever the seed, and its cost does not hinge on how many expensive
    instances one corpus happened to draw; each corpus still sees exactly
    the call sequence of ``corpus_run``."""

    name = "corpus"

    def __init__(self, seed: int, count: int = CORPUS_COUNT):
        goldens = load_golden("corpus.json")["seeds"]
        n = len(CORPUS_POOL)
        seeds = [CORPUS_POOL[(seed + j) % n] for j in range(n)]
        self.streams = [CorpusStream(cs, count, goldens[str(cs)]) for cs in seeds]
        self.limit = n * min(count, min(len(st.golden["digests"]) for st in self.streams))

    def _locate(self, k: int):
        n = len(self.streams)
        return self.streams[k % n], k // n

    def run(self, k: int):
        stream, i = self._locate(k)
        return stream.run(i)

    def digest(self, out) -> str:
        return corpus_digest(out)

    def check(self, k: int, out) -> bool:
        stream, i = self._locate(k)
        return corpus_digest(out) == stream.golden["digests"][i]

    def summary(self, outputs) -> list[dict]:
        """One ``corpus_run`` summary per corpus, over the ops it received."""
        n = len(self.streams)
        return [st.summary(outputs[j::n]) for j, st in enumerate(self.streams)]

    def expected_summary(self, done: int) -> list[dict]:
        n = len(self.streams)
        return [st.expected_summary(len(range(j, done, n))) for j, st in enumerate(self.streams)]


# ---------------------------------------------------------------------------
# hilbert

Q = tuple[Fraction, Fraction]  # r + s*sqrt(2)


def _rat(x) -> Q:
    return (Fraction(x), Fraction(0))


def _irr(x) -> Q:
    return (Fraction(0), Fraction(x))


def _quarter(rng) -> Fraction:
    return Fraction(rng.randint(0, 3), 4)


# The deck: one op of each kind per cycle; about half carry sqrt(2) in a
# coefficient or in the multiple m.  The seed draws the coefficients, then m
# is fitted so the section polytope holds about `points` lattice points
# (+-25%).  Each target costs about 65 ms on the seed code, so every kind
# weighs about the same and the op mix, hence the metrics, barely depend on
# the seed.  The twist is the deliberate tail: h0_class loops over floor(m).
#   (kind, sqrt(2) in m, lattice points targeted)
DECK = (
    ("P2", False, 275_000),
    ("P2-root2", False, 260_000),
    ("P1xP1", False, 420_000),
    ("P1xP1", True, 180_000),
    ("F1", False, 390_000),
    ("F1-root2", False, 155_000),
    ("F2", False, 380_000),
    ("F2", True, 105_000),
    ("P3", False, 50_000),
    ("P3-root2", False, 7_500),
    ("oracle", False, 1_800),
    ("twist", False, None),
)


def _coeffs(kind: str, rng):
    q = _quarter
    if kind == "twist":
        return []
    if kind == "oracle":
        return [_irr(Fraction(1, rng.choice((2, 3, 4)))), _rat(1 + q(rng)), _rat(1 + q(rng))]
    base, _, lane = kind.partition("-")
    nrays = {"P2": 3, "P1xP1": 4, "F1": 4, "F2": 4, "P3": 4}[base]
    coeffs = [_rat(q(rng)) for _ in range(nrays - 1)] + [_rat(1 + q(rng))]
    if base in ("F1", "F2"):
        coeffs[2] = _rat(0)
    if lane:
        coeffs[0] = _irr(Fraction(1, rng.choice((2, 3, 4))))
    return coeffs


def _count(kind: str, coeffs, m: Q) -> int:
    """Closed-form h0 of the rounded m*D, the golden value of a toric op."""
    base = kind.partition("-")[0]
    floors = [ref.q_floor(ref.q_mul(m, c)) for c in coeffs]
    if base in ("P2", "P3", "oracle"):
        return ref.h0_projective(floors)
    if base == "P1xP1":
        return ref.h0_p1xp1(floors)
    return ref.h0_hirzebruch_fan(floors, int(base[1:]))


def _fit_m(kind: str, coeffs, root2: bool, points: int, rng) -> Q:
    dim = 3 if kind.startswith("P3") else 2
    goal = points * rng.uniform(0.75, 1.25)
    probe = 64
    unit = (Fraction(0), Fraction(1)) if root2 else (Fraction(1), Fraction(0))
    size = _count(kind, coeffs, ref.q_mul((Fraction(probe), Fraction(0)), unit))
    k = max(1, round(probe * (goal / max(size, 1)) ** (1 / dim)))
    if root2:
        return (Fraction(rng.randint(0, 1), 2), Fraction(k))
    return (Fraction(k), Fraction(0))


def _hilbert_cycle(rng):
    ops = []
    for kind, root2, points in DECK:
        coeffs = _coeffs(kind, rng)
        if kind == "twist":
            m = (Fraction(rng.randint(1_800_000, 2_000_000), 2), Fraction(0))
        else:
            m = _fit_m(kind, coeffs, root2, points, rng)
        ops.append((kind, coeffs, m))
    return ops


def _golden_h0(kind: str, coeffs, m: Q):
    if kind == "twist":
        return ref.twisted_surface_h0(m, 1)
    if kind == "oracle":
        return ref.sigma_oracle_p2(coeffs, int(m[0]))
    return _count(kind, coeffs, m)


class Hilbert:
    """One op = one section count: ``toric.h0(D.scale(m))`` on a preset fan,
    ``surface.h0_surface`` on the sqrt(2) twist of F1, or one
    ``toric.sigma_limit_oracle`` call on P2."""

    name = "hilbert"

    def __init__(self, seed: int, cycles: int = HILBERT_CYCLES):
        from rdiv import Scalar, surface, toric

        self._toric, self._surface = toric, surface
        rng = random.Random(seed)
        fans = {k: toric.preset_fan(k) for k in ("P2", "P3", "P1xP1", "F1", "F2")}
        model = surface.SurfaceModel(1, ("F1", "F2", "F3", "F4"))
        root2 = Scalar(0, 1, 2)
        twist = model.divisor(
            {"C": 1, "F1": 1, "F2": -1, "F3": root2, "F4": -root2}
        )

        def scalar(x: Q):
            return Scalar(x[0], x[1], 2)

        self.ops = []
        for _ in range(cycles):
            for kind, coeffs, m in _hilbert_cycle(rng):
                if kind == "twist":
                    D, m_arg = twist, scalar(m)
                elif kind == "oracle":
                    D, m_arg = fans["P2"].divisor([scalar(c) for c in coeffs]), int(m[0])
                else:
                    D = fans[kind.partition("-")[0]].divisor([scalar(c) for c in coeffs])
                    m_arg = scalar(m)
                self.ops.append((kind, D, m_arg, coeffs, m))
        self.limit = len(self.ops)

    def run(self, k: int):
        kind, D, m, _, _ = self.ops[k]
        if kind == "twist":
            return self._surface.h0_surface(D.scale(m))
        if kind == "oracle":
            return self._toric.sigma_limit_oracle(D, 0, [m])
        return self._toric.h0(D.scale(m))

    def golden(self, k: int):
        """Closed-form value of op k, computed when it is checked (not in
        set-up, which should time the library's work only)."""
        kind, _, _, coeffs, m = self.ops[k]
        value = _golden_h0(kind, coeffs, m)
        if kind == "oracle":
            r, s = value
            return [(r, s, 2 if s else 0)]
        return value

    def digest(self, out) -> str:
        if isinstance(out, list):
            return ",".join(str(x) for x in out)
        return str(out)

    def check(self, k: int, out) -> bool:
        golden = self.golden(k)
        if isinstance(golden, list):
            return [(x.rat, x.surd, x.disc) for x in out] == golden
        return out == golden


# ---------------------------------------------------------------------------
# cli

# The fixed mix, each entry once per cycle in a seeded order.  check-b on F1
# is listed twice so that the slowest class holds well over the 11 ops that
# op_tail_ms reaches into, and the tail does not straddle two classes.
CLI_MIX = (
    ("volume", "--preset", "F1", "--divisor", "C:2,F:1/2"),
    ("volume", "--e", "1", "--divisor", "C:1,F1:sqrt(2)"),
    ("h0", "--preset", "P2", "--divisor", "H:3", "--scale", "7"),
    ("h0", "--e", "2", "--divisor", "C:1,F1:1,F2:-1,F3:sqrt(2),F4:-sqrt(2)", "--scale", "50"),
    ("sigma", "--preset", "F1", "--divisor", "E:1,C:1"),
    ("bplus", "--preset", "P3", "--divisor", "r0:1/2*sqrt(2),r1:1,H:1"),
    ("zariski", "--e", "1", "--divisor", "E:2,C:1"),
    ("paper-example", "--e", "1"),
    ("paper-example", "--e", "2", "--format", "json"),
    ("check-b", "--preset", "F1", "--divisor", "E:1,C:1", "--effective", "E:1"),
    ("check-b", "--preset", "F1", "--divisor", "E:1,C:1", "--effective", "E:1"),
    ("check-b", "--e", "1", "--divisor", "C:1,E:1", "--effective", "E:1"),
    ("check-b", "--e", "2", "--divisor", "C:1,E:3", "--effective", "E:1/2", "--format", "json"),
)


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Cli:
    """One op = one cold ``python -m rdiv.cli <args>`` process; its stdout
    and exit code are compared byte for byte with the goldens.  With
    ``trace_path`` set, the process runs ``cli_shim.py`` instead, which
    traces the same ``cli.run`` call and appends its spans to that file."""

    name = "cli"

    def __init__(self, seed: int, cycles: int = CLI_CYCLES, golden: list | None = None):
        import rdiv  # noqa: F401  (set-up cost includes the import, as for the other workloads)

        rng = random.Random(seed)
        self.golden = golden if golden is not None else load_golden("cli.json")["outputs"]
        self.order = []
        for _ in range(cycles):
            cycle = list(range(len(CLI_MIX)))
            rng.shuffle(cycle)
            self.order.extend(cycle)
        self.limit = len(self.order)
        self.env = cli_env()
        self.trace_path: str | None = None

    def argv(self, k: int) -> list[str]:
        return list(CLI_MIX[self.order[k]])

    def run(self, k: int):
        if self.trace_path is None:
            head = [sys.executable, "-m", "rdiv.cli"]
        else:
            head = [sys.executable, str(HERE / "cli_shim.py"), self.trace_path, str(k)]
        proc = subprocess.run(
            head + self.argv(k),
            env=self.env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=CLI_TIMEOUT_S,
        )
        return {"exit": proc.returncode, "stdout": proc.stdout.decode("utf-8", "replace")}

    def digest(self, out) -> str:
        return f"{out['exit']}:{_digest(out['stdout'])}"

    def check(self, k: int, out) -> bool:
        return out == self.golden[self.order[k]]


WORKLOADS = {"corpus": Corpus, "hilbert": Hilbert, "cli": Cli}
