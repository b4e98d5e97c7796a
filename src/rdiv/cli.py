"""Command-line front end.

Subcommands cover the library surface: section counts, Hilbert tables,
volumes, sigma multiplicities and decompositions, base loci, nef/big
queries, intersection numbers, surface Zariski decompositions, the two
theorem checkers, the randomized corpus and the irrational-twist example.

Exit codes: 0 ok, 2 domain error, 3 parse error, 4 counterexample
candidate or violated example.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import surface as surf
from . import theorems, toric
from .errors import ExampleViolated, ParseError, RdivError, UnsupportedModel
from .scalars import Scalar, parse_scalar
from .toric import preset_fan

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_COUNTEREXAMPLE = 4

DEFAULT_DISC = 2


# ---------------------------------------------------------------------------
# problem files


@dataclass(frozen=True)
class ProblemFile:
    """Validated problem description: a variety plus named divisors."""

    variety: object  # Fan | SurfaceModel
    divisors: dict[str, object]  # TDivisor | SDivisor, built and validated
    disc: int

    def divisor(self, name: str):
        if name not in self.divisors:
            raise ParseError(f"unknown divisor {name!r}", "divisors")
        return self.divisors[name]


def _build_divisor(variety, coeffs: dict[str, Scalar]):
    try:
        return variety.divisor(coeffs)
    except KeyError as exc:
        raise ParseError(exc.args[0], "divisors")


def _parse_scalar_field(raw, path: str) -> Scalar:
    if not isinstance(raw, str):
        raise ParseError(f"scalar literals are strings, got {type(raw).__name__}", path)
    try:
        return parse_scalar(raw)
    except ValueError as exc:
        raise ParseError(str(exc), path)


def _parse_variety(spec, path: str):
    if isinstance(spec, str):
        try:
            return preset_fan(spec)
        except ValueError as exc:
            raise ParseError(str(exc), path)
    if not isinstance(spec, dict):
        raise ParseError("variety must be a preset name or an object", path)
    if "kind" in spec and spec["kind"] != "hirzebruch":
        raise ParseError(
            f"unsupported variety kind {spec['kind']!r}; general surface models "
            "with user-supplied intersection data are not supported",
            path,
        )
    if spec.get("kind") == "hirzebruch":
        allowed = {"kind", "e", "fibers"}
        unknown = set(spec) - allowed
        if unknown:
            raise ParseError(f"unknown keys {sorted(unknown)}", path)
        if not _is_json_int(spec.get("e")):
            raise ParseError("'e' must be an integer", f"{path}.e")
        fibers = spec.get("fibers", [])
        if not isinstance(fibers, list) or not all(isinstance(f, str) for f in fibers):
            raise ParseError("'fibers' must be a list of labels", f"{path}.fibers")
        return _surface_model(spec["e"], tuple(fibers), path)
    allowed = {"rays", "cones", "names"}
    unknown = set(spec) - allowed
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}", path)
    try:
        rays = tuple(tuple(r) for r in spec["rays"])
        cones = tuple(tuple(c) for c in spec["cones"])
    except (KeyError, TypeError):
        raise ParseError("fan needs 'rays' and 'cones' arrays", path)
    if not all(_is_json_int(x) for r in rays + cones for x in r):
        raise ParseError("'rays' and 'cones' must hold integers", path)
    names = spec.get("names", {})
    if not isinstance(names, dict) or not all(_is_json_int(v) for v in names.values()):
        raise ParseError("'names' must map labels to integer ray indices", f"{path}.names")
    try:
        return toric.Fan(len(rays[0]) if rays else 0, rays, cones, tuple(sorted(names.items())))
    except (ValueError, RdivError) as exc:
        raise ParseError(f"InvariantViolation: {exc}", path)


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _surface_model(e: int, fibers: tuple[str, ...], path: str):
    try:
        return surf.SurfaceModel(e, fibers)
    except UnsupportedModel as exc:
        raise ParseError(str(exc), path)


def _unique_keys(pairs) -> dict:
    """A JSON object's dict, ParseError when it repeats a key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"key {key!r} is given twice")
        out[key] = value
    return out


def parse_problem(data: bytes | str) -> ProblemFile:
    """Parse and validate a JSON problem file; unknown and repeated keys are
    rejected."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    unknown = set(doc) - {"variety", "divisors", "disc"}
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}")
    if "variety" not in doc:
        raise ParseError("missing 'variety'")
    variety = _parse_variety(doc["variety"], "variety")
    disc = doc.get("disc")
    if disc is None:
        disc = DEFAULT_DISC
    if not _is_json_int(disc) or disc < 0:
        raise ParseError("'disc' must be a non-negative integer", "disc")
    root = _parse_scalar_field(f"sqrt({disc})", "disc")
    if disc and root.disc != disc:
        raise ParseError(f"sqrt({disc}) is {root}; 'disc' must be 0 or a square-free integer above 1", "disc")
    specs = doc.get("divisors", {})
    if not isinstance(specs, dict):
        raise ParseError("must map names to divisors", "divisors")
    divisors = {}
    for name, coeffs in specs.items():
        if not isinstance(coeffs, dict):
            raise ParseError("divisor must map components to literals", f"divisors.{name}")
        parsed = {}
        for key, raw in coeffs.items():
            val = _parse_scalar_field(raw, f"divisors.{name}.{key}")
            if val.disc and val.disc != disc:
                raise ParseError(
                    f"literal {raw!r} uses sqrt({val.disc}) but the file disc is {disc}",
                    f"divisors.{name}.{key}",
                )
            parsed[key] = val
        divisors[name] = _build_divisor(variety, parsed)
    return ProblemFile(variety, divisors, disc)


# ---------------------------------------------------------------------------
# argument plumbing


def _parse_inline_coeffs(text: str) -> dict[str, Scalar]:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError(f"divisor terms look like 'C:1', got {part!r}")
        key, _, raw = part.partition(":")
        key = key.strip()
        if key in out:
            raise ParseError(f"component {key!r} is given twice")
        out[key] = _parse_scalar_field(raw.strip(), key)
    return out


def _load_context(args):
    """Resolve (variety, divisor D, disc) from --file/--preset/--e plus
    --divisor; disc is the file's, or DEFAULT_DISC without a file."""
    if getattr(args, "file", None) is not None:
        try:
            with open(args.file, "rb") as fh:
                pf = parse_problem(fh.read())
        except OSError as exc:
            raise ParseError(str(exc), "--file")
        variety = pf.variety
        spec = args.divisor
        if spec is None:
            raise ParseError("--divisor is required")
        if ":" in spec:
            D = _build_divisor(variety, _parse_inline_coeffs(spec))
        else:
            D = pf.divisor(spec)
        return variety, D, pf.disc
    if getattr(args, "e", None) is not None:
        fibers = tuple(args.fibers.split(",")) if args.fibers else ("F1", "F2", "F3", "F4")
        variety = _surface_model(args.e, fibers, "--e")
    elif getattr(args, "preset", None) is not None:
        variety = _parse_variety(args.preset, "--preset")
    else:
        raise ParseError("need --preset, --e or --file")
    if args.divisor is None:
        raise ParseError("--divisor is required")
    return variety, _build_divisor(variety, _parse_inline_coeffs(args.divisor)), DEFAULT_DISC


def _parse_samples(raw: str | None) -> list[Scalar] | None:
    if raw is None:
        return None
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if tok:
            m = _parse_scalar_field(tok, "samples")
            if m.sign() <= 0:
                raise ParseError(f"sample {m} is not positive")
            out.append(m)
    if not out:
        raise ParseError("no sample listed", "--samples")
    return out


def _default_grid(disc: int, *divisors) -> list[Scalar]:
    """The default sample grid.  Its sqrt(d) sample is taken from the first
    irrational coefficient of the divisors, in order, so that every multiple
    stays in their field; from disc when they are all rational."""
    surds = (c.disc for X in divisors for c in X.coeff_map().values() if c.disc)
    return theorems.default_m_grid(next(surds, disc))


def _emit(args, payload: dict, csv_lines: list[str]):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in csv_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _maybe_scale(D, args):
    if getattr(args, "scale", None) is not None:
        return D.scale(_parse_scalar_field(args.scale, "scale"))
    return D


def _cmd_h0(args):
    variety, D, _ = _load_context(args)
    D = _maybe_scale(D, args)
    value = variety.h0(D)
    _emit(args, {"h0": value}, [str(value)])
    return EXIT_OK


def _cmd_hilbert(args):
    variety, D, disc = _load_context(args)
    samples = _parse_samples(args.samples) or _default_grid(disc, D)
    rows = []
    for m in samples:
        c = variety.h0(D.scale(m))
        normalized = Scalar(math.factorial(variety.dim)) * c / m**variety.dim
        rows.append((m, c, normalized))
    payload = {"rows": [{"m": str(m), "h0": c, "normalized": str(v)} for m, c, v in rows]}
    csv_lines = ["m,h0,normalized"] + [f"{m},{c},{v.decimal(20)}" for m, c, v in rows]
    _emit(args, payload, csv_lines)
    return EXIT_OK


def _cmd_volume(args):
    variety, D, _ = _load_context(args)
    D = _maybe_scale(D, args)
    value = variety.volume(D)
    _emit(args, {"volume": str(value)}, [str(value)])
    return EXIT_OK


def _cmd_big(args):
    variety, D, _ = _load_context(args)
    value = variety.is_big(D)
    _emit(args, {"big": value}, ["true" if value else "false"])
    return EXIT_OK


def _cmd_nef(args):
    variety, D, _ = _load_context(args)
    value = variety.is_nef(D)
    _emit(args, {"nef": value}, ["true" if value else "false"])
    return EXIT_OK


def _resolve_ray(variety, ray):
    """--ray as a ray index of a fan or a component label of a surface model."""
    try:
        return variety.component(ray)
    except KeyError as exc:
        raise ParseError(exc.args[0], "--ray")


def _cmd_sigma(args):
    variety, D, _ = _load_context(args)
    if args.ray is not None:
        value = variety.sigma(D, _resolve_ray(variety, args.ray))
        _emit(args, {"sigma": str(value)}, [str(value)])
        return EXIT_OK
    if isinstance(variety, surf.SurfaceModel):
        raise ParseError("--ray is required")
    values = {variety.ray_name(i): toric.sigma(D, i) for i in range(variety.nrays)}
    payload = {"sigma": {k: str(v) for k, v in values.items()}}
    csv_lines = ["ray,sigma"] + [f"{k},{v}" for k, v in values.items()]
    _emit(args, payload, csv_lines)
    return EXIT_OK


def _cmd_nsigma(args):
    variety, D, _ = _load_context(args)
    if isinstance(variety, surf.SurfaceModel):
        pair = surf.zariski(D)
        payload = {
            "N": {"E": str(pair.N.cE)},
            "P_class": {"E": str(pair.P[0]), "F": str(pair.P[1])},
        }
        csv_lines = ["part,component,coefficient", f"N,E,{pair.N.cE}", f"P,E,{pair.P[0]}", f"P,F,{pair.P[1]}"]
        _emit(args, payload, csv_lines)
        return EXIT_OK
    dec = toric.sigma_decomposition(D)
    names = [variety.ray_name(i) for i in range(variety.nrays)]
    payload = {
        "N": {n: str(c) for n, c in zip(names, dec.nsigma.coeffs)},
        "P": {n: str(c) for n, c in zip(names, dec.psigma.coeffs)},
    }
    csv_lines = ["part,ray,coefficient"]
    csv_lines += [f"N,{n},{c}" for n, c in zip(names, dec.nsigma.coeffs)]
    csv_lines += [f"P,{n},{c}" for n, c in zip(names, dec.psigma.coeffs)]
    _emit(args, payload, csv_lines)
    return EXIT_OK


def _cmd_bplus(args):
    variety, D, _ = _load_context(args)
    locus = sorted(variety.bplus(D))
    _emit(args, {"bplus": locus}, [",".join(locus) if locus else "(empty)"])
    return EXIT_OK


def _cmd_intersect(args):
    variety, D, _ = _load_context(args)
    if args.with_divisor is None:
        raise ParseError("--with is required")
    E = _build_divisor(variety, _parse_inline_coeffs(args.with_divisor))
    value = variety.intersect(D, E)
    _emit(args, {"intersection": str(value)}, [str(value)])
    return EXIT_OK


def _cmd_zariski(args):
    variety, D, _ = _load_context(args)
    if isinstance(variety, toric.Fan):
        raise ParseError("zariski runs on the surface model; use --e or a hirzebruch file")
    pair = surf.zariski(D)
    payload = {
        "P_class": {"E": str(pair.P[0]), "F": str(pair.P[1])},
        "N": {"E": str(pair.N.cE)},
        "volume": str(pair.volume()),
    }
    csv_lines = [
        "part,component,coefficient",
        f"P,E,{pair.P[0]}",
        f"P,F,{pair.P[1]}",
        f"N,E,{pair.N.cE}",
        f"volume,,{pair.volume()}",
    ]
    _emit(args, payload, csv_lines)
    return EXIT_OK


def _check_common(args, which: str):
    variety, D, disc = _load_context(args)
    if args.effective is None:
        raise ParseError("--effective is required")
    E = _build_divisor(variety, _parse_inline_coeffs(args.effective))
    samples = _parse_samples(args.samples) or _default_grid(disc, D, E)
    if which == "A":
        report = theorems.check_theorem_a(variety, D, E, m_grid=samples)
    else:
        report = theorems.check_theorem_b(variety, D, E, m_grid=samples)
    payload = report.to_json()
    csv_lines = [f"clause,{'status'}"]
    csv_lines += [f"{k},{v.status}" for k, v in sorted(report.clause_values.items())]
    csv_lines.append(f"verdict,{report.verdict}")
    _emit(args, payload, csv_lines)
    return EXIT_OK if report.verdict == theorems.CONSISTENT else EXIT_COUNTEREXAMPLE


def _cmd_check_a(args):
    return _check_common(args, "A")


def _cmd_check_b(args):
    return _check_common(args, "B")


def _cmd_corpus(args):
    if args.count < 0:
        raise ParseError(f"must be a non-negative integer, got {args.count}", "--count")
    summary = theorems.corpus_run(args.seed, args.count, which=args.which)
    if args.format == "json":
        print(theorems.summary_to_json(summary))
    else:
        print(f"count,{summary['count']}")
        print(f"consistent,{summary['consistent']}")
        print(f"candidates,{len(summary['candidates'])}")
        print(f"nef_instances,{summary['nef_instances']}")
    return EXIT_OK if not summary["candidates"] else EXIT_COUNTEREXAMPLE


def _cmd_paper_example(args):
    _surface_model(args.e, (), "--e")  # a negative --e is bad input, as for the other commands
    rows = surf.paper_example(args.e, samples=_parse_samples(args.samples))
    payload = {
        "rows": [
            {
                "m": str(r.m),
                "floor_dot_E": r.floor_dot_e,
                "h0_twisted": r.h0_twisted,
                "h0_straight": r.h0_straight,
            }
            for r in rows
        ]
    }
    csv_lines = ["m,floor_dot_E,h0_twisted,h0_straight"]
    csv_lines += [f"{r.m},{r.floor_dot_e},{r.h0_twisted},{r.h0_straight}" for r in rows]
    _emit(args, payload, csv_lines)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_variety_args(sub):
    sub.add_argument("--preset", help="fan preset: P2, P3, P1xP1, F1, F2, ...")
    sub.add_argument("--file", help="JSON problem file")
    sub.add_argument("--e", type=int, help="Hirzebruch surface invariant (surface model)")
    sub.add_argument("--fibers", help="comma list of fiber labels for --e")
    sub.add_argument("--divisor", help="inline coefficients 'C:1,E:1' or a name from --file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rdiv", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    subs = parser.add_subparsers(dest="command", required=True)

    for name, fn, extra in (
        ("h0", _cmd_h0, ("scale",)),
        ("hilbert", _cmd_hilbert, ("samples",)),
        ("volume", _cmd_volume, ("scale",)),
        ("sigma", _cmd_sigma, ("ray",)),
        ("nsigma", _cmd_nsigma, ()),
        ("bplus", _cmd_bplus, ()),
        ("nef", _cmd_nef, ()),
        ("big", _cmd_big, ()),
        ("intersect", _cmd_intersect, ("with",)),
        ("zariski", _cmd_zariski, ()),
        ("check-a", _cmd_check_a, ("effective", "samples")),
        ("check-b", _cmd_check_b, ("effective", "samples")),
    ):
        sub = subs.add_parser(name, parents=[common])
        _add_variety_args(sub)
        if "scale" in extra:
            sub.add_argument("--scale", help="scalar multiplier applied to the divisor")
        if "samples" in extra:
            sub.add_argument("--samples", help="comma list of positive scalar literals")
        if "ray" in extra:
            sub.add_argument("--ray", help="ray name or index")
        if "with" in extra:
            sub.add_argument("--with", dest="with_divisor", help="second divisor 'E:1'")
        if "effective" in extra:
            sub.add_argument("--effective", help="effective divisor 'E:1'")
        sub.set_defaults(fn=fn)

    sub = subs.add_parser("corpus", parents=[common])
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--count", type=int, default=10)
    sub.add_argument("--which", choices=("A", "B", "both"), default="both")
    sub.set_defaults(fn=_cmd_corpus)

    sub = subs.add_parser("paper-example", parents=[common])
    sub.add_argument("--e", type=int, default=1)
    sub.add_argument("--samples", help="comma list of positive scalar literals")
    sub.set_defaults(fn=_cmd_paper_example)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ExampleViolated as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except RdivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
