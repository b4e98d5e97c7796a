"""Command-line front end.

Subcommands cover the library surface: section counts, Hilbert tables,
volumes, sigma multiplicities and decompositions, base loci, nef/big
queries, intersection numbers, surface Zariski decompositions, the two
theorem checkers, the randomized corpus and the irrational-twist example.

Exit codes: 0 ok, 2 domain error, 3 parse error, 4 counterexample
candidate or violated example.

The one-value subcommands (h0, volume, big, nef, bplus) share one handler,
which reads the protocol method to ask and the rendering of its value off
a table; check-a and check-b share another.

Each subcommand imports the layers it runs on when it runs: a fan query
loads toric and the polytope layers under it, a surface query loads those
and the surface model, and only the checkers and the corpus load theorems.
The variety's label_kind ("ray" on a fan, "component" on a surface model)
tells the two apart without importing either class.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import namedtuple

from .errors import ExampleViolated, ParseError, RdivError, UnsupportedModel
from .scalars import Scalar, parse_scalar

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PARSE = 3
EXIT_COUNTEREXAMPLE = 4

DEFAULT_DISC = 2


# ---------------------------------------------------------------------------
# problem files


class ProblemFile(namedtuple("ProblemFile", "variety divisors disc")):
    """Validated problem description: a variety (a Fan or a SurfaceModel),
    its named divisors, built and validated, and the file's disc."""

    __slots__ = ()

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
        from .toric import preset_fan

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
    from .toric import Fan

    try:
        return Fan(len(rays[0]) if rays else 0, rays, cones, tuple(sorted(names.items())))
    except (ValueError, RdivError) as exc:
        raise ParseError(f"InvariantViolation: {exc}", path)


def _is_json_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _surface_model(e: int, fibers: tuple[str, ...], path: str):
    from .surface import SurfaceModel

    try:
        return SurfaceModel(e, fibers)
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
    import json

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
    pf = None
    if getattr(args, "file", None) is not None:
        try:
            with open(args.file, "rb") as fh:
                pf = parse_problem(fh.read())
        except OSError as exc:
            raise ParseError(str(exc), "--file")
        variety = pf.variety
    elif getattr(args, "e", None) is not None:
        fibers = tuple(args.fibers.split(",")) if args.fibers is not None else ("F1", "F2", "F3", "F4")
        variety = _surface_model(args.e, fibers, "--e")
    elif getattr(args, "preset", None) is not None:
        variety = _parse_variety(args.preset, "--preset")
    else:
        raise ParseError("need --preset, --e or --file")
    if args.divisor is None:
        raise ParseError("--divisor is required")
    # with a file, --divisor is a name from it unless it has inline terms
    if pf is not None and ":" not in args.divisor:
        return variety, pf.divisor(args.divisor), pf.disc
    D = _build_divisor(variety, _parse_inline_coeffs(args.divisor))
    return variety, D, DEFAULT_DISC if pf is None else pf.disc


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
    from .theorems import default_m_grid

    surds = (c.disc for X in divisors for c in X.coeff_map().values() if c.disc)
    return default_m_grid(next(surds, disc))


def _emit(args, payload: dict, csv_lines: list[str]):
    if args.format == "json":
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        for line in csv_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _bool_csv(value: bool) -> str:
    return "true" if value else "false"


# The one-value subcommands: the protocol method each one asks, and how its
# value is written as the JSON value and as the CSV line.
_QUERIES = {
    "h0": ("h0", int, str),
    "volume": ("volume", str, str),
    "big": ("is_big", bool, _bool_csv),
    "nef": ("is_nef", bool, _bool_csv),
    "bplus": ("bplus", sorted, lambda locus: ",".join(sorted(locus)) or "(empty)"),
}


def _cmd_query(args):
    variety, D, _ = _load_context(args)
    if getattr(args, "scale", None) is not None:
        D = D.scale(_parse_scalar_field(args.scale, "scale"))
    method, as_json, as_csv = _QUERIES[args.command]
    value = getattr(variety, method)(D)
    _emit(args, {args.command: as_json(value)}, [as_csv(value)])
    return EXIT_OK


def _cmd_hilbert(args):
    variety, D, disc = _load_context(args)
    samples = _parse_samples(args.samples) or _default_grid(disc, D)
    rows = []
    for m in samples:
        c = variety.h0(D, m)
        normalized = Scalar(math.factorial(variety.dim)) * c / m**variety.dim
        rows.append((m, c, normalized))
    payload = {"rows": [{"m": str(m), "h0": c, "normalized": str(v)} for m, c, v in rows]}
    csv_lines = ["m,h0,normalized"] + [f"{m},{c},{v.decimal(20)}" for m, c, v in rows]
    _emit(args, payload, csv_lines)
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
    if variety.label_kind != "ray":
        raise ParseError("--ray is required")
    values = {variety.ray_name(i): variety.sigma(D, i) for i in range(variety.nrays)}
    payload = {"sigma": {k: str(v) for k, v in values.items()}}
    csv_lines = ["ray,sigma"] + [f"{k},{v}" for k, v in values.items()]
    _emit(args, payload, csv_lines)
    return EXIT_OK


def _cmd_nsigma(args):
    context = variety, D, _ = _load_context(args)
    if variety.label_kind != "ray":
        return _cmd_zariski(args, context)
    from .toric import sigma_decomposition

    dec = sigma_decomposition(D)
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


def _cmd_intersect(args):
    variety, D, _ = _load_context(args)
    if args.with_divisor is None:
        raise ParseError("--with is required")
    E = _build_divisor(variety, _parse_inline_coeffs(args.with_divisor))
    value = variety.intersect(D, E)
    _emit(args, {"intersection": str(value)}, [str(value)])
    return EXIT_OK


def _cmd_zariski(args, context=None):
    """The Zariski pair of D; nsigma on a surface passes the context it
    loaded, so a --file is read once."""
    variety, D, _ = context or _load_context(args)
    if variety.label_kind == "ray":
        raise ParseError("zariski runs on the surface model; use --e or a hirzebruch file")
    from .surface import zariski

    pair = zariski(D)
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
        f"volume,,{payload['volume']}",
    ]
    _emit(args, payload, csv_lines)
    return EXIT_OK


def _cmd_check(args):
    from . import theorems

    variety, D, disc = _load_context(args)
    if args.effective is None:
        raise ParseError("--effective is required")
    E = _build_divisor(variety, _parse_inline_coeffs(args.effective))
    samples = _parse_samples(args.samples) or _default_grid(disc, D, E)
    check = theorems.check_theorem_a if args.command == "check-a" else theorems.check_theorem_b
    report = check(variety, D, E, m_grid=samples)
    csv_lines = ["clause,status"] + [f"{k},{v.status}" for k, v in sorted(report.clause_values.items())]
    csv_lines.append(f"verdict,{report.verdict}")
    _emit(args, report.to_json(), csv_lines)
    return EXIT_OK if report.verdict == theorems.CONSISTENT else EXIT_COUNTEREXAMPLE


def _cmd_corpus(args):
    if args.count < 0:
        raise ParseError(f"must be a non-negative integer, got {args.count}", "--count")
    from . import theorems

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
    from .surface import paper_example

    e = 1 if args.e is None else args.e
    _surface_model(e, (), "--e")  # a negative --e is bad input, as for the other commands
    rows = paper_example(e, samples=_parse_samples(args.samples))
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


# The options by flag, and each subcommand's handler and flags besides
# --format, the variety's first for every subcommand that reads a divisor.
_OPTIONS = {
    "--preset": {"help": "fan preset: P2, P3, P1xP1, F1, F2, ..."},
    "--file": {"help": "JSON problem file"},
    "--e": {"type": int, "help": "Hirzebruch surface invariant (surface model)"},
    "--fibers": {"help": "comma list of fiber labels for --e"},
    "--divisor": {"help": "inline coefficients 'C:1,E:1' or a name from --file"},
    "--scale": {"help": "scalar multiplier applied to the divisor"},
    "--samples": {"help": "comma list of positive scalar literals"},
    "--ray": {"help": "ray name or index"},
    "--with": {"dest": "with_divisor", "help": "second divisor 'E:1'"},
    "--effective": {"help": "effective divisor 'E:1'"},
    "--seed": {"type": int, "default": 1},
    "--count": {"type": int, "default": 10},
    "--which": {"choices": ("A", "B", "both"), "default": "both"},
}
_VARIETY = ("--preset", "--file", "--e", "--fibers", "--divisor")
_COMMANDS = {
    "h0": (_cmd_query, _VARIETY + ("--scale",)),
    "hilbert": (_cmd_hilbert, _VARIETY + ("--samples",)),
    "volume": (_cmd_query, _VARIETY + ("--scale",)),
    "sigma": (_cmd_sigma, _VARIETY + ("--ray",)),
    "nsigma": (_cmd_nsigma, _VARIETY),
    "bplus": (_cmd_query, _VARIETY),
    "nef": (_cmd_query, _VARIETY),
    "big": (_cmd_query, _VARIETY),
    "intersect": (_cmd_intersect, _VARIETY + ("--with",)),
    "zariski": (_cmd_zariski, _VARIETY),
    "check-a": (_cmd_check, _VARIETY + ("--samples", "--effective")),
    "check-b": (_cmd_check, _VARIETY + ("--samples", "--effective")),
    "corpus": (_cmd_corpus, ("--seed", "--count", "--which")),
    "paper-example": (_cmd_paper_example, ("--e", "--samples")),
}


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, named by the command line: a run
    builds only the parser it uses."""
    fn, flags = _COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"rdiv {command}")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])
    parser.set_defaults(command=command, fn=fn)
    return parser


def run(argv) -> int:
    """Run one command and return its exit code.  Python's limit on
    int-to-str conversion (3.10.7 and later) is lifted for the command and
    put back after it, so an int answer of any length, an h0 count or a
    hilbert row in CSV or as a JSON number, prints, and the caller keeps
    its limit.  A Scalar answer prints at any length without the lift."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    # the command name picks the parser that reads the rest of argv, so
    # "rdiv --help" lists the subcommands and "rdiv h0 --help" the options
    top = argparse.ArgumentParser(prog="rdiv", description=__doc__)
    top.add_argument("command", choices=_COMMANDS)
    top.add_argument("args", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    try:
        head = top.parse_args(argv)
        args = build_parser(head.command).parse_args(head.args)
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
    """The rdiv process."""
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
