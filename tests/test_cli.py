import ast
import contextlib
import functools
import io
import itertools
import json
import math
import re
import shlex
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fresh

import rdiv
import rdiv.toric
from rdiv import cli
from rdiv.cli import (
    EXIT_COUNTEREXAMPLE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    parse_problem,
    run,
)


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- subcommands -------------------------------------------------------------


CLI_GOLDEN = json.loads((Path(__file__).parents[1] / "perfbench" / "goldens" / "cli.json").read_text())


@pytest.mark.parametrize("value", [None, "1000000000000000000000", "-3", "0", "4"])
def test_cli_output_does_not_depend_on_rdiv_disc(capsys, monkeypatch, value):
    if value is None:
        monkeypatch.delenv("RDIV_DISC", raising=False)
    else:
        monkeypatch.setenv("RDIV_DISC", value)
    for argv, golden in zip(CLI_GOLDEN["argv"], CLI_GOLDEN["outputs"]):
        code, out, _ = invoke(capsys, *argv)
        assert {"exit": code, "stdout": out} == golden, argv


@pytest.mark.parametrize(
    "argv",
    [
        ("hilbert", "--preset", "F1", "--divisor", "C:1", "--samples", "1,2,3", "--jobs", "2"),
        ("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "1,2,3", "--jobs", "100000"),
        ("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "1,2,3,4,5", "--jobs", "2"),
        ("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "1,2,3", "--jobs", "0"),
        ("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "1", "--jobs", "-3"),
    ],
    ids=shlex.join,
)
def test_hilbert_rejects_the_removed_jobs_option(capsys, argv):
    # the same argvs without --jobs are CLI_PINS rows; the line before the
    # last is argparse's usage text, which differs across Python versions
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.splitlines()[-1] == f"rdiv hilbert: error: unrecognized arguments: --jobs {argv[-1]}"


def test_a_huge_sqrt_literal_is_a_parse_error_in_bounded_time():
    # trial division up to the square root of 10**16 + 61 ran for minutes
    argv = ("h0", "--preset", "P2", "--divisor", "H:sqrt(10000000000000061)")
    code, out, err = fresh("-m", "rdiv.cli", *argv, timeout=10)
    assert code == EXIT_PARSE, err
    assert "digits" in err and out == ""


def _digits(text: str) -> int:
    """The integer a decimal string writes, read digit by digit, since int()
    refuses strings over sys.get_int_max_str_digits() digits."""
    return functools.reduce(lambda n, d: 10 * n + int(d), text, 0)


@pytest.mark.parametrize("command", ["volume", "h0"])
def test_an_exact_answer_over_the_str_digit_limit_is_printed(command):
    # vol(mH) = m^2 = 10**5000 and h0(mH) = C(m + 2, 2) on P2 have over the
    # 4,300 digits Python converts by default; the answer is still exact,
    # one line of digits with no leading zero
    m = 10**2500
    code, out, err = fresh("-m", "rdiv.cli", command, "--preset", "P2", "--divisor", "H:1", "--scale", str(m))
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith("\n") and not out.startswith("0")
    assert _digits(out[:-1]) == (m * m if command == "volume" else math.comb(m + 2, 2))


def test_h0_of_p3_at_a_billion_is_exact_in_a_fresh_process_within_20_s():
    # a 3-fold count is a chamber sum whose cost does not grow with m:
    # C(10^9 + 3, 3) sections of 10^9 H on P3
    argv = ("h0", "--preset", "P3", "--divisor", "H:1", "--scale", "1000000000")
    assert fresh("-m", "rdiv.cli", *argv, timeout=20) == (EXIT_OK, f"{math.comb(10**9 + 3, 3)}\n", "")


def _run_at_the_default_digit_limit(argv):
    """(exit code, stdout, stderr) of cli.run(argv) under the interpreter's
    default limit of 4,300 digits on int-to-str conversion, which cli.run
    must leave as it found it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        if limit is not None:
            assert sys.get_int_max_str_digits() == 4300
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    return code, out.getvalue(), err.getvalue()


def test_an_exact_answer_over_the_str_digit_limit_is_printed_in_process():
    # Scalar prints the 5,001 digits of vol(10**2500 H) = 10**5000 on P2 on its own
    argv = ["volume", "--preset", "P2", "--divisor", "H:1", "--scale", "1" + "0" * 2500]
    assert _run_at_the_default_digit_limit(argv) == (EXIT_OK, "1" + "0" * 5000 + "\n", "")


P2_H = ["--preset", "P2", "--divisor", "H:1"]


@pytest.mark.parametrize(
    "argv, read, expected",
    [
        # h0(mH) = C(m + 2, 2) on P2 at m = 10**2500, in CSV and as a JSON number
        (["h0", *P2_H, "--scale", "1" + "0" * 2500], str.strip, math.comb(10**2500 + 2, 2)),
        (
            ["h0", *P2_H, "--scale", "1" + "0" * 2500, "--format", "json"],
            lambda out: out.strip().removeprefix('{"h0": ').removesuffix("}"),
            math.comb(10**2500 + 2, 2),
        ),
        (
            ["hilbert", *P2_H, "--samples", "1" + "0" * 2500],
            lambda out: out.splitlines()[1].split(",")[1],
            math.comb(10**2500 + 2, 2),
        ),
        # a 3-fold at m = 10**1500: C(m + 3, 3) has 4,500 digits
        (
            ["h0", "--preset", "P3", "--divisor", "H:1", "--scale", "1" + "0" * 1500],
            str.strip,
            math.comb(10**1500 + 3, 3),
        ),
    ],
    ids=["h0-csv", "h0-json", "hilbert-csv", "h0-P3"],
)
def test_an_int_answer_over_the_str_digit_limit_is_printed_in_process(argv, read, expected):
    code, out, err = _run_at_the_default_digit_limit(argv)
    assert code == EXIT_OK, err
    assert _digits(read(out)) == expected


def test_cli_import_loads_no_process_pool():
    code = "import sys, rdiv.cli; print('concurrent.futures' in sys.modules)"
    assert fresh("-c", code) == (0, "False\n", "")


# The rdiv modules a cold `python -m rdiv.cli <subcommand>` loads besides the
# front end, which runs as __main__: the layers under the variety it names,
# plus theorems for the checkers.  The surface model reads its numbers off
# the toric F_e, so it loads the fan layers too.
_FAN_LAYERS = {"rdiv", "rdiv.errors", "rdiv.scalars", "rdiv.linalg", "rdiv.polyhedra", "rdiv.toric"}
_SURFACE_LAYERS = _FAN_LAYERS | {"rdiv.surface"}

# runs `python -m rdiv.cli ARGS`, then writes the names in sys.modules to stderr
_LOADED_BY_CLI = """
import runpy, sys
code = 0
try:
    runpy.run_module("rdiv.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stderr.write("\\n" + " ".join(sys.modules))
sys.exit(code)
"""


def _loaded_modules(*argv):
    code, _, err = fresh("-c", _LOADED_BY_CLI, *argv)
    assert code == EXIT_OK, err
    return set(err.rpartition("\n")[2].split())


@pytest.mark.parametrize("argv", CLI_GOLDEN["argv"], ids=" ".join)
def test_a_cold_subcommand_loads_only_the_layers_it_uses(argv):
    loaded = _loaded_modules(*argv)
    expected = _SURFACE_LAYERS if "--e" in argv or argv[0] == "paper-example" else _FAN_LAYERS
    if argv[0].startswith("check-"):
        expected = expected | {"rdiv.theorems"}
    assert {m for m in loaded if m.split(".")[0] == "rdiv"} == expected
    assert "dataclasses" not in loaded


def test_import_rdiv_loads_no_submodule():
    code = "import sys, rdiv; print(sorted(m for m in sys.modules if m.split('.')[0] == 'rdiv'))"
    assert fresh("-c", code) == (0, "['rdiv']\n", "")


def test_a_star_import_binds_every_public_name():
    # the package's public names load on first use; each one resolves, with
    # the digit limit lifted as a caller may lift it
    code = (
        "import sys; hasattr(sys, 'set_int_max_str_digits') and sys.set_int_max_str_digits(0); "
        "from rdiv import *; import rdiv; print([n for n in rdiv.__all__ if n not in globals()])"
    )
    assert fresh("-c", code) == (0, "[]\n", "")


def test_every_public_name_resolves_and_is_listed():
    for name in rdiv.__all__:
        assert getattr(rdiv, name) is not None
        assert name in dir(rdiv)
    assert rdiv.Fan is rdiv.toric.Fan and rdiv.SurfaceModel.__module__ == "rdiv.surface"
    with pytest.raises(AttributeError, match="no_such_name"):
        rdiv.no_such_name


# The problem files the rows read, by name: a row's "--file NAME" runs on
# the text here, written to the directory the row runs in.  A name that is
# not a key here, such as no-such-problem.json, names no file.
P2_RAYS = [[1, 0], [0, 1], [-1, -1]]
P2_CONES = [[0, 1], [1, 2], [2, 0]]
R012 = {"r0": "1", "r1": "1", "r2": "1"}


def _fan_file(rays=P2_RAYS, cones=P2_CONES, divisors=None, **fields) -> str:
    """The text of a problem file on the fan of the rays and cones, P2's by
    default, with the named divisors and any more fields of the fan."""
    return json.dumps({"variety": {"rays": rays, "cones": cones, **fields}, "divisors": divisors or {}})


PROBLEM_FILES = {
    # P2 with a rational D and "disc": 5, so the default grid's surd is sqrt(5)
    "p2-h-disc-5.json": '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 5}',
    # P3 blown up at a torus-fixed point: r4 = (1, 1, 1) subdivides the cone
    # of r0, r1, r2, so four rows of r3:1's section polytope meet at the origin
    "p3-blown-up-at-a-point.json": _fan_file(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1]],
        [[0, 1, 4], [0, 2, 4], [1, 2, 4], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    ),
    "p2-inline-fan.json": _fan_file(divisors={"D": {"r2": "1"}}),
    "f1-fan-with-names.json": _fan_file(
        [[1, 0], [0, 1], [-1, 1], [0, -1]],
        [[0, 1], [1, 2], [2, 3], [3, 0]],
        {"D": {"C": "1", "E": "1"}},
        names={"E": 1, "C": 3},
    ),
    # the surface model F_1 with four named fibers and D = C + sqrt(2)(p1 - p2)
    "f1-four-named-fibers.json": (
        '{"variety": {"kind": "hirzebruch", "e": 1, "fibers": ["p1", "p2", "p3", "p4"]}, '
        '"divisors": {"D": {"C": "1", "p1": "sqrt(2)", "p2": "-sqrt(2)"}}, "disc": 2}'
    ),
    # a sqrt(3) literal needs "disc": 3, and the default disc is 2
    "c-sqrt3-default-disc.json": '{"variety": "F1", "divisors": {"D": {"C": "sqrt(3)"}}}',
    "c-sqrt3-disc-2.json": '{"variety": "F1", "divisors": {"D": {"C": "sqrt(3)"}}, "disc": 2}',
    "c-sqrt3-disc-3.json": '{"variety": "F1", "divisors": {"D": {"C": "sqrt(3)"}, "R": {"C": "1"}}, "disc": 3}',
    # malformed files: a repeated key, which only raw text can hold, a field
    # of the wrong type or value, an unknown key, divisor or label
    "repeated-coefficient.json": '{"variety": "P2", "divisors": {"D": {"H": "1", "H": "2"}}}',
    "repeated-divisor.json": '{"variety": "P2", "divisors": {"D": {"H": "1"}, "D": {"H": "2"}}}',
    "repeated-variety.json": '{"variety": "F1", "variety": "P2", "divisors": {"D": {"H": "1"}}}',
    "divisors-list.json": '{"variety": "P2", "divisors": []}',
    "divisors-string.json": '{"variety": "P2", "divisors": "D"}',
    "bool-e.json": '{"variety": {"kind": "hirzebruch", "e": true}, "divisors": {"D": {"C": "1"}}}',
    "bool-disc.json": '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": true}',
    "disc-1.json": '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 1}',
    "disc-4.json": '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 4}',
    "disc-8.json": '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 8}',
    "disc-22-digits.json": '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 1000000000000000000000}',
    "unknown-divisor.json": '{"variety": "P2", "divisors": {"E": {"H": "1"}}}',
    "unknown-key.json": '{"variety": "F1", "divisors": {"D": {"C": "1", "E": "1"}}, "disc": 2, "extra": 1}',
    "c-over-zero.json": '{"variety": "F1", "divisors": {"D": {"C": "1/0"}}}',
    "h-and-r2.json": '{"variety": "P2", "divisors": {"D": {"H": "1", "r2": "2"}}}',
    "smooth-surface-kind.json": '{"variety": {"kind": "smooth_surface", "e": 1}, "divisors": {}}',
    # fans that break an invariant of a complete simplicial fan, or hold a
    # number that is not a JSON integer
    "nonprimitive-ray.json": _fan_file([[2, 2], [0, 1], [-1, -1]]),
    "cone-ray-out-of-range.json": _fan_file(cones=[[0, 1], [1, 5], [2, 0]], divisors={"D": {"r0": "1"}}),
    "cone-index-past-the-end.json": _fan_file(cones=[[0, 1], [1, 5], [2, 0]], divisors={"D": R012}),
    "cone-index-negative.json": _fan_file(cones=[[0, 1], [1, -1], [-1, 0]], divisors={"D": R012}),
    "empty-fan.json": _fan_file([], [], {"D": {}}),
    "no-cones.json": _fan_file(cones=[], divisors={"D": R012}),
    "uncovered-ray.json": _fan_file(P2_RAYS + [[1, 1]], divisors={"D": R012}),
    "double-cover.json": _fan_file(
        [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]],
        [[0, 2], [2, 4], [4, 6], [6, 1], [1, 3], [3, 5], [5, 7], [7, 0]],
        {"D": {"r2": "1"}},
    ),
    "folded-fan.json": _fan_file(
        [[1, 0], [1, 1], [0, 1], [0, -1]], [[0, 2], [1, 2], [1, 3], [0, 3]], {"D": {"r2": "1"}}
    ),
    "float-ray.json": _fan_file([[1.9, 0], [0, 1], [-1, -1]], divisors={"D": {"r2": "1"}}),
    "bool-ray.json": _fan_file([[1, 0], [0, True], [-1, -1]], divisors={"D": {"r2": "1"}}),
    "float-cone.json": _fan_file(cones=[[0, 1], [1, 2.0], [2, 0]], divisors={"D": {"r2": "1"}}),
    # P2's fan with ray names that are not a map of new labels to its rays
    "names-h-to-x.json": _fan_file(names={"H": "x"}),
    "name-past-the-end.json": _fan_file(names={"X": 7}),
    "name-negative.json": _fan_file(names={"X": -1}),
    "name-shadows-r1.json": _fan_file(names={"r1": 0}),
    "names-float-and-bool.json": _fan_file(names={"X": 1.7, "Y": True}),
    "names-bool.json": _fan_file(names={"Y": True}),
    "names-integral-float.json": _fan_file(names={"X": 1.0}),
    "names-string.json": _fan_file(names={"X": "1"}),
    "names-null.json": _fan_file(names={"X": None}),
    "names-not-an-object.json": _fan_file(names=[["X", 1]]),
}


# Every run of rdiv that needs no patch and no fresh interpreter, byte for
# byte: its argv, exit code, stdout and stderr.  Each subcommand has an
# exit-0 row on every variety kind it reads and in each format, and one that
# reads a problem file; the checkers' preconditions and their walk of clause
# iv, answers on sqrt(2) divisors and 3-folds, and the domain and parse
# errors follow.
SQRT2_P3 = "r0:1/2*sqrt(2),r1:1,H:1"
CLI_PINS = [
    # each one-value query on a preset fan and on the surface model, in csv
    # and in json
    (("h0", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--scale", "3", "--format", "csv"),
     EXIT_OK, "36\n", ""),
    (("h0", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--scale", "3", "--format", "csv"), EXIT_OK, "36\n", ""),
    (("volume", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--scale", "sqrt(2)", "--format", "csv"),
     EXIT_OK, "6+4*sqrt(2)\n", ""),
    (("volume", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--scale", "sqrt(2)", "--format", "csv"),
     EXIT_OK, "6+4*sqrt(2)\n", ""),
    (("big", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--format", "csv"), EXIT_OK, "true\n", ""),
    (("big", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--format", "csv"), EXIT_OK, "true\n", ""),
    (("nef", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--format", "csv"), EXIT_OK, "false\n", ""),
    (("nef", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--format", "csv"), EXIT_OK, "false\n", ""),
    (("bplus", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--format", "csv"), EXIT_OK, "E\n", ""),
    (("bplus", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--format", "csv"), EXIT_OK, "E\n", ""),
    (("h0", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--scale", "3", "--format", "json"),
     EXIT_OK, '{"h0": 36}\n', ""),
    (("h0", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--scale", "3", "--format", "json"),
     EXIT_OK, '{"h0": 36}\n', ""),
    (("volume", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--scale", "sqrt(2)", "--format", "json"),
     EXIT_OK, '{"volume": "6+4*sqrt(2)"}\n', ""),
    (("volume", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--scale", "sqrt(2)", "--format", "json"),
     EXIT_OK, '{"volume": "6+4*sqrt(2)"}\n', ""),
    (("big", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--format", "json"), EXIT_OK, '{"big": true}\n', ""),
    (("big", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--format", "json"), EXIT_OK, '{"big": true}\n', ""),
    (("nef", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--format", "json"),
     EXIT_OK, '{"nef": false}\n', ""),
    (("nef", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--format", "json"), EXIT_OK, '{"nef": false}\n', ""),
    (("bplus", "--preset", "F1", "--divisor", "C:1,E:3/2,F:sqrt(2)", "--format", "json"),
     EXIT_OK, '{"bplus": ["E"]}\n', ""),
    (("bplus", "--e", "1", "--divisor", "C:1,E:3/2,F1:sqrt(2)", "--format", "json"), EXIT_OK, '{"bplus": ["E"]}\n', ""),
    (("volume", "--preset", "F1", "--divisor", "C:1,E:1"), EXIT_OK, "1\n", ""),
    (("volume", "--preset", "P2", "--divisor", "H:1", "--scale", "sqrt(2)"), EXIT_OK, "2\n", ""),
    (("h0", "--preset", "P2", "--divisor", "r2:1", "--scale", "5"), EXIT_OK, "21\n", ""),
    (("nef", "--preset", "F1", "--divisor", "C:1"), EXIT_OK, "true\n", ""),
    (("nef", "--preset", "F1", "--divisor", "C:1,E:1"), EXIT_OK, "false\n", ""),
    (("big", "--preset", "F1", "--divisor", "F:1"), EXIT_OK, "false\n", ""),
    (("bplus", "--preset", "F1", "--divisor", "C:1"), EXIT_OK, "E\n", ""),
    (("bplus", "--preset", "P2", "--divisor", "H:1"), EXIT_OK, "(empty)\n", ""),
    (("sigma", "--preset", "F1", "--divisor", "C:1,E:1", "--ray", "E"), EXIT_OK, "1\n", ""),
    (("intersect", "--preset", "F1", "--divisor", "C:1", "--with", "E:1"), EXIT_OK, "0\n", ""),
    (("intersect", "--preset", "F1", "--divisor", "C:1", "--with", "E:1", "--format", "json"),
     EXIT_OK, '{"intersection": "0"}\n', ""),
    (("intersect", "--e", "2", "--divisor", "C:1", "--with", "E:1"), EXIT_OK, "0\n", ""),
    (("intersect", "--e", "2", "--divisor", "C:1", "--with", "E:1", "--format", "json"),
     EXIT_OK, '{"intersection": "0"}\n', ""),
    (("sigma", "--e", "1", "--divisor", "C:1,E:2", "--ray", "E"), EXIT_OK, "2\n", ""),
    (("sigma", "--e", "1", "--divisor", "C:1,E:2", "--ray", "E", "--format", "json"), EXIT_OK, '{"sigma": "2"}\n', ""),
    (("nsigma", "--preset", "F1", "--divisor", "C:1,E:2"),
     EXIT_OK, "part,ray,coefficient\nN,F,0\nN,E,2\nN,r2,0\nN,C,0\nP,F,0\nP,E,0\nP,r2,0\nP,C,1\n", ""),
    (("nsigma", "--preset", "F1", "--divisor", "C:1,E:2", "--format", "json"),
     EXIT_OK, '{"N": {"C": "0", "E": "2", "F": "0", "r2": "0"}, "P": {"C": "1", "E": "0", "F": "0", "r2": "0"}}\n', ""),
    # N_sigma of a surface class is its Zariski negative part: nsigma prints
    # the bytes of zariski
    (("zariski", "--e", "1", "--divisor", "C:1,E:2", "--format", "csv"),
     EXIT_OK, "part,component,coefficient\nP,E,1\nP,F,1\nN,E,2\nvolume,,1\n", ""),
    (("nsigma", "--e", "1", "--divisor", "C:1,E:2", "--format", "csv"),
     EXIT_OK, "part,component,coefficient\nP,E,1\nP,F,1\nN,E,2\nvolume,,1\n", ""),
    (("zariski", "--e", "1", "--divisor", "C:1,E:2", "--format", "json"),
     EXIT_OK, '{"N": {"E": "2"}, "P_class": {"E": "1", "F": "1"}, "volume": "1"}\n', ""),
    (("nsigma", "--e", "1", "--divisor", "C:1,E:2", "--format", "json"),
     EXIT_OK, '{"N": {"E": "2"}, "P_class": {"E": "1", "F": "1"}, "volume": "1"}\n', ""),
    # the Q(sqrt(2)) Zariski decomposition on F_2, C nef on F_1, and N_sigma
    # on F_0 = P1 x P1, where no class has a negative part
    (("zariski", "--e", "2", "--divisor", "C:1,E:3,F1:1/2*sqrt(2)", "--format", "json"),
     EXIT_OK,
     '{"N": {"E": "3-1/4*sqrt(2)"}, "P_class": {"E": "1+1/4*sqrt(2)", "F": "2+1/2*sqrt(2)"}, '
     '"volume": "9/4+sqrt(2)"}\n',
     ""),
    (("nef", "--e", "1", "--divisor", "C:1", "--format", "json"), EXIT_OK, '{"nef": true}\n', ""),
    (("nsigma", "--e", "0", "--divisor", "C:1,F1:1"),
     EXIT_OK, "part,component,coefficient\nP,E,1\nP,F,1\nN,E,0\nvolume,,2\n", ""),
    # hilbert prints m, h0(mD) and dim! h0(mD) / m^dim: in csv to 20 places,
    # in json exactly, and an irrational m as its literal
    (("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "1,2,3"),
     EXIT_OK,
     "m,h0,normalized\n1,3,6.00000000000000000000\n2,6,3.00000000000000000000\n3,10,2.22222222222222222222\n",
     ""),
    (("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "sqrt(2)"),
     EXIT_OK, "m,h0,normalized\nsqrt(2),3,3.00000000000000000000\n", ""),
    (("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "2", "--format", "json"),
     EXIT_OK, '{"rows": [{"h0": 6, "m": "2", "normalized": "3"}]}\n', ""),
    (("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "1,2,3,4,5"),
     EXIT_OK,
     "m,h0,normalized\n1,3,6.00000000000000000000\n2,6,3.00000000000000000000\n3,10,2.22222222222222222222\n"
     "4,15,1.87500000000000000000\n5,21,1.68000000000000000000\n",
     ""),
    (("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "1"),
     EXIT_OK, "m,h0,normalized\n1,3,6.00000000000000000000\n", ""),
    (("hilbert", "--preset", "F1", "--divisor", "C:1", "--samples", "1,2,3"),
     EXIT_OK,
     "m,h0,normalized\n1,3,6.00000000000000000000\n2,6,3.00000000000000000000\n3,10,2.22222222222222222222\n",
     ""),
    # C + sqrt(2)(F1 - F2) is R-linearly equivalent to C, which has 3 and 6
    # sections at m = 1, 2; its round-down loses a fiber and has 1 and 3
    (("hilbert", "--e", "1", "--divisor", "C:1,F1:sqrt(2),F2:-sqrt(2)", "--samples", "1,2"),
     EXIT_OK, "m,h0,normalized\n1,1,2.00000000000000000000\n2,3,1.50000000000000000000\n", ""),
    (("hilbert", "--e", "1", "--divisor", "C:1,F1:sqrt(2),F2:-sqrt(2)", "--samples", "1,2", "--format", "json"),
     EXIT_OK, '{"rows": [{"h0": 1, "m": "1", "normalized": "2"}, {"h0": 3, "m": "2", "normalized": "3/2"}]}\n', ""),
    # the default grid takes its surd from the divisor field, of D and then of
    # E: floor(sqrt(3) * sqrt(3)) = 3, so ten sections of 3H on P2, and of 3C
    # on F1
    (("hilbert", "--preset", "P2", "--divisor", "H:sqrt(3)"),
     EXIT_OK,
     "m,h0,normalized\n1,3,6.00000000000000000000\n2,10,5.00000000000000000000\n3,21,4.66666666666666666666\n"
     "5/2,15,4.80000000000000000000\nsqrt(3),10,6.66666666666666666666\n",
     ""),
    (("hilbert", "--e", "1", "--divisor", "C:sqrt(3)"),
     EXIT_OK,
     "m,h0,normalized\n1,3,6.00000000000000000000\n2,10,5.00000000000000000000\n3,21,4.66666666666666666666\n"
     "5/2,15,4.80000000000000000000\nsqrt(3),10,6.66666666666666666666\n",
     ""),
    # a rational divisor's default grid takes sqrt(d) for the disc d: 2
    # without a file, else the file's
    (("hilbert", "--preset", "P2", "--divisor", "H:1"),
     EXIT_OK,
     "m,h0,normalized\n1,3,6.00000000000000000000\n2,6,3.00000000000000000000\n3,10,2.22222222222222222222\n"
     "5/2,6,1.92000000000000000000\nsqrt(2),3,3.00000000000000000000\n",
     ""),
    (("hilbert", "--file", "p2-h-disc-5.json", "--divisor", "D"),
     EXIT_OK,
     "m,h0,normalized\n1,3,6.00000000000000000000\n2,6,3.00000000000000000000\n3,10,2.22222222222222222222\n"
     "5/2,6,1.92000000000000000000\nsqrt(5),6,2.40000000000000000000\n",
     ""),
    (("hilbert", "--file", "c-sqrt3-disc-3.json", "--divisor", "R"),
     EXIT_OK,
     "m,h0,normalized\n1,3,6.00000000000000000000\n2,6,3.00000000000000000000\n3,10,2.22222222222222222222\n"
     "5/2,6,1.92000000000000000000\nsqrt(3),3,2.00000000000000000000\n",
     ""),
    (("check-b", "--preset", "F1", "--divisor", "C:sqrt(3)", "--effective", "E:1"),
     EXIT_OK, "clause,status\ni,true\nii,true\niv,true\nv,true\nverdict,ConsistentWithPaper\n", ""),
    (("check-a", "--preset", "F1", "--divisor", "C:1,E:sqrt(5)", "--effective", "E:1"),
     EXIT_OK, "clause,status\ni,true\nii,true\niv,true\nv,skipped\nverdict,ConsistentWithPaper\n", ""),
    (("check-b", "--preset", "F1", "--divisor", "C:1", "--effective", "E:sqrt(3)"),
     EXIT_OK, "clause,status\ni,true\nii,true\niv,true\nv,true\nverdict,ConsistentWithPaper\n", ""),
    (("check-b", "--e", "1", "--divisor", "C:1", "--effective", "E:sqrt(3)"),
     EXIT_OK, "clause,status\ni,true\nii,true\niv,true\nv,true\nverdict,ConsistentWithPaper\n", ""),
    (("check-a", "--preset", "F1", "--divisor", "C:1", "--effective", "E:sqrt(3)"),
     EXIT_OK, "clause,status\ni,false\nii,false\niv,false\nv,false\nverdict,ConsistentWithPaper\n", ""),
    # each checker on a preset fan and on the surface model, in csv and in
    # json
    (("check-a", "--preset", "F1", "--divisor", "C:1,F:1/2", "--effective", "F:1/2", "--format", "csv"),
     EXIT_OK, "clause,status\ni,false\nii,false\niv,false\nv,false\nverdict,ConsistentWithPaper\n", ""),
    (("check-a", "--e", "1", "--divisor", "C:1,F1:1/2", "--effective", "F1:1/2", "--format", "csv"),
     EXIT_OK, "clause,status\ni,false\nii,false\niv,false\nv,false\nverdict,ConsistentWithPaper\n", ""),
    (("check-b", "--preset", "F1", "--divisor", "C:1,F:1/2", "--effective", "F:1/2", "--format", "csv"),
     EXIT_OK, "clause,status\ni,false\nii,false\niv,false\nv,false\nverdict,ConsistentWithPaper\n", ""),
    (("check-b", "--e", "1", "--divisor", "C:1,F1:1/2", "--effective", "F1:1/2", "--format", "csv"),
     EXIT_OK, "clause,status\ni,false\nii,false\niv,false\nv,false\nverdict,ConsistentWithPaper\n", ""),
    (("check-a", "--preset", "F1", "--divisor", "C:1,F:1/2", "--effective", "F:1/2", "--format", "json"),
     EXIT_OK,
     '{"clauses": {"i": {"status": "false", "witness": {"vol_D": "2", "vol_D_minus_E": "1"}}, '
     '"ii": {"status": "false", "witness": {"ray": "F"}}, "iv": {"status": "false", "witness": {"m": "2"}}, '
     '"v": {"status": "false", "witness": {"E": "nonzero"}}}, "theorem": "A", "verdict": "ConsistentWithPaper"}\n',
     ""),
    (("check-a", "--e", "1", "--divisor", "C:1,F1:1/2", "--effective", "F1:1/2", "--format", "json"),
     EXIT_OK,
     '{"clauses": {"i": {"status": "false", "witness": {"vol_D": "2", "vol_D_minus_E": "1"}}, '
     '"ii": {"status": "false", "witness": {"component": "F1"}}, "iv": {"status": "false", "witness": {"m": "2"}}, '
     '"v": {"status": "false", "witness": {"E": "nonzero"}}}, "theorem": "A", "verdict": "ConsistentWithPaper"}\n',
     ""),
    (("check-b", "--preset", "F1", "--divisor", "C:1,F:1/2", "--effective", "F:1/2", "--format", "json"),
     EXIT_OK,
     '{"clauses": {"i": {"status": "false", "witness": {"vol_D": "2", "vol_D_plus_E": "3"}}, '
     '"ii": {"status": "false", "witness": {"ray": "F"}}, "iv": {"status": "false", "witness": {"m": "1", '
     '"r": "1"}}, "v": {"status": "false", "witness": {"intersection": "1/2"}}}, "theorem": "B", '
     '"verdict": "ConsistentWithPaper"}\n',
     ""),
    (("check-b", "--e", "1", "--divisor", "C:1,F1:1/2", "--effective", "F1:1/2", "--format", "json"),
     EXIT_OK,
     '{"clauses": {"i": {"status": "false", "witness": {"vol_D": "2", "vol_D_plus_E": "3"}}, '
     '"ii": {"status": "false", "witness": {"component": "F1"}}, "iv": {"status": "false", "witness": {"m": "1", '
     '"r": "1"}}, "v": {"status": "false", "witness": {"intersection": "1/2"}}}, "theorem": "B", '
     '"verdict": "ConsistentWithPaper"}\n',
     ""),
    (("check-a", "--preset", "F1", "--divisor", "C:1,E:1", "--effective", "E:1", "--format", "json"),
     EXIT_OK,
     '{"clauses": {"i": {"status": "true"}, "ii": {"status": "true"}, "iv": {"status": "true"}, '
     '"v": {"reason": "D is not nef", "status": "skipped"}}, "theorem": "A", "verdict": "ConsistentWithPaper"}\n',
     ""),
    # sections depend on the Z-linear class only, so check-b skips a shifted
    # point at an integer m; at m = 5/2, 5/2 div(e2) is not Z-linearly
    # trivial, and h0(mD' + mE) = h0(mD') fails on D' = D + div(e2) though it
    # holds on D: the paper's R-linear effect at a non-integer multiple
    (("check-b", "--preset", "P1xP1", "--divisor", "r0:1,r1:5/2,r2:5/2,r3:-2", "--effective", "r3:1/4", "--format", "json"),
     EXIT_OK,
     '{"clauses": {"i": {"status": "false", "witness": {"vol_D": "7/2", "vol_D_plus_E": "21/4"}}, '
     '"ii": {"status": "false", "witness": {"ray": "H2"}}, "iv": {"status": "false", "witness": {"m": "5/2", '
     '"r": "5/2", "shift": 2}}, "v": {"status": "false", "witness": {"intersection": "7/8"}}}, "theorem": "B", '
     '"verdict": "ConsistentWithPaper"}\n',
     ""),
    # mD' + G rounded off the offset records at an irrational m: check-a walks
    # D and both shifts at 5/2 and sqrt(2) and passes; check-b compares the
    # R_GRID steps G = rE on the first shift at both multiples, then fails on
    # the second shift at m = 5/2
    (("check-a", "--preset", "F1", "--divisor", "C:1,E:3/2+sqrt(2)", "--effective", "E:1/2", "--samples", "5/2,sqrt(2)"),
     EXIT_OK, "clause,status\ni,true\nii,true\niv,true\nv,skipped\nverdict,ConsistentWithPaper\n", ""),
    (("check-b", "--preset", "F1", "--divisor", "C:1,F:sqrt(2)", "--effective", "E:1/4", "--samples", "5/2,sqrt(2)", "--format", "json"),
     EXIT_OK,
     '{"clauses": {"i": {"status": "false", "witness": {"vol_D": "1+2*sqrt(2)", '
     '"vol_D_plus_E": "15/16+5/2*sqrt(2)"}}, "ii": {"status": "false", "witness": {"ray": "E"}}, '
     '"iv": {"status": "false", "witness": {"m": "5/2", "r": "5/2", "shift": 2}}, "v": {"status": "false", '
     '"witness": {"intersection": "1/4*sqrt(2)"}}}, "theorem": "B", "verdict": "ConsistentWithPaper"}\n',
     ""),
    (("check-a", "--preset", "P2", "--divisor", "H:1", "--effective", "H:0"),
     EXIT_OK, "clause,status\ni,true\nii,true\niv,true\nv,true\nverdict,ConsistentWithPaper\n", ""),
    # D is big exactly when vol(D) > 0: a zero volume fails the checker's own
    # precondition, before any clause asks for a sigma or B+
    (("check-a", "--preset", "F1", "--divisor", "F:1", "--effective", "E:0"),
     EXIT_DOMAIN, "", "error: checker needs a big divisor D\n"),
    (("check-b", "--e", "1", "--divisor", "F1:1", "--effective", "E:1"),
     EXIT_DOMAIN, "", "error: checker needs a big divisor D\n"),
    # a 3-D volume through polygon facets, interval edges and sqrt(2) ends:
    # this divisor is linearly equivalent to (2 + sqrt(2)/2) H, so
    # vol = (2 + sqrt(2)/2)^3
    (("volume", "--preset", "P3", "--divisor", SQRT2_P3), EXIT_OK, "11+25/4*sqrt(2)\n", ""),
    # H and r0 are linearly equivalent on P3, so their 1000th multiples share
    # one lattice-count class: C(1003, 3) sections each
    (("h0", "--preset", "P3", "--divisor", "H:1", "--scale", "1000"), EXIT_OK, "167668501\n", ""),
    (("h0", "--preset", "P3", "--divisor", "r0:1", "--scale", "1000"), EXIT_OK, "167668501\n", ""),
    # a chamber sum on a rounded sqrt(2) offset: 100 times the divisor rounds
    # down to k H with k = floor(50 sqrt(2)) + 200 = 270, so C(273, 3)
    (("h0", "--preset", "P3", "--divisor", SQRT2_P3, "--scale", "100"), EXIT_OK, "3353896\n", ""),
    # sigma from the facet record and one vertex read: D.E = sqrt(2) - 5 < 0
    # on F2, so sigma_E = (5 - sqrt(2))/2
    (("sigma", "--preset", "F2", "--divisor", "C:1,E:5/2,F:sqrt(2)", "--format", "json"),
     EXIT_OK, '{"sigma": {"C": "0", "E": "5/2-1/2*sqrt(2)", "F": "0", "r2": "0"}}\n', ""),
    # N_sigma and P_sigma of a sqrt(2) divisor on F1: the facet record and one
    # vertex read give every ray's sigma, and P_sigma = D - N_sigma
    (("nsigma", "--preset", "F1", "--divisor", "C:1,E:3,F:1/2*sqrt(2)", "--format", "json"),
     EXIT_OK,
     '{"N": {"C": "0", "E": "3-1/2*sqrt(2)", "F": "0", "r2": "0"}, "P": {"C": "1", "E": "1/2*sqrt(2)", '
     '"F": "1/2*sqrt(2)", "r2": "0"}}\n',
     ""),
    # a sorted label list for bplus: C is nef but not ample on F1
    (("bplus", "--preset", "F1", "--divisor", "C:1", "--format", "json"), EXIT_OK, '{"bplus": ["E"]}\n', ""),
    # bigness from the vertex table's row test, with no volume: sqrt(2) F on
    # F1 is a segment with a sqrt(2) end, and the second divisor has vol 5/2 +
    # 2 sqrt(2)
    (("big", "--preset", "F1", "--divisor", "F:sqrt(2)"), EXIT_OK, "false\n", ""),
    (("big", "--preset", "F1", "--divisor", "C:1,E:1/2*sqrt(2),F:sqrt(2)"), EXIT_OK, "true\n", ""),
    # the paper's example on F_1: h0 of the twisted and of the straight
    # divisor at each m
    (("paper-example", "--e", "1", "--samples", "1,2,sqrt(2)"),
     EXIT_OK, "m,floor_dot_E,h0_twisted,h0_straight\n1,-1,1,3\n2,-1,3,6\nsqrt(2),-1,1,3\n", ""),
    (("paper-example", "--e", "1", "--samples", "1,2,sqrt(2)", "--format", "json"),
     EXIT_OK,
     '{"rows": [{"floor_dot_E": -1, "h0_straight": 3, "h0_twisted": 1, "m": "1"}, {"floor_dot_E": -1, '
     '"h0_straight": 6, "h0_twisted": 3, "m": "2"}, {"floor_dot_E": -1, "h0_straight": 3, "h0_twisted": 1, '
     '"m": "sqrt(2)"}]}\n',
     ""),
    # a seeded corpus prints the same summary on every run
    (("corpus", "--seed", "1", "--count", "3"), EXIT_OK, "count,3\nconsistent,3\ncandidates,0\nnef_instances,3\n", ""),
    (("corpus", "--seed", "2", "--count", "4", "--format", "json"),
     EXIT_OK,
     '{\n  "candidates": [],\n  "consistent": 4,\n  "count": 4,\n  "nef_instances": 4,\n  "negsections_checked": 0,\n'
     '  "seed": 2,\n  "which": "both"\n}\n',
     ""),
    (("corpus", "--seed", "3", "--count", "4", "--which", "A"),
     EXIT_OK, "count,4\nconsistent,4\ncandidates,0\nnef_instances,3\n", ""),
    # runs on problem files: a named divisor or inline terms on the file's
    # variety.  On the blown-up P3 a non-simple vertex: r3:1's polytope has
    # four rows through the origin, and the sqrt(2) sigma > 0 is a simplex on
    # the rows of r0..r3 that r4's row misses
    (("volume", "--file", "p3-blown-up-at-a-point.json", "--divisor", "r3:1"), EXIT_OK, "1\n", ""),
    (("bplus", "--file", "p3-blown-up-at-a-point.json", "--divisor", "r3:1", "--format", "json"),
     EXIT_OK, '{"bplus": ["r4"]}\n', ""),
    (("volume", "--file", "p3-blown-up-at-a-point.json", "--divisor", "r3:2,r4:-1/2*sqrt(2)"),
     EXIT_OK, "8-1/4*sqrt(2)\n", ""),
    (("sigma", "--file", "p3-blown-up-at-a-point.json", "--divisor", "r3:3+sqrt(2),r4:5/2,r0:-1/2*sqrt(2)", "--format", "json"),
     EXIT_OK, '{"sigma": {"r0": "0", "r1": "0", "r2": "0", "r3": "0", "r4": "5/2+1/2*sqrt(2)"}}\n', ""),
    (("big", "--file", "p3-blown-up-at-a-point.json", "--divisor", "r3:1"), EXIT_OK, "true\n", ""),
    (("h0", "--file", "p2-inline-fan.json", "--divisor", "D"), EXIT_OK, "3\n", ""),
    (("sigma", "--file", "f1-fan-with-names.json", "--divisor", "D", "--ray", "E"), EXIT_OK, "1\n", ""),
    (("check-b", "--file", "f1-fan-with-names.json", "--divisor", "D", "--effective", "E:1"),
     EXIT_OK, "clause,status\ni,true\nii,true\niv,true\nv,skipped\nverdict,ConsistentWithPaper\n", ""),
    # floor(sqrt(2)) + floor(-sqrt(2)) = -1 drops the fiber degree of C to 0
    (("h0", "--file", "f1-four-named-fibers.json", "--divisor", "D"), EXIT_OK, "1\n", ""),
    (("nef", "--file", "f1-four-named-fibers.json", "--divisor", "D"), EXIT_OK, "true\n", ""),
    (("intersect", "--file", "f1-four-named-fibers.json", "--divisor", "D", "--with", "p3:1"), EXIT_OK, "1\n", ""),
    (("zariski", "--file", "f1-four-named-fibers.json", "--divisor", "D"),
     EXIT_OK, "part,component,coefficient\nP,E,1\nP,F,1\nN,E,0\nvolume,,1\n", ""),
    (("check-a", "--file", "f1-four-named-fibers.json", "--divisor", "D", "--effective", "p3:1"),
     EXIT_OK, "clause,status\ni,false\nii,false\niv,false\nv,false\nverdict,ConsistentWithPaper\n", ""),
    # the file's disc 3 admits C:sqrt(3), which P_sigma = D prints
    (("nsigma", "--file", "c-sqrt3-disc-3.json", "--divisor", "D", "--format", "json"),
     EXIT_OK,
     '{"N": {"C": "0", "E": "0", "F": "0", "r2": "0"}, "P": {"C": "sqrt(3)", "E": "0", "F": "0", "r2": "0"}}\n',
     ""),
    # domain errors: exit 2, the message on stderr
    (("paper-example", "--e", "0"), EXIT_DOMAIN, "", "error: a negative section needs e >= 1\n"),
    (("sigma", "--preset", "F1", "--divisor", "F:1", "--ray", "E"),
     EXIT_DOMAIN, "", "error: sigma decomposition is defined for big divisors only\n"),
    (("intersect", "--preset", "F1", "--divisor", "C:1", "--with", "E:sqrt(3),F:sqrt(2)"),
     EXIT_DOMAIN, "", "error: incompatible discriminants 2 and 3\n"),
    (("zariski", "--e", "1", "--divisor", "F1:1"), EXIT_DOMAIN, "", "error: divisor class is not big\n"),
    (("sigma", "--e", "1", "--divisor", "C:-1", "--ray", "E"),
     EXIT_DOMAIN, "", "error: positive part fails nefness against E or F\n"),
    (("bplus", "--e", "1", "--divisor", "F1:1"),
     EXIT_DOMAIN, "", "error: the divisorial augmented base locus needs a big divisor\n"),
    # with E = 0 every comparison of clause iv holds, but h0(mD) is still
    # asked, so a sqrt(3) multiple of a sqrt(2) divisor is a domain error
    (("check-a", "--preset", "F1", "--divisor", "E:1,C:sqrt(2)", "--effective", "E:0", "--samples", "sqrt(3)"),
     EXIT_DOMAIN, "", "error: incompatible discriminants 2 and 3\n"),
    (("check-b", "--preset", "F1", "--divisor", "E:1,C:sqrt(2)", "--effective", "E:0", "--samples", "sqrt(3)"),
     EXIT_DOMAIN, "", "error: incompatible discriminants 2 and 3\n"),
    (("check-a", "--e", "1", "--divisor", "C:1,F1:sqrt(2)", "--effective", "F1:0", "--samples", "sqrt(3)"),
     EXIT_DOMAIN, "", "error: incompatible discriminants 3 and 2\n"),
    (("check-b", "--e", "1", "--divisor", "C:1,F1:sqrt(2)", "--effective", "F1:0", "--samples", "sqrt(3)"),
     EXIT_DOMAIN, "", "error: incompatible discriminants 3 and 2\n"),
    # parse errors: exit 3, and on stderr the option or field at fault and why
    (("sigma", "--preset", "F1", "--divisor", "C:1,E:1", "--ray", "Z"),
     EXIT_PARSE, "", "parse error: --ray: unknown ray 'Z'\n"),
    (("sigma", "--preset", "F1", "--divisor", "C:1,E:1", "--ray", "7"),
     EXIT_PARSE, "", "parse error: --ray: ray index 7 out of range\n"),
    (("sigma", "--e", "1", "--divisor", "C:1,E:1", "--ray", "Z"),
     EXIT_PARSE, "", "parse error: --ray: unknown component 'Z' on F_1\n"),
    (("intersect", "--preset", "F1", "--divisor", "C:1", "--with", "Z:1"),
     EXIT_PARSE, "", "parse error: divisors: unknown ray 'Z'\n"),
    (("h0", "--preset", "XX", "--divisor", "H:1"), EXIT_PARSE, "", "parse error: --preset: unknown fan preset 'XX'\n"),
    (("paper-example", "--samples", "1,0"), EXIT_PARSE, "", "parse error: sample 0 is not positive\n"),
    (("h0", "--file", "no-such-problem.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: --file: [Errno 2] No such file or directory: 'no-such-problem.json'\n"),
    (("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "0"),
     EXIT_PARSE, "", "parse error: sample 0 is not positive\n"),
    (("h0", "--e", "-1", "--divisor", "C:1"),
     EXIT_PARSE, "", "parse error: --e: the ruling invariant e must be non-negative\n"),
    (("h0", "--e", "1", "--fibers", "F1,F1", "--divisor", "C:1"),
     EXIT_PARSE, "", "parse error: --e: fiber labels must be distinct\n"),
    (("h0", "--preset", "P2", "--divisor", "r0:1,0:3"),
     EXIT_PARSE, "", "parse error: divisors: 'r0' and '0' both name ray 0\n"),
    (("h0", "--preset", "P2", "--divisor", "H:1,H:2"), EXIT_PARSE, "", "parse error: component 'H' is given twice\n"),
    (("h0", "--e", "1", "--divisor", "C:1,C:2"), EXIT_PARSE, "", "parse error: component 'C' is given twice\n"),
    (("intersect", "--preset", "F1", "--divisor", "C:1", "--with", "E:1,r1:1"),
     EXIT_PARSE, "", "parse error: divisors: 'E' and 'r1' both name ray 1\n"),
    (("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", ","),
     EXIT_PARSE, "", "parse error: --samples: no sample listed\n"),
    (("check-a", "--preset", "F1", "--divisor", "C:1,E:1", "--effective", "E:1", "--samples", " , "),
     EXIT_PARSE, "", "parse error: --samples: no sample listed\n"),
    (("check-b", "--preset", "F1", "--divisor", "C:1,E:1", "--effective", "E:1", "--samples", ",,"),
     EXIT_PARSE, "", "parse error: --samples: no sample listed\n"),
    (("paper-example", "--samples", ","), EXIT_PARSE, "", "parse error: --samples: no sample listed\n"),
    (("corpus", "--count", "-1"), EXIT_PARSE, "", "parse error: --count: must be a non-negative integer, got -1\n"),
    (("h0", "--preset", "P2", "--file", "", "--divisor", "H:1"),
     EXIT_PARSE, "", "parse error: --file: [Errno 2] No such file or directory: ''\n"),
    (("h0", "--preset", "", "--divisor", "H:1"), EXIT_PARSE, "", "parse error: --preset: unknown fan preset ''\n"),
    (("h0", "--e", "1", "--fibers", "p1,", "--divisor", "C:1"),
     EXIT_PARSE, "", "parse error: --e: fiber labels must be nonempty\n"),
    (("paper-example", "--e", "-1"), EXIT_PARSE, "", "parse error: --e: the ruling invariant e must be non-negative\n"),
    (("h0", "--preset", "P2", "--divisor", "H:1/0"), EXIT_PARSE, "", "parse error: H: zero denominator in '1/0'\n"),
    (("h0", "--preset", "P2", "--divisor", "Z:1"), EXIT_PARSE, "", "parse error: divisors: unknown ray 'Z'\n"),
    (("h0", "--divisor", "H:1"), EXIT_PARSE, "", "parse error: need --preset, --e or --file\n"),
    # an unknown label's message names it without the quotes of a KeyError
    (("h0", "--e", "1", "--divisor", "F9:1"), EXIT_PARSE, "", "parse error: divisors: unknown component 'F9' on F_1\n"),
    # two coefficients for one ray ("H" is ray r2 of P2)
    (("h0", "--preset", "P2", "--divisor", "H:1,r2:2"),
     EXIT_PARSE, "", "parse error: divisors: 'H' and 'r2' both name ray 2\n"),
    # an empty option value is given, not absent
    (("h0", "--preset", "P2", "--divisor", "H:1", "--scale", ""),
     EXIT_PARSE, "", "parse error: scale: bad scalar literal ''\n"),
    # an empty --fibers names one empty fiber label, not the default fibers
    (("h0", "--e", "1", "--fibers", "", "--divisor", "C:1,F1:1"),
     EXIT_PARSE, "", "parse error: --e: fiber labels must be nonempty\n"),
    # a problem file that does not parse: exit 3, and the field at fault
    (("h0", "--file", "repeated-coefficient.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: key 'H' is given twice\n"),
    (("h0", "--file", "repeated-divisor.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: key 'D' is given twice\n"),
    (("h0", "--file", "repeated-variety.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: key 'variety' is given twice\n"),
    (("h0", "--file", "divisors-list.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: divisors: must map names to divisors\n"),
    (("h0", "--file", "divisors-string.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: divisors: must map names to divisors\n"),
    (("h0", "--file", "bool-e.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety.e: 'e' must be an integer\n"),
    (("h0", "--file", "bool-disc.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: disc: 'disc' must be a non-negative integer\n"),
    (("h0", "--file", "disc-1.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: disc: sqrt(1) is 1; 'disc' must be 0 or a square-free integer above 1\n"),
    (("h0", "--file", "disc-4.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: disc: sqrt(4) is 2; 'disc' must be 0 or a square-free integer above 1\n"),
    (("h0", "--file", "disc-8.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: disc: sqrt(8) is 2*sqrt(2); 'disc' must be 0 or a square-free integer above 1\n"),
    (("h0", "--file", "disc-22-digits.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: disc: sqrt(1000000000000000000000): discriminants have at most 15 digits\n"),
    (("h0", "--file", "unknown-divisor.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: divisors: unknown divisor 'D'\n"),
    (("h0", "--file", "unknown-key.json", "--divisor", "D"), EXIT_PARSE, "", "parse error: unknown keys ['extra']\n"),
    (("h0", "--file", "c-over-zero.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: divisors.D.C: zero denominator in '1/0'\n"),
    (("h0", "--file", "c-sqrt3-default-disc.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: divisors.D.C: literal 'sqrt(3)' uses sqrt(3) but the file disc is 2\n"),
    (("h0", "--file", "c-sqrt3-disc-2.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: divisors.D.C: literal 'sqrt(3)' uses sqrt(3) but the file disc is 2\n"),
    (("h0", "--file", "h-and-r2.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: divisors: 'H' and 'r2' both name ray 2\n"),
    (("h0", "--file", "smooth-surface-kind.json", "--divisor", "D"),
     EXIT_PARSE,
     "",
     "parse error: variety: unsupported variety kind 'smooth_surface'; general surface models with user-supplied "
     "intersection data are not supported\n"),
    (("h0", "--file", "nonprimitive-ray.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: ray (2, 2) is not primitive\n"),
    (("h0", "--file", "cone-ray-out-of-range.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: cone (1, 5): ray 5 is outside 0..2\n"),
    (("h0", "--file", "cone-index-past-the-end.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: cone (1, 5): ray 5 is outside 0..2\n"),
    (("h0", "--file", "cone-index-negative.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: cone (-1, 1): ray -1 is outside 0..2\n"),
    (("h0", "--file", "empty-fan.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: fan dimension must be at least 1, got 0\n"),
    (("h0", "--file", "no-cones.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: fan has no maximal cones\n"),
    (("h0", "--file", "uncovered-ray.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: ray 3 lies in no maximal cone\n"),
    (("h0", "--file", "float-ray.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: 'rays' and 'cones' must hold integers\n"),
    (("h0", "--file", "bool-ray.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: 'rays' and 'cones' must hold integers\n"),
    (("h0", "--file", "float-cone.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: 'rays' and 'cones' must hold integers\n"),
    (("h0", "--file", "names-h-to-x.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety.names: 'names' must map labels to integer ray indices\n"),
    (("nef", "--file", "double-cover.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: cones (0, 2) and (1, 6) overlap\n"),
    (("nef", "--file", "folded-fan.json", "--divisor", "D"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: rays 0 and 1 lie on one side of wall (2,)\n"),
    (("h0", "--file", "name-past-the-end.json", "--divisor", "X:1"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: name 'X': ray 7 is outside 0..2\n"),
    (("h0", "--file", "name-negative.json", "--divisor", "X:1"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: name 'X': ray -1 is outside 0..2\n"),
    (("sigma", "--file", "name-shadows-r1.json", "--divisor", "r0:1,r1:1,r2:1", "--format", "json"),
     EXIT_PARSE, "", "parse error: variety: InvariantViolation: name 'r1' is the default label of ray 1, not 0\n"),
    (("sigma", "--file", "names-float-and-bool.json", "--divisor", "r0:1,r1:1,r2:1", "--format", "json"),
     EXIT_PARSE, "", "parse error: variety.names: 'names' must map labels to integer ray indices\n"),
    (("sigma", "--file", "names-bool.json", "--divisor", "r0:1,r1:1,r2:1", "--format", "json"),
     EXIT_PARSE, "", "parse error: variety.names: 'names' must map labels to integer ray indices\n"),
    (("sigma", "--file", "names-integral-float.json", "--divisor", "r0:1,r1:1,r2:1", "--format", "json"),
     EXIT_PARSE, "", "parse error: variety.names: 'names' must map labels to integer ray indices\n"),
    (("sigma", "--file", "names-string.json", "--divisor", "r0:1,r1:1,r2:1", "--format", "json"),
     EXIT_PARSE, "", "parse error: variety.names: 'names' must map labels to integer ray indices\n"),
    (("sigma", "--file", "names-null.json", "--divisor", "r0:1,r1:1,r2:1", "--format", "json"),
     EXIT_PARSE, "", "parse error: variety.names: 'names' must map labels to integer ray indices\n"),
    (("sigma", "--file", "names-not-an-object.json", "--divisor", "r0:1,r1:1,r2:1", "--format", "json"),
     EXIT_PARSE, "", "parse error: variety.names: 'names' must map labels to integer ray indices\n"),
]
CLI_PIN_IDS = [shlex.join(argv) for argv, *_ in CLI_PINS]


@pytest.mark.parametrize("argv,code,stdout,stderr", CLI_PINS, ids=CLI_PIN_IDS)
def test_a_run_prints_its_pinned_bytes(capsys, monkeypatch, tmp_path, argv, code, stdout, stderr):
    # the row runs in a directory of its own, which holds the problem files
    # its argv names
    for name in PROBLEM_FILES.keys() & set(argv):
        (tmp_path / name).write_text(PROBLEM_FILES[name], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert invoke(capsys, *argv) == (code, stdout, stderr)


def test_each_row_id_reads_back_as_its_argv_and_no_argv_repeats():
    argvs = [argv for argv, *_ in CLI_PINS]
    assert [shlex.split(row_id) for row_id in CLI_PIN_IDS] == [list(argv) for argv in argvs]
    assert [argv for argv, n in Counter(argvs).items() if n > 1] == []


def _variety_kind(argv):
    """The kind of variety a row reads: None for none, "surface" for --e or
    a hirzebruch file, and "fan" for --preset or any other file."""
    if argv[0] == "corpus":
        return None
    if "--file" in argv:
        variety = json.loads(PROBLEM_FILES[argv[argv.index("--file") + 1]])["variety"]
        return "surface" if isinstance(variety, dict) and variety.get("kind") == "hirzebruch" else "fan"
    return "fan" if "--preset" in argv else "surface"


def test_each_subcommand_has_an_exit_0_row_per_variety_kind_and_format():
    # the variety kinds are a fan and the surface model: zariski and
    # paper-example read the surface alone, corpus no variety
    kinds = {command: ("fan", "surface") for command in SUBCOMMAND_FLAGS}
    kinds |= {"zariski": ("surface",), "paper-example": ("surface",), "corpus": (None,)}
    wanted = {(command, kind, fmt) for command in kinds for kind in kinds[command] for fmt in ("csv", "json")}
    pinned = set()
    for argv, code, _, _ in CLI_PINS:
        if code == EXIT_OK:
            pinned.add((argv[0], _variety_kind(argv), argv[argv.index("--format") + 1] if "--format" in argv else "csv"))
    assert wanted - pinned == set()


def test_each_subcommand_that_takes_a_file_has_an_exit_0_row_that_reads_one():
    read = {argv[0] for argv, code, _, _ in CLI_PINS if code == EXIT_OK and "--file" in argv}
    assert [command for command, flags in SUBCOMMAND_FLAGS.items() if "--file" in flags and command not in read] == []


def test_each_problem_file_is_read_by_a_row():
    read = {argv[argv.index("--file") + 1] for argv, *_ in CLI_PINS if "--file" in argv}
    assert sorted(PROBLEM_FILES.keys() - read) == []


# The tests besides the table's runner that run the CLI on a problem file:
# one counts parse_problem calls through a patch, and one is a property over
# generated fan files.  Any other run on a file is a row, pinned in full.
FILE_RUNS_OUTSIDE_THE_TABLE = {
    "test_nsigma_on_a_surface_file_reads_it_once",
    "test_fan_files_keep_the_exit_code_contract",
}
CLI_RUNNERS = {"run", "invoke", "fresh", "_run_at_the_default_digit_limit"}


def test_no_other_test_runs_the_cli_on_a_file():
    found = set()
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                nodes = list(ast.walk(fn))
                runs = any(
                    isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) in CLI_RUNNERS
                    for n in nodes
                )
                if runs and any(isinstance(n, ast.Constant) and n.value == "--file" for n in nodes):
                    found.add(fn.name)
    assert found == FILE_RUNS_OUTSIDE_THE_TABLE


WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tests.yml"


def _workflow_runs():
    """(line, argv, pin) for each line of the CI workflow that runs `rdiv
    <subcommand>`, comments and the text from an `echo` on left out.  argv
    is read as shell words up to the first operator, and holds a word with
    a `$` where a word is not plain (a shell variable or a command
    substitution).  On a line `expect CODE STDOUT STDERR rdiv ...`, pin is
    (CODE, STDOUT, STDERR) as the step compares them, else None."""
    command = re.compile(rf"\brdiv ({'|'.join(SUBCOMMAND_FLAGS)})\b")
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines():
        text = line.split("echo", 1)[0]
        match = command.search(text)
        if match is None or text.lstrip().startswith("#"):
            continue
        words = shlex.shlex(text[match.end(1) :], posix=True, punctuation_chars=True)
        words.whitespace_split = True
        argv = (match[1], *itertools.takewhile(lambda w: not (w and set(w) <= set("();<>|&")), words))
        pin = None
        if text.split()[0] == "expect":
            code, stdout, stderr = shlex.split(text)[1:4]
            pin = (int(code), stdout, stderr)
        yield line.strip(), argv, pin


def test_every_rdiv_run_of_the_workflow_is_a_pinned_row():
    # each pin of the CI step is a row that tier-1 runs through cli.run, and
    # a step that compares outputs compares the row's, newlines stripped as
    # $(...) strips them
    rows = {argv: (code, out, err) for argv, code, out, err in CLI_PINS}
    runs = list(_workflow_runs())
    assert runs
    assert [line for line, argv, _ in runs if argv not in rows] == []
    for line, argv, pin in runs:
        code, out, err = rows[argv]
        assert pin in (None, (code, out.rstrip("\n"), err.rstrip("\n"))), line


def test_a_counterexample_candidate_exits_4(capsys, monkeypatch):
    import rdiv.theorems as theorems

    def flagged(theorem):
        clauses = {"i": theorems.ClauseValue("true"), "ii": theorems.ClauseValue("false")}
        return lambda *args, **kwargs: theorems.TheoremReport(theorem, clauses, theorems.CANDIDATE)

    monkeypatch.setattr(theorems, "check_theorem_a", flagged("A"))
    code, out, _ = invoke(capsys, "check-a", "--preset", "F1", "--divisor", "C:1,E:1", "--effective", "E:1")
    assert code == EXIT_COUNTEREXAMPLE
    assert out == "clause,status\ni,true\nii,false\nverdict,CounterexampleCandidate\n"
    code, out, _ = invoke(capsys, "corpus", "--seed", "1", "--count", "2", "--which", "A")
    assert (code, out) == (EXIT_COUNTEREXAMPLE, "count,2\nconsistent,0\ncandidates,2\nnef_instances,2\n")
    monkeypatch.undo()
    monkeypatch.setattr(theorems, "negsections_check", lambda *args, **kwargs: False)
    code, out, _ = invoke(capsys, "corpus", "--seed", "10", "--count", "4")
    assert (code, out) == (EXIT_COUNTEREXAMPLE, "count,4\nconsistent,3\ncandidates,1\nnef_instances,2\n")


# ---- exit codes ---------------------------------------------------------------


VARIETY_FLAGS = ("--format", "--preset", "--file", "--e", "--fibers", "--divisor")
SUBCOMMAND_FLAGS = {
    "h0": VARIETY_FLAGS + ("--scale",),
    "hilbert": VARIETY_FLAGS + ("--samples",),
    "volume": VARIETY_FLAGS + ("--scale",),
    "sigma": VARIETY_FLAGS + ("--ray",),
    "nsigma": VARIETY_FLAGS,
    "bplus": VARIETY_FLAGS,
    "nef": VARIETY_FLAGS,
    "big": VARIETY_FLAGS,
    "intersect": VARIETY_FLAGS + ("--with",),
    "zariski": VARIETY_FLAGS,
    "check-a": VARIETY_FLAGS + ("--samples", "--effective"),
    "check-b": VARIETY_FLAGS + ("--samples", "--effective"),
    "corpus": ("--format", "--seed", "--count", "--which"),
    "paper-example": ("--format", "--e", "--samples"),
}


def test_top_level_help_lists_every_subcommand(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == EXIT_OK
    listed = out.split("{", 1)[1].split("}", 1)[0].split(",")
    assert listed == list(SUBCOMMAND_FLAGS)


@pytest.mark.parametrize("command", list(SUBCOMMAND_FLAGS))
def test_each_subcommand_help_shows_its_options(capsys, command):
    code, out, _ = invoke(capsys, command, "--help")
    assert code == EXIT_OK
    assert out.startswith(f"usage: rdiv {command} ")
    shown = [word for word in out.split() if word.startswith("--") and word != "--help"]
    assert sorted(set(shown)) == sorted(SUBCOMMAND_FLAGS[command])


@pytest.mark.parametrize(
    "argv",
    [["bogus"], [], ["h0", "--bogus"], ["corpus", "--preset", "P2"], ["paper-example", "--e", "x"], ["--format", "json"]],
    ids=str,
)
def test_an_unknown_subcommand_or_bad_option_is_a_parse_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_PARSE and out == ""
    assert "error:" in err


def test_a_run_builds_the_parser_of_its_subcommand_alone(capsys, monkeypatch):
    # the top level reads the command name, and that command's parser, the
    # only one built, reads the rest; the other 13 are never built
    made, commands = [], []
    make, build = cli.argparse.ArgumentParser.__init__, cli.build_parser

    def counted_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        make(self, *args, **kwargs)

    def counted_build(command):
        commands.append(command)
        return build(command)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(cli, "build_parser", counted_build)
    code, out, _ = invoke(capsys, "h0", "--preset", "P2", "--divisor", "H:1", "--scale", "2")
    assert (code, out) == (EXIT_OK, "6\n")
    assert (made, commands) == (["rdiv", "rdiv h0"], ["h0"])


def test_library_value_error_is_not_relabelled_as_parse_error(capsys, monkeypatch):
    def broken(D):
        raise ValueError("internal bug")

    monkeypatch.setattr(rdiv.toric, "h0", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(["h0", "--preset", "P2", "--divisor", "H:1"])


# ---- problem files -------------------------------------------------------------


# complete fans of dimensions 1-3, which the strategy below perturbs
BASE_FANS = [
    ([[1], [-1]], [[0], [1]]),
    (P2_RAYS, P2_CONES),
    ([[1, 0], [0, 1], [-1, 2], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]]),
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
]


@st.composite
def fan_files(draw):
    """Problem files of small fans, dimensions 0-3: a complete fan, perhaps
    with an entry of one cone moved to any index in -2..nrays+1 (negative
    and out of range included), a cone dropped or a ray added, or random
    rays and cones."""
    if draw(st.booleans()):
        rays, cones = draw(st.sampled_from(BASE_FANS))
        rays, cones = [list(r) for r in rays], [list(c) for c in cones]
        edit = draw(st.sampled_from(["none", "none", "index", "drop", "ray"]))
        if edit == "index":
            cone = draw(st.sampled_from(cones))
            cone[draw(st.integers(0, len(cone) - 1))] = draw(st.integers(-2, len(rays) + 1))
        elif edit == "drop":
            cones.pop(draw(st.integers(0, len(cones) - 1)))
        elif edit == "ray":
            rays.append(draw(st.lists(st.integers(-2, 2), min_size=len(rays[0]), max_size=len(rays[0]))))
    else:
        dim = draw(st.integers(0, 3))
        rays = draw(st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=5))
        index = st.integers(-2, len(rays) + 1)
        cones = draw(st.lists(st.lists(index, min_size=dim, max_size=dim), max_size=5))
    coeffs = draw(st.lists(st.integers(-1, 2), min_size=len(rays), max_size=len(rays)))
    divisor = {f"r{i}": str(c) for i, c in enumerate(coeffs)}
    return {"variety": {"rays": rays, "cones": cones}, "divisors": {"D": divisor}}


@given(fan_files(), st.sampled_from(["h0", "volume", "nef", "bplus"]))
@settings(max_examples=150, deadline=None)
def test_fan_files_keep_the_exit_code_contract(tmp_path_factory, doc, command):
    """Any fan file gives exit 0, 2 or 3 and never an uncaught exception."""
    path = tmp_path_factory.getbasetemp() / "fan.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = run([command, "--file", str(path), "--divisor", "D"])
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_PARSE), (doc, err.getvalue())
    if code == EXIT_PARSE:
        assert err.getvalue().startswith("parse error:")


def test_nsigma_on_a_surface_file_reads_it_once(capsys, monkeypatch, tmp_path):
    # nsigma on a surface prints the Zariski pair from the context it loaded
    path = tmp_path / "surface.json"
    path.write_text(json.dumps({"variety": {"kind": "hirzebruch", "e": 1}, "divisors": {"D": {"C": "1", "E": "2"}}}))
    texts = []
    monkeypatch.setattr(cli, "parse_problem", lambda text: texts.append(text) or parse_problem(text))
    stdout = "part,component,coefficient\nP,E,1\nP,F,1\nN,E,2\nvolume,,1\n"
    assert invoke(capsys, "nsigma", "--file", str(path), "--divisor", "D") == (EXIT_OK, stdout, "")
    assert len(texts) == 1
