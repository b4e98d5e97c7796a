import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdiv import cli
from rdiv.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    parse_problem,
    run,
)
from rdiv.errors import ParseError
from rdiv.scalars import parse_scalar


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- subcommands -------------------------------------------------------------


def test_volume_f1(capsys):
    code, out, _ = invoke(capsys, "volume", "--preset", "F1", "--divisor", "C:1,E:1")
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_h0_scaled_simplex(capsys):
    code, out, _ = invoke(capsys, "h0", "--preset", "P2", "--divisor", "r2:1", "--scale", "5")
    assert code == EXIT_OK
    assert out.strip() == "21"


def test_paper_example_exit_zero(capsys):
    code, out, _ = invoke(capsys, "paper-example", "--e", "1", "--samples", "1,2,sqrt(2)")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,floor_dot_E,h0_twisted,h0_straight"
    assert lines[1] == "1,-1,1,3"
    assert "sqrt(2)" in lines[3]


def test_paper_example_negative_e_is_a_parse_error(capsys):
    code, out, err = invoke(capsys, "paper-example", "--e", "-1")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: --e: ")


def test_paper_example_e_zero_is_a_domain_error(capsys):
    code, out, err = invoke(capsys, "paper-example", "--e", "0")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err == "error: a negative section needs e >= 1\n"


def test_hilbert_csv_format(capsys):
    code, out, _ = invoke(capsys, "hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "1,2,3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,h0,normalized"
    assert lines[1].startswith("1,3,6.")
    assert lines[3].startswith("3,10,2.2222222222222222")


def test_hilbert_irrational_sample_renders_literal(capsys):
    code, out, _ = invoke(capsys, "hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "sqrt(2)")
    assert code == EXIT_OK
    assert out.splitlines()[1].startswith("sqrt(2),")


def test_hilbert_json_exact(capsys):
    code, out, _ = invoke(
        capsys, "hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "2", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["rows"] == [{"m": "2", "h0": 6, "normalized": "3"}]


@pytest.mark.parametrize(
    "argv",
    [
        ("hilbert", "--preset", "P2", "--divisor", "H:sqrt(3)"),
        ("hilbert", "--e", "1", "--divisor", "C:sqrt(3)"),
        ("check-b", "--preset", "F1", "--divisor", "C:sqrt(3)", "--effective", "E:1"),
        ("check-a", "--preset", "F1", "--divisor", "C:1,E:sqrt(5)", "--effective", "E:1"),
        ("check-b", "--preset", "F1", "--divisor", "C:1", "--effective", "E:sqrt(3)"),
        ("check-b", "--e", "1", "--divisor", "C:1", "--effective", "E:sqrt(3)"),
        ("check-a", "--preset", "F1", "--divisor", "C:1", "--effective", "E:sqrt(3)"),
    ],
    ids=[
        "hilbert-fan",
        "hilbert-surface",
        "check-b",
        "check-a",
        "check-b-effective",
        "check-b-surface-effective",
        "check-a-effective",
    ],
)
def test_default_grid_takes_its_surd_from_the_divisor_field(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_OK, err
    if argv[0] == "hilbert":
        # floor(sqrt(3) * sqrt(3)) = 3: ten sections of 3H on P2, and of 3C on F1
        assert out.splitlines()[-1].startswith("sqrt(3),10,")


def test_default_grid_of_a_rational_divisor_keeps_the_resolved_disc(capsys, tmp_path):
    _, out, _ = invoke(capsys, "hilbert", "--preset", "P2", "--divisor", "H:1")
    assert out.splitlines()[-1].startswith("sqrt(2),3,")
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 5}))
    _, out, _ = invoke(capsys, "hilbert", "--file", str(path), "--divisor", "D")
    assert out.splitlines()[-1].startswith("sqrt(5),")


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


def test_hilbert_jobs_parallel_matches(capsys):
    # the removed --jobs option is rejected like any unknown option
    code, out, err = invoke(
        capsys, "hilbert", "--preset", "F1", "--divisor", "C:1", "--samples", "1,2,3", "--jobs", "2"
    )
    assert code == EXIT_PARSE and out == ""
    assert "--jobs" in err


@pytest.mark.parametrize("jobs,samples", [("100000", "1,2,3"), ("2", "1,2,3,4,5"), ("0", "1,2,3"), ("-3", "1")])
def test_hilbert_jobs_is_ignored(capsys, jobs, samples):
    argv = ("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", samples)
    assert invoke(capsys, *argv)[0] == EXIT_OK
    code, out, _ = invoke(capsys, *argv, "--jobs", jobs)
    assert code == EXIT_PARSE and out == ""
    assert not hasattr(cli, "ProcessPoolExecutor")


def test_a_huge_sqrt_literal_is_a_parse_error_in_bounded_time():
    # trial division up to the square root of 10**16 + 61 ran for minutes
    argv = ["h0", "--preset", "P2", "--divisor", "H:sqrt(10000000000000061)"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    cmd = [sys.executable, "-m", "rdiv.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == EXIT_PARSE, proc.stderr
    assert "digits" in proc.stderr and proc.stdout == ""


def test_cli_import_loads_no_process_pool():
    code = "import sys, rdiv.cli; print('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_nef_big_queries(capsys):
    assert invoke(capsys, "nef", "--preset", "F1", "--divisor", "C:1")[1].strip() == "true"
    assert invoke(capsys, "nef", "--preset", "F1", "--divisor", "C:1,E:1")[1].strip() == "false"
    assert invoke(capsys, "big", "--preset", "F1", "--divisor", "F:1")[1].strip() == "false"


def test_sigma_and_bplus(capsys):
    code, out, _ = invoke(capsys, "sigma", "--preset", "F1", "--divisor", "C:1,E:1", "--ray", "E")
    assert code == EXIT_OK and out.strip() == "1"
    code, out, _ = invoke(capsys, "bplus", "--preset", "F1", "--divisor", "C:1")
    assert code == EXIT_OK and out.strip() == "E"
    code, out, _ = invoke(capsys, "bplus", "--preset", "P2", "--divisor", "H:1")
    assert code == EXIT_OK and out.strip() == "(empty)"


def test_intersect(capsys):
    code, out, _ = invoke(capsys, "intersect", "--preset", "F1", "--divisor", "C:1", "--with", "E:1")
    assert code == EXIT_OK and out.strip() == "0"


def test_a_divisor_mixing_two_surds_is_a_domain_error(capsys):
    argv = ("intersect", "--preset", "F1", "--divisor", "C:1", "--with", "E:sqrt(3),F:sqrt(2)")
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert err.startswith("error: incompatible discriminants")


def test_zariski_surface(capsys):
    code, out, _ = invoke(capsys, "zariski", "--e", "1", "--divisor", "C:1,E:2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc == {"P_class": {"E": "1", "F": "1"}, "N": {"E": "2"}, "volume": "1"}


def test_check_a_consistent_exit(capsys):
    code, out, _ = invoke(
        capsys, "check-a", "--preset", "F1", "--divisor", "C:1,E:1", "--effective", "E:1", "--format", "json"
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["verdict"] == "ConsistentWithPaper"


def test_corpus_runs(capsys):
    code, out, _ = invoke(capsys, "corpus", "--seed", "1", "--count", "3")
    assert code == EXIT_OK
    assert "consistent,3" in out


def test_corpus_deterministic_output(capsys):
    _, out1, _ = invoke(capsys, "corpus", "--seed", "2", "--count", "4", "--format", "json")
    _, out2, _ = invoke(capsys, "corpus", "--seed", "2", "--count", "4", "--format", "json")
    assert out1 == out2


# ---- exit codes ---------------------------------------------------------------


def test_domain_error_exit(capsys):
    code, _, err = invoke(capsys, "sigma", "--preset", "F1", "--divisor", "F:1", "--ray", "E")
    assert code == EXIT_DOMAIN
    assert "big" in err


def test_parse_error_exit(capsys):
    code, _, err = invoke(capsys, "h0", "--preset", "P2", "--divisor", "H:1/0")
    assert code == EXIT_PARSE


def test_unknown_ray_exit(capsys):
    code, _, _ = invoke(capsys, "h0", "--preset", "P2", "--divisor", "Z:1")
    assert code == EXIT_PARSE


def test_missing_variety_exit(capsys):
    code, _, _ = invoke(capsys, "h0", "--divisor", "H:1")
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "argv",
    [
        ("sigma", "--preset", "F1", "--divisor", "C:1,E:1", "--ray", "Z"),
        ("sigma", "--preset", "F1", "--divisor", "C:1,E:1", "--ray", "7"),
        ("sigma", "--e", "1", "--divisor", "C:1,E:1", "--ray", "Z"),
        ("intersect", "--preset", "F1", "--divisor", "C:1", "--with", "Z:1"),
        ("h0", "--preset", "XX", "--divisor", "H:1"),
        ("paper-example", "--samples", "1,0"),
        ("h0", "--file", "no-such-problem.json", "--divisor", "D"),
        ("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", "0"),
        ("h0", "--e", "-1", "--divisor", "C:1"),
        ("h0", "--e", "1", "--fibers", "F1,F1", "--divisor", "C:1"),
        ("h0", "--preset", "P2", "--divisor", "H:1,r2:2"),
        ("h0", "--preset", "P2", "--divisor", "r0:1,0:3"),
        ("h0", "--preset", "P2", "--divisor", "H:1,H:2"),
        ("h0", "--e", "1", "--divisor", "C:1,C:2"),
        ("intersect", "--preset", "F1", "--divisor", "C:1", "--with", "E:1,r1:1"),
        ("hilbert", "--preset", "P2", "--divisor", "H:1", "--samples", ","),
        ("check-a", "--preset", "F1", "--divisor", "C:1,E:1", "--effective", "E:1", "--samples", " , "),
        ("check-b", "--preset", "F1", "--divisor", "C:1,E:1", "--effective", "E:1", "--samples", ",,"),
        ("paper-example", "--samples", ","),
        ("corpus", "--count", "-1"),
        ("h0", "--preset", "P2", "--divisor", "H:1", "--scale", ""),
        ("h0", "--preset", "P2", "--file", "", "--divisor", "H:1"),
        ("h0", "--preset", "", "--divisor", "H:1"),
    ],
)
def test_bad_user_input_is_a_parse_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "argv, line",
    [
        (("intersect", "--preset", "F1", "--divisor", "C:1", "--with", "Z:1"), "parse error: divisors: unknown ray 'Z'"),
        (("h0", "--e", "1", "--divisor", "F9:1"), "parse error: divisors: unknown component 'F9' on F_1"),
        (("sigma", "--e", "1", "--divisor", "C:1,E:1", "--ray", "Z"), "parse error: --ray: unknown component 'Z' on F_1"),
    ],
    ids=["fan-divisor", "surface-divisor", "surface-ray"],
)
def test_unknown_label_message_has_no_key_error_quotes(capsys, argv, line):
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err == line + "\n"


def test_file_divisor_naming_one_ray_twice_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"variety": "P2", "divisors": {"D": {"H": "1", "r2": "2"}}}))
    code, out, err = invoke(capsys, "h0", "--file", str(path), "--divisor", "D")
    assert code == EXIT_PARSE
    assert out == ""
    assert err == "parse error: divisors: 'H' and 'r2' both name ray 2\n"


@pytest.mark.parametrize(
    "text, line",
    [
        (
            '{"variety": "P2", "divisors": {"D": {"H": "1", "H": "2"}}}',
            "parse error: key 'H' is given twice",
        ),
        (
            '{"variety": "P2", "divisors": {"D": {"H": "1"}, "D": {"H": "2"}}}',
            "parse error: key 'D' is given twice",
        ),
        (
            '{"variety": "F1", "variety": "P2", "divisors": {"D": {"H": "1"}}}',
            "parse error: key 'variety' is given twice",
        ),
        ('{"variety": "P2", "divisors": []}', "parse error: divisors: must map names to divisors"),
        ('{"variety": "P2", "divisors": "D"}', "parse error: divisors: must map names to divisors"),
        (
            '{"variety": {"kind": "hirzebruch", "e": true}, "divisors": {"D": {"C": "1"}}}',
            "parse error: variety.e: 'e' must be an integer",
        ),
        (
            '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": true}',
            "parse error: disc: 'disc' must be a non-negative integer",
        ),
        (
            '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 1}',
            "parse error: disc: sqrt(1) is 1; 'disc' must be 0 or a square-free integer above 1",
        ),
        (
            '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 4}',
            "parse error: disc: sqrt(4) is 2; 'disc' must be 0 or a square-free integer above 1",
        ),
        (
            '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 8}',
            "parse error: disc: sqrt(8) is 2*sqrt(2); 'disc' must be 0 or a square-free integer above 1",
        ),
        (
            '{"variety": "P2", "divisors": {"D": {"H": "1"}}, "disc": 1000000000000000000000}',
            "parse error: disc: sqrt(1000000000000000000000): discriminants have at most 15 digits",
        ),
        ('{"variety": "P2", "divisors": {"E": {"H": "1"}}}', "parse error: divisors: unknown divisor 'D'"),
    ],
    ids=[
        "repeated-coefficient",
        "repeated-divisor",
        "repeated-variety",
        "divisors-list",
        "divisors-string",
        "bool-e",
        "bool-disc",
        "disc-1",
        "disc-4",
        "disc-8",
        "disc-22-digits",
        "unknown-divisor",
    ],
)
def test_malformed_problem_file_is_a_parse_error(capsys, tmp_path, text, line):
    path = tmp_path / "p.json"
    path.write_text(text)
    code, out, err = invoke(capsys, "h0", "--file", str(path), "--divisor", "D")
    assert code == EXIT_PARSE
    assert out == ""
    assert err == line + "\n"


def test_library_value_error_is_not_relabelled_as_parse_error(capsys, monkeypatch):
    def broken(D):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli.toric, "h0", broken)
    with pytest.raises(ValueError, match="internal bug"):
        run(["h0", "--preset", "P2", "--divisor", "H:1"])


# ---- problem files -------------------------------------------------------------


GOOD_FILE = {
    "variety": "F1",
    "divisors": {"D": {"C": "1", "E": "1"}, "ample": {"C": "1", "F": "1"}},
    "disc": 2,
}


def test_parse_problem_unknown_key():
    with pytest.raises(ParseError):
        parse_problem(json.dumps({**GOOD_FILE, "extra": 1}))


def test_parse_problem_bad_ray_names():
    fan = {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]], "names": {"H": "x"}}
    with pytest.raises(ParseError, match="names"):
        parse_problem(json.dumps({"variety": fan, "divisors": {}}))


def test_parse_problem_bad_coefficient():
    doc = {"variety": "F1", "divisors": {"D": {"C": "1/0"}}}
    with pytest.raises(ParseError):
        parse_problem(json.dumps(doc))


def test_parse_problem_nonprimitive_ray():
    doc = {
        "variety": {"rays": [[2, 2], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]]},
        "divisors": {},
    }
    with pytest.raises(ParseError) as err:
        parse_problem(json.dumps(doc))
    assert "InvariantViolation" in str(err.value)


def test_parse_problem_disc_mismatch():
    doc = {"variety": "F1", "divisors": {"D": {"C": "sqrt(3)"}}, "disc": 2}
    with pytest.raises(ParseError):
        parse_problem(json.dumps(doc))


def test_env_disc_override():
    doc = {"variety": "F1", "divisors": {"D": {"C": "sqrt(3)"}}}
    with pytest.raises(ParseError):
        parse_problem(json.dumps(doc))  # default disc is 2
    pf = parse_problem(json.dumps({**doc, "disc": 3}))
    assert pf.disc == 3
    assert pf.divisor("D") == pf.variety.divisor({"C": parse_scalar("sqrt(3)")})


def test_unsupported_variety_kind():
    doc = {"variety": {"kind": "smooth_surface", "e": 1}, "divisors": {}}
    with pytest.raises(ParseError) as err:
        parse_problem(json.dumps(doc))
    assert "unsupported" in str(err.value)


def test_parse_problem_inline_fan_works(capsys, tmp_path):
    doc = {
        "variety": {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]]},
        "divisors": {"D": {"r2": "1"}},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "h0", "--file", str(path), "--divisor", "D")
    assert code == EXIT_OK and out.strip() == "3"


@pytest.mark.parametrize(
    "names, argv",
    [
        ({"X": 7}, ("h0", "--divisor", "X:1")),
        ({"X": -1}, ("h0", "--divisor", "X:1")),
        ({"r1": 0}, ("sigma", "--divisor", "r0:1,r1:1,r2:1", "--format", "json")),
    ],
    ids=["past-the-end", "negative", "shadows-default-label"],
)
def test_file_with_bad_ray_names_is_a_parse_error(capsys, tmp_path, names, argv):
    fan = {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]], "names": names}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"variety": fan, "divisors": {}}))
    code, out, err = invoke(capsys, argv[0], "--file", str(path), *argv[1:])
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error:")


@pytest.mark.parametrize(
    "names",
    [{"X": 1.7, "Y": True}, {"Y": True}, {"X": 1.0}, {"X": "1"}, {"X": None}, [["X", 1]]],
    ids=["float-and-bool", "bool", "integral-float", "string", "null", "not-an-object"],
)
def test_file_names_must_be_json_integers(capsys, tmp_path, names):
    fan = {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]], "names": names}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"variety": fan, "divisors": {}}))
    argv = ("sigma", "--file", str(path), "--divisor", "r0:1,r1:1,r2:1", "--format", "json")
    code, out, err = invoke(capsys, *argv)
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: variety.names:")


@pytest.mark.parametrize(
    "rays, cones",
    [
        (
            [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]],
            [[0, 2], [2, 4], [4, 6], [6, 1], [1, 3], [3, 5], [5, 7], [7, 0]],
        ),
        ([[1, 0], [1, 1], [0, 1], [0, -1]], [[0, 2], [1, 2], [1, 3], [0, 3]]),
    ],
    ids=["double-cover", "folded"],
)
def test_file_fan_with_overlapping_cones_is_a_parse_error(capsys, tmp_path, rays, cones):
    doc = {"variety": {"rays": rays, "cones": cones}, "divisors": {"D": {"r2": "1"}}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "nef", "--file", str(path), "--divisor", "D")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error:")


P2_RAYS = [[1, 0], [0, 1], [-1, -1]]
P2_CONES = [[0, 1], [1, 2], [2, 0]]
R012 = {"r0": "1", "r1": "1", "r2": "1"}


@pytest.mark.parametrize(
    "fan, divisor",
    [
        ({"rays": P2_RAYS, "cones": [[0, 1], [1, 5], [2, 0]]}, R012),
        ({"rays": P2_RAYS, "cones": [[0, 1], [1, -1], [-1, 0]]}, R012),
        ({"rays": [], "cones": []}, {}),
        ({"rays": P2_RAYS, "cones": []}, R012),
        ({"rays": P2_RAYS + [[1, 1]], "cones": P2_CONES}, R012),
    ],
    ids=["index-past-the-end", "negative-index", "empty-fan", "no-cones", "uncovered-ray"],
)
def test_file_fan_with_malformed_cones_is_a_parse_error(capsys, tmp_path, fan, divisor):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"variety": fan, "divisors": {"D": divisor}}))
    code, out, err = invoke(capsys, "h0", "--file", str(path), "--divisor", "D")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: variety:")


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


@pytest.mark.parametrize(
    "rays, cones",
    [
        ([[1.9, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]]),
        ([[1, 0], [0, True], [-1, -1]], [[0, 1], [1, 2], [2, 0]]),
        ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2.0], [2, 0]]),
    ],
    ids=["float-ray", "bool-ray", "float-cone"],
)
def test_file_fan_entries_must_be_json_integers(capsys, tmp_path, rays, cones):
    doc = {"variety": {"rays": rays, "cones": cones}, "divisors": {"D": {"r2": "1"}}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    code, out, err = invoke(capsys, "h0", "--file", str(path), "--divisor", "D")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("parse error: variety:")


def test_file_with_surface_model(capsys, tmp_path):
    doc = {
        "variety": {"kind": "hirzebruch", "e": 1, "fibers": ["p1", "p2", "p3", "p4"]},
        "divisors": {"D": {"C": "1", "p1": "sqrt(2)", "p2": "-sqrt(2)"}},
        "disc": 2,
    }
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "h0", "--file", str(path), "--divisor", "D")
    # floor(sqrt2) + floor(-sqrt2) = -1 drops the fiber degree to 0
    assert code == EXIT_OK and out.strip() == "1"


def test_identical_invocations_identical_bytes(capsys):
    _, out1, _ = invoke(capsys, "nsigma", "--preset", "F1", "--divisor", "C:1,E:2", "--format", "json")
    _, out2, _ = invoke(capsys, "nsigma", "--preset", "F1", "--divisor", "C:1,E:2", "--format", "json")
    assert out1 == out2
