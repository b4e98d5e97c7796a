"""Edge cases cutting across modules: degenerate geometry, redundant data,
non-primitive rows, translations, and the less-traveled CLI paths."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import EmptyPolytope, euclidean_volume, facet_scalars, translate, vertices
from rdiv.cli import EXIT_OK, run
from rdiv.polyhedra import (
    HPolytope,
    lattice_points,
    lp_solve,
)
from rdiv.scalars import Scalar, sqrt
from rdiv.toric import intersection_nef_div, preset_fan


def poly(rows, dim=2):
    return HPolytope(dim, tuple((tuple(g), Scalar(c) if not isinstance(c, Scalar) else c) for g, c in rows))


UNIT_SQUARE = poly([((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1)])


# ---- polyhedra edges ---------------------------------------------------------


def test_facet_volume_non_primitive_row():
    # (2,0) >= 2 cuts the same facet as (1,0) >= 1; lattice length must agree
    doubled = poly([((2, 0), 2), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -1)])
    plain = poly([((1, 0), 1), ((0, 1), 0), ((-1, 0), -2), ((0, -1), -1)])
    assert facet_scalars(doubled)[0] == facet_scalars(plain)[0] == Scalar(1)


def test_duplicate_rows_are_harmless():
    doubled = poly(
        [((1, 0), 0), ((1, 0), 0), ((0, 1), 0), ((-1, 0), -1), ((0, -1), -1), ((-1, 0), -1)]
    )
    assert euclidean_volume(doubled) == Scalar(1)
    assert lattice_points(doubled) == 4
    assert vertices(doubled) == vertices(UNIT_SQUARE)
    assert facet_scalars(doubled)[0] == Scalar(1)


def test_volume_invariant_under_scalar_translation():
    shift = (Scalar(Fraction(2, 3)), sqrt(2))
    moved = translate(UNIT_SQUARE, shift)
    assert euclidean_volume(moved) == Scalar(1)


@given(st.integers(min_value=-9, max_value=9), st.integers(min_value=-9, max_value=9))
@settings(max_examples=40)
def test_lattice_count_invariant_under_integer_translation(a, b):
    tri = poly([((1, 0), 0), ((-1, 1), 0), ((0, -1), -3)])
    assert lattice_points(translate(tri, (a, b))) == lattice_points(tri)


def test_irrational_translation_changes_lattice_count():
    # sliding the unit square by sqrt(2) strands its boundary points
    moved = translate(UNIT_SQUARE, (sqrt(2), Scalar(0)))
    assert lattice_points(UNIT_SQUARE) == 4
    assert lattice_points(moved) == 2


def test_lp_objective_constant_along_an_edge():
    # both vertices of the top edge attain the minimum, so it is read once
    assert lp_solve(UNIT_SQUARE, [(0, -1), (-1, -1)]) == (Scalar(-1), Scalar(-2))


def test_thin_simplex_volume():
    thin = poly([((1, 0), 0), ((0, 1), 0), ((-1, -120), -1)])
    assert euclidean_volume(thin) == Scalar(Fraction(1, 240))
    assert lattice_points(thin) == 2


def test_single_point_polytope():
    point = poly([((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)])
    assert vertices(point) == {(Scalar(0), Scalar(0))}
    assert euclidean_volume(point) == Scalar(0)
    assert lattice_points(point) == 1


def test_empty_after_slack_detection():
    infeasible = poly([((1, 0), 2), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)])
    with pytest.raises(EmptyPolytope):
        vertices(infeasible)
    assert lattice_points(infeasible) == 0


# ---- toric edges --------------------------------------------------------------


def test_intersection_on_p1xp1():
    fan = preset_fan("P1xP1")
    D = fan.divisor({"H1": 2, "H2": 3})
    # pairing against one ruling picks up the other factor's degree
    assert intersection_nef_div(D, fan.divisor({"H1": 1})) == Scalar(3)
    assert intersection_nef_div(D, fan.divisor({"H2": 1})) == Scalar(2)
    assert intersection_nef_div(D, fan.divisor({0: 1})) == Scalar(3)


def test_f3_preset_sigma():
    fan = preset_fan("F3")
    D = fan.divisor({"C": 1, "E": 1})
    from rdiv.toric import sigma, volume

    # class 2E + 3F: (D).E = 3 - 6 < 0, sigma_E = 2 - 3/3 = 1
    assert sigma(D, "E") == Scalar(1)
    assert volume(D) == Scalar(3)  # P = (1,3): -3 + 2*3 = 3


# ---- cli edges ----------------------------------------------------------------


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_hilbert_on_surface_model(capsys):
    code, out, _ = invoke(
        capsys, "hilbert", "--e", "1", "--divisor", "C:1,F1:sqrt(2),F2:-sqrt(2)", "--samples", "1,2"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,h0,normalized"
    assert lines[1].startswith("1,1,")
    assert lines[2].startswith("2,3,")


def test_cli_corpus_which_a(capsys):
    code, out, _ = invoke(capsys, "corpus", "--seed", "3", "--count", "4", "--which", "A")
    assert code == EXIT_OK
    assert "consistent,4" in out


def test_cli_fan_json_with_names(capsys, tmp_path):
    doc = {
        "variety": {
            "rays": [[1, 0], [0, 1], [-1, 1], [0, -1]],
            "cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
            "names": {"E": 1, "C": 3},
        },
        "divisors": {"D": {"C": "1", "E": "1"}},
    }
    path = tmp_path / "named.json"
    path.write_text(json.dumps(doc))
    code, out, _ = invoke(capsys, "sigma", "--file", str(path), "--divisor", "D", "--ray", "E")
    assert code == EXIT_OK and out.strip() == "1"


def test_cli_intersect_surface(capsys):
    code, out, _ = invoke(
        capsys, "intersect", "--e", "2", "--divisor", "C:1", "--with", "E:1"
    )
    assert code == EXIT_OK and out.strip() == "0"


def test_cli_volume_scaled(capsys):
    code, out, _ = invoke(
        capsys, "volume", "--preset", "P2", "--divisor", "H:1", "--scale", "sqrt(2)"
    )
    assert code == EXIT_OK and out.strip() == "2"
