"""Tests of the benchmark itself: metrics reported, goldens enforced, tracing
transparent.  Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_metrics, total_self_s  # noqa: E402
from workloads import CORPUS_POOL, Cli, Corpus, Hilbert  # noqa: E402

from rdiv import Scalar, theorems, toric  # noqa: E402
from rdiv import polyhedra  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _worker(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["corpus", "hilbert", "cli"])
def test_tiny_pass_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", 3, "--seconds", 0.3, "--trace", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = json.loads(proc.stdout.splitlines()[-2])["env"]
    assert env["nproc"] >= 1 and env["python"]


@pytest.mark.parametrize(
    "workload,busiest",
    [
        ("corpus", "polyhedra.lp.calls"),
        ("hilbert", "polyhedra.lattice.points"),
        ("cli", "cli.run.self_s"),
    ],
)
def test_traced_pass_reports_every_per_layer_metric(workload, busiest):
    proc = _run("--workload", workload, "--seed", 3, "--seconds", 0.3, "--trace", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"][busiest]["value"] > 0
    assert result["metrics"]["theorems.candidates"]["value"] == 0


def test_wrong_golden_counts_as_failure():
    wl = Hilbert(1, cycles=1)
    right = wl.golden
    wl.golden = lambda k: right(k) + 1 if k == 0 else right(k)
    loop, _ = worker._op_loop(wl, None, 2, None)
    assert loop["attempted"] == 2 and loop["failed"] == 1

    cli = Cli(1, cycles=1)
    bad = dict(cli.golden[cli.order[0]], stdout="not the output\n")
    cli.golden = list(cli.golden)
    cli.golden[cli.order[0]] = bad
    loop, _ = worker._op_loop(cli, None, 1, None)
    assert loop["failed"] == 1


def test_corpus_summaries_equal_corpus_run():
    wl = Corpus(4, count=2)
    n = 2 * len(wl.streams)
    outputs = [wl.run(k) for k in range(n)]
    assert all(wl.check(k, out) for k, out in enumerate(outputs))
    summaries = wl.summary(outputs)
    assert summaries == wl.expected_summary(n)
    pool = len(CORPUS_POOL)
    assert [s["seed"] for s in summaries] == [CORPUS_POOL[(4 + j) % pool] for j in range(pool)]
    for summary in summaries:
        assert summary == theorems.corpus_run(summary["seed"], 2)


@pytest.mark.parametrize("workload,ops", [("hilbert", 3), ("cli", 2), ("corpus", 2)])
def test_traced_and_untraced_outputs_identical(workload, ops, tmp_path):
    plain = _worker("--workload", workload, "--seed", 5, "--ops", ops)
    traced = _worker(
        "--workload", workload, "--seed", 5, "--ops", ops, "--trace", tmp_path / "spans.jsonl"
    )
    assert plain["failed"] == traced["failed"] == 0
    assert plain["outputs_digest"] == traced["outputs_digest"]
    assert total_self_s(traced["trace"]) <= traced["wall_s"]
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_tracer_rebinds_names_imported_elsewhere_and_restores_them():
    original = polyhedra.lp_solve
    assert toric.lp_solve is original
    tracer = Tracer().install()
    try:
        assert toric.lp_solve is polyhedra.lp_solve is not original
        D = toric.preset_fan("F1").divisor({"E": 1, "C": 1})
        assert toric.sigma(D, "E") == 1
        assert math.floor(Scalar(1, 1, 2)) == 2
    finally:
        tracer.uninstall()
    assert toric.lp_solve is polyhedra.lp_solve is original
    metrics = layer_metrics(tracer.summary())
    assert metrics["toric.sigma.calls"] == 1
    assert metrics["polyhedra.lp.calls"] >= 1
    assert metrics["scalars.floor.calls"] >= 1
    assert all(s[1] >= -1e-9 for s in tracer.self_times().values())


def test_closed_forms_agree_with_the_library_at_small_m():
    root2 = (Fraction(0), Fraction(1))
    F = Fraction
    for r, s in [(F(7, 3), F(-5, 4)), (F(-1, 2), F(3, 7)), (F(4), F(0)), (F(-10**20), F(10**19))]:
        assert ref.q_floor((r, s)) == math.floor(Scalar(r, s, 2))
    coeffs = [(F(0), F(1, 3)), (F(1, 4), F(0)), (F(1), F(0))]
    fans = {k: toric.preset_fan(k) for k in ("P2", "F1", "F2", "P1xP1", "P3")}
    for m in (3, 8):
        mq = (Fraction(m), Fraction(0))
        floors = [ref.q_floor(ref.q_mul(mq, c)) for c in coeffs]
        D = fans["P2"].divisor([Scalar(a, b, 2) for a, b in coeffs])
        assert ref.h0_projective(floors) == toric.h0(D.scale(m))
        four = coeffs + [ref.q_mul(root2, root2)]
        floors4 = [ref.q_floor(ref.q_mul(mq, c)) for c in four]
        D4 = [Scalar(a, b, 2) for a, b in four]
        assert ref.h0_projective(floors4) == toric.h0(fans["P3"].divisor(D4).scale(m))
        assert ref.h0_p1xp1(floors4) == toric.h0(fans["P1xP1"].divisor(D4).scale(m))
        for e in (1, 2):
            assert ref.h0_hirzebruch_fan(floors4, e) == toric.h0(fans[f"F{e}"].divisor(D4).scale(m))
        value = toric.sigma_limit_oracle(D, 0, [m])[0]
        assert (value.rat, value.surd) == ref.sigma_oracle_p2(coeffs, m)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "hilbert", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
