#!/usr/bin/env python3
"""rdiv benchmark: end-to-end metrics per workload, per-layer metrics when traced.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the repository root.  Workloads (see workloads.py and
expectations.json): ``corpus``, ``hilbert`` and ``cli``; each is a closed
loop with one client in one process.

``--trace 0`` starts SETUP_REPEATS fresh processes that each import rdiv
and build the workload's inputs; the last of them then runs ops until
their time reaches ``--seconds``.  It reports
  setup_s      median set-up time of those processes
  ops_per_s    ops completed per second of op time
  op_p50_ms    median op latency
  op_tail_ms   the 11th slowest op: the highest percentile with 10 samples
               beyond it (which percentile, and the sample count, are in
               the details line)
  peak_rss_mb  max RSS once 200 ops are done (of the cli children for cli)
  ok_ratio     1 - failed/attempted.  The failure ratio itself reads 0 when
               all is well, and a reported metric must never read 0.
Times are scaled to a fixed host speed, as worker.py explains, and the op
budget is counted in scaled time, so the op count does not follow the
host's speed either.  The unscaled figures are in the details line.

``--trace 1`` ignores ``--seconds`` and runs a fixed number of ops
(TRACE_OPS) twice, each in a fresh process: once traced, once not.  It
reports the per-layer metrics (exact call counts for a given seed, self
times in scaled seconds) and the tracing overhead, and checks that both
runs produced identical outputs and that the self times sum to at most the
traced time.

Every op's output is checked against its golden value.  The last line of
stdout is the result as one JSON object; the line before it records the
run environment and the details behind the metrics.  Both are also written
to .perfbench_out/ at the repository root, with the spans of traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import CLI_MIX

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
# cli traces one whole cycle of CLI_MIX, so every command appears once
TRACE_OPS = {"corpus": 40, "hilbert": 24, "cli": len(CLI_MIX)}
WORKER_TIMEOUT_S = 170
TAIL_BEYOND = 10


def _loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def _worker(*args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
        raise SystemExit(f"worker {' '.join(map(str, args))} exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().splitlines()[-1])


def tail(latencies_ms):
    """The highest percentile with TAIL_BEYOND samples beyond it, with the
    percentile it is and the sample count."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * k / max(1, n - 1), n


def end_to_end(workload: str, seed: int, seconds: float):
    runs = [_worker("--workload", workload, "--seed", seed, "--setup-only")
            for _ in range(SETUP_REPEATS - 1)]
    res = _worker("--workload", workload, "--seed", seed, "--seconds", seconds)
    runs.append(res)
    attempted, failed = res["attempted"], res["failed"]
    ok = attempted - failed
    scaled = [x * 1000.0 for x in res["scaled_latencies_s"]]
    raw = [x * 1000.0 for x in res["latencies_s"]]
    tail_ms, tail_pct, n = tail(scaled)
    metrics = {
        "setup_s": (statistics.median(r["scaled_setup_s"] for r in runs), "s"),
        "ops_per_s": (ok / sum(res["scaled_latencies_s"]), "1/s"),
        "op_p50_ms": (statistics.median(scaled), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
        "ok_ratio": (ok / attempted, "ratio"),
    }
    details = {
        "op_tail_percentile": tail_pct,
        "op_samples": n,
        "fail_ratio": failed / attempted,
        "wall_s": res["wall_s"],
        "unscaled": {
            "setup_s_samples": [r["setup_s"] for r in runs],
            "ops_per_s": ok / res["wall_s"],
            "op_p50_ms": statistics.median(raw),
            "op_tail_ms": tail(raw)[0],
        },
        "first_error": res["first_error"],
    }
    correct = failed == 0
    if workload == "corpus":
        details["corpus_summaries"] = res["summary"]
        correct = correct and res["summary_ok"]
    return correct, attempted, failed, metrics, details


def src_lines() -> dict:
    out = {}
    for path in sorted((SRC / "rdiv").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            out[f"src.{path.stem}.lines"] = sum(1 for _ in fh)
    out["src.total.lines"] = sum(out.values())
    return out


def traced(workload: str, seed: int, spans_path: Path):
    from tracer import layer_metrics, total_self_s

    ops = TRACE_OPS[workload]
    on = _worker("--workload", workload, "--seed", seed, "--ops", ops, "--trace", spans_path)
    off = _worker("--workload", workload, "--seed", seed, "--ops", ops)
    # self times are scaled to the reference host speed like every other time
    values = {
        name: value * on["scale"] if name.endswith("_s") else value
        for name, value in layer_metrics(on["trace"]).items()
    }
    values["theorems.candidates"] = sum(len(s["candidates"]) for s in on.get("summary") or [])
    values["trace.overhead_ratio"] = sum(on["scaled_latencies_s"]) / sum(off["scaled_latencies_s"])
    values.update(src_lines())
    self_total = total_self_s(on["trace"])
    details = {
        "ops": on["attempted"],
        "traced_wall_s": on["wall_s"],
        "untraced_wall_s": off["wall_s"],
        "self_s_total": self_total,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "first_error": on["first_error"] or off["first_error"],
    }
    correct = (
        on["failed"] == 0
        and off["failed"] == 0
        and on["outputs_digest"] == off["outputs_digest"]
        and on["attempted"] == off["attempted"]
        and self_total <= on["wall_s"]
    )
    if workload == "corpus":
        correct = correct and on["summary_ok"] and off["summary_ok"]
    units = {".calls": "count", ".points": "count", ".size": "count", ".lines": "count",
             ".cache_misses": "count", ".candidates": "count", "_s": "s", "_ratio": "ratio"}
    metrics = {}
    for name, value in values.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        metrics[name] = (value, unit)
    attempted = on["attempted"] + off["attempted"]
    return correct, attempted, on["failed"] + off["failed"], metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", required=True, choices=("corpus", "hilbert", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rdiv" / "__init__.py").is_file():
        print(f"rdiv sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": _loadavg(),
        "started_unix": time.time(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced(args.workload, args.seed, OUT / f"{stem}-spans.jsonl")
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    correct, attempted, failed, metrics, details = result
    env["loadavg_end"] = _loadavg()
    line = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "details": details, "result": line}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"env": env, "details": details}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
