#!/usr/bin/env python3
"""One workload process: build the inputs, run ops, print one JSON line.

    python3 perfbench/worker.py --workload corpus --seed 3 --seconds 25
    python3 perfbench/worker.py --workload hilbert --seed 3 --ops 24 --trace out.jsonl
    python3 perfbench/worker.py --workload cli --seed 3 --setup-only

``run.py`` starts this in a fresh process for every measurement, so the
library's module-level caches start empty each time, as they do for a user.

Host speed.  On a shared host the same op can take 6 ms for a few seconds
and 11 ms for the next few (CPU time equals wall time, so this is the
processor slowing down, not the process waiting).  Each op is therefore
bracketed by a fixed reference task whose speed tracks the op's: a pure
Python loop for ops inside this process; for cli ops, which are whole
processes, a cold process that does a cli op's kind of work without rdiv.
Op times are reported scaled to the host speed at which the reference
takes its nominal time:
scaled = raw * nominal / (mean time of the two references around the op).
A slower program still scales to a longer time; a slower host does not.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from workloads import SRC, WORKLOADS, cli_env


# memory is read after a fixed op count, so that it does not depend on how
# many ops the host's speed allowed in the time budget
RSS_OPS = 200
WALL_CAP = 3
LOOP_S = 0.003  # nominal times of the two references
COLD_START_S = 0.13
_HALF = Fraction(1, 2)


def python_loop_s() -> float:
    """Time of a fixed loop of Fraction arithmetic and dict stores, the kind
    of work the library does; it never calls the library."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(400):
        acc = acc * _HALF + Fraction(i % 7 + 1, i % 5 + 2)
        table[(i % 13, i % 3)] = acc
    return time.perf_counter() - start


# A cli op starts an interpreter, imports standard modules and runs Python
# code.  When a shared host changes speed, the three change by different
# amounts, so the reference does all three, without rdiv.
_COLD_START = """\
import argparse, dataclasses, fractions, json
acc, table = fractions.Fraction(0), {}
for i in range(3000):
    acc = acc * fractions.Fraction(1, 2) + fractions.Fraction(i % 7 + 1, i % 5 + 2)
    table[(i % 13, i % 3)] = acc
"""


def cold_start_s() -> float:
    """Time of one cold process running _COLD_START."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", _COLD_START], env=cli_env(), check=True, timeout=60)
    return time.perf_counter() - start


def reference_for(workload: str):
    """(reference task, its nominal seconds, ops between two runs of it) for
    the ops of a workload; the reference takes a fifth or less of the time
    of the ops it brackets."""
    if workload == "cli":
        return cold_start_s, COLD_START_S, 2
    return python_loop_s, LOOP_S, 1


def scale_factor(refs, nominal: float) -> float:
    return nominal / statistics.median(refs)


def _pin_to_current_cpu():
    """Keep this process, and the cli processes it starts, on one CPU, so the
    reference and the ops it scales run on the same core."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # not Linux: leave placement to the scheduler


def _peak_rss_kb(workload: str) -> int:
    """Max RSS of this process, or of the cli processes it ran."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def _op_loop(wl, seconds, max_ops, tracer):
    """Run ops in index order until their scaled time reaches `seconds` (so
    the op count does not depend on the host's speed) or `max_ops` are done.
    A wall-clock cap of WALL_CAP x `seconds` bounds a pathologically slow host.

    The reference runs once per block of `every` ops; the ops of a block are
    scaled by the mean of the references just before and just after it, so
    a change of host speed is followed within one block."""
    clock = time.perf_counter
    limit = wl.limit if max_ops is None else min(wl.limit, max_ops)
    reference, nominal, every = reference_for(wl.name)
    latencies, scaled, digests, outputs = [], [], [], []
    refs = [reference()]
    failed, first_error, rss_kb = 0, None, None
    start = clock()
    spent = 0.0
    k = 0
    def budget_left():
        return seconds is None or (spent < seconds and clock() - start < WALL_CAP * seconds)

    while k < limit and budget_left():
        if tracer is not None:
            tracer.op = k
        t = clock()
        try:
            out = wl.run(k)
        except Exception:  # an op that raises is a failed op; the run goes on
            out = None
            if first_error is None:
                first_error = traceback.format_exc()
        latencies.append(clock() - t)
        if out is None or not wl.check(k, out):
            failed += 1
        digests.append("-" if out is None else wl.digest(out))
        outputs.append(out)
        k += 1
        if k == RSS_OPS:
            rss_kb = _peak_rss_kb(wl.name)
        if k % every == 0 or k == limit:
            refs.append(reference())
            factor = scale_factor(refs[-2:], nominal)
            for raw in latencies[len(scaled) :]:
                scaled.append(raw * factor)
                spent += raw * factor
    if len(scaled) < len(latencies):  # stopped inside a block
        refs.append(reference())
        factor = scale_factor(refs[-2:], nominal)
        scaled += [raw * factor for raw in latencies[len(scaled) :]]
    wall = clock() - start
    return {
        "attempted": k,
        "failed": failed,
        "wall_s": wall,
        "latencies_s": latencies,
        "scaled_latencies_s": scaled,
        "scale": scale_factor(refs, nominal),
        "outputs_digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        "first_error": first_error,
        "peak_rss_kb": _peak_rss_kb(wl.name) if rss_kb is None else rss_kb,
    }, outputs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="op time budget, in scaled seconds")
    ap.add_argument("--ops", type=int, help="op count cap")
    ap.add_argument("--trace", help="trace the op loop; spans go to this JSONL file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    _pin_to_current_cpu()
    refs = [python_loop_s() for _ in range(3)]
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload](args.seed)
    setup = time.perf_counter() - t0
    refs += [python_loop_s() for _ in range(3)]
    result = {"setup_s": setup, "scaled_setup_s": setup * scale_factor(refs, LOOP_S)}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        open(args.trace, "w").close()
        if args.workload == "cli":
            wl.trace_path = args.trace  # each cli process traces itself
        else:
            from tracer import Tracer

            tracer = Tracer().install()
    loop, outputs = _op_loop(wl, args.seconds, args.ops, tracer)
    result.update(loop)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        with open(args.trace, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"process": "worker", **tracer.export_spans()}) + "\n")
    elif args.trace:
        from tracer import merge_cli_traces

        result["trace"] = merge_cli_traces(args.trace)

    if args.workload == "corpus":
        done = [o for o in outputs if o is not None]
        result["summary"] = wl.summary(done) if len(done) == len(outputs) else None
        result["summary_ok"] = result["summary"] == wl.expected_summary(len(outputs))
        result["corpus_seeds"] = [st.corpus_seed for st in wl.streams]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
