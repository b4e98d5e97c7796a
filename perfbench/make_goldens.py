#!/usr/bin/env python3
"""Record the committed golden outputs of the corpus and cli workloads.

Run from the repository root on a commit whose outputs are trusted:

    python3 perfbench/make_goldens.py corpus   # about 2 minutes
    python3 perfbench/make_goldens.py cli

The hilbert workload needs no file: its goldens are closed forms.  A change
that alters any recorded output fails the benchmark's correctness check,
which is the point; re-record only when the new outputs are right.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    CLI_MIX,
    CORPUS_COUNT,
    CORPUS_POOL,
    GOLDENS,
    SRC,
    Cli,
    CorpusStream,
    corpus_digest,
)

sys.path.insert(0, str(SRC))


def corpus_goldens() -> dict:
    seeds = {}
    for corpus_seed in CORPUS_POOL:
        stream = CorpusStream(corpus_seed, CORPUS_COUNT, golden={})
        outputs = [stream.run(i) for i in range(CORPUS_COUNT)]
        seeds[str(corpus_seed)] = {
            "digests": [corpus_digest(out) for out in outputs],
            "nef": "".join("1" if out["nef"] else "0" for out in outputs),
            "neg": "".join("0" if out["negsections"] is None else "1" for out in outputs),
        }
        print(f"corpus seed {corpus_seed}: {CORPUS_COUNT} instances", file=sys.stderr)
    return {"count": CORPUS_COUNT, "seeds": seeds}


def cli_goldens() -> dict:
    wl = Cli(0, cycles=1, golden=[])
    outputs = [None] * len(CLI_MIX)
    for k in range(wl.limit):
        outputs[wl.order[k]] = wl.run(k)
    return {"argv": [list(a) for a in CLI_MIX], "outputs": outputs}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("workload", choices=("corpus", "cli"))
    args = ap.parse_args()
    doc = corpus_goldens() if args.workload == "corpus" else cli_goldens()
    path = GOLDENS / f"{args.workload}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
