#!/usr/bin/env python3
"""Run one ``rdiv.cli`` command under the tracer, as a traced cli op.

    python3 perfbench/cli_shim.py TRACE.jsonl OP_INDEX <rdiv arguments...>

Stdout and the exit code are those of ``python -m rdiv.cli`` with the same
arguments.  The import of ``rdiv.cli`` is timed before the tracer is
installed; the spans of the ``cli.run`` call are appended to TRACE.jsonl.
Nothing but ``sys`` and ``time`` is imported before that timer starts, so
the modules rdiv shares with the tracer (``json``, ``inspect``) count
towards the import time, as they do in a cold ``python -m rdiv.cli``.
"""

import sys
import time


def main():
    path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import rdiv.cli as cli

    import_s = time.perf_counter() - start
    import json

    from tracer import Tracer

    tracer = Tracer().install()
    tracer.op = op
    start = time.perf_counter()
    code = cli.run(argv)
    wall = time.perf_counter() - start
    tracer.uninstall()
    sys.stdout.flush()
    record = {"process": op, "import_s": import_s, "wall_s": wall, "summary": tracer.summary()}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, **tracer.export_spans()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
