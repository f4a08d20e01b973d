"""Run one ``repro`` CLI command with the layer tracer installed.

Usage: ``python perfbench/launch.py SPANS.json [--op ID] -- <repro args>``

The command runs in this process exactly as ``python -m repro.cli`` would
run it, after this script has timed ``import repro.cli`` and wrapped the
layer entry points (see :mod:`tracing`).  When the command returns —
for ``serve-daemon``, after SIGTERM — the spans are written to
``SPANS.json``.  ``--op`` tags every root span with one operation id;
without it each root span starts its own operation.
"""

from __future__ import annotations

import sys
import time


def main(argv: list[str]) -> int:
    if "--" not in argv or not argv:
        print("usage: launch.py SPANS.json [--op ID] -- <repro args>", file=sys.stderr)
        return 2
    split = argv.index("--")
    head, cli_args = argv[:split], argv[split + 1:]
    spans_path, op = head[0], None
    if len(head) == 3 and head[1] == "--op":
        op = head[2]

    from tracing import Tracer, install

    tracer = Tracer()
    tracer.op = op
    start = time.perf_counter()
    import repro.cli

    tracer.record("import.cli", start, time.perf_counter())
    install(tracer)
    try:
        return repro.cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
