"""Run one ``relialloc`` CLI command with the tracer installed.

    python3 perfbench/traced_cli.py SUMMARY.json SPANS.jsonl RUN_ID OPS -- CLI-ARGS...

The command runs in this process under a root span ``cli.main``. On exit
the spans go to SPANS.jsonl and the per-layer summary, computed with OPS
operations (replications) as the base of per-operation ratios, goes to
SUMMARY.json together with ``command_end``, the ``perf_counter`` reading
when the command returned (the clock is system-wide, so the parent can
time the command without the cost of writing the spans). The exit code
is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracing import Tracer, summarize, write_spans


def main(argv: list[str]) -> int:
    summary_path, spans_path, run_id, ops, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit(__doc__)
    from relialloc import cli

    tracer = Tracer(run_id)
    tracer.install()
    code = 0
    try:
        with tracer.span("cli.main"):
            try:
                cli.main.main(args=cli_args, prog_name="relialloc", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
    finally:
        command_end = time.perf_counter()
        tracer.uninstall()
    write_spans(tracer.spans, Path(spans_path))
    summary = summarize(tracer.spans, int(ops))
    summary["command_end"] = command_end
    Path(summary_path).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
