"""Run one ihspoly CLI command with span tracing.

    python3 perfbench/trace_child.py SPANS_PATH <ihspoly arguments...>

Stdout and the exit code are the CLI's own.  The import time of
``ihspoly.cli`` is recorded in the span file's header.  ``src`` must be
on PYTHONPATH.
"""

import sys
from pathlib import Path
from time import perf_counter

started = perf_counter()
import ihspoly.cli  # noqa: E402

import_s = perf_counter() - started

import ihspoly  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer, ihspoly)
    tracer.active = True
    try:
        return ihspoly.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        tracer.write(spans_path, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
