"""Traced `indoorseg segment` child: `python cli_child.py SPANS_JSON ARGS...`.

Times the import of `indoorseg.cli`, installs the span wrappers, runs
`indoorseg.cli.main(ARGS)` and writes the spans to SPANS_JSON on exit.
Only the standard library is loaded before the import is timed.
"""

import importlib
import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    cli = importlib.import_module("indoorseg.cli")
    imported = time.perf_counter()

    import tracing

    tracer = tracing.Tracer()
    tracer.op = "cli"
    tracer.add_span("cli.import", start, imported)
    tracing.install(tracer)
    code = cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as f:
        json.dump(tracer.dump(), f)
    sys.exit(code)
