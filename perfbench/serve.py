"""Launch ``repro-serve`` for the benchmark.

    serve.py OUTDIR TRACE [repro-serve arguments...]

Runs the ``repro-serve`` entry point in this process.  With TRACE=1 the
tracing wrappers are installed first, and the spans are written to
OUTDIR/server-trace.json at exit.  On exit OUTDIR/usage.json reports the
peak RSS of this process and of its largest child (a pool worker).
"""

import json
import resource
import sys
from pathlib import Path

from repro.service.cli import main as serve_main


def main(argv: list) -> int:
    out, traced = Path(argv[0]), argv[1] == "1"
    tracer = None
    if traced:
        from perfbench.tracing import Tracer, install

        tracer = Tracer(server=True)
        install(tracer)
    code = serve_main(argv[2:])
    usage = {
        "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "trace": None,
    }
    if tracer is not None:
        usage["trace"] = str(out / "server-trace.json")
        tracer.dump(Path(usage["trace"]))
    (out / "usage.json").write_text(json.dumps(usage))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
