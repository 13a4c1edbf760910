"""Child interpreters of the benchmark.

    child.py setup-cold DIR   import, then an empty engine and store in DIR
    child.py setup-warm DIR   import, then load the filled store in DIR
    child.py prep DIR         reproduce the paper into a store in DIR and
                              write the renderings to DIR/renders.json

The set-up modes print ``ready`` once set up; the parent times a fresh
interpreter from spawn to that line.
"""

import importlib
import json
import sys
from pathlib import Path

from repro.engine import ResultStore, SerialExecutor, SimEngine

from perfbench.paper import PAPER_FIGURES, context, reproduce


def main(argv: list) -> int:
    mode, store_dir = argv[0], argv[1]
    if mode in ("setup-cold", "setup-warm"):
        for name in PAPER_FIGURES:
            importlib.import_module(f"repro.experiments.{name}")
        context(SimEngine(SerialExecutor(), ResultStore(store_dir)))
    elif mode == "prep":
        engine = SimEngine(SerialExecutor(), ResultStore(store_dir))
        renders = reproduce(engine)
        Path(store_dir, "renders.json").write_text(json.dumps(renders))
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
