"""One set-up measurement in a fresh interpreter.

Times ``import synpa.cli`` and then writing the workload's generated
inputs, and prints both as one JSON line.  ``run.py`` starts this
script several times per run and reports the median as ``setup_s``.

    python3 benchmarks/setup_probe.py --workload NAME --seed N --out DIR [--small]

``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import inputs  # noqa: E402  (stdlib only; loaded before the clock starts)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args()

    t0 = perf_counter()
    import synpa.cli  # noqa: F401

    t1 = perf_counter()
    written = inputs.write_inputs(args.workload, args.seed, args.out, args.small)
    t2 = perf_counter()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "inputs_ms": (t2 - t1) * 1e3,
                      "inputs": written}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
