"""Benchmark entry point. From the repository root:

    python3 bench/run.py --workload opt-deep --seed 1 --seconds 15 --trace 0

Prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. Exits 2 when the
program's source (`src/qidopt`) is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "qidopt" / "__init__.py").is_file():
        print(f"error: no qidopt package under {src}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]
    # one process, no extra threads: pin BLAS before numpy is first imported
    threads = str(json.loads((BENCH_DIR / "reference.json").read_text())["blas_threads"])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(src))
    import harness

    harness.import_program()  # fails here, before any timing, if the program cannot load
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    names = [m["name"] for m in declared]
    if sorted(result["metrics"]) != sorted(names):
        print(
            f"error: measured {sorted(result['metrics'])}, BENCHMARK.json declares {sorted(names)}",
            file=sys.stderr,
        )
        return 1
    result["metrics"] = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
