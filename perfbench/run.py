"""coreglasso benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload graph_dense --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  BLAS/OpenMP are pinned to one thread before numpy loads.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.  The line before it records the environment.  A traced
run also writes its spans to ``.perfbench_out/``.
"""

import argparse
import json
import os
import sys

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "coreglasso" / "__init__.py").is_file():
        print(f"error: no coreglasso sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench  # numpy loads here, after the thread pinning

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, rec = bench.run(bench.WORKLOADS[args.workload], args.seed,
                            args.seconds, bool(args.trace), ROOT)
    if args.trace:
        out = ROOT / ".perfbench_out"
        rec.dump(out / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps({"environment": bench.environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
