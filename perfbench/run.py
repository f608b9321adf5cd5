"""Benchmark entry point: runs one workload in this process and prints its result.

    python3 perfbench/run.py --workload ablation-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  Program files go to a scratch directory under
``.perfbench/`` that is removed at the end; a traced run leaves its spans
and a summary in ``.perfbench/trace-<workload>-seed<seed>/``.
"""
import os

# One BLAS and OpenMP thread.  OpenBLAS reads these when numpy loads it, so
# they are set before anything imports numpy.  On a 2-core machine its
# default second thread makes GEMM-bound timings swing with whatever else
# runs, and the Python-bound workload gains nothing from it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "poseattn" / "__init__.py").is_file():
        print(f"poseattn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    out_root = ROOT / ".perfbench"
    work = out_root / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        res = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in res["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    if args.trace:
        trace_dir = out_root / f"trace-{args.workload}-seed{args.seed}"
        trace_dir.mkdir(parents=True, exist_ok=True)
        res["recorder"].write_spans(trace_dir / "spans.jsonl")
        summary = {k: {"value": v, "unit": u} for k, (v, u) in {**res["end_to_end"], **metrics}.items()}
        (trace_dir / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
