"""Steadiness check: runs every workload of BENCHMARK.json on seeds 1..10,
one process per run, in two sets one after the other, and prints per
end-to-end metric and set the median, the quartiles and the spread
(interquartile distance over median) against the metric's bound.

    python3 perfbench/steady.py

Run it from the root of a checkout on an otherwise idle machine; it takes
about 40 minutes.  It exits 0 only if, for every metric of every workload,
the spread of each set is within the bound, the median of the second set is
not worse than that of the first by more than the bound, and the failed
share of operations is the same in every run.
"""
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def run_set(spec: dict, workload: str) -> tuple[dict[str, list[float]], set]:
    values: dict[str, list[float]] = defaultdict(list)
    shares = set()
    for seed in SEEDS:
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"{workload} seed {seed}: a correctness check failed")
        shares.add((res["failed"], res["attempted"]) if res["failed"] else 0)
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
        print(f"{workload} seed {seed}: attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              file=sys.stderr, flush=True)
    return values, shares


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sets = [{w: run_set(spec, w) for w in workloads} for _ in range(SETS)]

    steady = True
    for workload in workloads:
        print(f"\n{workload}: seeds {SEEDS[0]}..{SEEDS[-1]}, {spec['run_seconds']} s each, {SETS} sets")
        print(f"{'metric':<24}{'unit':>10}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>8}{'worse':>8}{'bound':>7}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = None
            for i, by_workload in enumerate(sets, 1):
                q1, med, q3 = statistics.quantiles(by_workload[workload][0][name], n=4)
                spread = (q3 - q1) / med
                # How much worse this set's median is than the first set's.
                worse = 0.0 if first is None else (med - first) / first * (1 if metric["better"] == "lower" else -1)
                first = med if first is None else first
                ok = spread <= bound and worse <= bound
                steady &= ok
                print(f"{name:<24}{metric['unit']:>10}{i:>4}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>8.3f}"
                      f"{worse:>8.3f}{bound:>7.2f}{'' if ok else '  OUT'}")
        shares = set().union(*(by_workload[workload][1] for by_workload in sets))
        if len(shares) != 1:
            steady = False
            print(f"failed share differs between runs: {sorted(map(str, shares))}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
