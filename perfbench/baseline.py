"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 5 --workload compare

Per workload: one `run.py --trace 0` process for each seed 1..N, then one
`run.py --trace 1` (seed 1).  Prints, for each end-to-end metric, the
median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json.  --out keeps every run's result line and
run record, so two commits can be compared run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    record = next(json.loads(x[len("record "):]) for x in lines if x.startswith("record "))
    return {"seed": seed, "result": json.loads(lines[-1]), "record": record}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": m["bound"], "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {}
    for name in args.workload or WORKLOADS:
        runs = [run(name, seed, spec["run_seconds"], 0) for seed in range(1, args.seeds + 1)]
        summary = summarise(runs, spec["end_to_end"])
        report[name] = {"runs": runs, "summary": summary}
        for metric, s in summary.items():
            print(f"{name:<8} {metric:<12} median {s['median']:10.4f} {s['unit']:<3} "
                  f"q1 {s['q1']:10.4f} q3 {s['q3']:10.4f} spread {s['spread']:.3f} "
                  f"(bound {s['bound']})")
        print(f"{name:<8} correct {[r['result']['correct'] for r in runs]} "
              f"wrong_results {[r['record']['wrong_results'] for r in runs]}", flush=True)
        report[name]["trace"] = run(name, 1, spec["run_seconds"], 1)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
