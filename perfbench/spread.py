#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                [--trace 0|1] [--json out.json]

For every workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the
median; with --trace 0 each spread is compared against a third of the
metric's bound in BENCHMARK.json. --json writes every run's values and the
summary (the form perfbench/baseline.json is kept in).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": a.seconds, "trace": a.trace, "workloads": {}}
    steady = True
    for w in a.workloads.split(","):
        runs = []
        for seed in seeds(a.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(a.seconds), "--trace", str(a.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
        summary = {}
        print(f"\n{w} ({len(runs)} runs)")
        for name in sorted(k for k in runs[0] if k != "seed"):
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = f"  <-- over a third of bound {bounds[name]}"
                steady = False
            print(f"  {name:44s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f}{flag}")
        report["workloads"][w] = {"runs": runs, "summary": summary}
    if a.json:
        Path(a.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 5


if __name__ == "__main__":
    sys.exit(main())
