#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds
dp_perfbench (the dp library plus perfbench/src) in Release under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild incrementally.
The benchmark's own output is passed through; its last line is the result
object, checked here against the metric lists in BENCHMARK.json before it is
printed. The exit status is the benchmark's (non-zero on any output that
differs from its reference).

--self-test runs every workload briefly twice: once as is (must pass) and
once with one reference bit flipped (must fail).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
WORKLOADS = ("offline-grid", "serve-trickle", "serve-burst")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no CMakeLists.txt/src at the checkout root; run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "dp_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "dp_perfbench"


def run_bench(binary, args):
    try:
        proc = subprocess.run([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    return proc.returncode, proc.stdout.splitlines()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if a.self_test:
        return self_test(build())
    if None in (a.workload, a.seed, a.seconds, a.trace):
        fail("--workload, --seed, --seconds and --trace are required")
    binary = build()
    code, lines = run_bench(binary, ["--workload", a.workload, "--seed", str(a.seed),
                                     "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if not lines:
        fail(f"benchmark printed nothing (exit {code})", code or 1)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not a result object (exit {code}): {lines[-1]!r}", code or 1)
    want = expected_metrics(a.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"units {sorted(k for k in want if k in got and got[k] != want[k])}", 3)
    print("\n".join(lines))
    return code


def self_test(binary):
    ok = True
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"]
        clean, _ = run_bench(binary, base)
        flipped, lines = run_bench(binary, base + ["--flip-reference-bit"])
        caught = flipped != 0 and bool(lines) and json.loads(lines[-1])["correct"] is False
        print(f"{w}: clean run exit {clean}, flipped-bit run exit {flipped} "
              f"({'caught' if caught else 'NOT caught'})")
        ok = ok and clean == 0 and caught
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
