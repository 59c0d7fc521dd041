#!/usr/bin/env python3
"""Output self-test of the benchmark, on small graphs.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json, runs perfbench/run.py on the small
graphs (--size small) once untraced and once traced, and checks that:
  - the run exits 0 and its last line is the result JSON;
  - every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is printed, with its unit, as a finite number;
  - the reference pass ran;
  - no operation failed.
Then checks that the benchmark exits nonzero, without a result line, in
a directory holding only BENCHMARK.json and the benchmark's own files.
Exits nonzero on the first failed check.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = "4"


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, trace, spec):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", SECONDS,
           "--trace", trace, "--size", "small"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    label = f"{workload} --trace {trace}"
    check(proc.returncode == 0,
          f"{label} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{label}: failed operations {result['failed']}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted {result['attempted']}")
    expected = spec["end_to_end" if trace == "0" else "per_layer"]
    check(set(result["metrics"]) == {m["name"] for m in expected},
          f"{label}: metric names differ from BENCHMARK.json")
    for m in expected:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got}")
        check(isinstance(got["value"], (int, float)) and
              math.isfinite(got["value"]), f"{label}: {m['name']} {got}")
    passes = re.search(r"over (\d+) ref passes", proc.stdout)
    check(passes is not None and int(passes.group(1)) > 0,
          f"{label}: the reference pass did not run")
    print(f"selftest: ok {label}: {len(expected)} metrics, "
          f"{result['attempted']} operations, {passes.group(1)} ref passes")


def run_without_sources(spec):
    # Only BENCHMARK.json and the benchmark's paths, as a bare checkout.
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bare = (target if target.is_absolute() else ROOT / target) / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
        env={**os.environ, "CARGO_TARGET_DIR": ".bench_build"})
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0, "a bare checkout exited 0")
    check('"metrics"' not in proc.stdout, "a bare checkout printed a result")
    print("selftest: ok bare checkout fails without a result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            run(workload["name"], trace, spec)
    run_without_sources(spec)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
