#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload road --seed 1 --seconds 40 --trace 0

Run from the repository root (or any checkout of it). The benchmark is
built from source in Release mode under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); the graphs of each seed are generated
once into a cache there. The last line of standard output is the result
JSON. The exit code is nonzero, with no result printed, when the build
or a run fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no tunesssp sources beside {HERE.name}/; nothing to build")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(configure, stdout=log, stderr=log).returncode:
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"cmake configure failed; see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", str(build_dir), "--target", "perfbench",
                "-j", jobs]
        if subprocess.run(step, stdout=log, stderr=log).returncode:
            fail(f"build failed; see {log_path}")
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["road", "rmat"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "small"],
                        help="small graphs are for the output self-test")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    binary = build(build_dir)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size, "--cache-dir", str(build_dir / "cache"),
              "--pins", str(HERE / "fingerprints.txt")]
    # A separate process, so generation never shows in peak_rss_mb.
    gen = subprocess.run([str(binary), "--generate"] + common,
                         stdout=sys.stderr)
    if gen.returncode:
        fail("input generation failed")
    trace_out = build_dir / "traces" / (
        f"{args.workload}-{args.size}-seed{args.seed}.trace.json")
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    run = subprocess.run([str(binary)] + common + [
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--trace-out", str(trace_out)])
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
