#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

    python3 benchmark/run.py --workload W [--seed S] [--seconds N]
                             [--trace 0|1] [--save DIR]

Configures benchmark/CMakeLists.txt into build/benchmark/ (Release), builds
the omni_bench driver against the library in src/, runs it, and checks that
its result line names exactly the metrics BENCHMARK.json declares. The last
line of stdout is the driver's JSON result. With --save DIR the result is
also written to DIR for benchmark/compare.py. Exits non-zero, without a
result, when the checkout has no library sources to build.
"""
import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build" / "benchmark"
BINARY = BUILD_DIR / "omni_bench"
# The seed for reported numbers. Seed 7919 is held out: a claimed gain must
# also hold there (see README.md).
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def cached_source_dir():
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.is_file():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def build_step(cmd):
    proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(str(c) for c in cmd)}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources in {ROOT / 'src'}; run from a full checkout")
    # A build tree configured for another checkout (a copied build/) would
    # rebuild and measure that checkout, so wipe it and configure afresh.
    if BUILD_DIR.exists() and cached_source_dir() != BENCH_DIR:
        shutil.rmtree(BUILD_DIR)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        build_step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"])
    build_step(["cmake", "--build", BUILD_DIR, "--target", "omni_bench",
                "-j", BUILD_JOBS])


def check_metrics(result, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        units = sorted(n for n in set(got) & set(declared)
                       if got[n] != declared[n])
        return (f"metrics differ from BENCHMARK.json: missing {missing}, "
                f"undeclared {extra}, unit mismatch {units}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path,
                        help="also write the result into this directory")
    args = parser.parse_args()

    build()
    out_dir = BUILD_DIR / "out"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", str(out_dir)]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"driver exited {proc.returncode} without a result")
    problem = check_metrics(result, args.trace)
    if problem:
        print(f"run.py: {problem}", file=sys.stderr)
        return 1
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "result": result}
        name = f"{args.workload}.{args.seed}.{time.time_ns()}.json"
        (args.save / name).write_text(json.dumps(record) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
