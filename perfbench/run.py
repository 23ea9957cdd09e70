#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload corpus_ladder --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --p99-limit-ms 100 --workload service_mix \
        --seed 1 --seconds 20 --trace 0

BENCHMARK.json holds the exact command. Run from the repository root. The
launcher builds the benchmark (perfbench/) and the dominoflow binary with
dune, then runs one workload in a fresh process. The last line of standard
output is the JSON result; everything before it is a human-readable report. With --trace 1 the run is traced and the Chrome
trace and the per-layer self-time table land in _perfbench/.
"""
import argparse
import os
import subprocess
import sys

BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SERVER_EXE = os.path.join("_build", "default", "bin", "dominoflow.exe")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus_ladder", "corpus_search", "service_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--p99-limit-ms", type=float,
                    help="all-request p99 limit that defines max_rate_rps")
    args = ap.parse_args()
    if args.workload == "service_mix" and args.p99_limit_ms is None:
        ap.error("service_mix needs --p99-limit-ms")

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/dominoflow.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BENCH_EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.workload == "service_mix":
        cmd += ["--server", SERVER_EXE, "--p99-limit-ms", str(args.p99_limit_ms)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
