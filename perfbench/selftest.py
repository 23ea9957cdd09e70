#!/usr/bin/env python3
"""Count-determinism self-test for the benchmark's per-layer counts.

Runs the traced run of each workload twice at the same seed and compares
every count (and every ratio of counts) between the two runs. A count that
repeats exactly can back a count-based claim in a later change; one that
does not is flagged, and the self-test exits 1.

    python3 perfbench/selftest.py                    # every workload, seed 1
    python3 perfbench/selftest.py --workload service_mix --seed 3

Run from the repository root. Times are not compared.
"""
import argparse
import json
import subprocess
import sys

# ratios whose numerator and denominator are both counts
COUNT_RATIOS = {
    "bdd.ite_hit_ratio",
    "phase.eval_cache_hit_ratio",
    "phase.accept_ratio",
    "service.cache_hit_ratio",
}


def traced(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "1"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload}: traced run failed (exit {p.returncode})\n{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    flagged = []
    for wl in workloads:
        a, b = traced(bench, wl, args.seed), traced(bench, wl, args.seed)
        for name, m in a["metrics"].items():
            if m["unit"] != "count" and name not in COUNT_RATIOS:
                continue
            va, vb = m["value"], b["metrics"][name]["value"]
            if va == vb:
                print(f"{wl:14s} {name:28s} exact       {va:.12g}")
            else:
                print(f"{wl:14s} {name:28s} DIFFERS     {va:.12g} vs {vb:.12g}")
                flagged.append(f"{wl}/{name}")
    if flagged:
        print("not repeatable: " + ", ".join(flagged))
        return 1
    print("every count repeated exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
