#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and end-to-end metric this prints the median and the
interquartile range as a share of the median -- the steadiness figure the
bounds in BENCHMARK.json are meant to cover -- plus the run's wall time.

    python3 perfbench/spread.py --workload corpus_search --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10            # every workload

Run from the repository root. Results are also appended as JSON lines to
_perfbench/spread.jsonl so two sets of runs can be compared afterwards.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="repeatable; default: all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    os.makedirs("_perfbench", exist_ok=True)
    log = open(os.path.join("_perfbench", "spread.jsonl"), "a")
    for wl in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", str(args.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
                sys.exit(1)
            res = json.loads(lines[-1])
            runs.append(res)
            log.write(json.dumps({"workload": wl, "seed": seed, "wall": wall, **res}) + "\n")
            log.flush()
            brief = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{wl} seed {seed} ({wall:.1f}s) correct={res['correct']} {brief}",
                  flush=True)
        if len(runs) < 2:
            continue
        print(f"== {wl}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med, sp = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and sp > bound / 3:
                flag = "  > bound/3" if sp <= bound else "  > BOUND"
            print(f"   {name:24s} median {med:12.6g}  spread {sp:7.4f}"
                  f"  bound {bound}{flag}")


if __name__ == "__main__":
    main()
