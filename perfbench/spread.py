#!/usr/bin/env python3
"""Runs the benchmark once per seed on each named workload and prints,
per end-to-end metric, the median and the quartile spread (Q3 - Q1 as a
share of the median), the steadiness figure BENCHMARK.json bounds.

    python3 perfbench/spread.py --seeds 1-10 --workloads cold-grid,service-faults
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in names:
        values = {}
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{w} seed {s}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(w, s, {k: round(v["value"], 4) for k, v in res["metrics"].items()}, flush=True)
        for k, vs in sorted(values.items()):
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
                b = bounds.get(k)
                flag = "" if b is None or spread < b / 3 else "  <-- over bound/3"
                print(f"{w:16s} {k:22s} median={med:.5g} spread={spread:.3f} bound={b}{flag}")


if __name__ == "__main__":
    main()
