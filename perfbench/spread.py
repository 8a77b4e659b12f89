#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end
metric's median and spread: the interquartile range over the median of
the values, as statistics.quantiles(values, n=4) gives the quartiles.

    python3 perfbench/spread.py --workload explore-short --seeds 101-110 --seconds 25

Run it from the repository root. Each run's result line is appended to
--log (default: none) as `<workload> <seed> <json>`.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--log")
    args = ap.parse_args()
    values = {}
    failed = 0
    walls = []
    for seed in seeds(args.seeds):
        t0 = time.monotonic()
        out = subprocess.run(
            ["bash", "perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True)
        walls.append(time.monotonic() - t0)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
        res = json.loads(last) if last.startswith("{") else {}
        if out.returncode != 0 or not res.get("correct"):
            failed += 1
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}", file=sys.stderr)
            continue
        if args.log:
            with open(args.log, "a") as f:
                f.write(f"{args.workload} {seed} {last}\n")
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        digest = [l.split()[-1] for l in out.stdout.splitlines() if l.startswith("sim_digest ")]
        print(f"seed {seed}: wall={walls[-1]:.1f}s digest={digest[0] if digest else '-'} " + " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items())),
              flush=True)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        print(f"{args.workload} {name}: n={len(vs)} median={med:.4g} spread={(q[2] - q[0]) / med:.3f}")
    print(f"{args.workload} run wall seconds: median={statistics.median(walls):.1f} max={max(walls):.1f}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
