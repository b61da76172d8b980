#!/usr/bin/env python3
"""Steadiness check: runs each workload with several seeds and prints, for
every end-to-end metric, the median, the quartiles and the interquartile
spread as a share of the median, against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py                      # 10 seeds, every workload
    python3 perfbench/steady.py --workloads grid-train --seeds 5
    python3 perfbench/steady.py --out runs.json      # also keep the raw results
    python3 perfbench/steady.py --against runs.json  # compare with an earlier set

Run from the repository root. A spread above the bound fails the check, for
every metric, setup_s included; a spread above a third of the bound is
flagged, since two sets of runs must also agree with each other within the
bound. With --against, a median that is worse than the earlier set's by
more than the bound fails too.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds (1..N)")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write every run's result to this JSON file")
    ap.add_argument("--against", help="an earlier --out file to compare medians with")
    args = ap.parse_args()

    earlier = json.load(open(args.against)) if args.against else {}
    raw = {}
    ok = True
    for w in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            try:
                res = run_once(bench["command"], w, seed, args.seconds, 0)
            except subprocess.CalledProcessError as err:
                print(f"{w} seed {seed}: exit {err.returncode}", file=sys.stderr, flush=True)
                ok = False
                continue
            runs.append(res)
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", file=sys.stderr, flush=True)
            ok &= res["correct"] and res["failed"] == 0
        raw[w] = runs
        if len(runs) < 2:
            print(f"\n{w}: {len(runs)} successful runs, too few for quartiles")
            continue
        before = earlier.get(w, [])
        print(f"\n{w}: {len(runs)} runs")
        print(f"  {'metric':18} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
              + (f" {'worse':>8}" if before else ""))
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3, s = spread(values)
            flag = ""
            if s > m["bound"]:
                flag, ok = "FAIL", False
            elif s > m["bound"] / 3:
                flag = "wide"
            line = f"  {m['name']:18} {q1:12.4f} {med:12.4f} {q3:12.4f} {s:8.4f} {m['bound']:6.3f}"
            if before:
                old = statistics.median(r["metrics"][m["name"]]["value"] for r in before)
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f" {worse:+8.4f}"
                if worse > m["bound"]:
                    flag, ok = "FAIL", False
            print(f"{line} {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
