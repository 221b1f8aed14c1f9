#!/usr/bin/env python3
"""Steadiness check and baseline recorder for asmbench/run.py.

    python3 asmbench/prove.py --seeds 1-10 [--workloads hc2-lr,deep-cov]
                              [--trace-seed 1] [--write-baseline]

Runs the benchmark once per (workload, seed), one run at a time, with the
run length BENCHMARK.json fixes. For every end-to-end metric it prints the
median and the spread between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the metric's
bound: a benchmark is steady when every spread, setup_s excepted, stays
below a third of its bound. --trace-seed adds one traced run per workload.
--write-baseline stores the medians, spreads, per-seed contig digests,
per-layer numbers and provenance in asmbench/baseline.json, merging into
the workloads already recorded there. --against FILE compares every median
with the one an earlier baseline recorded and fails when a metric got worse
by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "asmbench", "baseline.json")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(ROOT, "asmbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed={seed}: run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = os.path.join(ROOT, ".bench_build", "work",
                               f"{workload}-seed{seed}",
                               f"result-trace{trace}.json")
    with open(record_path) as f:
        record = json.load(f)
    if not result["correct"]:
        print(f"  {workload} seed={seed}: INCORRECT "
              f"({result['failed']}/{result['attempted']} failed)")
    return result, record


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--against", metavar="FILE")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    baseline = {"workloads": {}, "digests": {}}
    if os.path.exists(BASELINE):
        with open(BASELINE) as f:
            baseline = json.load(f)
    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["workloads"]

    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        digests = {}
        provenance = None
        for seed in seeds:
            result, record = run_once(workload, seed, seconds, 0)
            steady = steady and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            digests[str(seed)] = record["contig_digests"]
            provenance = record["provenance"]
            print(f"  {workload} seed={seed} " + " ".join(
                f"{n}={result['metrics'][n]['value']:.4g}" for n in bounds),
                flush=True)
        entry = {"seeds": seeds, "seconds": seconds, "provenance": provenance,
                 "end_to_end": {}}
        print(f"{workload}: {len(seeds)} runs of {seconds} s")
        for name, spec in bounds.items():
            s = spread(values[name])
            s["unit"] = spec["unit"]
            entry["end_to_end"][name] = s
            ok = s["spread"] < spec["bound"] / 3 or name == "setup_s"
            line = (f"  {name:22s} median {s['median']:>12.5g} "
                    f"{spec['unit']:3s} spread {s['spread']:.4f} "
                    f"bound {spec['bound']} {'ok' if ok else 'UNSTEADY'}")
            if earlier is not None and workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                change = (s["median"] - before) / before
                worse = change if spec["better"] == "lower" else -change
                ok = ok and worse <= spec["bound"]
                line += (f"; {change:+.1%} vs earlier "
                         f"{'ok' if worse <= spec['bound'] else 'WORSE'}")
            steady = steady and ok
            print(line)
        if args.trace_seed is not None:
            result, record = run_once(workload, args.trace_seed, seconds, 1)
            steady = steady and result["correct"]
            layers = {n: m["value"] for n, m in result["metrics"].items()}
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": layers}
            share = ((layers["contig_labeling.call_s"] +
                      layers["contig_merging.call_s"]) /
                     layers["pipeline.traced_s"])
            print(f"  traced seed={args.trace_seed}: labeling+merging "
                  f"{share:.1%} of traced_s, digest "
                  f"{'equal' if result['correct'] else 'DIFFERENT'}")
        baseline["workloads"][workload] = entry
        baseline["digests"][workload] = digests

    if args.write_baseline:
        with open(BASELINE, "w") as f:
            json.dump(baseline, f, indent=1, sort_keys=True)
            f.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
