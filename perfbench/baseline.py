#!/usr/bin/env python3
"""Measure the benchmark's baseline and write it to perfbench/baseline.json.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --seeds 1-10 --holdout 7919

For every workload this makes two sets of untraced runs, one run per seed
in each, and reports each end-to-end metric's median, quartiles and spread
(the distance between the quartiles as a share of the median, from
statistics.quantiles(n=4)) for the first set, and for the second set its
median, spread and how much worse its median is than the first's. Then one
traced run on the first seed for the per-layer metrics, and one untraced
run on the hold-out seed, placed against the first set's medians. Seeds
are the outer loop so a slow spell of a shared machine hits every workload
alike. The machine is recorded too. Keys of baseline.json this script does
not write (the notes) are kept.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")

# End-to-end figures the program prints but BENCHMARK.json does not gate:
# wall and CPU time drift with the host by more than the largest bound,
# and the rest are zero or undefined on some workloads.
REPORTED = ("ticks_per_s", "cpu_ms_per_ktick", "heap_bytes_per_peer", "checkpoint_s",
            "restore_s", "checkpoint_mb", "failed_frac")
LINE = re.compile(r"^\s+(" + "|".join(REPORTED) + r")\s+(\S+)\s")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    res = json.loads(lines[-1])
    rec = {"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
           "failed": res["failed"],
           "metrics": {k: v["value"] for k, v in sorted(res["metrics"].items())}}
    for line in lines:
        m = LINE.match(line)
        if m and m.group(2) != "n/a":
            rec.setdefault("reported", {})[m.group(1)] = float(m.group(2))
        if "digest" in line and "GOMAXPROCS" not in line:
            rec["digest"] = line.strip()
        if "GOMAXPROCS" in line:
            rec["gomaxprocs"] = int(line.split("GOMAXPROCS")[1])
    print(f"{workload:9s} seed {seed:5d} trace {trace} correct {res['correct']}", flush=True)
    return rec


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}


def machine(gomaxprocs):
    model = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo") as f:
        mem_kb = int(f.readline().split()[1])
    go = subprocess.run(["go", "version"], capture_output=True, text=True, check=False).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": model, "ram_gb": round(mem_kb / 2**20, 1),
            "go": go, "gomaxprocs": gomaxprocs}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--holdout", type=int, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    def one_set():
        runs = {n: [] for n in names}
        for seed in seeds:
            for n in names:
                runs[n].append(run(n, seed, seconds, 0))
        return runs

    runs, second = one_set(), one_set()
    traced = {n: run(n, seeds[0], seconds, 1) for n in names}
    holdout = {n: run(n, args.holdout, seconds, 0) for n in names} if args.holdout is not None else {}

    try:
        with open(OUT) as f:
            doc = json.load(f)
    except FileNotFoundError:
        doc = {}
    doc["machine"] = machine(runs[names[0]][0].get("gomaxprocs"))
    doc["method"] = (f"two sets of {len(seeds)} untraced runs per workload, seeds {args.seeds}, "
                     f"{seconds}s each, seeds as the outer loop; spread = (q3 - q1) / median over "
                     "one set's runs; second_set.worse = how much worse the second set's median "
                     "is than the first's, as a share of the first")
    doc["workloads"] = per = {}
    doc["second_set"] = {n: {} for n in names}
    for n in names:
        rs = runs[n]
        w = {"end_to_end": {}, "reported": {}, "runs": rs, "traced": traced[n]}
        for m, unit in units.items():
            w["end_to_end"][m] = {"unit": unit, **summary([r["metrics"][m] for r in rs])}
            s2 = summary([r["metrics"][m] for r in second[n]])
            first = w["end_to_end"][m]["median"]
            worse = (s2["median"] - first) / first
            doc["second_set"][n][m] = {"median": s2["median"], "spread": s2["spread"],
                                       "worse": worse if better[m] == "lower" else -worse}
        for m in REPORTED:
            vals = [r["reported"][m] for r in rs if m in r.get("reported", {})]
            if len(vals) >= 2:
                w["reported"][m] = summary(vals)
        if n in holdout:
            h = holdout[n]
            h["vs_median"] = {m: h["metrics"][m] / w["end_to_end"][m]["median"] for m in units}
            for m, v in h.get("reported", {}).items():
                med = w["reported"].get(m, {}).get("median")
                if med:
                    h["vs_median"][m] = v / med
            w["holdout"] = h
        per[n] = w
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for n in names:
        print(n, {m: round(v["spread"], 4) for m, v in per[n]["end_to_end"].items()},
              {m: (round(v["spread"], 4), round(v["worse"], 4)) for m, v in doc["second_set"][n].items()},
              {m: round(v["spread"], 4) for m, v in per[n]["reported"].items() if v["spread"] is not None})


if __name__ == "__main__":
    main()
