#!/usr/bin/env python3
"""Runs the benchmark several times per workload, one seed per run, and
prints each metric's median, quartiles and spread (the distance between
the quartiles as a share of the median, from statistics.quantiles with
n=4). Run it from the root of the source tree:

    python3 perfbench/spread.py --runs 10 --seconds 20
    python3 perfbench/spread.py --workloads serve --runs 5 --first-seed 101
    python3 perfbench/spread.py --trace 1 --runs 3

--json FILE also writes the table as JSON. The exit status is 1 when a
run fails or reports a wrong answer.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["search", "compile", "bulkdb", "serve"]


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError("%s failed with exit status %d" % (" ".join(cmd), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the table to this file")
    args = ap.parse_args()

    table = {}
    ok = True
    for w in args.workloads.split(","):
        values = {}
        for k in range(args.runs):
            seed = args.first_seed + k
            res = run_once(w, seed, args.seconds, args.trace)
            if not res["correct"]:
                ok = False
                sys.stderr.write("%s seed %d: %d of %d ops failed\n" % (w, seed, res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        table[w] = {}
        print("%s (%d runs of %ds, seeds %d..%d)" % (w, args.runs, args.seconds, args.first_seed, args.first_seed + args.runs - 1))
        print("  %-30s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
        for name in sorted(values):
            v = values[name]["values"]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
            spread = (q3 - q1) / med if med else 0.0
            table[w][name] = {"unit": values[name]["unit"], "median": med, "q1": q1, "q3": q3,
                              "spread": spread, "values": v}
            print("  %-30s %12.4f %12.4f %12.4f %7.1f%%  %s" % (name, med, q1, q3, 100 * spread, values[name]["unit"]))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(table, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
