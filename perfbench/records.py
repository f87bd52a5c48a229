#!/usr/bin/env python3
"""Record sets of benchmark runs and compare them.

    python3 perfbench/records.py sweep --out DIR [--runs 10] [--seed 1]
                                       [--trace 0]
    python3 perfbench/records.py compare DIR_A DIR_B

`sweep` runs every workload once per seed (seeds --seed .. --seed+runs-1)
through run.py, saves each run's record as DIR/<workload>-<seed>.json and
prints, per (workload, metric), the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median
against the metric's bound from BENCHMARK.json. It exits non-zero when a
run fails or reports a wrong output.

`compare` prints both sets' medians and quartiles for every
(workload, metric) and a verdict: `worse` / `better` when the medians
differ by more than the bound in that direction, `within` when they do
not, and `unresolved` when either set's spread exceeds the bound, so the
difference cannot be told from noise.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(bench, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m for m in bench[key]}


def load(directory):
    """{workload: [record, ...]} of a record directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            rec = json.load(f)
        out.setdefault(rec["workload"], []).append(rec)
    return out


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def values_of(records, name):
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def run_one(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    record = next((json.loads(l[len("record "):]) for l in lines if l.startswith("record ")), None)
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, record, result, out.stderr


def sweep(args):
    bench = spec()
    workloads = [w["name"] for w in bench["workloads"]]
    os.makedirs(args.out, exist_ok=True)
    ok = True
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.runs):
            code, record, result, err = run_one(workload, seed, bench["run_seconds"], args.trace)
            good = code == 0 and record and result and result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: exit {code}, "
                  f"attempted {result and result['attempted']}, failed {result and result['failed']}")
            if not good:
                ok = False
                print(err[-2000:], file=sys.stderr)
            if record:
                name = f"{workload}-{seed}" + ("-trace" if args.trace else "") + ".json"
                with open(os.path.join(args.out, name), "w") as f:
                    json.dump(record, f, indent=1)
    print_spreads(load(args.out), metric_specs(bench, args.trace))
    return 0 if ok else 1


def print_spreads(sets, specs):
    print(f"\n{'workload':<13} {'metric':<28} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload, records in sorted(sets.items()):
        for name, m in specs.items():
            vals = values_of(records, name)
            if not vals:
                continue
            med, q1, q3, spread = summary(vals)
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"{workload:<13} {name:<28} {len(vals):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>7.3f} {bound if bound is not None else '-':>6}  {verdict}")


def compare(args):
    bench = spec()
    a, b = load(args.a), load(args.b)
    worst = 0
    print(f"{'workload':<13} {'metric':<16} {'median A':>11} {'q1-q3 A':>23} {'median B':>11} "
          f"{'q1-q3 B':>23} {'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(a) & set(b)):
        for m in bench["end_to_end"]:
            va, vb = values_of(a[workload], m["name"]), values_of(b[workload], m["name"])
            if not va or not vb:
                continue
            ma, q1a, q3a, sa = summary(va)
            mb, q1b, q3b, sb = summary(vb)
            # Positive change = worse, in the metric's own direction.
            change = (mb - ma) / abs(ma) if ma else 0.0
            if m["better"] == "higher":
                change = -change
            bound = m["bound"]
            if max(sa, sb) > bound:
                verdict = "unresolved"
                worst = max(worst, 1)
            elif change > bound:
                verdict = "worse"
                worst = 2
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "within"
            print(f"{workload:<13} {m['name']:<16} {ma:>11.5g} {f'{q1a:.5g}-{q3a:.5g}':>23} {mb:>11.5g} "
                  f"{f'{q1b:.5g}-{q3b:.5g}':>23} {change:>+8.3f} {bound:>6}  {verdict}")
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("sweep")
    s.add_argument("--out", required=True)
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--trace", type=int, default=0, choices=[0, 1])
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args()
    return sweep(args) if args.cmd == "sweep" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
