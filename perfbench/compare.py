#!/usr/bin/env python3
"""Compares two result sets of perfbench/run.py, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py DIR              # one set: spreads only

A result set is a directory of the per-run JSON files run.py writes to its
--results-dir; runs flagged "valid": false (the load generator fell behind)
are left out. For every workload and end-to-end metric the table gives each
set's median, first and third quartiles (statistics.quantiles, n=4) and
spread (quartile distance over median), the relative change of the new
median against the base, and the metric's bound from BENCHMARK.json.

A metric agrees when the change is within the bound in either direction
and each set's spread is within the bound (setup_s is exempt from the
spread test: its bound covers the median only). The exit status is 1 when
any gated metric disagrees. Metrics without a bound (ingest_p50_us,
fail_ratio, and the per-layer metrics of --trace 1 runs) are listed with
their medians only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_set(directory):
    """{(workload, trace): {metric: [values]}} over a directory's runs."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        try:
            result = json.loads(path.read_text())
        except ValueError:
            continue
        if "metrics" not in result or "workload" not in result:
            continue
        if not result.get("valid", True):
            print(f"skipping {path.name}: the generator fell behind",
                  file=sys.stderr)
            continue
        key = (result["workload"], int(result.get("trace", 0)))
        for name, value in result["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(float(value))
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def fmt_summary(values):
    if not values:
        return "-"
    med, q1, q3, spread = summary(values)
    return f"{med:.4g} [{q1:.4g},{q3:.4g}] {100 * spread:.1f}% n={len(values)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    bench = json.loads(Path(args.benchmark).read_text())
    gated = {m["name"]: m for m in bench["end_to_end"]}
    base = load_set(args.base)
    new = load_set(args.new) if args.new else {}
    if not base:
        print(f"no results under {args.base}", file=sys.stderr)
        return 2

    disagreements = 0
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        print(f"\n== {workload} ({'per-layer' if trace else 'end-to-end'})")
        a_runs, b_runs = base.get(key, {}), new.get(key, {})
        names = [n for n in gated if n in a_runs or n in b_runs] if not trace else []
        names += sorted((set(a_runs) | set(b_runs)) - set(names))
        for name in names:
            a, b = a_runs.get(name, []), b_runs.get(name, [])
            spec = gated.get(name) if not trace else None
            line = f"  {name:30s} {fmt_summary(a):44s}"
            if args.new:
                line += f" {fmt_summary(b):44s}"
            if spec is None:
                print(line)
                continue
            bound = spec["bound"]
            verdict = []
            for label, values in (("base", a), ("new", b)):
                if values and name != "setup_s" and summary(values)[3] > bound:
                    verdict.append(f"{label} spread > {bound:.0%}")
            if a and b:
                ma, mb = summary(a)[0], summary(b)[0]
                change = (mb - ma) / abs(ma) if ma else 0.0
                worse = change > 0 if spec["better"] == "lower" else change < 0
                line += f" {100 * change:+6.1f}%"
                if abs(change) > bound:
                    verdict.append(("worse" if worse else "better") +
                                   f" by more than {bound:.0%}")
            elif args.new:
                verdict.append("missing in one set")
            disagreements += bool(verdict)
            print(f"{line}  bound {bound:.0%}: " +
                  ("; ".join(verdict) if verdict else "agree"))
    print(f"\n{disagreements} gated metric(s) disagree")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
