#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 benchmark/compare.py A/ B/

A/ and B/ hold results written by `run.py --save DIR` (one JSON file per
run; traced runs are ignored). For each workload and end-to-end metric this
prints each side's median and quartiles and B's change against A. The
verdicts are:

  ok          B is no worse than A by more than the metric's bound
  better      every B run beats every A run
  REGRESSION  B's median is worse than A's by more than the bound
  unresolved  either side's interquartile range exceeds the bound, so the
              runs cannot tell a change of that size from noise

Exits 1 when any run was incorrect or any verdict is REGRESSION or
unresolved, so an A/A comparison of one tree against itself passes only
when the benchmark resolves every metric within its bound.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {metric: [values]}} plus the names of incorrect runs."""
    runs, incorrect = {}, []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace"):
            continue
        result = record["result"]
        if not result["correct"]:
            incorrect.append(path.name)
        metrics = runs.setdefault(record["workload"], {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return runs, incorrect


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(metric, a, b):
    """(change, verdict); change > 0 means B is worse than A."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    change = sign * (mb - ma) / abs(ma) if ma else 0.0
    if all(sign * (y - x) < 0 for x in a for y in b):
        return change, "better"
    if max(relative_spread(a), relative_spread(b)) > metric["bound"]:
        return change, "unresolved"
    if change > metric["bound"]:
        return change, "REGRESSION"
    return change, "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    side_a, bad_a = load(args.a)
    side_b, bad_b = load(args.b)
    failing = bool(bad_a or bad_b)
    for name in bad_a + bad_b:
        print(f"incorrect run: {name}")

    header = (f"{'workload':16} {'metric':15} {'n':>5} {'A median':>12} "
              f"{'A q1..q3':>23} {'B median':>12} {'B q1..q3':>23} "
              f"{'change':>8} {'bound':>6}  verdict")
    print(header)
    for w in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = side_a.get(w, {}).get(metric["name"], [])
            b = side_b.get(w, {}).get(metric["name"], [])
            if not a or not b:
                print(f"{w:16} {metric['name']:15} missing on "
                      f"{'A' if not a else 'B'}")
                failing = True
                continue
            change, word = verdict(metric, a, b)
            failing |= word in ("REGRESSION", "unresolved")
            qa, qb = quartiles(a), quartiles(b)
            print(f"{w:16} {metric['name']:15} {len(a):>2}/{len(b):<2} "
                  f"{statistics.median(a):12.6g} "
                  f"{qa[0]:11.5g}..{qa[1]:<10.5g} "
                  f"{statistics.median(b):12.6g} "
                  f"{qb[0]:11.5g}..{qb[1]:<10.5g} "
                  f"{change:+8.2%} {metric['bound']:6.0%}  {word}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
