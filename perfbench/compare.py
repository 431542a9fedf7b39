#!/usr/bin/env python3
"""Summarises or compares perfbench result files (JSONL from run.py --out).

    python3 perfbench/compare.py A.jsonl           # spread of each metric
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

One file: for every workload and end-to-end metric of BENCHMARK.json, the
median of the untraced runs and the spread, (Q3 - Q1) / median with the
quartiles of statistics.quantiles(values, n=4). A spread above the
metric's bound is flagged.

Two files: the untraced medians of NEW against BASE. A metric whose median
is worse than BASE's by more than its bound is a REGRESSION (exit 1). Runs
whose machine/build fingerprints differ are never compared (exit 2). The
traced runs' per-layer medians follow, largest relative change first, so a
regression can be traced to the layer that moved.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# What must match for two runs to be comparable; the source digest and the
# seed are recorded but are allowed to differ.
FINGERPRINT_KEYS = ("cpu", "nproc", "compiler", "build_type", "scale",
                    "seconds")


def load(path):
    runs = defaultdict(lambda: {0: defaultdict(list), 1: defaultdict(list)})
    fingerprints = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        fp = record["fingerprint"]
        fingerprints.add(tuple((k, fp.get(k)) for k in FINGERPRINT_KEYS))
        metrics = runs[fp["workload"]][fp["trace"]]
        for name, metric in record["result"]["metrics"].items():
            metrics[name].append(metric["value"])
        for name, metric in record.get("detail", {}).items():
            metrics["detail:" + name].append(metric["value"])
    return runs, fingerprints


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def summarise(path, spec):
    runs, _ = load(path)
    flagged = 0
    for workload, by_trace in sorted(runs.items()):
        print(f"== {workload} ({len(next(iter(by_trace[0].values()), []))} "
              f"untraced runs)")
        for metric in spec["end_to_end"]:
            values = by_trace[0].get(metric["name"], [])
            if not values:
                continue
            s = spread(values)
            limit = metric["bound"]
            flag = ""
            if s > limit:
                flag = "  OVER BOUND"
                flagged += 1
            elif s > limit / 3:
                flag = "  over bound/3"
            print(f"  {metric['name']:<14} median {statistics.median(values):>14.6g}"
                  f" {metric['unit']:<6} spread {s:7.2%}  bound {limit:.0%}"
                  f"{flag}")
        traced = by_trace[1].get("trace.op_p50_ms")
        untraced = by_trace[0].get("op_p50_ms")
        if traced and untraced:
            overhead = statistics.median(traced) / statistics.median(untraced)
            print(f"  tracing overhead (trace.op_p50_ms / op_p50_ms - 1): "
                  f"{overhead - 1:+.1%} over {len(traced)} traced run(s)")
    return 1 if flagged else 0


def worse_by(base, new, better):
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base_path, new_path, spec):
    base, base_fp = load(base_path)
    new, new_fp = load(new_path)
    if len(base_fp | new_fp) != 1:
        print("fingerprints differ; refusing to compare:")
        for fp in sorted(base_fp | new_fp):
            print("  ", dict(fp))
        return 2
    regressions = 0
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            b = base[workload][0].get(metric["name"], [])
            n = new[workload][0].get(metric["name"], [])
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            worse = worse_by(mb, mn, metric["better"])
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "REGRESSION"
                regressions += 1
            print(f"  {metric['name']:<14} {mb:>12.6g} -> {mn:<12.6g} "
                  f"{metric['unit']:<6} worse by {worse:+8.2%} "
                  f"(bound {metric['bound']:.0%})  {verdict}")
        layers = []
        for name in sorted(set(base[workload][1]) & set(new[workload][1])):
            mb = statistics.median(base[workload][1][name])
            mn = statistics.median(new[workload][1][name])
            if mb:
                layers.append(((mn - mb) / abs(mb), name, mb, mn))
        if layers:
            print("  traced layers, largest change first:")
            for change, name, mb, mn in sorted(layers, key=lambda l: -abs(l[0]))[:12]:
                print(f"    {name:<40} {mb:>12.6g} -> {mn:<12.6g} {change:+8.1%}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if len(argv) == 2:
        return summarise(argv[1], spec)
    return compare(argv[1], argv[2], spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
