#!/usr/bin/env python3
"""Compares two suite results of the end-to-end benchmark.

    python3 bench/e2e/compare.py A.json B.json

A is the reference (for example bench/e2e/baseline.json), B the candidate;
both are written by bench/e2e/run.sh. Prints one row per workload and
metric: improved, unchanged, worse or unresolved. Exits 1 when a row is
worse.

Wall-time metrics are judged against their bound in BENCHMARK.json, as a
share of A's median. A metric is unresolved when either side's spread
(q3 - q1 over the median) exceeds its bound, unless every run of B is
better than every run of A. The deterministic outcome of a run must be
identical: any change to it is reported as worse.
"""

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}


def spread(s):
    return (s["q3"] - s["q1"]) / s["median"]


def classify(a, b, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if max(spread(a), spread(b)) > bound:
        b_always_better = all(sign * (x - y) < 0
                              for x in b["runs"] for y in a["runs"])
        return worse_by, "improved" if b_always_better else "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if worse_by < -bound:
        return worse_by, "improved"
    return worse_by, "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    same_seed = a["meta"]["seed"] == b["meta"]["seed"]
    if not same_seed:
        print("seeds differ: deterministic outcomes are not compared")
    worse = False
    print(f"{'workload':16s} {'metric':24s} {'A':>14s} {'B':>14s} "
          f"{'worse by':>9s}  verdict")
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][w], b["workloads"][w]
        for name, (better, bound) in BOUNDS.items():
            if name not in wa.get("end_to_end", {}) or \
                    name not in wb.get("end_to_end", {}):
                continue
            sa, sb = wa["end_to_end"][name], wb["end_to_end"][name]
            worse_by, verdict = classify(sa, sb, better, bound)
            worse = worse or verdict == "worse"
            print(f"{w:16s} {name:24s} {sa['median']:>14.6g} "
                  f"{sb['median']:>14.6g} {worse_by:>+9.1%}  {verdict}")
        if not same_seed:
            continue
        for name in wa["outcome"]:
            va, vb = wa["outcome"][name], wb["outcome"].get(name)
            verdict = "unchanged" if va == vb else "worse"
            worse = worse or verdict == "worse"
            print(f"{w:16s} {'outcome.' + name:24s} {va:>14.10g} "
                  f"{vb if vb is not None else float('nan'):>14.10g} "
                  f"{'':>9s}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
