"""Compare benchmark results of a parent and a change commit, metric by metric.

    python3 benchmark/compare.py parent.jsonl change.jsonl

Each file holds the final JSON lines of run.py runs of one workload, one per
line, in the order the pairs ran (line i of both files is pair i). For each
metric of BENCHMARK.json that the runs report, prints both sides' median and
quartiles, the pairs the change won, and a verdict:

  regression   the change's median is worse than the parent's by more than
               the metric's bound (end-to-end metrics only);
  gain         the change won at least 9 of 10 pairs and the medians differ
               by more than the parent's quartile distance;
  unresolved   the parent's own quartile distance exceeds the bound;
  same         none of the above.

Exits 1 when any run was incorrect or any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec: dict, parent: list[float], change: list[float]) -> str:
    p1, p_med, p3 = quartiles(parent)
    c_med = statistics.median(change)
    sign = 1 if spec["better"] == "lower" else -1
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    bound = spec.get("bound")
    if bound is not None and worse > bound:
        return "regression"
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > p3 - p1:
        return "gain"
    if bound is not None and p_med and (p3 - p1) / abs(p_med) > bound:
        return "unresolved"
    return "same"


def main(parent_path: str, change_path: str) -> int:
    parent, change = load(parent_path), load(change_path)
    if len(parent) != len(change):
        print(f"unequal run counts: {len(parent)} parent, {len(change)} change", file=sys.stderr)
        return 2
    failed = [side for side, runs in (("parent", parent), ("change", change)) if not all(r["correct"] for r in runs)]
    regressed = False
    print(f"{'metric':40} {'parent median [q1, q3]':>32} {'change median [q1, q3]':>32} {'wins':>6}  verdict")
    for name, spec in METRICS.items():
        if name not in parent[0]["metrics"]:
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        result = verdict(spec, p, c)
        regressed |= result == "regression"
        pq, cq = quartiles(p), quartiles(c)
        print(f"{name:40} {pq[1]:>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}] {cq[1]:>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
              f" {wins:>3}/{len(p):<2}  {result}")
    if failed:
        print(f"incorrect runs on: {', '.join(failed)}")
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
