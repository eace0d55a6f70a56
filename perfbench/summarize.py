"""Median, quartiles and spread of result files that run.py wrote.

    python3 perfbench/summarize.py .perfbench_out/*-trace0-*.json

Groups the results by workload and traced/untraced, and prints for each
metric the number of runs, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. It marks each end-to-end
spread (but that of setup_s) above a third of its BENCHMARK.json bound, or
above the bound itself; it exits 1 if any spread is above its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(paths: list[str]) -> dict:
    groups: dict[tuple[str, int], dict[str, list[float]]] = {}
    for path in paths:
        if path.endswith(".spans.json"):
            continue
        rec = json.loads(Path(path).read_text())
        by_metric = groups.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
    out = {}
    for (workload, trace), by_metric in sorted(groups.items()):
        rows = {}
        for name, values in by_metric.items():
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            rows[name] = {
                "n": len(values),
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
            }
        out[f"{workload} trace{trace}"] = rows
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("results", nargs="+", help="result .json files from .perfbench_out/")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if m["name"] != "setup_s"}
    within = True
    for group, rows in summarize(args.results).items():
        print(group)
        for name, r in rows.items():
            flag = ""
            if name in bounds and r["spread"] > bounds[name] / 3:
                flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
                if r["spread"] > bounds[name]:
                    flag = f"  > bound ({bounds[name]})"
                    within = False
            print(f"  {name:28s} n={r['n']:<3d} median {r['median']:<12.6g} "
                  f"q1 {r['q1']:<12.6g} q3 {r['q3']:<12.6g} spread {r['spread']:.4f}{flag}")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
