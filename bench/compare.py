"""Compare benchmark result files of a parent and a change.

    python bench/compare.py PARENT.json ... --vs CHANGE.json ... [--same]

Each file is what ``bench/run.py --out`` wrote for one untraced run
(or several, under ``"runs"``).  Give the files of each side in the
order they were run, so that PARENT[i] and CHANGE[i] form pair i.

For every workload and end-to-end metric in ``BENCHMARK.json`` it
prints each side's median and quartiles, the share of pairs the change
wins (ties count for neither side), the parent's own spread (quartile
distance over median) and a verdict:

* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: the parent's spread exceeds the bound, and not every
  change run reads better than every parent run;
* ``gain``: the change wins at least 9 pairs in 10 and the medians
  differ by more than the parent's quartile distance;
* ``no change`` otherwise.

``--same`` checks two sets of runs of the same code instead: each
side's spread must stay within the bound (``setup_s`` excepted) and the
second median may not be worse than the first by more than the bound;
the verdict is ``agree``, ``unresolved`` or ``regression``.

Exits 1 when any verdict is ``regression`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

import stats

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(paths: Sequence[Path]) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced results by workload, in file order."""
    by_workload: Dict[str, List[Dict[str, Any]]] = {}
    for path in paths:
        data = json.loads(path.read_text())
        for result in data.get("runs", [data]):
            if not result.get("trace"):
                by_workload.setdefault(result["workload"], []).append(result)
    return by_workload


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: float,
    same: bool,
    check_spread: bool = True,
) -> Dict[str, Any]:
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = stats.quartiles(parent)
    c_q1, c_med, c_q3 = stats.quartiles(change)
    worse = sign * (c_med - p_med) / p_med
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    row = {
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "worse": worse,
        "wins": wins,
        "pairs": len(pairs),
        "parent_spread": stats.spread(parent),
        "change_spread": stats.spread(change),
    }
    spreads = [row["parent_spread"]] + ([row["change_spread"]] if same else [])
    wide = check_spread and max(spreads) > bound
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if worse > bound:
        row["verdict"] = "regression"
    elif wide and (same or not all_better):
        row["verdict"] = "unresolved"
    elif same:
        row["verdict"] = "agree"
    elif (
        pairs
        and wins >= WIN_SHARE * len(pairs)
        and sign * (p_med - c_med) > p_q3 - p_q1
    ):
        row["verdict"] = "gain"
    else:
        row["verdict"] = "no change"
    return row


def _quartiles(q: Sequence[float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="+", type=Path)
    parser.add_argument("--vs", nargs="+", type=Path, required=True, dest="change")
    parser.add_argument("--same", action="store_true", help="same-code agreement check")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads(args.benchmark.read_text())
    parent, change = load(args.parent), load(args.change)
    hosts = {
        (r["host"]["cpu_model"], r["host"]["nproc"])
        for side in (parent, change)
        for runs in side.values()
        for r in runs
    }
    if len(hosts) > 1:
        print(f"warning: results come from {len(hosts)} different hosts: {sorted(hosts)}")

    header = (
        f"{'workload':15s} {'metric':12s} {'parent med [q1, q3]':>30s} "
        f"{'change med [q1, q3]':>30s} {'worse':>7s} {'wins':>6s} "
        f"{'p.spread':>8s} {'bound':>6s}  verdict"
    )
    print(header)
    failing = 0
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in parent[workload]]
            b = [r["metrics"][name]["value"] for r in change[workload]]
            row = verdict(
                a, b, metric["better"], metric["bound"], args.same,
                check_spread=not (args.same and name == "setup_s"),
            )
            failing += row["verdict"] in ("regression", "unresolved")
            print(
                f"{workload:15s} {name:12s} {_quartiles(row['parent']):>30s} "
                f"{_quartiles(row['change']):>30s} {row['worse']:+7.1%} "
                f"{row['wins']:>2d}/{row['pairs']:<3d} {row['parent_spread']:8.1%} "
                f"{metric['bound']:6.0%}  {row['verdict']}"
            )
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
