"""``--compare PARENT.json CHANGE.json``: judge each (end-to-end metric,
workload) pair against the bounds in ``BENCHMARK.json``.

Each file holds runs appended by ``run.py --out``.  Verdicts:

* ``unresolved`` — the parent's own runs spread (quartile distance over
  median) wider than the bound, unless every change run beats every
  parent run, which is ``improved``;
* ``regressed`` — the change's median is worse than the parent's by
  more than the bound;
* ``improved`` — the change wins at least nine in ten run pairs and its
  median is better by more than the parent's quartile distance;
* ``unchanged`` — otherwise.

The failed share (failed ops over attempted ops) is judged too: more
failures than the parent is a regression.  The stdlib ``csv.reader``
rate recorded by each run is printed alongside, unjudged, so that a
shift in the machine's own speed can be told apart from a regression.
"""

from __future__ import annotations

import json

from common import summary


def load_runs(path) -> dict[str, list[dict]]:
    """Untraced runs in a ``--out`` file, grouped by workload."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    grouped: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> tuple[str, float]:
    """Verdict and signed relative change (positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    base = summary(parent)
    scale = abs(base["median"]) or 1.0
    worse = sign * (summary(change)["median"] - base["median"]) / scale
    spread = base["q3"] - base["q1"]
    if spread / scale > bound:
        if all(sign * c < min(sign * p for p in parent) for c in change):
            return "improved", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    pairs = list(zip(parent, change))
    wins = sum(sign * c < sign * p for p, c in pairs)
    if wins >= 0.9 * len(pairs) and -worse * scale > spread:
        return "improved", worse
    return "unchanged", worse


def compare(parent_path, change_path, benchmark: dict) -> int:
    """Print one verdict per pair; returns 1 if any pair regressed."""
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in parent or workload not in change:
            rows.append((workload, "*", "", "", "", "missing"))
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            before = [r["result"]["metrics"][name]["value"]
                      for r in parent[workload]]
            after = [r["result"]["metrics"][name]["value"]
                     for r in change[workload]]
            verdict, worse = judge(before, after, metric["better"],
                                   metric["bound"])
            rows.append((workload, name, summary(before)["median"],
                         summary(after)["median"], f"{worse:+.1%}",
                         verdict))
        shares = []
        for runs in (parent[workload], change[workload]):
            attempted = sum(r["result"]["attempted"] for r in runs)
            shares.append(sum(r["result"]["failed"] for r in runs)
                          / max(1, attempted))
        verdict = "regressed" if shares[1] > shares[0] else \
            "improved" if shares[1] < shares[0] else "unchanged"
        rows.append((workload, "failed_frac", shares[0], shares[1], "",
                     verdict))
        refs = [summary([r["environment"]["ref.stdlib_csv_mb_s"]
                         for r in runs])["median"]
                for runs in (parent[workload], change[workload])]
        rows.append((workload, "ref.stdlib_csv_mb_s", refs[0], refs[1],
                     f"{refs[0] / refs[1] - 1:+.1%}", "(machine speed)"))
    print(f"{'workload':<16} {'metric':<18} {'parent':>12} {'change':>12} "
          f"{'worse by':>9}  verdict")
    for workload, name, before, after, worse, verdict in rows:
        cells = [f"{v:12.4g}" if isinstance(v, float) else f"{v:>12}"
                 for v in (before, after)]
        print(f"{workload:<16} {name:<18} {cells[0]} {cells[1]} "
              f"{worse:>9}  {verdict}")
    return 1 if any(row[-1] in ("regressed", "missing") for row in rows) \
        else 0
