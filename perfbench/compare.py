"""Compare two sets of runs: one row per workload × end-to-end metric.

Usage::

    python3 perfbench/run.py compare DIR_A DIR_B

Each directory holds the result records ``run.py --out DIR`` writes
(untraced runs are compared; traced ones are skipped).  For every
workload and metric the row shows each side's median and quartiles
and a verdict:

* ``regression`` — B's median is worse than A's by more than the
  metric's bound;
* ``improved`` — B's median is better by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over
  median) of either side exceeds the bound, unless every run of one
  side beats every run of the other;
* ``same`` — otherwise.

A rise in ``failed_frac`` is always flagged.  Results from different
hosts or kernel backends are refused, not compared.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

from harness import host_mismatch, load_contract, quartiles

#: end-to-end metrics outside BENCHMARK.json, with the bound compare
#: mode applies to them: ``p99_ms`` (reported by every workload, but its
#: run-to-run spread on a shared 2-core VM is too wide to gate) and
#: ``query_mtps``, which exists on ``bulk`` only (BENCHMARK.json requires
#: each of its end-to-end metrics from every workload)
EXTRA_METRICS = {
    "p99_ms": ("lower", 0.25),
    "query_mtps": ("higher", 0.10),
}


def load_runs(directory: Path) -> list:
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if not record.get("trace"):
            runs.append(record)
    return runs


def verdict(a: list, b: list, better: str, bound: float) -> str:
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spread = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0
                 for q in (qa, qb))
    b_wins = all(sign * (y - x) < 0 for x in a for y in b)
    a_wins = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not (a_wins or b_wins):
        return "unresolved"
    if change > bound:
        return "regression"
    if change < -bound:
        return "improved"
    return "same"


def compare(runs_a: list, runs_b: list) -> tuple:
    """Rows of the comparison and whether anything regressed."""
    contract = load_contract()
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in contract["end_to_end"]}
    bounds.update(EXTRA_METRICS)
    by_a, by_b = defaultdict(list), defaultdict(list)
    for run in runs_a:
        by_a[run["workload"]].append(run)
    for run in runs_b:
        by_b[run["workload"]].append(run)
    rows, regressed = [], False
    for workload in sorted(set(by_a) & set(by_b)):
        a_runs, b_runs = by_a[workload], by_b[workload]
        failed_a = max(r["failed_frac"] for r in a_runs)
        failed_b = max(r["failed_frac"] for r in b_runs)
        if failed_b > failed_a:
            rows.append((workload, "failed_frac", failed_a, failed_b,
                         "REGRESSION (failures rose)"))
            regressed = True
        for metric, (better, bound) in bounds.items():
            a = [r["metrics"][metric]["value"] for r in a_runs
                 if metric in r["metrics"]]
            b = [r["metrics"][metric]["value"] for r in b_runs
                 if metric in r["metrics"]]
            if not a or not b:
                continue
            result = verdict(a, b, better, bound)
            regressed |= result == "regression"
            rows.append((workload, metric, quartiles(a), quartiles(b),
                         f"{result} (bound {bound:.0%}, {better} is better)"))
    return rows, regressed


def _fmt(q) -> str:
    if isinstance(q, tuple):
        return f"{q[1]:10.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    return f"{q:10.4g}"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs_a, runs_b = load_runs(Path(argv[0])), load_runs(Path(argv[1]))
    if not runs_a or not runs_b:
        print("compare: no untraced result records in one of the sets",
              file=sys.stderr)
        return 2
    for run in runs_a[1:] + runs_b:
        differs = host_mismatch(runs_a[0]["provenance"], run["provenance"])
        if differs:
            print("compare: REFUSED — results come from different hosts or "
                  f"backends (differing: {', '.join(differs)}); a diff "
                  "between them would not mean anything", file=sys.stderr)
            return 3
    rows, regressed = compare(runs_a, runs_b)
    print(f"A: {len(runs_a)} runs from {argv[0]}; "
          f"B: {len(runs_b)} runs from {argv[1]}")
    print(f"{'workload':<9} {'metric':<14} {'A median [q1, q3]':<34} "
          f"{'B median [q1, q3]':<34} verdict")
    for workload, metric, qa, qb, text in rows:
        print(f"{workload:<9} {metric:<14} {_fmt(qa):<34} {_fmt(qb):<34} "
              f"{text}")
    return 1 if regressed else 0
