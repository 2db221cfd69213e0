#!/usr/bin/env python3
"""Compare two sets of benchmark results, refusing mismatched ones.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``run.py --trace 0`` (see
``--results-dir``).  The comparison is refused (exit 2) when the sets mix
benchmark versions, or when a workload's parameters, run length or seeds
differ between the sets: numbers measured on different inputs say nothing
about the change.

Otherwise it prints, per workload and end-to-end metric, each side's median
and quartiles, the wins of the new side over runs paired by seed, and a
verdict:

* ``improved``   -- the new side wins at least nine tenths of at least ten
  pairs (ties count for neither), its median is better by more than the
  base's quartile spread, and no more operations failed than at the base;
* ``regressed``  -- the new median is worse than the base's by more than
  the bound from ``BENCHMARK.json`` plus the base's quartile spread (as a
  share of its median);
* ``unresolved`` -- otherwise, when the base's own spread exceeds the
  metric's bound and the new runs do not all read better than every base
  run;
* ``regressed``  -- otherwise, when the new median is worse by more than
  the bound;
* ``no worse``   -- anything else.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

import spec
from common import ROOT


def load(directory: str) -> List[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "**", "*.json"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if not record.get("trace"):
            records.append(record)
    return records


def by_workload(records: List[dict]) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for record in records:
        grouped.setdefault(record["workload"], []).append(record)
    return grouped


def refusals(base: Dict[str, List[dict]],
             new: Dict[str, List[dict]]) -> List[str]:
    """Why the two sets cannot be compared (empty when they can)."""
    reasons = []
    versions = {record["version"] for records in (*base.values(),
                                                  *new.values())
                for record in records}
    if len(versions) > 1:
        reasons.append(f"benchmark versions differ: {sorted(versions)}")
    for workload in sorted(set(base) & set(new)):
        for key in ("params", "seconds"):
            values = {json.dumps(record[key], sort_keys=True)
                      for record in base[workload] + new[workload]}
            if len(values) > 1:
                reasons.append(f"{workload}: {key} differ: {sorted(values)}")
        seeds = ({record["seed"] for record in base[workload]},
                 {record["seed"] for record in new[workload]})
        if seeds[0] != seeds[1]:
            reasons.append(f"{workload}: seeds differ: base "
                           f"{sorted(seeds[0])}, new {sorted(seeds[1])}")
    return reasons


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, middle, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(base: List[dict], new: List[dict], name: str, better: str,
            bound: float) -> Tuple[str, str]:
    sign = 1.0 if better == "higher" else -1.0

    def value(record):
        return record["metrics"][name]["value"]

    def per_seed(records) -> Dict[int, float]:
        seeds: Dict[int, List[float]] = {}
        for record in records:
            seeds.setdefault(record["seed"], []).append(value(record))
        return {seed: statistics.median(values)
                for seed, values in seeds.items()}

    base_values = [value(record) for record in base]
    new_values = [value(record) for record in new]
    b_low, b_mid, b_high = quartiles(base_values)
    n_low, n_mid, n_high = quartiles(new_values)
    paired_base, paired_new = per_seed(base), per_seed(new)
    wins = losses = 0
    for seed, base_value in paired_base.items():
        gain = sign * (paired_new[seed] - base_value)
        wins += gain > 0
        losses += gain < 0
    pairs = len(paired_base)
    spread = (b_high - b_low) / b_mid if b_mid else 0.0
    worse = -sign * (n_mid - b_mid) / b_mid if b_mid else 0.0
    all_better = min(sign * v for v in new_values) > max(
        sign * v for v in base_values)
    failed_more = (sum(record["failed"] for record in new)
                   > sum(record["failed"] for record in base))
    if (pairs >= 10 and wins >= 0.9 * pairs and not failed_more
            and sign * (n_mid - b_mid) > b_high - b_low):
        outcome = "improved"
    elif worse > bound + spread:
        # Worse by more than the bound even after allowing for the base's
        # own spread: a regression however noisy the base is.
        outcome = "regressed"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    else:
        outcome = "no worse"
    detail = (f"base {b_mid:.6g} [{b_low:.6g}, {b_high:.6g}]  "
              f"new {n_mid:.6g} [{n_low:.6g}, {n_high:.6g}]  "
              f"new/base {n_mid / b_mid if b_mid else float('nan'):.4f}  "
              f"wins {wins}/{pairs} losses {losses}  "
              f"base spread {spread:.3f} bound {bound}")
    return outcome, detail


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, new = (by_workload(load(directory)) for directory in argv)
    if not base or not new:
        print("error: no untraced result files in one of the directories",
              file=sys.stderr)
        return 2
    reasons = refusals(base, new)
    if reasons:
        print("refusing to compare:", file=sys.stderr)
        for reason in reasons:
            print(f"  {reason}", file=sys.stderr)
        return 2
    contract = spec.load_benchmark(ROOT)
    for workload in sorted(set(base) & set(new)):
        print(f"{workload} ({len(base[workload])} base runs, "
              f"{len(new[workload])} new runs)")
        for metric in contract["end_to_end"]:
            outcome, detail = verdict(base[workload], new[workload],
                                      metric["name"], metric["better"],
                                      metric["bound"])
            print(f"  {metric['name']:<18} {metric['unit']:<6} "
                  f"{outcome:<11} {detail}")
    for workload in sorted(set(base) ^ set(new)):
        print(f"{workload}: only in one set, not compared")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
