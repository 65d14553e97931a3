#!/usr/bin/env python3
"""Compare two sets of benchmark records, or check the steadiness of one.

    python3 bench/compare.py BASE_DIR [NEW_DIR]

A set is a directory of the JSON records bench/run.py writes (--out). With
one set, prints for every workload and end-to-end metric the median, the
quartiles and the spread (interquartile range over median), marked OVER
when it exceeds the metric's bound in BENCHMARK.json. With two sets, also
prints per workload and metric the pair-win fraction of NEW over BASE (runs
paired by seed, ties count for neither) and a verdict:

  improved    NEW wins at least 9 of 10 pairs and the medians differ by more
              than BASE's interquartile range;
  worse       NEW's median is worse by more than the bound, and the spread is
              within the bound or every NEW run is worse than every BASE run;
  unresolved  the spread exceeds the bound and the runs overlap;
  unchanged   otherwise.

Per-layer metrics of traced records have no bound; they get improved, worse
(the same rule as improved, reversed) or unresolved.

Paired runs of one seed must repeat their digests and exact counts bit for
bit; every mismatch is listed. Exits 1 if there is one.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory: Path) -> dict:
    """(workload, trace) -> seed -> list of records, in file order."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        runs[(rec["workload"], rec["trace"])][rec["seed"]].append(rec)
    return runs


def values(recs_by_seed: dict, section: str, metric: str) -> dict:
    return {
        seed: [r[section][metric] for r in recs if metric in r.get(section, {})]
        for seed, recs in recs_by_seed.items()
    }


def summary(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def spread(vals: list[float]) -> float:
    q1, med, q3 = summary(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a: list[float], b: list[float], pairs: list[tuple], lower_better: bool, bound) -> tuple[float, str]:
    sign = 1.0 if lower_better else -1.0
    better = [sign * (y - x) < 0 for x, y in pairs]
    worse = [sign * (y - x) > 0 for x, y in pairs]
    wins = sum(better) / len(pairs) if pairs else 0.0
    losses = sum(worse) / len(pairs) if pairs else 0.0
    qa1, ma, qa3 = summary(a)
    _, mb, _ = summary(b)
    gap = sign * (mb - ma)  # positive: NEW is worse
    iqr_a = qa3 - qa1
    if wins >= 0.9 and -gap > iqr_a:
        return wins, "improved"
    all_worse = min(b) > max(a) if lower_better else max(b) < min(a)
    all_better = max(b) < min(a) if lower_better else min(b) > max(a)
    if bound is None:
        if losses >= 0.9 and gap > iqr_a:
            return wins, "worse"
        return wins, "unresolved"
    wide = max(spread(a), spread(b)) > bound
    if gap > bound * abs(ma) and (not wide or all_worse):
        return wins, "worse"
    if wide and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def fmt(x: float) -> str:
    return f"{x:.6g}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(d)) for d in argv]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m for m in SPEC["per_layer"]}
    mismatches = []
    for key in sorted(set().union(*sets)):
        workload, trace = key
        groups = [s.get(key, {}) for s in sets]
        n = " / ".join(str(sum(len(v) for v in g.values())) for g in groups)
        print(f"\n== {workload} (trace {trace}; runs {n})")
        metric_sets = [("end_to_end", e2e)] + ([("per_layer", per_layer)] if trace else [])
        for section, spec in metric_sets:
            for name, m in spec.items():
                per_seed = [values(g, section, name) for g in groups]
                flat = [[v for vs in ps.values() for v in vs] for ps in per_seed]
                if not all(flat):
                    continue
                bound = m.get("bound")
                cols = []
                for vals in flat:
                    q1, med, q3 = summary(vals)
                    over = " OVER" if bound is not None and spread(vals) > bound else ""
                    cols.append(f"{fmt(med)} [{fmt(q1)}, {fmt(q3)}] spread {spread(vals):.3f}{over}")
                line = f"  {name:26s} {m['unit']:6s} " + " | ".join(cols)
                if bound is not None:
                    line += f"  bound {bound}"
                if len(groups) == 2:
                    pairs = [
                        (x, y)
                        for seed in per_seed[0]
                        for x, y in zip(per_seed[0][seed], per_seed[1].get(seed, []))
                    ]
                    lower = m.get("better", "lower") == "lower"
                    wins, v = verdict(flat[0], flat[1], pairs, lower, bound)
                    line += f"  win {wins:.2f} ({len(pairs)} pairs)  {v}"
                print(line)
        if len(groups) == 2:
            for seed, recs in groups[0].items():
                for ra, rb in zip(recs, groups[1].get(seed, [])):
                    for field in ("digests", "exact_counts"):
                        if ra.get(field) != rb.get(field):
                            mismatches.append(f"{workload} seed {seed} {field}: {ra.get(field)} != {rb.get(field)}")
    if len(sets) == 2:
        print("\nexact repeats:", "all digests and exact counts match" if not mismatches else "")
        for line in mismatches:
            print("  MISMATCH", line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
