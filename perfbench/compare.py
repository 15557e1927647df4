"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT CHANGE [--spec BENCHMARK.json]

PARENT and CHANGE are result files or directories of them, as written by
perfbench/run.py under .bench_work/results/. Measure both sides with the same
benchmark code, settings and data seeds, alternating which side runs first.

For every workload and metric it prints each side's median and quartiles
over runs, the share of seed-paired runs the change won (ties count for
neither) and a verdict:

- improved: the change won at least 9 of 10 pairs and the medians differ,
  in the better direction, by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread is wider than the bound, unless every
  change run beat every parent run;
- no worse: otherwise.

Per-layer timings have no bound: for them worse is the mirror image of
improved, no worse means the change's median lost no more than the
parent's interquartile range, and unresolved is the rest.

Counts and answer-quality values (per-layer names not ending in `_s`) and
the answer digest are compared seed by seed: a difference is printed as
`changed`, and two runs of one side with the same seed that disagree are
printed as nondeterminism. Per-layer timings and counts are information:
a change may well alter how many candidates a layer keeps. Exits 1 when an
end-to-end metric is worse, a `quality.*` value or the answer digest
changed, or either side is nondeterministic.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path) -> list[dict]:
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_seed(records: list[dict], name: str) -> dict[int, list[float]]:
    out: dict[int, list[float]] = defaultdict(list)
    for r in records:
        out[r["provenance"]["data_seed"]].append(r["result"]["metrics"][name]["value"])
    return out


def verdict(metric: dict, parent: dict[int, list[float]], change: dict[int, list[float]]):
    higher = metric["better"] == "higher"
    p_all = [v for vs in parent.values() for v in vs]
    c_all = [v for vs in change.values() for v in vs]
    pq, cq = quartiles(p_all), quartiles(c_all)
    pairs = [(p, c) for s in parent.keys() & change.keys() for p, c in zip(parent[s], change[s])]
    wins = sum(1 for p, c in pairs if (c > p if higher else c < p))
    gain = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
    losses = sum(1 for p, c in pairs if (c < p if higher else c > p))
    spread = pq[2] - pq[0]
    bound = metric.get("bound")
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        word = "improved"
    elif bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            word = "worse"
        else:
            word = "no worse" if -gain <= spread else "unresolved"
    elif -gain > bound * abs(pq[1]):
        word = "worse"
    elif spread > bound * abs(pq[1]):
        beats_all = min(c_all) > max(p_all) if higher else max(c_all) < min(p_all)
        word = "no worse" if beats_all else "unresolved"
    else:
        word = "no worse"
    return pq, cq, wins, len(pairs), word


def exact_verdict(parent: dict[int, list], change: dict[int, list]) -> tuple[str, bool, bool]:
    """(text, nondeterministic, changed) for a value that must repeat exactly."""
    nondet = [f"nondeterminism in {side} seed {seed}: {vals}"
              for side, runs in (("parent", parent), ("change", change))
              for seed, vals in sorted(runs.items()) if len(set(vals)) > 1]
    changed = [f"changed at seed {seed}: {parent[seed][0]!r} -> {change[seed][0]!r}"
               for seed in sorted(parent.keys() & change.keys())
               if parent[seed][0] != change[seed][0]]
    if not parent.keys() & change.keys():
        changed.append("unpaired: no data seed in common")
    return "; ".join(nondet + changed) or "same", bool(nondet), bool(changed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--spec", type=Path, default=Path("BENCHMARK.json"))
    args = ap.parse_args()
    spec = json.loads(args.spec.read_text())
    parent, change = load(args.parent), load(args.change)
    failing = False
    groups = sorted({(r["provenance"]["workload"], r["provenance"]["trace"]) for r in parent})
    for workload, trace in groups:
        ps = [r for r in parent if (r["provenance"]["workload"], r["provenance"]["trace"]) == (workload, trace)]
        cs = [r for r in change if (r["provenance"]["workload"], r["provenance"]["trace"]) == (workload, trace)]
        if not cs:
            print(f"{workload} trace={trace}: no change runs")
            continue
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{len(ps)} parent runs, {len(cs)} change runs)")
        for metric in spec["per_layer" if trace else "end_to_end"]:
            name = metric["name"]
            p, c = by_seed(ps, name), by_seed(cs, name)
            if trace and not name.endswith("_s"):
                word, nondet, changed = exact_verdict(p, c)
                failing |= nondet or (changed and name.startswith("quality."))
                print(f"  {name:34s} {word}")
                continue
            pq, cq, wins, n, word = verdict(metric, p, c)
            failing |= word == "worse" and not trace
            print(f"  {name:34s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
                  f"won {wins}/{n}  {word}")
        digests, nondet, changed = exact_verdict(
            {s: [r["answers_sha256"] for r in ps if r["provenance"]["data_seed"] == s]
             for s in {r["provenance"]["data_seed"] for r in ps}},
            {s: [r["answers_sha256"] for r in cs if r["provenance"]["data_seed"] == s]
             for s in {r["provenance"]["data_seed"] for r in cs}},
        )
        failing |= nondet or changed
        print(f"  {'answers (report digest)':34s} {digests}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
