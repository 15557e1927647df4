"""One-pass Count-Min baseline: product test over estimated marginals.

No second pass and no guarantee. Per-coordinate marginals come from Count-Min
point queries (always overestimates), and a query multiplies them exactly as
the two-pass product test does. Misra-Gries summaries are kept alongside the
sketches so AllQuery has candidate values to enumerate; Count-Min alone
cannot list values. The build keeps no exact tally: Count-Min state depends
only on the multiset it is fed, and a value's exact count is its final
Misra-Gries counter plus what the summary's decrement rounds removed. So a
chunk that decrements a summary feeds the sketch the counts it removed at
once, and the end of the pass feeds each tracked value its final counter,
reading its estimate from those same cells. A list that cannot decrement
is rebuilt from the exact counts the handle stores, when an earlier build
stored them (naivebayes.misra_gries_pass), and feeds Count-Min its final
counters only; when every list is rebuilt the build reads no row. Each
coordinate's candidates are ranked by estimate; AllQuery runs the
factorized model's level loop (naivebayes.grow_levels) over them as
one-class rows built per call.

Because every estimated marginal dominates the exact one, the YES set at a
fixed threshold is a superset of the YES set the exact-marginal product test
would report.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile

from .core import HHParams, JointValue, Subcube, Verdict
from .errors import BudgetTooSmallError, ConfigError
from .naivebayes import default_counter_budget, grow_levels, misra_gries_pass, scored_answers
from .sketches import CountMin, MisraGries, hash_pair
from .stream_io import DatasetHandle

DEFAULT_DEPTH = 4
DEFAULT_ALLQUERY_CAP = 10**6


@dataclass(frozen=True)
class HeuristicModel:
    """Frozen one-pass state. Table entries are sorted by estimate descending
    (ties by value code) so threshold views are prefixes."""

    m: int
    params: HHParams
    cms: list[CountMin]
    mg: list[MisraGries]
    tables: list[list[tuple[int, float]]]  # per coordinate: [(tracked value, estimate)] desc

    def estimate(self, coord: int, x: int) -> float:
        """Estimated frequency ratio of x on coordinate coord; >= the true ratio."""
        return self.cms[coord].point_query(x) / self.m

    def product(self, t: Subcube, v: JointValue) -> float:
        """Product of the estimated marginals of v's values on t."""
        prod = 1.0
        for coord, x in zip(t.coords, v):
            prod *= self.estimate(coord, x)
        return prod

    def candidate_entries(self, coord: int, threshold: float) -> list[tuple[int, float]]:
        """Tracked values whose estimated ratio reaches the threshold, sorted
        by estimate descending (ties by value code)."""
        return list(takewhile(lambda e: e[1] >= threshold, self.tables[coord]))

    def rows(self, coord: int, threshold: float) -> list[tuple]:
        """`candidate_entries` as one-class AllQuery rows (x, f, (f,), f)."""
        return [(x, f, (f,), f) for x, f in self.candidate_entries(coord, threshold)]


def cms_width(memory_slots: int, d: int, depth: int = DEFAULT_DEPTH) -> int:
    """The heuristic's size rule: the Count-Min width that `memory_slots`
    leaves over d coordinates at `depth`, which must be at least 1."""
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    width = memory_slots // (d * depth)
    if width < 1:
        raise BudgetTooSmallError(
            f"{memory_slots} slots over {d} coordinates x depth {depth} leaves width 0"
        )
    return width


def heuristic_build(
    h: DatasetHandle,
    memory_slots: int,
    p: HHParams,
    seed: int = 0,
    depth: int = DEFAULT_DEPTH,
) -> HeuristicModel:
    """At most one pass: a Count-Min sketch per coordinate sized from the
    slot budget (width = memory_slots / (d * depth)), plus a Misra-Gries
    candidate list per coordinate with budget ceil(8/lam), whose values are
    then ranked. Lists the handle's stored counts give are not read again."""
    width = cms_width(memory_slots, h.d, depth)
    cms = [CountMin(width, depth, hash_pair(i, seed)) for i in range(h.d)]

    def feed(i: int, removed: dict[int, int]) -> None:
        cms[i].update_counts(list(removed), list(removed.values()))

    m, mg, _ = misra_gries_pass(h, default_counter_budget(p), on_removed=feed)
    tables = []
    for sk, g in zip(cms, mg):
        # The final counters complete each value's exact count in the cells,
        # which then give the tracked values' estimates.
        tracked = g.tracked()
        estimates = sk.update_counts(tracked, list(g.counters.values()))
        ranked = [(x, e / m) for x, e in zip(tracked, estimates)]
        tables.append(sorted(ranked, key=lambda e: (-e[1], e[0])))
    return HeuristicModel(m=m, params=p, cms=cms, mg=mg, tables=tables)


def heuristic_query(
    mod: HeuristicModel, t: Subcube, v: JointValue, threshold: float | None = None
) -> Verdict:
    """YES iff the product of estimated marginals reaches the threshold
    (default lam). No candidate membership is required: Count-Min
    answers point queries for any value."""
    th = mod.params.threshold(threshold)
    if len(v) != t.k:
        raise ConfigError(f"joint value of length {len(v)} for a {t.k}-dim subcube")
    return Verdict.YES if mod.product(t, v) >= th else Verdict.NO


def heuristic_all_query_scored(
    mod: HeuristicModel,
    t: Subcube,
    threshold: float | None = None,
    cap: int = DEFAULT_ALLQUERY_CAP,
) -> dict[JointValue, float]:
    """Candidate combinations whose estimated-marginal product reaches the
    threshold, grown level by level by the two-pass AllQuery loop. Aborts with
    CapExceededError once the levels together hold more than `cap` entries."""
    th = mod.params.threshold(threshold)
    return scored_answers(grow_levels(t, th, mod.rows, (1.0,), cap))


def heuristic_all_query(
    mod: HeuristicModel,
    t: Subcube,
    threshold: float | None = None,
    cap: int = DEFAULT_ALLQUERY_CAP,
) -> set[JointValue]:
    return set(heuristic_all_query_scored(mod, t, threshold, cap))
