"""One-pass Count-Min baseline: product test over estimated marginals.

No second pass and no guarantee. Per-coordinate marginals come from Count-Min
point queries (always overestimates), and a query multiplies them exactly as
the two-pass product test does. Misra-Gries summaries are kept alongside the
sketches so AllQuery has candidate values to enumerate; Count-Min alone
cannot list values. Count-Min state depends only on the multiset it is
fed, so each sketch is fed once from the handle's exact counts
(DatasetHandle.exact_counts), every value with its count, and the tracked
values' estimates are read from those same cells. A list that cannot
decrement is rebuilt from the same counts (naivebayes.misra_gries_pass);
only lists over budget are fed by a replay, so when every list fits the
build reads no row once the counts exist. Each coordinate's candidates
are ranked by estimate; AllQuery runs the factorized model's one-class
level loop (naivebayes.grow_levels) over those (x, estimate) entries.

Because every estimated marginal dominates the exact one, the YES set at a
fixed threshold is a superset of the YES set the exact-marginal product test
would report.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

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
        table = self.tables[coord]
        return table[:bisect_right(table, -threshold, key=lambda e: -e[1])]


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
    """A Count-Min sketch per coordinate sized from the slot budget (width =
    memory_slots / (d * depth)), fed from the handle's exact counts, plus a
    Misra-Gries candidate list per coordinate with budget ceil(8/lam),
    whose values are then ranked. Only the lists over budget read the rows,
    in one replay."""
    width = cms_width(memory_slots, h.d, depth)
    m, mg = misra_gries_pass(h, default_counter_budget(p))
    cms = []
    tables = []
    for i, g in enumerate(mg):
        # Cells are sums, so feeding each value its exact count once gives
        # the cells of feeding the stream item by item.
        counts = h.exact_counts(i)
        sk = CountMin(width, depth, hash_pair(i, seed))
        estimate = dict(zip(counts, sk.update_counts(list(counts), list(counts.values()))))
        ranked = [(x, estimate[x] / m) for x in g.tracked()]
        tables.append(sorted(ranked, key=lambda e: (-e[1], e[0])))
        cms.append(sk)
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
    return scored_answers(grow_levels(t, th, mod.candidate_entries, (1.0,), cap))


def heuristic_all_query(
    mod: HeuristicModel,
    t: Subcube,
    threshold: float | None = None,
    cap: int = DEFAULT_ALLQUERY_CAP,
) -> set[JointValue]:
    return set(heuristic_all_query_scored(mod, t, threshold, cap))
