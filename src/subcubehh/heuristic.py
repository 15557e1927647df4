"""One-pass Count-Min baseline: product test over estimated marginals.

No second pass and no guarantee. Per-coordinate marginals come from Count-Min
point queries (always overestimates), and a query multiplies them exactly as
the two-pass product test does. Misra-Gries summaries are kept alongside the
sketches so AllQuery has candidate values to enumerate; Count-Min alone
cannot list values. The build feeds each sketch its coordinate's exact
value counts, hashing each distinct value once per row, reads each tracked
value's estimate from those cells and ranks each coordinate's candidates by
estimate; AllQuery runs the factorized model's level loop
(naivebayes.grow_levels) with one class over them. The build counts each
chunk once while a coordinate's summary has never decremented, since its
counters are then the exact counts.

Because every estimated marginal dominates the exact one, the YES set at a
fixed threshold is a superset of the YES set the exact-marginal product test
would report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import filterfalse, takewhile

from .core import HHParams, JointValue, Subcube, Verdict
from .errors import BudgetTooSmallError, ConfigError
from .naivebayes import default_counter_budget, grow_levels, scored_answers
from .sketches import CountMin, MisraGries, hash_pair
from .stream_io import Columns, DatasetHandle

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


def heuristic_build(
    h: DatasetHandle,
    memory_slots: int,
    p: HHParams,
    seed: int = 0,
    depth: int = DEFAULT_DEPTH,
) -> HeuristicModel:
    """One pass: a Count-Min sketch per coordinate sized from the slot budget
    (width = memory_slots / (d * depth)), plus a Misra-Gries candidate list
    per coordinate with budget ceil(8/lam), whose values are then ranked."""
    width = memory_slots // (h.d * depth)
    if width < 1:
        raise BudgetTooSmallError(
            f"{memory_slots} slots over {h.d} coordinates x depth {depth} leaves width 0"
        )
    budget = default_counter_budget(p)
    cms = [CountMin(width, depth, hash_pair(i, seed)) for i in range(h.d)]
    mg = [MisraGries(budget) for _ in range(h.d)]
    # A summary that never decremented holds its coordinate's exact counts,
    # so a coordinate gets a tally of its own only from the first chunk that
    # does not fit its summary, starting from the counts so far.
    tallies: list[Counter[int] | None] = [None] * h.d

    def visit(columns: Columns, _classes: list[int] | None) -> None:
        for i, (sk, col) in enumerate(zip(mg, columns)):
            tally = tallies[i]
            fits = sk.fits(col)
            if tally is None and not fits:
                tally = tallies[i] = Counter(sk.counters)
            sk.update_many(col, fits)
            if tally is not None:
                tally.update(col)

    m = h.replay(visit)
    tables = []
    for sk, g, tally in zip(cms, mg, tallies):
        # Count-Min state only depends on the multiset per coordinate, so feed
        # it the exact counts, tracked values first: the feed's cells give
        # their estimates without hashing them again.
        exact = g.counters if tally is None else tally
        tracked = g.tracked()
        values = tracked + list(filterfalse(g.counters.__contains__, exact))
        estimates = sk.update_counts(values, list(map(exact.__getitem__, values)))
        if tally is not None:
            tally.clear()  # each exact tally is released once its sketch is fed
        ranked = [(x, e / m) for x, e in zip(tracked, estimates)]
        tables.append(sorted(ranked, key=lambda e: (-e[1], e[0])))
    return HeuristicModel(m=m, params=p, cms=cms, mg=mg, tables=tables)


def heuristic_query(
    mod: HeuristicModel, t: Subcube, v: JointValue, threshold: float | None = None
) -> Verdict:
    """YES iff the product of estimated marginals reaches the threshold
    (default lam). No candidate membership is required: Count-Min
    answers point queries for any value."""
    th = mod.params.lam if threshold is None else threshold
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
    th = mod.params.lam if threshold is None else threshold
    return scored_answers(grow_levels(t, th, mod.candidate_entries, cap))


def heuristic_all_query(
    mod: HeuristicModel,
    t: Subcube,
    threshold: float | None = None,
    cap: int = DEFAULT_ALLQUERY_CAP,
) -> set[JointValue]:
    return set(heuristic_all_query_scored(mod, t, threshold, cap))
