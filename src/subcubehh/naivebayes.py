"""Two-pass subcube heavy hitters under a class-conditional factorization.

This is the one factorized model behind both two-pass answerers, and both
builds: `nb2p`'s over the dataset's class column, and `indep2p`'s (which
independence.py re-exports) with a single class holding every item.

Pass 1 computes exact class counts and per-coordinate Misra-Gries candidate
sets H_i; pass 2 counts each candidate exactly, per class. Both read the
handle's exact marginals (DatasetHandle.exact_counts), which its first
request counts for every column in one replay. A summary of c counters
over a coordinate of at most c values never decrements, so its counters
are that coordinate's exact counts: pass 1 rebuilds such a summary from
them, and feeds only the coordinates over budget, so a pass 1 whose every
coordinate fits reads no row. Pass 2 takes each candidate's total from
the same counts, so it counts (x, z) only in rows outside the largest
class z* and takes count(x, z*) as the total minus the other classes'
counts. With one class no row lies outside it, and pass 2 reads no row.
A query scores v as

    q(v) = sum_z prior(z) * prod_i cond_i(v_i | z)

with cond_i(x|z) = count_i(x, z) / count(z), and answers YES when every v_i
is a stored heavy candidate and q(v) reaches the threshold (default lam =
gamma/2). Built without a class column, it has one class: a candidate of
count c has conditional (c/m,), so q(v) is the product of exact marginals.

Stored counts satisfy sum_z prior(z) * cond_i(x|z) == marginal_i(x) exactly
as rationals, which is why pruning on marginals is sound: dropping a
coordinate from the score can only increase it, so every prefix of an
answer scores at least the threshold. AllQuery exploits that by extending
prefixes one coordinate at a time (grow_levels, which the Count-Min
heuristic shares) over rows (x, f(x), cond(x|z) per class, max_z cond(x|z))
frozen at build, listed by f descending, and scores only the extensions
that can pass. With one class an extension's score is the prefix's score
times f(x), one multiply, and a prefix's scan stops at the first x below
the threshold. With several classes each prefix carries its per-class
product vector, so an extension costs O(ell); extending it by x scores at
most max(vector) * f(x), and the scan stops at the first x whose bound
falls below the threshold. A second bound, from the prefix's dominant
class s (the largest prior(z) * vector(z)): the score is at most that
term times cond(x|s) plus the other terms' sum times max_z cond(x|z). It
skips single x without stopping the scan, since rows are not sorted by it.

Candidate promise: with the default pass-1 budget ceil(8/lam), every value
with frequency ratio >= lam/2 is in its H_i and every value below lam/4 is
not, deterministically. Under a smaller externally imposed budget c the
retention cutoff drops to lam/2 - 1/c, which preserves the first half of the
promise for any c.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import mul
from typing import Callable, NamedTuple, Sequence

from .core import HHParams, JointValue, Subcube, Verdict
from .errors import BudgetTooSmallError, CapExceededError, ConfigError, NoClassColumnError
from .sketches import MisraGries
from .stream_io import Columns, DatasetHandle

MAX_CLASS_VALUES = 1024


@dataclass(frozen=True)
class CandidateSets:
    """Per-coordinate candidate value sets from pass 1, and the item count
    m of the stream they were drawn from. Sets built by hand carry no m."""

    sets: tuple[frozenset[int], ...]
    m: int | None = None

    @property
    def d(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class ClassPriors:
    """Exact class-value counts from pass 1."""

    counts: tuple[int, ...]
    m: int

    @property
    def ell(self) -> int:
        return len(self.counts)

    def prior(self, z: int) -> float:
        return self.counts[z] / self.m


class PartialLevel(NamedTuple):
    """One AllQuery level: entries (prefix, per-class product vector, score)."""

    entries: list[tuple]


def default_counter_budget(p: HHParams) -> int:
    return math.ceil(8.0 / p.lam)


def pass1_budget(p: HHParams, counter_budget: int | None) -> int:
    """The two-pass size rule: the pass-1 counter budget per coordinate
    (None: the default ceil(8/lam)), which must hold at least one value."""
    budget = default_counter_budget(p) if counter_budget is None else counter_budget
    if budget < 1:
        raise BudgetTooSmallError(f"counter budget {budget} holds no value")
    return budget


def candidate_cutoff(lam: float, budget: int) -> float:
    """Retention threshold on mg_estimate/m for membership in H_i.

    Equals 3*lam/8 at the default budget and degrades to lam/2 - 1/budget
    (clamped at 0) when the budget is smaller, keeping the recall half of the
    candidate promise deterministic at any budget.
    """
    if budget <= 0:
        return 0.0
    return max(0.0, min(3.0 * lam / 8.0, lam / 2.0 - 1.0 / budget))


@dataclass(frozen=True)
class FactorizedModel:
    """Frozen two-pass state: exact marginal and per-class counts for every
    candidate value, and per coordinate its AllQuery rows (x, count/m,
    cond(x|z) = count(x, z) / count(z) per class, max_z cond(x|z)).

    Rows are sorted by count descending (ties by value code) so threshold
    views are prefixes and the AllQuery level scan of a prefix can stop early.
    """

    m: int
    params: HHParams
    tables: list[list[tuple]]  # per coordinate: rows (x, f, cond per class, max cond) desc
    index: list[dict[int, int]]  # per coordinate: value -> total count
    priors: ClassPriors
    class_counts_by_value: list[dict[int, list[int]]]  # value -> count per class

    @classmethod
    def from_counts(
        cls, p: HHParams, priors: ClassPriors, by_value: list[dict[int, list[int]]]
    ) -> FactorizedModel:
        """The model over pass 2's counts: per coordinate, value -> count per class."""
        index = [{x: sum(row) for x, row in bv.items()} for bv in by_value]
        tables = []
        for bv, ix in zip(by_value, index):
            rows = []
            for x, c in sorted(ix.items(), key=lambda e: (-e[1], e[0])):
                cond = tuple(n / total for n, total in zip(bv[x], priors.counts))
                rows.append((x, c / priors.m, cond, max(cond)))
            tables.append(rows)
        return cls(priors.m, p, tables, index, priors, by_value)

    @property
    def ell(self) -> int:
        return self.priors.ell

    def marginal(self, coord: int, x: int) -> float | None:
        """Exact frequency ratio of candidate x on coordinate coord, else None."""
        c = self.index[coord].get(x)
        return None if c is None else c / self.m

    def rows(self, coord: int, threshold: float) -> list[tuple]:
        """The rows with f >= threshold, most frequent first. f is the c/m that
        `marginal` computes, so query and AllQuery agree at the boundary."""
        table = self.tables[coord]
        return table[:bisect_right(table, -threshold, key=lambda r: -r[1])]

    def heavy_entries(self, coord: int, threshold: float) -> list[tuple[int, float]]:
        """`rows` as (x, f) pairs."""
        return [(x, f) for x, f, _cond, _cmax in self.rows(coord, threshold)]


def misra_gries_pass(h: DatasetHandle, budget: int) -> tuple[int, list[MisraGries]]:
    """m, and one Misra-Gries summary of `budget` counters per coordinate
    over the whole stream.

    A coordinate of at most `budget` values can never decrement, so its
    summary is rebuilt from the handle's exact counts
    (`MisraGries.from_counts`). The others are fed in one replay; a
    replayed column holds ints equal to the codes, not always the
    dictionary's own, so each fed summary is then re-keyed once through
    `code_table`. A build whose every coordinate fits makes no replay.
    """
    exact = [h.exact_counts(i) for i in range(h.d)]  # before h.m: it may freeze the handle
    sketches = [
        MisraGries.from_counts(budget, counts) if len(counts) <= budget else MisraGries(budget)
        for counts in exact
    ]
    fed = [(i, sk) for i, sk in enumerate(sketches) if not sk.processed]  # not rebuilt
    if not fed:
        return h.m, sketches

    def visit(columns: Columns, _classes: Sequence[int] | None) -> None:
        for i, sk in fed:
            sk.update_many(columns[i])

    m = h.replay(visit)
    for i, sk in fed:
        table = h.code_table(i)
        sk.counters = Counter({table[x]: n for x, n in sk.counters.items()})
    return m, sketches


def _pass1(
    h: DatasetHandle, p: HHParams, counter_budget: int | None, one_class: bool
) -> tuple[ClassPriors, CandidateSets]:
    """Class counts plus per-coordinate candidate sets (misra_gries_pass).
    With `one_class`, all m items form one class."""
    budget = pass1_budget(p, counter_budget)
    if not one_class:
        class_counts = h.exact_counts(None)
        if len(class_counts) > MAX_CLASS_VALUES:  # before any summary is fed
            raise ConfigError(
                f"{len(class_counts)} distinct class values (> {MAX_CLASS_VALUES}); "
                "the class column is expected to be low-cardinality"
            )
    m, sketches = misra_gries_pass(h, budget)
    counts = (m,) if one_class else tuple(class_counts.values())
    # Nudge below the real cutoff so integer counts sitting exactly on it are
    # never lost to float rounding; the in/out gap is >= lam*m/8 wide.
    cutoff = candidate_cutoff(p.lam, budget) * m - 1e-9
    kept = [frozenset(x for x, c in sk.counters.items() if c >= cutoff) for sk in sketches]
    return ClassPriors(counts, m), CandidateSets(tuple(kept), m)


def _recount(
    h: DatasetHandle, cands: CandidateSets, priors: ClassPriors | None
) -> tuple[int, list[dict[int, list[int]]]]:
    """Pass 2: m, and per coordinate each candidate's count per class of
    `priors` (None: one class holding every item; the class column is not
    read). Every coordinate's totals are the handle's exact counts, so
    (x, z) is counted only in rows outside the largest class `top`, and
    count(x, top) is x's total minus its other counts. With one class that
    leaves nothing to count, and no row is read."""
    if cands.d != h.d:
        raise ConfigError(f"candidate sets cover {cands.d} coordinates, dataset has {h.d}")
    totals = [h.exact_counts(i) for i in range(h.d)]  # before h.m: it may freeze the handle
    if cands.m is not None and cands.m != h.m:
        raise ConfigError(f"candidate sets are of a {cands.m}-item stream, dataset has {h.m}")
    ell = 1 if priors is None else priors.ell
    top = 0 if priors is None else priors.counts.index(max(priors.counts))
    tallies: list[Counter] = [Counter() for _ in cands.sets]

    def visit(columns: Columns, classes: Sequence[int] | None) -> None:
        outside = list(map(top.__ne__, classes))
        zs = list(compress(classes, outside))
        for tally, s, xs in zip(tallies, cands.sets, columns):
            xs = list(compress(xs, outside))
            tally.update(compress(zip(xs, zs), map(s.__contains__, xs)))

    if ell > 1:
        h.replay(visit)
    by_value = []
    for tally, s, t in zip(tallies, cands.sets, totals):
        counts = {}
        for x in sorted(s):
            row = [tally[x, z] for z in range(ell)]
            row[top] = t.get(x, 0) - sum(row)  # row[top] is 0: its rows went uncounted
            counts[x] = row
        by_value.append(counts)
    return h.m, by_value


def nb_pass1(
    h: DatasetHandle, p: HHParams, counter_budget: int | None = None
) -> tuple[ClassPriors, CandidateSets]:
    """Exact class priors plus per-coordinate candidate sets, feeding only
    the coordinates over budget. More than MAX_CLASS_VALUES class values
    fail before any is fed."""
    if h.class_col is None:
        raise NoClassColumnError("nb_pass1 needs a dataset with a class column")
    return _pass1(h, p, counter_budget, one_class=False)


def nb_pass2(
    h: DatasetHandle, priors: ClassPriors, cands: CandidateSets, p: HHParams
) -> FactorizedModel:
    """Second pass: exact (value, class) joint counts for every candidate,
    counted in the rows outside the largest class; the rest come from the
    handle's exact counts."""
    if h.class_col is None:
        raise NoClassColumnError("nb_pass2 needs a dataset with a class column")
    m, by_value = _recount(h, cands, priors)
    if m != priors.m:
        raise ConfigError("pass-2 stream length differs from pass-1 priors")
    return FactorizedModel.from_counts(p, priors, by_value)


def indep_pass1(
    h: DatasetHandle, p: HHParams, counter_budget: int | None = None
) -> CandidateSets:
    """indep2p's first pass: one Misra-Gries summary per coordinate,
    thresholded into H_i."""
    return _pass1(h, p, counter_budget, one_class=True)[1]


def indep_pass2(h: DatasetHandle, cands: CandidateSets, p: HHParams) -> FactorizedModel:
    """indep2p's second pass over the same stream: exact counts for candidate
    values, all in one class: the handle's exact counts, so no row is read."""
    m, by_value = _recount(h, cands, None)
    return FactorizedModel.from_counts(p, ClassPriors((m,), m), by_value)


def nb_score(
    mod: FactorizedModel, t: Subcube, v: JointValue, threshold: float | None = None
) -> float | None:
    """The class-mixture score of v, or None when some v_i is not a heavy
    candidate at the threshold (default lam). With one class the score is
    the product of the exact marginals."""
    th = mod.params.threshold(threshold)
    if len(v) != t.k:
        raise ConfigError(f"joint value of length {len(v)} for a {t.k}-dim subcube")
    counts = []
    for coord, x in zip(t.coords, v):
        f = mod.marginal(coord, x)
        if f is None or f < th:
            return None
        counts.append(mod.class_counts_by_value[coord][x])
    q = 0.0
    for z, n in enumerate(mod.priors.counts):
        prod = 1.0
        for row in counts:
            prod *= row[z] / n
        q += mod.priors.prior(z) * prod
    return q


def nb_query(
    mod: FactorizedModel, t: Subcube, v: JointValue, threshold: float | None = None
) -> Verdict:
    th = mod.params.threshold(threshold)
    q = nb_score(mod, t, v, threshold)
    return Verdict.YES if q is not None and q >= th else Verdict.NO


def grow_levels(
    t: Subcube,
    threshold: float,
    rows: Callable[[int, float], list[tuple]],
    prior: Sequence[float],
    cap: float = math.inf,
) -> list[PartialLevel]:
    """AllQuery one coordinate at a time; returns every level.

    Level j extends each prefix of level j-1 (level 0 is the empty prefix)
    by the rows (x, f, cond(x|z) per class, max_z cond(x|z)) that
    `rows(coord, threshold)` lists for the j-th coordinate, largest marginal
    ratio f first. Each prefix carries its per-class product vector vec, and
    an extension is kept when its class mixture sum_z prior(z) * vec(z)
    reaches the threshold. The rows must satisfy
    sum_z prior(z) * cond(x|z) == f(x).

    With prior (1.0,), as indep2p and the Count-Min heuristic pass, cond(x|0)
    is f(x), so the mixture 0.0 + 1.0 * (vec(0) * f) is the float q0 * f, q0
    the prefix's score and vec (q0,): an extension costs one multiply, and
    since q0 * f only falls along the rows, a prefix's scan stops at the
    first x whose score is below the threshold. Only a row's x and f are
    read, so such rows may be (x, f) pairs.

    With several classes, extending a prefix by x scores at most
    max(vec) * f(x), which only falls along the rows: the scan of a prefix
    stops at the first x where that bound is below the threshold. With
    w_z = prior(z) * vec(z), s the class of the largest w_z and rest the sum
    of the others, it also scores at most
    w_s * cond(x|s) + rest * max_z cond(x|z): an x below that is skipped,
    not a stop, as rows are not sorted by it. Both bounds allow a 1e-9
    relative margin for rounding; rest is summed, not taken as q0 - w_s,
    so no cancellation widens its error. Every bound is sound, so each
    level is exactly the extensions that reach the threshold, in scan
    order. Raises CapExceededError, without finishing the level, once the
    levels hold more than `cap` entries.
    """
    stop = threshold * (1.0 - 1e-9)
    product = tuple(prior) == (1.0,)
    levels = []
    prev, total = [((), (1.0,) * len(prior), 1.0)], 0
    for coord in t.coords:
        ext = rows(coord, threshold)
        nxt = []
        for prefix, vec, q0 in prev:
            if product:
                for row in ext:
                    q = q0 * row[1]
                    if q < threshold:
                        break  # rows are sorted by f descending: no later x can pass
                    nxt.append((prefix + (row[0],), (q,), q))
            else:
                w = list(map(mul, prior, vec))
                w_s = max(w)
                s = w.index(w_s)
                w[s] = 0.0
                rest = sum(w)
                top = max(vec)
                for x, f, xvec, cmax in ext:
                    if top * f < stop:
                        break  # rows are sorted by f descending: no later x can pass
                    if w_s * xvec[s] + rest * cmax < stop:
                        continue
                    new_vec = tuple(map(mul, vec, xvec))
                    q = 0.0
                    for p_z, v_z in zip(prior, new_vec):
                        q += p_z * v_z
                    if q >= threshold:
                        nxt.append((prefix + (x,), new_vec, q))
            if total + len(nxt) > cap:
                raise CapExceededError(f"AllQuery levels exceed {cap} entries")
        total += len(nxt)
        levels.append(PartialLevel(nxt))
        prev = nxt
    return levels


def scored_answers(levels: list[PartialLevel]) -> dict[JointValue, float]:
    """The last level as {joint value: score}."""
    return {prefix: q for prefix, _vec, q in levels[-1].entries}


def nb_all_query_levels(
    mod: FactorizedModel, t: Subcube, threshold: float | None = None
) -> list[PartialLevel]:
    prior = [mod.priors.prior(z) for z in range(mod.ell)]
    return grow_levels(t, mod.params.threshold(threshold), mod.rows, prior)


def nb_all_query_scored(
    mod: FactorizedModel, t: Subcube, threshold: float | None = None
) -> dict[JointValue, float]:
    """All YES joint values with their scores."""
    return scored_answers(nb_all_query_levels(mod, t, threshold))


def nb_all_query(
    mod: FactorizedModel, t: Subcube, threshold: float | None = None
) -> set[JointValue]:
    return set(nb_all_query_scored(mod, t, threshold))
