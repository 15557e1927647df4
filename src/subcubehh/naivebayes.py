"""Two-pass subcube heavy hitters under a class-conditional factorization.

This is the one factorized model behind both two-pass answerers: `nb2p`
builds it over the dataset's class column, and `indep2p` (independence.py)
builds it with a single class holding every item.

Pass 1 computes exact class counts and per-coordinate Misra-Gries candidate
sets H_i; pass 2 recounts each candidate exactly, per class. A query scores
v as

    q(v) = sum_z prior(z) * prod_i cond_i(v_i | z)

over the stored exact conditionals and answers YES when every v_i is a
stored heavy candidate and q(v) reaches the threshold (default lam =
gamma/2). Built without a class column, it has one class: a candidate of
count c has conditional (c/m,), so q(v) is the product of exact marginals.

Stored counts satisfy sum_z prior(z) * cond_i(x|z) == marginal_i(x) exactly
as rationals, which is why pruning on marginals is sound: dropping a
coordinate from the score can only increase it, so every prefix of an
answer scores at least the threshold. AllQuery exploits that by extending
prefixes one coordinate at a time (grow_levels, which the Count-Min
heuristic shares). Each surviving prefix carries its per-class product
vector, so an extension costs O(ell), and extending it by x scores at most
max(vector) * marginal(x); candidates are listed by marginal descending, so
a prefix's scan stops at the first x whose bound falls below the threshold.

Candidate promise: with the default pass-1 budget ceil(8/lam), every value
with frequency ratio >= lam/2 is in its H_i and every value below lam/4 is
not, deterministically. Under a smaller externally imposed budget c the
retention cutoff drops to lam/2 - 1/c, which preserves the first half of the
promise for any c.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import compress, takewhile
from typing import Callable, NamedTuple, Sequence

from .core import HHParams, JointValue, Subcube, Verdict
from .errors import CapExceededError, ConfigError, NoClassColumnError
from .sketches import MisraGries
from .stream_io import Columns, DatasetHandle

MAX_CLASS_VALUES = 1024

Mixture = tuple[Sequence[float], list[dict[int, tuple[float, ...]]] | None]
ONE_CLASS: Mixture = ((1.0,), None)


@dataclass(frozen=True)
class CandidateSets:
    """Per-coordinate candidate value sets from pass 1."""

    sets: tuple[frozenset[int], ...]

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

    level: int
    entries: list[tuple]


def default_counter_budget(p: HHParams) -> int:
    return math.ceil(8.0 / p.lam)


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
    candidate value, and its conditionals cond(x|z) = count(x, z) / count(z).

    Entries are sorted by count descending (ties by value code) so threshold
    views are prefixes and the AllQuery level scan of a prefix can stop early.
    """

    m: int
    params: HHParams
    tables: list[list[tuple[int, int]]]  # per coordinate: [(value, total count)] desc
    index: list[dict[int, int]]  # per coordinate: value -> total count
    priors: ClassPriors
    class_counts_by_value: list[dict[int, list[int]]]  # value -> count per class
    conditionals: list[dict[int, tuple[float, ...]]]  # value -> cond(x|z) per class

    @property
    def ell(self) -> int:
        return self.priors.ell

    def mixture(self) -> Mixture:
        """(prior per class, conditionals)."""
        return [self.priors.prior(z) for z in range(self.ell)], self.conditionals

    def marginal(self, coord: int, x: int) -> float | None:
        """Exact frequency ratio of candidate x on coordinate coord, else None."""
        c = self.index[coord].get(x)
        return None if c is None else c / self.m

    def heavy_entries(self, coord: int, threshold: float) -> list[tuple[int, float]]:
        """Candidates with exact marginal ratio >= threshold, most frequent first.

        Compares c/m >= threshold with the same float division the query path
        uses, so the two paths agree bit-for-bit at the boundary.
        """
        m = self.m
        entries = ((x, c / m) for x, c in self.tables[coord])
        return list(takewhile(lambda e: e[1] >= threshold, entries))


NBModel = FactorizedModel


def _pass1(
    h: DatasetHandle, p: HHParams, counter_budget: int | None, one_class: bool
) -> tuple[ClassPriors, CandidateSets]:
    """Class counts plus per-coordinate candidate sets, in one pass. With
    `one_class`, the class column is not read: all m items form one class."""
    budget = default_counter_budget(p) if counter_budget is None else counter_budget
    sketches = [MisraGries(budget) for _ in range(h.d)]
    class_counts: Counter[int] = Counter()

    def visit(columns: Columns, classes: list[int] | None) -> None:
        if not one_class:
            class_counts.update(classes)
        for sk, col in zip(sketches, columns):
            sk.update_many(col)

    summary = h.replay(visit)
    counts = tuple(class_counts[z] for z in range(len(class_counts))) or (summary.m,)
    if len(counts) > MAX_CLASS_VALUES:
        raise ConfigError(
            f"{len(counts)} distinct class values (> {MAX_CLASS_VALUES}); "
            "the class column is expected to be low-cardinality"
        )
    # Nudge below the real cutoff so integer counts sitting exactly on it are
    # never lost to float rounding; the in/out gap is >= lam*m/8 wide.
    cutoff = candidate_cutoff(p.lam, budget) * summary.m - 1e-9
    sets = tuple(frozenset(x for x, c in sk.counters.items() if c >= cutoff) for sk in sketches)
    return ClassPriors(counts, summary.m), CandidateSets(sets)


def _recount(
    h: DatasetHandle, cands: CandidateSets, cells: Callable, row: Callable
) -> tuple[int, list[dict[int, list[int]]]]:
    """Pass 2: m, and per coordinate each candidate's count per class. Each
    chunk's tally counts `cells(candidate set, column, classes)`, and
    `row(tally, x)` reads x's count per class back."""
    if cands.d != h.d:
        raise ConfigError(f"candidate sets cover {cands.d} coordinates, dataset has {h.d}")
    tallies: list[Counter] = [Counter() for _ in cands.sets]

    def visit(columns: Columns, classes: list[int] | None) -> None:
        for tally, s, col in zip(tallies, cands.sets, columns):
            tally.update(cells(s, col, classes))

    m = h.replay(visit).m
    return m, [{x: row(t, x) for x in sorted(s)} for t, s in zip(tallies, cands.sets)]


def _model(
    p: HHParams, priors: ClassPriors, by_value: list[dict[int, list[int]]]
) -> FactorizedModel:
    """The model over pass 2's counts: per coordinate, value -> count per class."""
    index = [{x: sum(row) for x, row in bv.items()} for bv in by_value]
    tables = [sorted(ix.items(), key=lambda e: (-e[1], e[0])) for ix in index]
    conditionals = [
        {x: tuple(c / n for c, n in zip(row, priors.counts)) for x, row in bv.items()}
        for bv in by_value
    ]
    return FactorizedModel(priors.m, p, tables, index, priors, by_value, conditionals)


def nb_pass1(
    h: DatasetHandle, p: HHParams, counter_budget: int | None = None
) -> tuple[ClassPriors, CandidateSets]:
    """Exact class priors plus per-coordinate candidate sets, in one pass."""
    if h.class_col is None:
        raise NoClassColumnError("nb_pass1 needs a dataset with a class column")
    return _pass1(h, p, counter_budget, one_class=False)


def nb_pass2(
    h: DatasetHandle, priors: ClassPriors, cands: CandidateSets, p: HHParams
) -> FactorizedModel:
    """Second pass: exact (value, class) joint counts for every candidate."""
    if h.class_col is None:
        raise NoClassColumnError("nb_pass2 needs a dataset with a class column")
    m, by_value = _recount(
        h, cands, lambda s, col, zs: compress(zip(col, zs), map(s.__contains__, col)),
        lambda tally, x: [tally[x, z] for z in range(priors.ell)],
    )
    if m != priors.m:
        raise ConfigError("pass-2 stream length differs from pass-1 priors")
    return _model(p, priors, by_value)


def nb_score(
    mod: FactorizedModel, t: Subcube, v: JointValue, threshold: float | None = None
) -> float | None:
    """The class-mixture score of v, or None when some v_i is not a heavy
    candidate at the threshold (default lam). With one class the score is
    the product of the exact marginals."""
    th = mod.params.lam if threshold is None else threshold
    if len(v) != t.k:
        raise ConfigError(f"joint value of length {len(v)} for a {t.k}-dim subcube")
    prior, conditionals = mod.mixture()
    vecs = []
    for coord, x in zip(t.coords, v):
        f = mod.marginal(coord, x)
        if f is None or f < th:
            return None
        vecs.append(conditionals[coord][x])
    q = 0.0
    for z, p_z in enumerate(prior):
        prod = 1.0
        for vec in vecs:
            prod *= vec[z]
        q += p_z * prod
    return q


def nb_query(
    mod: FactorizedModel, t: Subcube, v: JointValue, threshold: float | None = None
) -> Verdict:
    th = mod.params.lam if threshold is None else threshold
    q = nb_score(mod, t, v, threshold)
    return Verdict.YES if q is not None and q >= th else Verdict.NO


def grow_levels(
    t: Subcube,
    threshold: float,
    entries: Callable[[int, float], list[tuple[int, float]]],
    cap: float = math.inf,
    mixture: Mixture = ONE_CLASS,
) -> list[PartialLevel]:
    """AllQuery one coordinate at a time; returns every level.

    Level j extends each prefix of level j-1 (level 0 is the empty prefix)
    by the values `entries(coord, threshold)` lists for the j-th coordinate,
    largest marginal ratio f first. Each entry carries its per-class product
    vector vec, and an extension is kept when its class mixture
    sum_z prior(z) * vec(z) reaches the threshold. `mixture` is (prior per
    class, per coordinate {value: cond(x|z) per class}). The default, the
    Count-Min heuristic's, is one class of prior 1.0 whose vector for x is
    (f,), so the score is the plain product of the f's.

    Since sum_z prior(z) * cond(x|z) == f(x), extending a prefix by x
    scores at most max(vec) * f(x), which only falls along the sorted
    entries: the scan of a prefix stops at the first x where that bound is
    below the threshold (less a 1e-9 relative margin for float rounding).
    Raises CapExceededError, without finishing the level, once the levels
    together hold more than `cap` entries.
    """
    th = threshold
    stop = th * (1.0 - 1e-9)
    prior, conditionals = mixture
    levels = []
    prev, total = [((), (1.0,) * len(prior), 1.0)], 0
    for j, coord in enumerate(t.coords, start=1):
        cond = None if conditionals is None else conditionals[coord]
        ext = [(x, f, (f,) if cond is None else cond[x]) for x, f in entries(coord, th)]
        nxt = []
        for prefix, vec, _q in prev:
            top = max(vec)
            for x, f, xvec in ext:
                if top * f < stop:
                    break  # ext is sorted by f descending: no later x can pass
                new_vec = tuple(map(operator.mul, vec, xvec))
                q = 0.0
                for p_z, v_z in zip(prior, new_vec):
                    q += p_z * v_z
                if q >= th:
                    nxt.append((prefix + (x,), new_vec, q))
            if total + len(nxt) > cap:
                raise CapExceededError(f"AllQuery levels exceed {cap} entries")
        total += len(nxt)
        levels.append(PartialLevel(j, nxt))
        prev = nxt
    return levels


def scored_answers(levels: list[PartialLevel]) -> dict[JointValue, float]:
    """The last level as {joint value: score}."""
    return {prefix: q for prefix, _vec, q in levels[-1].entries}


def nb_all_query_levels(
    mod: FactorizedModel, t: Subcube, threshold: float | None = None
) -> list[PartialLevel]:
    th = mod.params.lam if threshold is None else threshold
    return grow_levels(t, th, mod.heavy_entries, mixture=mod.mixture())


def nb_all_query_scored(
    mod: FactorizedModel, t: Subcube, threshold: float | None = None
) -> dict[JointValue, float]:
    """All YES joint values with their scores."""
    return scored_answers(nb_all_query_levels(mod, t, threshold))


def nb_all_query(
    mod: FactorizedModel, t: Subcube, threshold: float | None = None
) -> set[JointValue]:
    return set(nb_all_query_scored(mod, t, threshold))
