"""One-pass uniform-sampling answerer for subcube heavy-hitter queries.

Build a reservoir of m' items in a single pass; answer Query(T, v) YES when
the sample frequency of v on T reaches the decision threshold (default
gamma/2), and AllQuery(T) by grouping the sampled projections. A joint value
is sampled no more often than any one of its coordinate values, so AllQuery
groups only the sampled items whose every value on T is sampled often
enough to reach the threshold (the Apriori bound); each model keeps every
sampled item's value count, capped at 255, as a byte, and a query picks
those items with byte masks. With m' from
required_sample_size, the sample frequency of every joint value of every
k-subcube lands within max(gamma, f)/4 of its true ratio with probability at
least 0.9, which makes all mandatory verdicts correct at once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import and_, countOf

from .core import HHParams, Item, JointValue, Subcube, Verdict
from .errors import BudgetTooSmallError, ConfigError
from .sketches import Reservoir
from .stream_io import DatasetHandle


@dataclass(frozen=True)
class SampleModel:
    """Frozen reservoir contents plus query parameters. The sample is held
    column by column: sampled item r is `tuple(col[r] for col in columns)`.

    Construction also counts each coordinate's values: `capped_counts[j][r]`
    is min(sample count of `columns[j][r]`, 255). These are derived from
    the columns, so they take no part in `==`."""

    columns: list[list[int]]  # one per coordinate, each of length m_prime
    m_prime: int  # effective sample size
    capacity: int
    params: HHParams
    capped_counts: list[bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        capped = []
        for col in self.columns:
            count = {x: min(c, 255) for x, c in Counter(col).items()}
            capped.append(bytes(map(count.__getitem__, col)))
        object.__setattr__(self, "capped_counts", capped)

    @property
    def samples(self) -> list[Item]:
        """The sampled items as tuples (a copy)."""
        return list(zip(*self.columns))


def required_sample_size(p: HHParams, d: int, k: int, n_max: int) -> int:
    """Smallest sample size with per-value tail mass <= 1/(10 * d^k * n_max^k).

    Computed in log space as ceil(48/gamma * ln(10 * d^k * n_max^k)), so the
    d^k * n_max^k union-bound factor never overflows.
    """
    if k < 1 or d < 1 or n_max < 1:
        raise ConfigError("d, k, n_max must all be >= 1")
    if k > d:
        raise ConfigError(f"subcube dimension k={k} exceeds d={d}")
    log_union = math.log(10.0) + k * math.log(d) + k * math.log(n_max)
    return math.ceil(48.0 / p.gamma * log_union)


def check_capacity(capacity: int) -> None:
    """The sample's size rule: a capacity below 1 holds no item."""
    if capacity < 1:
        raise BudgetTooSmallError(f"sample capacity {capacity} holds no item")


def build_sample(h: DatasetHandle, capacity: int, seed: int, p: HHParams) -> SampleModel:
    """One full pass; keeps min(m, capacity) items uniformly without
    replacement, each code mapped to the dictionary's own int (`code_table`)."""
    check_capacity(capacity)
    res = Reservoir(capacity, seed)
    h.replay(lambda columns, _classes: res.update_many(columns))
    columns = [list(map(h.code_table(i).__getitem__, col)) for i, col in enumerate(res.columns)]
    return SampleModel(columns=columns, m_prime=len(res), capacity=capacity, params=p)


def _joint_counts(mod: SampleModel, t: Subcube, lo: float) -> Counter[JointValue]:
    """Sample counts of the joint values on t, exact for every count >= lo;
    other values may be missing. With lo above 1, each coordinate masks the
    items whose capped count is below min(ceil(lo), 255): that keeps every
    value counted lo times or more, and from 255 on some others. The items
    every mask keeps are counted in their order, so each kept value keeps
    its count and first-seen place."""
    cols = [mod.columns[c] for c in t.coords]
    cut = math.ceil(min(255.0, lo))  # 255.0 first: an inf or nan lo (th inf) cuts at 255
    if cut > 1:
        table = bytes(cut) + b"\x01" * (256 - cut)
        masks = [int.from_bytes(mod.capped_counts[c].translate(table), "little") for c in t.coords]
        keep = reduce(and_, masks).to_bytes(mod.m_prime, "little")
        cols = [compress(col, keep) for col in cols]
    return Counter(zip(*cols))


def sample_frequencies(mod: SampleModel, t: Subcube) -> dict[JointValue, float]:
    """Sample frequency of every joint value appearing in the sample."""
    m_prime = mod.m_prime
    return {v: c / m_prime for v, c in _joint_counts(mod, t, 0.0).items()}


def sample_query(
    mod: SampleModel, t: Subcube, v: JointValue, threshold: float | None = None
) -> Verdict:
    """YES iff the sample frequency of v on t is >= threshold (default lam)."""
    th = mod.params.threshold(threshold)
    if len(v) != t.k:
        raise ConfigError(f"joint value of length {len(v)} for a {t.k}-dim subcube")
    if mod.m_prime == 0:
        return Verdict.NO  # empty sample: degenerate but total
    count = countOf(zip(*(mod.columns[c] for c in t.coords)), tuple(v))
    return Verdict.YES if count / mod.m_prime >= th else Verdict.NO


def sample_all_query_scored(
    mod: SampleModel, t: Subcube, threshold: float | None = None
) -> dict[JointValue, float]:
    """sample_frequencies at or above the threshold, in its order. Only counts
    c >= lo = th*m'*(1 - 1e-9) are grouped and divided: a float c/m' >= th
    means c >= th*m'/(1 + 2**-53), which is above lo, so no answer is lost."""
    th = mod.params.threshold(threshold)
    m_prime, lo = mod.m_prime, th * mod.m_prime * (1.0 - 1e-9)
    counts = _joint_counts(mod, t, lo)
    kept = compress(counts.items(), map(lo.__le__, counts.values()))
    return {v: c / m_prime for v, c in kept if c / m_prime >= th}


def sample_all_query(
    mod: SampleModel, t: Subcube, threshold: float | None = None
) -> set[JointValue]:
    return set(sample_all_query_scored(mod, t, threshold))
