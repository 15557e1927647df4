"""One-pass uniform-sampling answerer for subcube heavy-hitter queries.

Build a reservoir of m' items in a single pass; answer Query(T, v) YES when
the sample frequency of v on T reaches the decision threshold (default
gamma/2), and AllQuery(T) by grouping the sampled projections. With m' from
required_sample_size, the sample frequency of every joint value of every
k-subcube lands within max(gamma, f)/4 of its true ratio with probability at
least 0.9, which makes all mandatory verdicts correct at once.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import countOf

from .core import HHParams, Item, JointValue, Subcube, Verdict
from .errors import BudgetTooSmallError, ConfigError
from .sketches import Reservoir
from .stream_io import DatasetHandle


@dataclass(frozen=True)
class SampleModel:
    """Frozen reservoir contents plus query parameters. The sample is held
    column by column: sampled item r is `tuple(col[r] for col in columns)`."""

    columns: list[list[int]]  # one per coordinate, each of length m_prime
    m_prime: int  # effective sample size
    capacity: int
    params: HHParams

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


def _joint_counts(mod: SampleModel, t: Subcube) -> Counter[JointValue]:
    return Counter(zip(*(mod.columns[c] for c in t.coords)))


def sample_frequencies(mod: SampleModel, t: Subcube) -> dict[JointValue, float]:
    """Sample frequency of every joint value appearing in the sample."""
    m_prime = mod.m_prime
    return {v: c / m_prime for v, c in _joint_counts(mod, t).items()}


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
    c > th*m' - 1 are divided: rounding cannot carry a smaller c/m' to th."""
    th = mod.params.threshold(threshold)
    m_prime, counts = mod.m_prime, _joint_counts(mod, t)
    kept = compress(counts.items(), map((th * m_prime - 1).__le__, counts.values()))
    return {v: c / m_prime for v, c in kept if c / m_prime >= th}


def sample_all_query(
    mod: SampleModel, t: Subcube, threshold: float | None = None
) -> set[JointValue]:
    return set(sample_all_query_scored(mod, t, threshold))
