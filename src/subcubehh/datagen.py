"""Synthetic categorical streams drawn from a class-conditional model.

A generator holds a class prior over ell classes and, per class and
coordinate, a categorical distribution over that coordinate's values. Rows
are sampled i.i.d.: class first, then each coordinate from its
class-conditional. With ell=1 the coordinates are exactly independent.

The per-class distributions come from a symmetric Dirichlet whose
concentration shrinks as `skew` grows: skew 0 is exactly uniform, larger
skew piles mass onto a few values and so produces heavy hitters.

The bundled "paper-synthetic" profile mimics a web-analytics stream: a
7-value class coordinate (country) plus five high-cardinality features
(city, page name, start page name, campaign, browser).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError

PAPER_PROFILE_CARDINALITIES = (10_500, 8_500, 6_400, 3_500, 300)
PAPER_PROFILE_ELL = 7
# Tuned so that at gamma = 0.002 each 3-dim subcube holds a few dozen heavy
# hitters, in the 0.02-0.1% band of its observed joint values.
PAPER_PROFILE_SKEW = 1.4


@dataclass(frozen=True)
class NBGenerator:
    ell: int
    cardinalities: tuple[int, ...]
    class_prior: np.ndarray  # (ell,)
    dists: tuple[np.ndarray, ...]  # per coordinate: (ell, n_j)
    seed: int

    @property
    def d(self) -> int:
        return len(self.cardinalities)

    def most_frequent_class(self) -> int:
        return int(np.argmax(self.class_prior))


def _skewed_shares(rng: np.random.Generator, n: int, skew: float) -> np.ndarray:
    """Zipf-shaped shares over a random value order, with mild multiplicative
    jitter. skew 0 is near-uniform; larger skew concentrates mass on a few
    values. The Zipf shape keeps the level of concentration stable across
    seeds (a symmetric Dirichlet draw makes it a lottery), which is what lets
    the bundled profiles promise a predictable heavy-hitter population.
    """
    ranks = np.arange(1, n + 1, dtype=np.float64)
    shares = ranks ** (-skew) if skew > 0.0 else np.ones(n)
    shares = shares * np.exp(rng.normal(0.0, 0.2, size=n))
    shares /= shares.sum()
    out = np.empty(n)
    out[rng.permutation(n)] = shares
    return out


def _zipf_prior(rng: np.random.Generator, ell: int) -> np.ndarray:
    """Zipf shares (exponent 1.5) over a random class order: a deterministic
    level of concentration (top share ~0.53 for 7 classes), random assignment."""
    shares = np.arange(1, ell + 1, dtype=np.float64) ** -1.5
    shares /= shares.sum()
    out = np.empty(ell)
    out[rng.permutation(ell)] = shares
    return out


def make_random_nb(
    d: int,
    cardinalities: Sequence[int],
    ell: int,
    skew: float,
    seed: int,
) -> NBGenerator:
    if len(cardinalities) != d:
        raise ConfigError(f"{len(cardinalities)} cardinalities for d={d}")
    if ell < 1:
        raise ConfigError(f"ell must be >= 1, got {ell}")
    if not skew >= 0:
        raise ConfigError(f"skew must be >= 0, got {skew}")
    if any(n < 1 for n in cardinalities):
        raise ConfigError("cardinalities must all be >= 1")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    # Class columns such as country or weekday have one dominant value; a
    # near-flat prior would dilute the mixture so much that nothing in the
    # whole stream stays heavy. Zipf shares keep the concentration stable
    # across model seeds where a Dirichlet draw would be a lottery.
    class_prior = _zipf_prior(rng, ell) if ell > 1 else np.array([1.0])
    dists = tuple(
        np.stack([_skewed_shares(rng, n, skew) for _ in range(ell)])
        for n in cardinalities
    )
    return NBGenerator(
        ell=ell,
        cardinalities=tuple(int(n) for n in cardinalities),
        class_prior=class_prior,
        dists=dists,
        seed=seed,
    )


def paper_profile(seed: int, skew: float = PAPER_PROFILE_SKEW) -> NBGenerator:
    return make_random_nb(
        d=len(PAPER_PROFILE_CARDINALITIES),
        cardinalities=PAPER_PROFILE_CARDINALITIES,
        ell=PAPER_PROFILE_ELL,
        skew=skew,
        seed=seed,
    )


class _AliasTable:
    """Walker alias table: O(n) build, O(1) per draw, vectorized."""

    def __init__(self, p: np.ndarray):
        n = len(p)
        self.n = n
        prob = np.asarray(p, dtype=np.float64) * n
        alias = np.zeros(n, dtype=np.int64)
        small = [i for i in range(n) if prob[i] < 1.0]
        large = [i for i in range(n) if prob[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            alias[s] = g
            prob[g] = prob[g] - (1.0 - prob[s])
            (small if prob[g] < 1.0 else large).append(g)
        for i in large:
            prob[i] = 1.0
        for i in small:
            prob[i] = 1.0
        self.prob = prob
        self.alias = alias

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        idx = rng.integers(0, self.n, size=size)
        u = rng.random(size)
        return np.where(u < self.prob[idx], idx, self.alias[idx])


def sample_rows(
    g: NBGenerator, m: int, seed: int, fix_class: int | None = None
) -> Iterator[list[str]]:
    """Sample m rows. Without fix_class the first column is the class value
    and the features follow; with fix_class only the features are emitted,
    all conditioned on that class. The arguments are checked, and every
    value drawn, before the first row is read."""
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    if fix_class is not None and not 0 <= fix_class < g.ell:
        raise ConfigError(f"fix_class {fix_class} outside [0, {g.ell})")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if fix_class is None:
        classes = _AliasTable(g.class_prior).draw(rng, m)
    else:
        classes = np.full(m, fix_class, dtype=np.int64)
    columns = np.empty((g.d, m), dtype=np.int64)
    for j in range(g.d):
        col = np.empty(m, dtype=np.int64)
        for z in range(g.ell):
            mask = classes == z
            count = int(mask.sum())
            if count:
                col[mask] = _AliasTable(g.dists[j][z]).draw(rng, count)
        columns[j] = col
    table = [*columns] if fix_class is not None else [classes, *columns]
    return map(list, zip(*(map(str, col) for col in table)))


def sample_to_csv(
    g: NBGenerator, m: int, seed: int, path: str | Path, fix_class: int | None = None
) -> Path:
    """Write a sampled dataset as CSV; returns the path."""
    out = Path(path)
    rows = sample_rows(g, m, seed, fix_class)  # checked before the file is opened
    with open(out, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return out
