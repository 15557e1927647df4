"""Exact brute-force frequency tables and model-error diagnostics.

Everything here counts with integers and only converts to floating point at
the API boundary, so summation identities can be asserted exactly. The
oracle is the reference every approximate algorithm is scored against; it is
meant to be right, and no larger than the question: a heavy set needs only
a table pruned by marginals (`exact_table`'s `heavy_at`), which are the
handle's exact counts. Both factorization-error diagnostics enumerate
through one routine: near-independence is the one-class case of the class
mixture, as in the two-pass model.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import compress
from operator import itemgetter
from typing import Sequence

from .core import HHParams, JointValue, Subcube
from .errors import ConfigError, NoClassColumnError, SupportTooLargeError
from .stream_io import Columns, DatasetHandle

DEFAULT_SUPPORT_CAP = 10**7


class TruthLabel(Enum):
    MUST_YES = "MUST_YES"
    MUST_NO = "MUST_NO"
    EITHER = "EITHER"


@dataclass(frozen=True)
class GroundTruth:
    """Exact joint-value counts for one subcube over one dataset. A table
    with a `floor` holds only the joint values whose every coordinate value
    occurs at least floor*m times, each with its exact count: it answers
    heavy_set at the floor and above, and refuses everything else."""

    subcube: Subcube
    m: int
    counts: Counter[JointValue]
    floor: float | None = None

    def _check_full(self, what: str) -> None:
        if self.floor is not None:
            raise ConfigError(f"{what} needs a full table; this one is pruned at {self.floor}")

    def freq(self, v: JointValue) -> float:
        self._check_full("freq")
        return self.counts.get(v, 0) / self.m

    def heavy_set(self, gamma: float) -> set[JointValue]:
        """Joint values with exact frequency ratio >= gamma."""
        if self.floor is not None and not gamma >= self.floor:
            raise ConfigError(f"heavy_set({gamma}) is below this table's floor {self.floor}")
        threshold = gamma * self.m
        return {v for v, c in self.counts.items() if c >= threshold}

    def top_values(self, k: int) -> list[JointValue]:
        """The k most frequent joint values; count ties broken by value."""
        self._check_full("top_values")
        counts = self.counts
        return heapq.nsmallest(k, counts, key=lambda v: (-counts[v], v))


def exact_table(h: DatasetHandle, t: Subcube, heavy_at: float | None = None) -> GroundTruth:
    """Count the joint values of `t` by a full pass over the dataset. Keys are
    not mapped through `code_table`: after the freeze they are ints equal to
    the dictionary's, not its own objects.

    With `heavy_at`, a row is counted only when each of its values on t
    occurs at least heavy_at*m times, so the table (floor heavy_at) holds
    every joint value that can reach that count, and answers heavy_set at
    heavy_at and above. The marginals are the handle's exact counts, which
    the first request counts for every column in a replay of its own. Each
    coordinate's heavy test is a byte table over its codes; a chunk's
    selector ands one mask per coordinate, each looked up in one
    `itemgetter` call, and only the rows it keeps are zipped."""
    counts: Counter[JointValue] = Counter()
    if heavy_at is None:

        def visit(columns: Columns, _classes: Sequence[int] | None) -> None:
            counts.update(zip(*(columns[c] for c in t.coords)))

        return GroundTruth(t, h.replay(visit), counts)
    h.exact_counts(t.coords[0])  # before h.m: the first call may freeze the handle
    threshold = heavy_at * h.m
    # One byte per code (each marginal is in code order): 1 iff heavy. Only
    # one marginal dict is alive at a time, and none during the replay.
    tables = [bytes(map(threshold.__le__, h.exact_counts(c).values())) for c in t.coords]

    def visit_heavy(columns: Columns, _classes: Sequence[int] | None) -> None:
        cols = [columns[c] for c in t.coords]
        n = len(cols[0])
        heavy = [itemgetter(*col)(table) for table, col in zip(tables, cols)]
        if n == 1:  # itemgetter of one key gives the bare item, not a tuple
            heavy = [(b,) for b in heavy]
        keep = reduce(operator.and_, (int.from_bytes(bytes(b), "little") for b in heavy))
        counts.update(zip(*(compress(col, keep.to_bytes(n, "little")) for col in cols)))

    return GroundTruth(t, h.replay(visit_heavy), counts, heavy_at)


def truth_label(f: float, p: HHParams) -> TruthLabel:
    """Which answers are acceptable for a value with exact frequency ratio f."""
    if f >= p.gamma:
        return TruthLabel.MUST_YES
    if f < p.gamma / 4.0:
        return TruthLabel.MUST_NO
    return TruthLabel.EITHER


def _check_support(sizes: list[int], cap: int) -> None:
    cells = 1
    for s in sizes:
        cells *= s
        if cells > cap:
            raise SupportTooLargeError(
                f"support product exceeds cap {cap} (at least {cells} cells)"
            )


def _worst_deviation(
    joint: Counter[JointValue], m: int, priors: list[float], conds: list[dict], cap: int
) -> float:
    """max |joint(v)/m - sum_z priors[z] * prod_i conds[i][v_i][z]| over the
    cartesian product of the supports, the keys of each conds[i]. A joint
    value never observed counts with frequency 0. The per-class products of
    a prefix are formed once, left to right from the prior, so each score
    is the same float as a product over v alone."""
    supports = [sorted(c) for c in conds]
    _check_support([len(s) for s in supports], cap)
    *head, last = supports
    worst = 0.0
    for prefix in itertools.product(*head):
        vec = priors
        for c, x in zip(conds, prefix):
            vec = tuple(map(operator.mul, vec, c[x]))
        for x in last:
            q = 0.0
            for p_z, c_z in zip(vec, conds[-1][x]):
                q += p_z * c_z
            dev = abs(joint.get((*prefix, x), 0) / m - q)
            if dev > worst:
                worst = dev
    return worst


def empirical_alpha_independence(
    h: DatasetHandle, t: Subcube, support_cap: int = DEFAULT_SUPPORT_CAP
) -> float:
    """Worst deviation of the joint table from the product of its marginals.

    This is the one-class case of empirical_alpha_nb: prior 1.0, and each
    value's marginal f_i(x) as its conditional, so a joint value scores
    1.0 * prod_i f_i(v_i). The marginals are summed out of the joint table,
    so the dataset is read once.
    """
    truth = exact_table(h, t)
    marginals: list[Counter[int]] = [Counter() for _ in t.coords]
    for v, n in truth.counts.items():
        for tally, x in zip(marginals, v):
            tally[x] += n
    m = truth.m
    conds = [{x: (c / m,) for x, c in mc.items()} for mc in marginals]
    return _worst_deviation(truth.counts, m, [1.0], conds, support_cap)


def empirical_alpha_nb(
    h: DatasetHandle, t: Subcube, support_cap: int = DEFAULT_SUPPORT_CAP
) -> float:
    """Worst deviation of the joint table from the class-factorized mixture.

    Uses the handle's designated class column: the reference score of a joint
    value v is sum_z prior(z) * prod_i cond_i(v_i | z), with empirical priors
    and conditionals. The joint table is counted in the same pass, so the
    dataset is read once.
    """
    if h.class_col is None:
        raise NoClassColumnError("empirical_alpha_nb needs a class column")
    joint: Counter[JointValue] = Counter()
    class_counts: Counter[int] = Counter()
    joint_class: list[Counter[tuple[int, int]]] = [Counter() for _ in t.coords]

    def visit(columns: Columns, classes: Sequence[int] | None) -> None:
        joint.update(zip(*(columns[c] for c in t.coords)))
        class_counts.update(classes)
        for tally, c in zip(joint_class, t.coords):
            tally.update(zip(columns[c], classes))

    m = h.replay(visit)
    classes = sorted(class_counts)
    priors = [class_counts[z] / m for z in classes]
    conds = [
        {x: tuple(jc[x, z] / class_counts[z] for z in classes) for x in {x for x, _z in jc}}
        for jc in joint_class
    ]
    return _worst_deviation(joint, m, priors, conds, support_cap)
