"""Domain types shared by every algorithm: items, subcubes, thresholds, verdicts.

Items are plain tuples of dense non-negative integer codes, one code per
coordinate, produced by the dataset dictionary encoder. A subcube names the
ordered coordinates a query targets; an item restricted to them, in subcube
order, is the joint value those coordinates carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import (
    ConfigError,
    DuplicateIndexError,
    EmptySubcubeError,
    IndexOutOfRangeError,
)

# A stream record: one code per coordinate.
Item = tuple[int, ...]
# Codes of an item restricted to a subcube's coordinates, in subcube order.
JointValue = tuple[int, ...]


class Verdict(Enum):
    YES = "YES"
    NO = "NO"


@dataclass(frozen=True)
class Subcube:
    """An ordered set of distinct coordinate indices in [0, d)."""

    coords: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.coords)


def make_subcube(indices: Sequence[int], d: int) -> Subcube:
    """Validate `indices` against dimensionality `d` and build a Subcube.

    Indices must be nonempty, distinct, and all in [0, d).
    """
    if len(indices) == 0:
        raise EmptySubcubeError("subcube needs at least one coordinate")
    seen: set[int] = set()
    for ix in indices:
        if not 0 <= ix < d:
            raise IndexOutOfRangeError(f"coordinate {ix} outside [0, {d})")
        if ix in seen:
            raise DuplicateIndexError(f"coordinate {ix} repeated")
        seen.add(ix)
    return Subcube(tuple(int(ix) for ix in indices))


@dataclass(frozen=True)
class HHParams:
    """Heavy-hitter thresholds.

    gamma is the reporting threshold: values with frequency ratio >= gamma
    must be reported, values below gamma/4 must not be, and the gap in
    between may go either way. lam (= gamma/2, always) is the decision
    threshold every answerer applies by default. Experiment sweeps that
    step away from it pass an explicit threshold to the query functions
    instead of building new params.

    The factorized answerers' guarantee also needs model error alpha <=
    gamma/10. That is a property of the data, not a setting: the oracle's
    empirical_alpha_* diagnostics measure it on a given dataset.
    """

    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")

    @property
    def lam(self) -> float:
        """Internal decision threshold, exactly gamma/2."""
        return self.gamma / 2.0

    @property
    def gamma_star(self) -> float:
        """The default decision threshold of every answerer; an alias of lam."""
        return self.lam
