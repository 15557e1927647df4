"""One-dimensional stream summaries: reservoir sample, Misra-Gries, Count-Min.

All three are deterministic given (seed, stream order). Randomness comes from
a counter-based splitmix64 hash rather than a stateful RNG.

Guarantees maintained here:

- Reservoir: after n updates each item seen so far is retained with
  probability capacity/n, uniformly without replacement (Algorithm R).
- MisraGries with budget c: for every value x,
  true_count(x) - processed/c <= estimate(x) <= true_count(x).
- CountMin: point_query(x) >= true_count(x) always; each row overshoots by
  more than 2*processed/width with probability at most 1/2, so the min over
  depth rows fails that bound with probability about 2^-depth.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import compress, repeat
from operator import mod, xor
from typing import Sequence

from .errors import ConfigError

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """Finalizer of the splitmix64 generator; a strong 64-bit mixer."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def hash_pair(x: int, seed: int) -> int:
    """64-bit hash of (x, seed), independent-looking across seeds."""
    return splitmix64(splitmix64(seed) ^ (x & _MASK64))


class Reservoir:
    """Uniform sample without replacement of fixed capacity (Algorithm R).

    One hash draw per item past capacity. The draw for the i-th item is a
    pure function of (seed, i), which keeps runs reproducible. The sample is
    held column by column, one list per coordinate, the data plane's own
    shape: slot j is `tuple(col[j] for col in columns)`.
    """

    __slots__ = ("capacity", "seed", "columns", "seen")

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self.columns: list[list[int]] = []  # one per coordinate, from the first update
        self.seen = 0

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def samples(self) -> list[tuple[int, ...]]:
        """The sampled items as tuples, slot by slot (a copy)."""
        return list(zip(*self.columns))

    def update(self, item: Sequence[int]) -> None:
        self.seen += 1
        if not self.columns:
            self.columns = [[] for _ in item]
        if len(self) < self.capacity:
            for col, x in zip(self.columns, item):
                col.append(x)
        elif self.capacity > 0:
            j = hash_pair(self.seen, self.seed) % self.seen
            if j < self.capacity:
                for col, x in zip(self.columns, item):
                    col[j] = x

    def update_many(self, columns: Sequence[Sequence[int]]) -> None:
        """`update` on each row of the chunk `columns` (one sequence per
        coordinate) in turn, with the same draws: rows fill the free slots,
        then the i-th row seen replaces slot j = hash_pair(i, seed) % i when
        j < capacity."""
        n = len(columns[0]) if columns else 0
        if n == 0:
            return
        if not self.columns:
            self.columns = [[] for _ in columns]
        cap, kept, seen = self.capacity, self.columns, self.seen
        fill = min(max(cap - len(self), 0), n)
        for col, new in zip(kept, columns):
            col.extend(new[:fill])
        self.seen = seen + n
        if cap == 0 or fill == n:
            return
        # hash_pair(i, seed) without re-mixing the seed per item; i < 2**64.
        ids = range(seen + fill + 1, self.seen + 1)
        slots = list(map(mod, map(splitmix64, map(xor, repeat(splitmix64(self.seed)), ids)), ids))
        hits = list(compress(range(fill, n), map(cap.__gt__, slots)))
        targets = [slots[r - fill] for r in hits]
        for col, new in zip(kept, columns):
            # In row order, so a slot drawn twice keeps the later row.
            deque(map(col.__setitem__, targets, map(new.__getitem__, hits)), maxlen=0)


class MisraGries:
    """Deterministic frequent-items summary with at most `counter_budget` counters.

    update(x): increment x's counter if tracked; start it at 1 if a slot is
    free; otherwise decrement every counter and drop the ones that hit zero.
    """

    __slots__ = ("counter_budget", "counters", "processed")

    def __init__(self, counter_budget: int):
        if counter_budget < 0:
            raise ConfigError(f"counter_budget must be >= 0, got {counter_budget}")
        self.counter_budget = counter_budget
        self.counters: Counter[int] = Counter()
        self.processed = 0

    def update(self, x: int) -> None:
        self.processed += 1
        counters = self.counters
        if x in counters:
            counters[x] += 1
        elif len(counters) < self.counter_budget:
            counters[x] = 1
        else:
            dead = []
            for key in counters:
                counters[key] -= 1
                if counters[key] == 0:
                    dead.append(key)
            for key in dead:
                del counters[key]

    def update_many(self, xs: Sequence[int]) -> None:
        """`update` on each x in turn. When the distinct values not yet
        tracked fit in the free counters no decrement can happen, and the
        whole chunk is counted at once; otherwise each x goes through
        `update`."""
        counters = self.counters
        room = self.counter_budget - len(counters)
        if len(xs) > room:
            values = set(xs)
            if len(values) - sum(map(counters.__contains__, values)) > room:
                for x in xs:
                    self.update(x)
                return
        self.processed += len(xs)
        counters.update(xs)

    def estimate(self, x: int) -> int:
        return self.counters.get(x, 0)

    def tracked(self) -> list[int]:
        """Currently tracked values, in first-tracked order."""
        return list(self.counters)


class CountMin:
    """Count-Min sketch: depth x width counters, one-sided overestimates.

    Row r counts x in cell hash_pair(x, hash_pair(r + 1, seed)) % width, which is
    splitmix64(row_keys[r] ^ x) % width; a point query returns the minimum across rows.
    """

    __slots__ = ("width", "depth", "seed", "row_keys", "table", "processed")

    def __init__(self, width: int, depth: int = 4, seed: int = 0):
        if width < 1:
            raise ConfigError(f"width must be >= 1, got {width}")
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth}")
        self.width = width
        self.depth = depth
        self.seed = seed
        self.row_keys = [splitmix64(hash_pair(r + 1, seed)) for r in range(depth)]
        self.table = [[0] * width for _ in range(depth)]
        self.processed = 0

    def update(self, x: int, count: int = 1) -> None:
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        self.processed += count
        width = self.width
        for row, key in zip(self.table, self.row_keys):
            row[splitmix64(key ^ x) % width] += count

    def point_query(self, x: int) -> int:
        width = self.width
        return min(row[splitmix64(key ^ x) % width] for row, key in zip(self.table, self.row_keys))
