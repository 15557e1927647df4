"""One-dimensional stream summaries: reservoir sample, Misra-Gries, Count-Min.

All three are deterministic given (seed, stream order). Randomness comes from
a counter-based splitmix64 hash rather than a stateful RNG. `splitmix64` is
the scalar reference; `splitmix64_many` computes the same hashes a block of
up to 1024 values per call, in lanes of one Python int, and serves the
reservoir's draws and the Count-Min feed.

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

import sys
from array import array
from collections import Counter, deque
from itertools import compress, repeat
from operator import and_, mod
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


# The batched kernel keeps each 64-bit value in its own 128-bit lane of one
# Python int, so every mixer step is a few whole-int operations: a lane below
# 2**64 times a 64-bit constant stays inside its lane, and masking after each
# right shift drops the bits that crossed in from the next lane. Work goes in
# blocks of at most _LANES lanes, and constants are kept for a full block
# only (shorter blocks truncate them), so the memory held stays O(_LANES).
_LANES = 1024
_LANE_BYTES = 16
_BIG_ENDIAN = sys.byteorder == "big"


def _lanes(values: Sequence[int]) -> int:
    """Pack values in [0, 2**64) into consecutive 128-bit lanes."""
    words = array("Q", bytes(_LANE_BYTES * len(values)))
    words[::2] = array("Q", values)
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


_ONES = _lanes([1] * _LANES)  # 1 in every lane of a full block
_LOW64 = _MASK64 * _ONES  # the low half of every lane
_GOLDEN_LANES = _GOLDEN * _ONES
_RAMP = _lanes(range(_LANES))  # i in lane i


def _first_lanes(lanes: int, n: int) -> int:
    """The first n lanes of a full-block constant."""
    return lanes if n == _LANES else lanes & ((1 << (8 * _LANE_BYTES * n)) - 1)


def _mix_lanes(key: int, z: int, n: int) -> array:
    """splitmix64(key ^ x) for the value x in each of z's n lanes. A lane
    value below 2**127 hashes as its low 64 bits: the first mask drops the
    rest, as the scalar's first mask does."""
    ones = _first_lanes(_ONES, n)
    low = _LOW64  # `&` keeps z to its own n lanes
    z = ((z ^ key * ones) + _first_lanes(_GOLDEN_LANES, n)) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    words = array("Q", (z ^ (z >> 31)).to_bytes(_LANE_BYTES * n, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words[::2]  # the high halves hold bits shifted in from the next lane


def splitmix64_many(key: int, xs: Sequence[int]) -> array:
    """splitmix64(key ^ x) for each x in xs, every x in [0, 2**64), computed
    a block of lanes at a time; equal to the scalar `splitmix64` item by item."""
    out = array("Q")
    for lo in range(0, len(xs), _LANES):
        block = xs[lo : lo + _LANES]
        out += _mix_lanes(key, _lanes(block), len(block))
    return out


def _splitmix64_ramp(key: int, start: int, stop: int) -> array:
    """splitmix64(key ^ (i mod 2**64)) for each id i in range(start, stop):
    a block's lanes are the cached ramp plus its first id in every lane, so
    no id is packed one by one."""
    out = array("Q")
    for lo in range(start, stop, _LANES):
        n = min(_LANES, stop - lo)
        out += _mix_lanes(key, lo * _first_lanes(_ONES, n) + _first_lanes(_RAMP, n), n)
    return out


class Reservoir:
    """Uniform sample without replacement of fixed capacity (Algorithm R).

    One hash draw per item past capacity. The draw for the i-th item is a
    pure function of (seed, i), which keeps runs reproducible. `update`
    draws one at a time and is the reference; `update_many` draws a chunk's
    ids with the batched kernel, so draws are the same. The sample is held
    column by column, one list per coordinate, the data plane's own shape:
    slot j is `tuple(col[j] for col in columns)`.
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
        # hash_pair(i, seed) for each id i, a block of ids per kernel call.
        ids = range(seen + fill + 1, self.seen + 1)
        slots = list(map(mod, _splitmix64_ramp(splitmix64(self.seed), ids.start, ids.stop), ids))
        hits = list(compress(range(fill, n), map(cap.__gt__, slots)))
        targets = [slots[r - fill] for r in hits]
        for col, new in zip(kept, columns):
            # In row order, so a slot drawn twice keeps the later row.
            deque(map(col.__setitem__, targets, map(new.__getitem__, hits)), maxlen=0)


class MisraGries:
    """Deterministic frequent-items summary with at most `counter_budget` counters.

    update(x): increment x's counter if tracked; start it at 1 if a slot is
    free; otherwise decrement every counter and drop the ones that hit zero.
    `decrements` counts those rounds; while it is 0 the counters are the
    exact counts of everything processed. `update_many` returns what a
    chunk's rounds removed, so over a stream the counters plus all the
    returns are the exact counts.
    """

    __slots__ = ("counter_budget", "counters", "processed", "decrements")

    def __init__(self, counter_budget: int):
        if counter_budget < 0:
            raise ConfigError(f"counter_budget must be >= 0, got {counter_budget}")
        self.counter_budget = counter_budget
        self.counters: Counter[int] = Counter()
        self.processed = 0
        self.decrements = 0

    def update(self, x: int) -> None:
        self.processed += 1
        counters = self.counters
        if x in counters:
            counters[x] += 1
        elif len(counters) < self.counter_budget:
            counters[x] = 1
        else:
            self.decrements += 1
            dead = []
            for key in counters:
                counters[key] -= 1
                if counters[key] == 0:
                    dead.append(key)
            for key in dead:
                del counters[key]

    def fits(self, xs: Sequence[int]) -> bool:
        """True when the distinct values of xs not yet tracked fit in the
        free counters, so `update_many(xs)` makes no decrement."""
        counters = self.counters
        room = self.counter_budget - len(counters)
        if len(xs) <= room:
            return True
        values = set(xs)
        return len(values) - sum(map(counters.__contains__, values)) <= room

    def update_many(self, xs: Sequence[int]) -> dict[int, int] | None:
        """`update` on each x in turn. A chunk that `fits` is counted at
        once and returns None. Otherwise each x goes through `update`, and
        the return maps each value to what the chunk's decrement rounds
        removed of it, dropped arrivals included: the positive part of
        before + Counter(xs) - after."""
        if self.fits(xs):
            self.processed += len(xs)
            self.counters.update(xs)
            return None
        total = self.counters.copy()
        for x in xs:
            self.update(x)
        total.update(xs)  # before + Counter(xs)
        get = self.counters.get
        # No count ends above before + arrivals, so a nonzero r is positive.
        return {x: r for x, n in total.items() if (r := n - get(x, 0))}

    def estimate(self, x: int) -> int:
        return self.counters.get(x, 0)

    def tracked(self) -> list[int]:
        """Currently tracked values, in first-tracked order."""
        return list(self.counters)


class CountMin:
    """Count-Min sketch: depth x width counters, one-sided overestimates.

    Row r counts x in cell hash_pair(x, hash_pair(r + 1, seed)) % width, which is
    splitmix64(row_keys[r] ^ x) % width; a point query returns the minimum across rows.
    `update` and `point_query` hash one value at a time and are the reference;
    `update_counts` feeds many (value, count) pairs with one batched kernel
    call per row and returns their estimates from the same cells.
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

    def update_counts(self, values: Sequence[int], counts: Sequence[int]) -> list[int]:
        """`update(x, c)` for each x in values and c in counts, then
        `point_query` of each x, with each x hashed once per row."""
        if any(map((0).__gt__, counts)):
            raise ConfigError(f"counts must be >= 0, got {min(counts)}")
        self.processed += sum(counts)
        xs = array("Q", map(and_, values, repeat(_MASK64)))  # key ^ x mixes only its low 64 bits
        width, estimates = self.width, None
        for row, key in zip(self.table, self.row_keys):
            cells = array("Q", map(mod, splitmix64_many(key, xs), repeat(width)))
            for cell, c in zip(cells, counts):
                row[cell] += c
            # Rows are independent: this row's cells are final once it is fed.
            found = map(row.__getitem__, cells)
            estimates = list(found if estimates is None else map(min, estimates, found))
        return estimates

    def point_query(self, x: int) -> int:
        width = self.width
        return min(row[splitmix64(key ^ x) % width] for row, key in zip(self.table, self.row_keys))
