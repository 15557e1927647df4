import collections
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh.errors import ConfigError
from subcubehh.sketches import (
    CountMin,
    MisraGries,
    Reservoir,
    hash_pair,
    _splitmix64_ramp,
    splitmix64,
    splitmix64_many,
)

MASK64 = (1 << 64) - 1
# Around the kernel's block of 1024 lanes: empty, one lane, a block less one,
# one block, one block and a lane, two blocks and a lane.
KERNEL_LENGTHS = [0, 1, 1023, 1024, 1025, 2049]
EDGE_KEYS = [0, MASK64]


def mixed_values(rnd, n):
    """n values in [0, 2**64): edges, small codes and full 64-bit words."""
    edges = [0, 1, MASK64, MASK64 - 1, 1 << 63, (1 << 32) - 1]
    return [
        rnd.choice(edges) if rnd.random() < 0.2 else rnd.getrandbits(rnd.choice([8, 32, 64]))
        for _ in range(n)
    ]


class TestSplitmix64Many:
    """The batched kernel equals the scalar splitmix64 lane by lane."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from(KERNEL_LENGTHS),
        key=st.one_of(st.sampled_from(EDGE_KEYS), st.integers(0, MASK64)),
        data_seed=st.integers(0, 2**32),
    )
    def test_equals_scalar(self, n, key, data_seed):
        xs = mixed_values(random.Random(data_seed), n)
        got = splitmix64_many(key, xs)
        assert isinstance(got, array) and got.typecode == "Q"
        assert list(got) == [splitmix64(key ^ x) for x in xs]

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    @pytest.mark.parametrize("key", EDGE_KEYS)
    def test_extreme_values_at_block_edges(self, n, key):
        # 0 and 2**64 - 1 side by side, so each sits next to the other's lane,
        # at both ends and across the block boundary.
        xs = [(0, MASK64)[i % 2] for i in range(n)]
        assert list(splitmix64_many(key, xs)) == [splitmix64(key ^ x) for x in xs]

    @pytest.mark.parametrize("n", KERNEL_LENGTHS)
    @pytest.mark.parametrize("start", [0, 5, 2**64 - 1500])
    def test_id_ramp_equals_scalar(self, n, start):
        # The reservoir's draws over consecutive ids; ids past 2**64 - 1 hash
        # as their low 64 bits, as hash_pair does.
        key = splitmix64(11)
        got = _splitmix64_ramp(key, start, start + n)
        assert list(got) == [hash_pair(i, 11) for i in range(start, start + n)]

    def test_out_of_range_value_rejected(self):
        for x in (-1, 1 << 64):
            with pytest.raises(OverflowError):
                splitmix64_many(3, [5, x])

    def test_cached_constants_stay_one_block(self):
        # Hashing 10k values at 141 lengths, and drawing over as many id
        # ranges, leaves behind less memory than one block of lanes holds.
        block_bytes = 1024 * 16
        splitmix64_many(7, [1])
        Reservoir(1, 7).update_many([[1, 2]])
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lo = 0
            for n in range(1, 142):
                assert len(splitmix64_many(n, list(range(lo, lo + n)))) == n
                res = Reservoir(1, n)
                res.seen = lo
                res.update_many([list(range(n + 1))])
                lo += n
            assert lo > 10_000
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < block_bytes


class TestMisraGries:
    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigError, match="counter_budget"):
            MisraGries(-1)

    def test_hand_simulation(self):
        # budget 2, stream [1,1,2,3,1]: the arrival of 3 decrements {1:2,2:1}
        # to {1:1} and is not inserted; the final 1 brings it back to 2.
        sk = MisraGries(2)
        for x in [1, 1, 2, 3, 1]:
            sk.update(x)
        assert sk.counters == {1: 2}
        assert sk.decrements == 1
        assert sk.estimate(1) == 2  # true count 3, error 1 <= m/c = 2.5
        assert sk.estimate(3) == 0
        assert sk.estimate(2) == 0

    def test_empty_sketch(self):
        sk = MisraGries(4)
        for x in range(10):
            assert sk.estimate(x) == 0

    def test_exact_when_budget_covers_support(self):
        stream = [1, 2, 3, 1, 2, 1] * 3
        sk = MisraGries(3)
        for x in stream:
            sk.update(x)
        for x in {1, 2, 3}:
            assert sk.estimate(x) == stream.count(x)

    def test_budget_bound_never_exceeded(self):
        sk = MisraGries(3)
        rng = random.Random(5)
        for _ in range(500):
            sk.update(rng.randrange(20))
            assert len(sk.counters) <= 3

    @pytest.mark.parametrize("budget", [3, 4])
    def test_from_counts_equals_feeding_in_code_order(self, budget):
        stream = [0, 1, 0, 2, 1, 0]
        sk = MisraGries(budget)
        for x in stream:
            sk.update(x)
        rebuilt = MisraGries.from_counts(budget, {0: 3, 1: 2, 2: 1})
        assert list(rebuilt.counters.items()) == list(sk.counters.items())
        assert (rebuilt.counter_budget, rebuilt.processed, rebuilt.decrements) == (budget, 6, 0)

    def test_from_counts_overflow_rejected(self):
        with pytest.raises(ConfigError, match="3 values overflow 2 counters"):
            MisraGries.from_counts(2, {5: 1, 6: 1, 7: 1})

    def test_zero_budget_tracks_nothing(self):
        sk = MisraGries(0)
        for x in [1, 2, 1, 1]:
            sk.update(x)
        assert sk.counters == {}
        assert sk.estimate(1) == 0
        assert sk.processed == 4

    @given(
        st.lists(st.integers(0, 7), min_size=1, max_size=60),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_two_sided_bound_on_every_prefix(self, stream, budget):
        sk = MisraGries(budget)
        true = {}
        for x in stream:
            sk.update(x)
            true[x] = true.get(x, 0) + 1
            bound = sk.processed / budget
            for y, ty in true.items():
                est = sk.estimate(y)
                assert est <= ty
                assert est >= ty - bound


class TestCountMin:
    def test_single_value_exact(self):
        sk = CountMin(width=16, depth=1, seed=3)
        sk.update(9)
        sk.update(9)
        assert sk.point_query(9) == 2

    def test_one_sided(self):
        sk = CountMin(width=4, depth=2, seed=1)
        true = {}
        rng = random.Random(0)
        for _ in range(300):
            x = rng.randrange(12)
            sk.update(x)
            true[x] = true.get(x, 0) + 1
        for x, t in true.items():
            assert sk.point_query(x) >= t

    def test_total_collision_degenerate(self):
        sk = CountMin(width=1, depth=1)
        for x in [10, 11, 12]:
            sk.update(x)
        assert sk.point_query(10) == 3

    def test_bulk_update_equals_repeated(self):
        a = CountMin(width=8, depth=3, seed=7)
        b = CountMin(width=8, depth=3, seed=7)
        for _ in range(5):
            a.update(42)
        b.update(42, 5)
        assert a.table == b.table
        assert a.processed == b.processed

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 2**64 + 5])
    @pytest.mark.parametrize("width", [1, 5, 64, 1009])
    def test_cells_match_hash_pair_reference(self, seed, width):
        # Row r counts x in cell hash_pair(x, hash_pair(r + 1, seed)) % width.
        for x in [0, 1, 41, 2**32 + 3, 2**64 - 1, 2**64, 2**64 + 41, 2**70 + 9, -1]:
            sk = CountMin(width, depth=3, seed=seed)
            sk.update(x, 3)
            for r, row in enumerate(sk.table):
                assert row[hash_pair(x, hash_pair(r + 1, seed)) % width] == 3
                assert sum(row) == 3
            assert sk.point_query(x) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 40),
                    st.sampled_from([-1, MASK64, 1 << 64, (1 << 64) + 3, 1 << 70]),
                    st.integers(-(1 << 70), 1 << 70),
                ),
                st.integers(0, 9),
            ),
            max_size=40,
        ),
        width=st.sampled_from([1, 3, 64]),
        depth=st.integers(1, 4),
        seed=st.integers(0, 2**64 + 5),
    )
    def test_update_counts_equals_scalar(self, pairs, width, depth, seed):
        # Codes of 2**64 and more, and negative ones, hash as their low 64
        # bits, as in the scalar path; a value may repeat.
        ref, fast = CountMin(width, depth, seed), CountMin(width, depth, seed)
        for x, c in pairs:
            ref.update(x, c)
        values = [x for x, _c in pairs]
        estimates = fast.update_counts(values, [c for _x, c in pairs])
        assert fast.table == ref.table
        assert fast.processed == ref.processed
        assert estimates == [ref.point_query(x) for x in values]

    def test_update_counts_over_several_blocks(self):
        values = mixed_values(random.Random(4), 2049) + [-1, 1 << 64]
        counts = [i % 5 + 1 for i in range(len(values))]
        ref, fast = CountMin(97, 3, 11), CountMin(97, 3, 11)
        for x, c in zip(values, counts):
            ref.update(x, c)
        estimates = fast.update_counts(values, counts)
        assert (fast.table, fast.processed) == (ref.table, ref.processed)
        assert estimates == [ref.point_query(x) for x in values]

    def test_update_counts_rejects_negative_count(self):
        sk = CountMin(width=4, depth=2, seed=0)
        with pytest.raises(ConfigError):
            sk.update_counts([1, 2], [3, -1])
        assert sk.table == [[0] * 4, [0] * 4] and sk.processed == 0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            CountMin(width=0)
        with pytest.raises(ConfigError):
            CountMin(width=4, depth=0)

    def test_zero_count_update_is_noop(self):
        sk = CountMin(width=4, depth=2, seed=0)
        sk.update(7, 0)
        assert sk.processed == 0
        assert sk.point_query(7) == 0

    def test_negative_count_rejected(self):
        sk = CountMin(width=4, depth=2, seed=0)
        with pytest.raises(ConfigError):
            sk.update(7, -1)


class TestReservoir:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError, match="capacity"):
            Reservoir(-1)

    def test_under_capacity_keeps_all_in_order(self):
        res = Reservoir(10, seed=1)
        stream = [(i,) for i in range(5)]
        for item in stream:
            res.update(item)
        assert res.samples == stream
        assert res.seen == 5

    def test_zero_capacity(self):
        res = Reservoir(0, seed=1)
        for i in range(20):
            res.update((i,))
        assert res.samples == []
        assert res.seen == 20

    def test_deterministic_given_seed(self):
        def run(seed):
            res = Reservoir(3, seed=seed)
            for i in range(50):
                res.update((i,))
            return res.samples

        assert run(11) == run(11)
        assert run(11) != run(12)  # different draws almost surely diverge

    @pytest.mark.parametrize("capacity", [0, 1, 4, 30])
    def test_columns_hold_algorithm_r_rows(self, capacity):
        # Algorithm R over whole rows, with the same draws, is the reference
        # for the column-wise scalar update.
        stream = [(i % 7, i, -i) for i in range(120)]
        slots = []
        for i, item in enumerate(stream, start=1):
            if len(slots) < capacity:
                slots.append(item)
            elif capacity > 0 and (j := hash_pair(i, 5) % i) < capacity:
                slots[j] = item
        res = Reservoir(capacity, seed=5)
        for item in stream:
            res.update(item)
        assert res.samples == slots
        assert res.columns == [[item[c] for item in slots] for c in range(3)]
        assert len(res) == len(slots)

    def test_final_sample_uniform_chi_squared(self):
        # capacity 1, stream of 8: the survivor should be uniform over the 8.
        n, trials = 8, 10_000
        hits = [0] * n
        for seed in range(trials):
            res = Reservoir(1, seed=seed)
            for i in range(n):
                res.update((i,))
            hits[res.samples[0][0]] += 1
        expected = trials / n
        chi2 = sum((h - expected) ** 2 / expected for h in hits)
        # 0.99 quantile of chi-squared with 7 degrees of freedom.
        assert chi2 < 18.4753

    def test_inclusion_probability(self):
        # capacity 2 over 6 items: each item kept with probability 1/3.
        runs, length, capacity = 12_000, 6, 2
        inclusion = [0] * length
        for seed in range(runs):
            res = Reservoir(capacity, seed=seed)
            for i in range(length):
                res.update((i,))
            for item in res.samples:
                inclusion[item[0]] += 1
        p = capacity / length
        sigma = (p * (1 - p) / runs) ** 0.5
        for count in inclusion:
            assert abs(count / runs - p) <= 3 * sigma


def chunked(stream, cuts):
    """`stream` split at the given positions (clipped to its length)."""
    bounds = [0, *sorted(min(c, len(stream)) for c in cuts), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def as_columns(rows, d):
    """The data plane's shape of a chunk: one list per coordinate."""
    return tuple([row[c] for row in rows] for c in range(d))


def count_scalar_updates(monkeypatch, cls) -> list:
    """Record every item `cls.update` is called with."""
    calls = []
    update = cls.update

    def recording(self, *args):
        calls.append(args)
        update(self, *args)

    monkeypatch.setattr(cls, "update", recording)
    return calls


class TestChunkedUpdatesEqualScalar:
    """`update_many` over any chunking equals `update` item by item, on
    list chunks and on array('I') chunks, as a replay of the spill hands."""

    @given(
        st.lists(st.integers(0, 9), max_size=80),
        st.integers(0, 6),
        st.lists(st.integers(0, 80), max_size=6),
        st.booleans(),
    )
    def test_misra_gries(self, stream, budget, cuts, packed):
        ref, fast = MisraGries(budget), MisraGries(budget)
        for x in stream:
            ref.update(x)
        all_removed = collections.Counter()
        for chunk in chunked(stream, cuts):
            if packed:
                chunk = array("I", chunk)
            before, decrements = fast.counters.copy(), fast.decrements
            fits = fast.fits(chunk)
            removed = fast.update_many(chunk)
            assert (fast.decrements == decrements) == fits  # a chunk that fits never decrements
            assert (removed is None) == fits
            if removed is not None:
                assert removed == before + collections.Counter(chunk) - fast.counters
                assert min(removed.values()) > 0
                all_removed += removed
        assert fast.counters + all_removed == collections.Counter(stream)
        assert fast.counters == ref.counters
        assert fast.tracked() == ref.tracked()  # first-tracked order too
        assert fast.processed == ref.processed
        assert fast.decrements == ref.decrements
        if ref.decrements == 0:  # never decremented: the counters are exact
            assert ref.counters == collections.Counter(stream)

    def test_misra_gries_fast_branch(self, monkeypatch):
        # 3 distinct values, 1 already tracked, 2 free counters: no decrement
        # can happen, so the chunk never reaches the scalar update.
        sk = MisraGries(3)
        sk.update_many([5])
        calls = count_scalar_updates(monkeypatch, MisraGries)
        assert sk.fits([5, 6, 7, 6, 5, 5]) and not sk.fits([5, 6, 7, 8])
        sk.update_many([5, 6, 7, 6, 5, 5])
        assert calls == []
        assert sk.counters == {5: 4, 6: 2, 7: 1}
        assert sk.processed == 7

    def test_misra_gries_scalar_branch(self, monkeypatch):
        sk = MisraGries(2)
        calls = count_scalar_updates(monkeypatch, MisraGries)
        sk.update_many([1, 1, 2, 3, 1])
        assert calls == [(1,), (1,), (2,), (3,), (1,)]
        assert sk.counters == {1: 2}  # the hand simulation above

    def test_misra_gries_budget_zero(self):
        sk = MisraGries(0)
        sk.update_many([1, 2, 1])
        sk.update_many([])
        assert sk.counters == {}
        assert sk.processed == 3

    @given(
        st.integers(0, 70),
        st.sampled_from([0, 1, 2, 5, 16, 100]),
        st.integers(0, 3),
        st.lists(st.integers(0, 70), max_size=6),
        st.booleans(),
    )
    def test_reservoir(self, n, capacity, seed, cuts, packed):
        stream = [(i, i % 3) for i in range(n)]
        ref, fast = Reservoir(capacity, seed), Reservoir(capacity, seed)
        for item in stream:
            ref.update(item)
        for chunk in chunked(stream, cuts):
            columns = as_columns(chunk, 2)
            if packed:
                columns = tuple(array("I", col) for col in columns)
            fast.update_many(columns)
        assert fast.columns == ref.columns
        assert fast.samples == ref.samples
        assert fast.seen == ref.seen

    @pytest.mark.parametrize("capacity", [0, 1, 5])
    def test_reservoir_fill_boundary_inside_chunk(self, capacity):
        # The capacity-5 reservoir fills after the 5th item: inside the
        # second chunk, which then also makes replacement draws.
        stream = [(i,) for i in range(40)]
        ref, fast = Reservoir(capacity, 9), Reservoir(capacity, 9)
        for item in stream:
            ref.update(item)
        for chunk in (stream[:3], stream[3:11], stream[11:]):
            fast.update_many(as_columns(chunk, 1))
        assert (fast.columns, fast.seen) == (ref.columns, ref.seen)
        assert len(fast) == len(fast.columns[0]) == capacity

    @pytest.mark.parametrize("seen", [0, 1000])
    def test_reservoir_draws_across_blocks(self, seen):
        # Chunks cut so the draws span whole and partial blocks of ids.
        stream = [(i % 11, i) for i in range(3100)]
        ref, fast = Reservoir(7, 13), Reservoir(7, 13)
        for res in (ref, fast):
            res.seen = seen
        for item in stream:
            ref.update(item)
        for chunk in chunked(stream, [1, 1025, 2049]):
            fast.update_many(as_columns(chunk, 2))
        assert (fast.columns, fast.seen) == (ref.columns, ref.seen)
