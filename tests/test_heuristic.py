import collections
import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh import sketches
from subcubehh.core import HHParams, Verdict, make_subcube
from subcubehh.errors import BudgetTooSmallError, CapExceededError, ConfigError
from subcubehh.heuristic import (
    DEFAULT_DEPTH,
    HeuristicModel,
    heuristic_all_query,
    heuristic_all_query_scored,
    heuristic_build,
    heuristic_query,
)
from subcubehh.independence import indep_all_query, indep_pass1, indep_pass2
from subcubehh.naivebayes import default_counter_budget
from subcubehh.sketches import CountMin, MisraGries, hash_pair
from subcubehh.stream_io import from_items
from tests.conftest import heuristic_table, ulps


def random_rows(seed, m=400, d=2, n=5):
    rng = random.Random(seed)
    return [tuple(rng.randrange(n) for _ in range(d)) for _ in range(m)]


class TestBuild:
    def test_budget_too_small(self):
        h = from_items([(0, 0)])
        with pytest.raises(BudgetTooSmallError):
            heuristic_build(h, memory_slots=4, p=HHParams(0.5))  # width 0 at d=2

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one(self, depth):
        h = from_items([(0, 0)])
        with pytest.raises(ConfigError, match=f"depth must be >= 1, got {depth}$"):
            heuristic_build(h, memory_slots=64, p=HHParams(0.5), depth=depth)

    def test_constant_coordinate_exact_one(self):
        h = from_items([(3,)] * 50)
        mod = heuristic_build(h, memory_slots=64, p=HHParams(0.5))
        assert mod.estimate(0, 0) == 1.0

    def test_huge_width_recovers_exact_marginals(self):
        rows = random_rows(1, m=300, d=2, n=8)
        h = from_items(rows)
        mod = heuristic_build(h, memory_slots=2 * 4 * 4096, p=HHParams(0.2), seed=3)
        counts = [dict(), dict()]

        def tally(columns, _classes):
            for j, col in enumerate(columns):
                for x in col:
                    counts[j][x] = counts[j].get(x, 0) + 1

        h.replay(tally)
        for j in range(2):
            for x, c in counts[j].items():
                assert mod.estimate(j, x) == c / 300

    def test_width_one_total_collision(self):
        rows = random_rows(2, m=100, d=2, n=6)
        h = from_items(rows)
        mod = heuristic_build(h, memory_slots=2 * 4, p=HHParams(0.2), depth=4)
        assert mod.cms[0].width == 1
        for x in range(6):
            assert mod.estimate(0, x) == 1.0
        # every tracked candidate combination is reported at any threshold <= 1
        t = make_subcube([0, 1], 2)
        reported = heuristic_all_query(mod, t, threshold=1.0)
        cands0 = {x for x, _ in mod.candidate_entries(0, 1.0)}
        cands1 = {x for x, _ in mod.candidate_entries(1, 1.0)}
        assert reported == set(itertools.product(sorted(cands0), sorted(cands1)))

    def test_deterministic_given_seed(self):
        rows = random_rows(3)
        h = from_items(rows)
        a = heuristic_build(h, 256, HHParams(0.2), seed=9)
        b = heuristic_build(h, 256, HHParams(0.2), seed=9)
        assert [sk.table for sk in a.cms] == [sk.table for sk in b.cms]


class ChunkReplay:
    """A handle stand-in that replays the given chunks (each a tuple of
    columns), so a test decides where the chunks are cut. Its values are
    not codes in first-seen order, and each value is its own code. Its
    exact counts are tallied from the chunks without a replay, so `replays`
    counts the build's feed replays alone."""

    class_col = None

    def __init__(self, chunks):
        self.chunks = chunks
        self.d = len(chunks[0])
        self.m = None
        self.replays = 0

    def exact_counts(self, coord):
        self.m = sum(len(columns[0]) for columns in self.chunks)
        return collections.Counter(x for columns in self.chunks for x in columns[coord])

    def code_table(self, coord):
        return range(1 + max(x for columns in self.chunks for x in columns[coord]))

    def replay(self, visitor):
        self.replays += 1
        for columns in self.chunks:
            visitor(columns, None)
        self.m = sum(len(columns[0]) for columns in self.chunks)
        return self.m


def tally_every_chunk_build(h, memory_slots, p, seed=0, depth=DEFAULT_DEPTH):
    """The reference build: an exact tally of every coordinate, fed from
    every chunk beside its Misra-Gries summary."""
    width = memory_slots // (h.d * depth)
    cms = [CountMin(width, depth, hash_pair(i, seed)) for i in range(h.d)]
    mg = [MisraGries(default_counter_budget(p)) for _ in range(h.d)]
    value_counts = [collections.Counter() for _ in range(h.d)]

    def visit(columns, _classes):
        for sk, vc, col in zip(mg, value_counts, columns):
            sk.update_many(col)
            vc.update(col)

    m = h.replay(visit)
    tables = []
    for sk, g, vc in zip(cms, mg, value_counts):
        tracked = g.tracked()
        values = tracked + [x for x in vc if x not in g.counters]
        estimates = sk.update_counts(values, [vc[x] for x in values])
        ranked = [(x, e / m) for x, e in zip(tracked, estimates)]
        tables.append(heuristic_table(sorted(ranked, key=lambda e: (-e[1], e[0]))))
    return cms, mg, tables


def first_decrement_chunk(chunks, coord, budget):
    """Index of the chunk in which coord's summary first decrements, or None."""
    sk = MisraGries(budget)
    for i, columns in enumerate(chunks):
        sk.update_many(columns[coord])
        if sk.decrements:
            return i
    return None


class TestCountEachChunkOnce:
    """The build feeds Count-Min each value's exact count once, from the
    handle's counts, replays only to feed the summaries over budget, and
    builds what tallying every chunk builds."""

    P = HHParams(1.0)  # lam 0.5: a budget of 16 counters per coordinate
    SLOTS = 3 * DEFAULT_DEPTH * 7  # width 7 at d = 3: cells collide

    def assert_same_build(self, chunks, seed):
        h = ChunkReplay(chunks)
        mod = heuristic_build(h, self.SLOTS, self.P, seed)
        budget = default_counter_budget(self.P)
        over = any(len(h.exact_counts(c)) > budget for c in range(h.d))
        assert h.replays == (1 if over else 0)
        cms, mg, tables = tally_every_chunk_build(h, self.SLOTS, self.P, seed)
        assert [sk.table for sk in mod.cms] == [sk.table for sk in cms]
        assert mod.tables == tables
        assert [g.counters for g in mod.mg] == [g.counters for g in mg]
        assert [g.tracked() for g in mod.mg] == [g.tracked() for g in mg]
        assert [(g.processed, g.decrements) for g in mod.mg] == [
            (g.processed, g.decrements) for g in mg
        ]

    def test_never_first_and_later_chunk_decrements(self):
        # Coordinate 0 holds 10 values; coordinate 1 meets 20 in chunk 0;
        # coordinate 2 meets 10 in chunk 0 and 10 new ones in chunk 2.
        chunks = [
            ([r % 10 for r in range(30)], [r % 20 for r in range(30)], [r % 10 for r in range(30)]),
            ([3] * 5, [1] * 5, [2] * 5),
            ([r % 7 for r in range(25)], [r % 3 for r in range(25)], [10 + r % 10 for r in range(25)]),
            ([9, 9], [19, 0], [1, 15]),
        ]
        budget = default_counter_budget(self.P)
        assert [first_decrement_chunk(chunks, c, budget) for c in range(3)] == [None, 0, 2]
        for seed in range(3):
            self.assert_same_build(chunks, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 9), st.integers(0, 24), st.integers(0, 60)),
                min_size=1,
                max_size=40,
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 3),
    )
    def test_equals_tallying_every_chunk(self, chunk_rows, seed):
        # Coordinate 0 never decrements; 1 and 2 do, from any chunk or none.
        self.assert_same_build([tuple(map(list, zip(*rows))) for rows in chunk_rows], seed)


class TestQueries:
    def test_wrong_length_joint_value(self):
        h = from_items(random_rows(1))
        p = HHParams(0.2)
        mod = heuristic_build(h, memory_slots=2 * 4 * 8, p=p)
        with pytest.raises(ConfigError, match="joint value of length 1 for a 2-dim subcube"):
            heuristic_query(mod, make_subcube([0, 1], 2), (0,))

    def test_overestimate_never_misses_exact_yes(self):
        # The heuristic's YES set contains the YES set of the exact-marginal
        # product test at the same threshold.
        for seed in range(8):
            rows = random_rows(seed, m=300, d=3, n=4)
            h = from_items(rows)
            p = HHParams(0.2)
            mod = heuristic_build(h, memory_slots=3 * 4 * 8, p=p, seed=seed)
            ind = indep_pass2(h, indep_pass1(h, p), p)
            t = make_subcube([0, 1, 2], 3)
            reported = heuristic_all_query(mod, t, threshold=p.lam)
            exact = indep_all_query(ind, t, threshold=p.lam)
            assert reported >= exact

    def test_collision_free_matches_exact_products(self):
        rows = random_rows(4, m=500, d=2, n=5)
        h = from_items(rows)
        p = HHParams(0.3)
        mod = heuristic_build(h, memory_slots=2 * 4 * 4096, p=p, seed=1)
        ind = indep_pass2(h, indep_pass1(h, p), p)
        t = make_subcube([0, 1], 2)
        for v in itertools.product(range(5), repeat=2):
            from subcubehh.independence import indep_query

            assert heuristic_query(mod, t, v, threshold=p.lam) == indep_query(
                ind, t, v, threshold=p.lam
            )

    def test_scored_values_are_products(self):
        rows = [(0, 0)] * 10
        h = from_items(rows)
        mod = heuristic_build(h, 2 * 4 * 16, HHParams(0.5))
        t = make_subcube([0, 1], 2)
        assert heuristic_all_query_scored(mod, t) == {(0, 0): 1.0}

    def test_cap_exceeded(self):
        rows = random_rows(5, m=200, d=2, n=10)
        h = from_items(rows)
        mod = heuristic_build(h, 2 * 4, HHParams(0.2))  # width 1: everything collides
        with pytest.raises(CapExceededError):
            heuristic_all_query(mod, make_subcube([0, 1], 2), threshold=0.1, cap=5)

    def test_verdict_yes_no(self):
        h = from_items([(0, 0)] * 9 + [(1, 1)])
        mod = heuristic_build(h, 2 * 4 * 64, HHParams(0.5))
        t = make_subcube([0, 1], 2)
        assert heuristic_query(mod, t, (0, 0)) is Verdict.YES  # ~0.81 >= 0.25
        assert heuristic_query(mod, t, (1, 1)) is Verdict.NO  # ~0.01 < 0.25


class TestCandidateEntries:
    """candidate_entries, a bisection of the sorted table, against the
    takewhile of entries reaching the threshold, at every table estimate
    and one ulp either side."""

    @staticmethod
    def check(mod):
        for coord, (codes, ratios) in enumerate(mod.tables):
            table = list(zip(codes, ratios))
            for _x, f in table:
                for n in (-1, 0, 1):
                    th = ulps(f, n)
                    want = list(itertools.takewhile(lambda e: e[1] >= th, table))
                    assert mod.candidate_entries(coord, th) == want

    @settings(max_examples=200)
    @given(st.integers(1, 400), st.data())
    def test_hand_tables(self, m, data):
        counts = data.draw(st.lists(st.integers(1, m), max_size=30))
        table = sorted(((x, c / m) for x, c in enumerate(counts)), key=lambda e: (-e[1], e[0]))
        tables = [heuristic_table(table)]
        self.check(HeuristicModel(m=m, params=HHParams(0.5), cms=[], mg=[], tables=tables))

    @pytest.mark.parametrize("seed", range(3))
    def test_built_tables(self, seed):
        h = from_items(random_rows(seed, m=400, d=3, n=9))
        self.check(heuristic_build(h, memory_slots=3 * 4 * 5, p=HHParams(0.2), seed=seed))


class TestRankedTables:
    """Each built table, its codes zipped with its ratios, is every tracked
    value with its point-queried ratio, by estimate descending, ties by code."""

    @settings(max_examples=40)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 600),
        st.integers(1, 12),
        st.integers(1, 5),
        st.integers(0, 3),
    )
    def test_zipped_table_is_ranked_point_queries(self, data_seed, m, width, depth, seed):
        # 80 values per coordinate against 16 counters: some lists decrement.
        h = from_items(random_rows(data_seed, m=m, d=3, n=80))
        mod = heuristic_build(h, 3 * depth * width, HHParams(1.0), seed, depth)
        for c, (codes, ratios) in enumerate(mod.tables):
            want = [(x, mod.cms[c].point_query(x) / m) for x in mod.mg[c].tracked()]
            assert list(zip(codes, ratios)) == sorted(want, key=lambda e: (-e[1], e[0]))


class TestMemoryHeld:
    """What the heuristic model keeps and what indep_pass1 peaks at, traced
    on a fixed stream of 30,000 rows. Its coordinates have 40, 300, 2,970
    and 2,000 values against 800 counters, so two lists fit and two
    decrement. Cells average about 470, past the small-int cache. Measured on
    CPython 3.10-3.13: the model keeps 75-90 kB (ranked codes and ratio
    arrays, array('Q') Count-Min rows), 179-191 kB as ranked (x, f)
    tuples and list rows; pass 1 peaks at 380-381 kB reading one
    coordinate's exact counts at a time, 538-540 kB holding every
    coordinate's at once. Each bound is the largest measurement plus about
    a fifth (the model) or a sixth (the peak)."""

    P = HHParams(0.02)  # lam 0.01: 800 counters per coordinate
    SLOTS = 4 * DEFAULT_DEPTH * 64  # width 64

    @pytest.fixture(scope="class")
    def handle(self):
        rng = random.Random(5)
        rows = [
            (rng.randrange(40), rng.randrange(300),
             rng.randrange(5) if rng.random() < 0.5 else rng.randrange(3000),
             rng.randrange(2000))
            for _ in range(30_000)
        ]
        h = from_items(rows)
        h.exact_counts(0)  # the handle's own store is counted before tracing
        return h

    @staticmethod
    def traced(build):
        """build()'s result, the bytes it still holds and its peak, traced."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            built = build()
            peak = tracemalloc.get_traced_memory()[1]
            gc.collect()  # empties the free lists, which keep freed tuples traced
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return built, kept - before, peak - before

    def test_heuristic_model_keeps_compact_tables(self, handle):
        mod, kept, _peak = self.traced(lambda: heuristic_build(handle, self.SLOTS, self.P))
        assert [g.decrements > 0 for g in mod.mg] == [False, False, True, True]
        assert kept < 110_000

    def test_indep_pass1_peak_holds_one_coordinates_counts(self, handle):
        _cands, _kept, peak = self.traced(lambda: indep_pass1(handle, self.P))
        assert peak < 440_000


class TestAllQueryEnumeration:
    """AllQuery over the candidate lists against a brute-force cartesian
    filter, on narrow sketches where Count-Min estimates collide."""

    THRESHOLDS = (0.004, 0.01, 0.03, 0.08, 0.2)

    @staticmethod
    def reference_entries(mod, coord, th):
        """Point-query every tracked value, keep those reaching th, then sort
        by estimate descending (ties by value code)."""
        est = [(x, mod.estimate(coord, x)) for x in mod.mg[coord].tracked()]
        keep = [(x, f) for x, f in est if f >= th]
        keep.sort(key=lambda e: (-e[1], e[0]))
        return keep

    @classmethod
    def brute_levels(cls, mod, t, th):
        """Per level j, every candidate prefix of length j whose product of
        estimates (multiplied left to right) reaches th, with that product."""
        entries = [cls.reference_entries(mod, c, th) for c in t.coords]
        levels = []
        for j in range(1, t.k + 1):
            level = {}
            for combo in itertools.product(*entries[:j]):
                prod = combo[0][1]
                for _x, f in combo[1:]:
                    prod *= f
                if prod >= th:
                    level[tuple(x for x, _f in combo)] = prod
            levels.append(level)
        return levels

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_bit_for_bit(self, seed):
        rows = random_rows(seed, m=400, d=4, n=9)
        h = from_items(rows)
        mod = heuristic_build(h, memory_slots=4 * 4 * 5, p=HHParams(0.2), seed=seed)
        assert mod.cms[0].width == 5  # fewer cells than values: estimates collide
        for c in range(4):
            assert list(zip(*mod.tables[c])) == self.reference_entries(mod, c, 0.0)
        pruned = reported = 0
        for coords in ([0, 1, 2], [3, 1], [2, 0, 3, 1]):
            t = make_subcube(coords, 4)
            for th in self.THRESHOLDS:
                for c in coords:
                    assert mod.candidate_entries(c, th) == self.reference_entries(mod, c, th)
                expected = self.brute_levels(mod, t, th)[-1]
                assert heuristic_all_query_scored(mod, t, threshold=th, cap=10**9) == expected
                n_combos = 1
                for c in coords:
                    n_combos *= len(mod.candidate_entries(c, th))
                pruned += n_combos - len(expected)
                reported += len(expected)
        assert pruned and reported  # both outcomes occur

    def test_cap_fires_exactly_when_levels_exceed_it(self):
        rows = random_rows(11, m=400, d=3, n=8)
        h = from_items(rows)
        mod = heuristic_build(h, memory_slots=3 * 4 * 4, p=HHParams(0.2), seed=2)
        t = make_subcube([0, 1, 2], 3)
        th = 0.01
        sizes = [len(level) for level in self.brute_levels(mod, t, th)]
        total = sum(sizes)
        assert sizes[0] < total and sizes[-1] > 0
        expected = self.brute_levels(mod, t, th)[-1]
        for cap in range(total):
            with pytest.raises(CapExceededError):
                heuristic_all_query(mod, t, threshold=th, cap=cap)
        assert heuristic_all_query_scored(mod, t, threshold=th, cap=total) == expected

    def test_each_value_hashed_once_per_row(self, monkeypatch):
        # The build hashes every value of a coordinate once per Count-Min
        # row, fed its exact count from the handle, and ranks the tracked
        # values from those cells: no point query. AllQuery hashes nothing.
        lanes = collections.Counter()
        point_queries = []
        splitmix64_many = sketches.splitmix64_many

        def counted(key, xs):
            lanes.update((key, x) for x in xs)
            return splitmix64_many(key, xs)

        monkeypatch.setattr(sketches, "splitmix64_many", counted)
        monkeypatch.setattr(CountMin, "point_query", lambda _sk, x: point_queries.append(x))
        rng = random.Random(3)
        # Coordinate 2 meets about 300 values against a budget of 80, over 3 chunks.
        rows = [
            (rng.randrange(9), rng.randrange(9), rng.randrange(4 if rng.random() < 0.5 else 300))
            for _ in range(2500)
        ]
        h = from_items(rows)
        p = HHParams(0.2)
        mod = heuristic_build(h, memory_slots=3 * 4 * 5, p=p)
        assert [g.decrements > 0 for g in mod.mg] == [False, False, True]
        expected = collections.Counter(
            {(key, x): 1 for c, sk in enumerate(mod.cms) for key in sk.row_keys
             for x in h.exact_counts(c)}
        )
        assert lanes == expected
        assert sum(len(h.exact_counts(c)) for c in range(3)) > sum(
            len(g.counters) for g in mod.mg
        )  # untracked values are fed too
        assert point_queries == []
        for c in range(3):
            assert set(mod.tables[c][0]) == set(mod.mg[c].tracked())
        built = lanes.copy()
        for _ in range(3):
            for coords in ([0, 1, 2], [2, 1], [1, 0]):
                for th in self.THRESHOLDS:
                    heuristic_all_query(mod, make_subcube(coords, 3), threshold=th)
        assert lanes == built and point_queries == []
