import csv
import dataclasses
import itertools
import math
import random
import tempfile
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh import naivebayes
from subcubehh.core import HHParams, Verdict, make_subcube
from subcubehh.errors import (
    BudgetTooSmallError,
    CapExceededError,
    ConfigError,
    NoClassColumnError,
)
from subcubehh.independence import (
    indep_all_query_scored,
    indep_pass1,
    indep_pass2,
    indep_query,
)
from subcubehh.naivebayes import (
    MAX_CLASS_VALUES,
    CandidateSets,
    ClassPriors,
    FactorizedModel,
    grow_levels,
    nb_all_query,
    nb_all_query_levels,
    nb_all_query_scored,
    nb_pass1,
    nb_pass2,
    nb_query,
    nb_score,
)
from subcubehh.heuristic import DEFAULT_DEPTH, HeuristicModel, heuristic_build
from subcubehh.sketches import MisraGries
from subcubehh.stream_io import CHUNK_ROWS, DatasetHandle, from_items, open_dataset
from tests.conftest import heuristic_table, ulps

# D0's coordinate-0 column, paired with a second coordinate and a class
# column split half and half.
D0X_ROWS = [
    (1, 1, 0), (1, 1, 0), (1, 2, 0), (2, 1, 0),
    (2, 2, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1),
]


def cond(mod, coord, x):
    """The frozen cond(x|z) per class of candidate x on coordinate coord."""
    return next(r[2] for r in mod.tables[coord] if r[0] == x)


def build_nb(rows, gamma, class_col, counter_budget=None):
    h = from_items(rows, class_col=class_col)
    p = HHParams(gamma)
    priors, cands = nb_pass1(h, p, counter_budget)
    return h, p, nb_pass2(h, priors, cands, p)


class TestPass1:
    def test_constant_class(self):
        h = from_items([(1, 0), (2, 0), (3, 0)], class_col=1)
        priors, _ = nb_pass1(h, HHParams(0.5))
        assert priors.ell == 1
        assert priors.prior(0) == 1.0

    def test_half_half_priors(self):
        h = from_items([(i % 3, 0 if i < 4 else 1) for i in range(8)], class_col=1)
        priors, _ = nb_pass1(h, HHParams(0.5))
        assert priors.counts == (4, 4)
        assert priors.prior(0) == 0.5 == priors.prior(1)

    def test_all_distinct_classes(self):
        m = 16
        h = from_items([(0, i) for i in range(m)], class_col=1)
        priors, _ = nb_pass1(h, HHParams(0.5))
        assert priors.ell == m
        assert all(priors.prior(z) == 1 / m for z in range(m))

    def test_runaway_class_column_rejected(self):
        h = from_items([(0, i) for i in range(1100)], class_col=1)
        with pytest.raises(ConfigError):
            nb_pass1(h, HHParams(0.5))

    def test_needs_class_column(self):
        h = from_items([(0, 1)])
        with pytest.raises(NoClassColumnError):
            nb_pass1(h, HHParams(0.5))

    @pytest.mark.parametrize("n_classes", [MAX_CLASS_VALUES, MAX_CLASS_VALUES + 1])
    def test_class_value_limit_checked_before_any_feed(self, monkeypatch, n_classes):
        # Coordinate 0's 40 values overflow a budget of 4, so pass 1 feeds
        # its summary in a replay after the count replay, unless the limit
        # fails first.
        fed = []
        update_many = MisraGries.update_many
        monkeypatch.setattr(
            MisraGries, "update_many", lambda sk, xs: fed.append(len(xs)) or update_many(sk, xs)
        )
        h = from_items([(i % 40, i) for i in range(n_classes)], class_col=1)
        over = n_classes > MAX_CLASS_VALUES
        with replay_count(h) as replays:
            if over:
                with pytest.raises(ConfigError, match=f"^{n_classes} distinct class values"):
                    nb_pass1(h, HHParams(0.5), 4)
            else:
                assert nb_pass1(h, HHParams(0.5), 4)[0].ell == n_classes
        assert (replays, fed) == (([1], []) if over else ([2], [n_classes]))

    def test_zero_budget_rejected_before_replay(self, monkeypatch):
        # (0, 0) has f = 2/3 at gamma 0.5; summaries holding nothing would miss it.
        h = from_items([(0, 0, 0)] * 100 + [(1, 1, 1)] * 50, class_col=2)
        monkeypatch.setattr(h, "replay", lambda _visitor: pytest.fail("replayed"))
        with pytest.raises(BudgetTooSmallError, match="counter budget 0 holds no value"):
            nb_pass1(h, HHParams(0.5), 0)


class TestPass2:
    def test_feature_equals_class(self):
        rows = [(z, z) for z in (0, 1, 0, 1, 1)]
        h, p, mod = build_nb(rows, gamma=0.5, class_col=1)
        a0, a1 = h.code(0, "0"), h.code(0, "1")
        z0, z1 = h.class_code("0"), h.class_code("1")
        assert cond(mod, 0, a0)[z0] == 1.0
        assert cond(mod, 0, a0)[z1] == 0.0
        assert cond(mod, 0, a1)[z1] == 1.0

    def test_d0_extended_conditionals(self):
        h, p, mod = build_nb(D0X_ROWS, gamma=0.5, class_col=2)
        one = h.code(0, "1")
        z0, z1 = h.class_code("0"), h.class_code("1")
        assert cond(mod, 0, one)[z0] == pytest.approx(3 / 4)
        assert cond(mod, 0, one)[z1] == pytest.approx(2 / 4)

    def test_zero_cooccurrence_stored_as_zero(self):
        rows = [(0, 0)] * 5 + [(1, 1)] * 5
        h, p, mod = build_nb(rows, gamma=0.5, class_col=1)
        assert cond(mod, 0, h.code(0, "0"))[h.class_code("1")] == 0.0


class TestPass2Checks:
    def test_candidate_sets_of_another_d(self):
        h = from_items(D0X_ROWS, class_col=2)
        p = HHParams(0.5)
        priors, cands = nb_pass1(h, p)
        other = CandidateSets(cands.sets + (frozenset(),))
        with pytest.raises(ConfigError, match="candidate sets cover 3 coordinates, dataset has 2"):
            nb_pass2(h, priors, other, p)
        with pytest.raises(ConfigError, match="candidate sets cover 3"):
            indep_pass2(h, other, p)

    def test_candidate_sets_of_another_stream(self):
        # Pass 2 reads the handle's exact counts, so candidates of a stream of
        # another length are refused before pass 2 reads a row: after the
        # count replay on a fresh handle, and with no replay on a counted one.
        p = HHParams(0.5)
        longer = from_items(D0X_ROWS * 2, class_col=2)
        for budget in (None, 1):  # at budget 1 pass 1 decrements
            _, other = nb_pass1(longer, p, budget)
            assert other.m == 16
            for counted in (False, True):
                h = from_items(D0X_ROWS, class_col=2)
                priors = nb_pass1(h, p)[0] if counted else ClassPriors((16,), 16)
                with replay_count(h) as replays:
                    with pytest.raises(
                        ConfigError, match="candidate sets are of a 16-item stream, dataset has 8"
                    ):
                        nb_pass2(h, priors, other, p)
                    with pytest.raises(ConfigError, match="candidate sets are of a 16-item stream"):
                        indep_pass2(h, other, p)
                assert replays == [0 if counted else 1]

    def test_needs_class_column(self):
        h = from_items([(0, 1)] * 4)
        p = HHParams(0.5)
        cands = indep_pass1(h, p)
        with pytest.raises(NoClassColumnError):
            nb_pass2(h, ClassPriors((4,), 4), cands, p)

    def test_priors_of_another_stream(self):
        h = from_items(D0X_ROWS, class_col=2)
        p = HHParams(0.5)
        _priors, cands = nb_pass1(h, p)
        longer, _ = nb_pass1(from_items(D0X_ROWS * 2, class_col=2), p)
        with pytest.raises(ConfigError, match="pass-2 stream length"):
            nb_pass2(h, longer, cands, p)


class TestPass2EqualsRowCount:
    """Pass-2 counts equal a per-row dict count over the same items."""

    @settings(max_examples=25)
    @given(st.integers(0, 2**16), st.integers(1, 2 * CHUNK_ROWS + 3), st.booleans())
    def test_counts(self, seed, m, with_class):
        rng = random.Random(seed)
        rows = [tuple(rng.randrange(n) for n in (6, 3, 3)) for _ in range(m)]
        h = from_items(rows, class_col=2 if with_class else None)
        p = HHParams(0.5)
        h.replay(lambda _c, _z: None)
        # Random candidate sets, so pass 2 also skips values.
        cands = CandidateSets(tuple(
            frozenset(x for x in range(n) if rng.random() < 0.6) for n in h.cardinalities
        ))
        expect: list[dict[tuple[int, int], int]] = [{}, {}]
        for row in rows:
            z = h.class_code(str(row[2])) if with_class else 0
            for j in range(2):
                x = h.code(j, str(row[j]))
                if x in cands.sets[j]:
                    expect[j][x, z] = expect[j].get((x, z), 0) + 1
        if with_class:
            priors, _ = nb_pass1(h, p)
            mod = nb_pass2(h, priors, cands, p)
            for j in range(2):
                assert mod.class_counts_by_value[j] == {
                    x: [expect[j].get((x, z), 0) for z in range(priors.ell)]
                    for x in sorted(cands.sets[j])
                }
        else:
            mod = indep_pass2(h, cands, p)
        for j in range(2):
            assert mod.index[j] == {
                x: sum(n for (y, _z), n in expect[j].items() if y == x)
                for x in sorted(cands.sets[j])
            }


class TestPass2KnownTotals:
    """Pass 2 takes every candidate's total from the handle's exact counts:
    it counts (x, z) outside the largest class only, in one replay, and
    takes the largest-class count by subtraction; with one class it reads
    no row. Either way the counts equal a brute-force count of (x, z) over
    the rows."""

    @settings(max_examples=80)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 2 * CHUNK_ROWS + 3),
        st.integers(1, 4),
        st.lists(st.integers(1, 12), min_size=1, max_size=3),
        st.integers(1, 8),
        st.booleans(),
        st.booleans(),
    )
    def test_counts_equal_brute_force(self, seed, m, ell, cards, budget, tie, private):
        rng = random.Random(seed)
        d = len(cards)
        rows = [(*(rng.randrange(n) for n in cards), rng.randrange(ell)) for _ in range(m)]
        sizes = Counter(row[d] for row in rows)
        if private:
            # A value of coordinate 0 seen in the largest class only.
            top = max(sizes, key=sizes.__getitem__)
            rows += [(cards[0], *row[1:d], top) for row in rows[: m // 2 + 1]]
            sizes = Counter(row[d] for row in rows)
        if tie and len(sizes) > 1:
            # Pad the second-largest class up to the largest.
            (_, a), (second, b) = sizes.most_common(2)
            rows += [(*(rng.randrange(n) for n in cards), second) for _ in range(a - b)]
        rng.shuffle(rows)
        h = from_items(rows, class_col=d)
        p = HHParams(0.5)  # at budgets <= 8 every tracked value is a candidate
        priors, cands = nb_pass1(h, p, budget)
        with replay_count(h) as replays:
            nb = nb_pass2(h, priors, cands, p)
            ind = indep_pass2(h, indep_pass1(h, p, budget), p)
        # The handle counted every column in nb_pass1. So nb_pass2 replays
        # once when some row lies outside the largest class, indep_pass1
        # only to feed a coordinate over the budget, and indep_pass2 never.
        fits = all(len({row[j] for row in rows}) <= budget for j in range(d))
        assert replays == [(priors.ell > 1) + (not fits)]
        for j in range(d):
            pairs = Counter((h.code(j, str(row[j])), h.class_code(str(row[d]))) for row in rows)
            assert nb.class_counts_by_value[j] == {
                x: [pairs[x, z] for z in range(priors.ell)] for x in sorted(cands.sets[j])
            }
            assert ind.class_counts_by_value[j] == {
                x: [sum(pairs[x, z] for z in range(priors.ell))] for x in sorted(cands.sets[j])
            }
        assert ind.priors == ClassPriors((len(rows),), len(rows))


class TestNoRowRead:
    """A build that finds everything it counts stored on the handle reads
    no row; one that reads rows reads the spill, never the source again."""

    def test_changed_file_never_read_again(self, tmp_path):
        path = tmp_path / "d.csv"
        rows = [(x % 3, x % 5, x % 2) for x in range(40)]
        path.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
        h = open_dataset(path, class_col=2)
        p = HHParams(0.5)
        priors, cands = nb_pass1(h, p, 5)
        path.write_text("0,0,0\n")
        replays = 0

        def counted(visitor, _replay=h.replay):
            nonlocal replays
            replays += 1
            return _replay(visitor)

        h.replay = counted
        in_memory = from_items(rows, class_col=2)
        assert nb_pass1(h, p, 5) == (priors, cands)
        assert indep_pass1(h, p, 5) == indep_pass1(in_memory, p, 5)
        assert replays == 0
        # Coordinate 1's 5 values overflow 4 counters, so this build replays.
        assert nb_pass1(h, p, 4) == nb_pass1(in_memory, p, 4)
        assert replays == 1


@contextmanager
def replay_count(h):
    """A one-item list counting the replays of `h` while the block runs."""
    replays = [0]

    def counted(visitor, _replay=h.replay):
        replays[0] += 1
        return _replay(visitor)

    h.replay = counted
    try:
        yield replays
    finally:
        del h.replay


def summary_state(sk):
    """Everything a Misra-Gries summary holds, its counters' key order included."""
    return sk.counter_budget, list(sk.counters.items()), sk.processed, sk.decrements


@contextmanager
def pass1_summaries():
    """Records the state of the summaries behind each pass-1 call."""
    seen = []
    real = naivebayes.misra_gries_pass

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append([summary_state(sk) for sk in out[1]])
        return out

    naivebayes.misra_gries_pass = recording
    try:
        yield seen
    finally:
        naivebayes.misra_gries_pass = real


class TestStoredCounts:
    """A summary that cannot decrement is rebuilt from the handle's exact
    counts, which the first build counts for every column in one replay,
    and a build with nothing left to feed reads no row. Every build equals
    the same build on a fresh handle, whatever ran before it on the same
    handle."""

    P = HHParams(1.0)
    HEURISTIC_BUDGET = 16  # ceil(8 / lam) at lam 0.5

    def build(self, h, kind, budget):
        """What one build (pass 1 and, for a two-pass model, pass 2) makes,
        and its replays per pass."""
        replays = []

        def counted(visitor):
            replays[-1] += 1
            return DatasetHandle.replay(h, visitor)

        h.replay = counted
        replays.append(0)
        if kind == "heuristic":
            mod = heuristic_build(h, h.d * DEFAULT_DEPTH * 7, self.P, seed=1)
            cells = [sk.table for sk in mod.cms]
            return (mod.m, mod.tables, cells, [summary_state(g) for g in mod.mg]), replays
        with pass1_summaries() as seen:
            first = nb_pass1(h, self.P, budget) if kind == "nb" else indep_pass1(h, self.P, budget)
        replays.append(0)
        if kind == "nb":
            mod = nb_pass2(h, *first, self.P)
        else:
            mod = indep_pass2(h, first, self.P)
        return (first, seen, mod), replays

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(1, CHUNK_ROWS + 40),
        st.lists(st.integers(1, 20), min_size=1, max_size=3),
        st.one_of(st.none(), st.integers(1, 3)),
        st.data(),
    )
    def test_builds_equal_fresh_builds(self, seed, m, sizes, ell, data):
        rng = random.Random(seed)
        d = len(sizes)
        rows = [tuple(rng.randrange(n) for n in sizes) for _ in range(m)]
        if ell is not None:
            rows = [(*row, rng.randrange(ell)) for row in rows]
        class_col = None if ell is None else d
        cards = [len({row[j] for row in rows}) for j in range(d)]
        n_classes = None if ell is None else len({row[d] for row in rows})
        # Pass-1 budgets below, at and above each cardinality.
        near = sorted({max(1, c + delta) for c in cards for delta in (-1, 0, 1)})
        kinds = ["indep", "heuristic"] + ([] if ell is None else ["nb"])
        budgets = {k: data.draw(st.sampled_from(near), label=k) for k in kinds}
        budgets["heuristic"] = self.HEURISTIC_BUDGET
        fresh = {}
        for kind in kinds:
            ref = from_items(rows, class_col=class_col)
            ref.replay(lambda _c, _z: None)
            fresh[kind] = self.build(ref, kind, budgets[kind])[0]

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.csv"
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
            for handle_kind in ("rows", "file", "unfrozen"):
                for order in itertools.permutations(kinds):
                    if handle_kind == "rows":
                        h = from_items(rows, class_col=class_col)
                    else:
                        h = open_dataset(path, class_col=class_col)
                    if handle_kind != "unfrozen":
                        h.replay(lambda _c, _z: None)
                    counted = False
                    for kind in order:
                        b = budgets[kind]
                        made, replays = self.build(h, kind, b)
                        assert made == fresh[kind], (handle_kind, order, kind)
                        # The first build counts every column in one replay
                        # (on an unfrozen handle, the freezing one). Pass 1
                        # replays only to feed the coordinates over budget.
                        expected = [(not counted) + any(c > b for c in cards)]
                        counted = True
                        # Pass 2 takes the totals from the handle's counts:
                        # nb2p counts outside the largest class in one
                        # replay, and indep2p reads no row.
                        if kind == "indep":
                            expected.append(0)
                        elif kind == "nb":
                            expected.append(1 if n_classes > 1 else 0)
                        assert replays == expected, (handle_kind, order, kind)
                    for j in range(d):
                        tally = Counter(h.code(j, str(row[j])) for row in rows)
                        assert list(h.exact_counts(j).items()) == list(tally.items())
                    if ell is not None:
                        tally = Counter(h.class_code(str(row[d])) for row in rows)
                        assert list(h.exact_counts(None).items()) == list(tally.items())


class TestScore:
    def test_single_class_is_marginal_product(self):
        rows = [(a, b, 0) for a, b in itertools.product(range(2), range(3))] * 5
        h, p, mod = build_nb(rows, gamma=0.4, class_col=2)
        t = make_subcube([0, 1], 2)
        q = nb_score(mod, t, (0, 0))
        assert q == mod.marginal(0, 0) * mod.marginal(1, 0)

    def test_arithmetic(self):
        # priors (1/2, 1/2) with per-class products (0.4, 0.1) scores 0.25.
        mod = FactorizedModel.from_counts(HHParams(0.2), ClassPriors((10, 10), 20), [{0: [4, 1]}])
        q = nb_score(mod, make_subcube([0], 1), (0,))
        assert q == pytest.approx(0.25)

    def test_marginal_identity_on_d0x(self):
        h, p, mod = build_nb(D0X_ROWS, gamma=0.5, class_col=2)
        one = h.code(0, "1")
        q = nb_score(mod, make_subcube([0], 2), (one,))
        assert q == pytest.approx(5 / 8)  # 0.5 * 3/4 + 0.5 * 2/4

    def test_absent_value(self):
        h, p, mod = build_nb(D0X_ROWS, gamma=0.5, class_col=2)
        assert nb_score(mod, make_subcube([0], 2), (99,)) is None

    def test_wrong_length_joint_value(self):
        h, p, mod = build_nb(D0X_ROWS, gamma=0.5, class_col=2)
        with pytest.raises(ConfigError, match="joint value of length 1 for a 2-dim subcube"):
            nb_score(mod, make_subcube([0, 1], 2), (h.code(0, "1"),))


class TestQuery:
    def test_yes(self):
        h, p, mod = build_nb(D0X_ROWS, gamma=0.5, class_col=2)
        one = h.code(0, "1")
        assert nb_query(mod, make_subcube([0], 2), (one,)) is Verdict.YES

    def test_absent_short_circuits(self):
        h, p, mod = build_nb(D0X_ROWS, gamma=0.5, class_col=2)
        assert nb_query(mod, make_subcube([0], 2), (42,)) is Verdict.NO

    def test_boundary_inclusive(self):
        # q == lambda exactly: YES.
        rows = [(0, 0)] * 5 + [(1, 0)] * 15
        h, p, mod = build_nb(rows, gamma=0.5, class_col=1)  # lambda 0.25
        assert nb_score(mod, make_subcube([0], 1), (0,)) == 0.25
        assert nb_query(mod, make_subcube([0], 1), (0,)) is Verdict.YES


class TestRationalIdentities:
    def test_mixture_reproduces_marginal_exactly(self):
        rng = random.Random(8)
        rows = [
            (rng.randrange(4), rng.randrange(3), rng.randrange(5), rng.randrange(3))
            for _ in range(700)
        ]
        h, p, mod = build_nb(rows, gamma=0.1, class_col=3)
        for coord in range(h.d):
            for x, row in mod.class_counts_by_value[coord].items():
                mixture = sum(
                    Fraction(mod.priors.counts[z], mod.m)
                    * Fraction(row[z], mod.priors.counts[z])
                    for z in range(mod.ell)
                )
                assert mixture == Fraction(mod.index[coord][x], mod.m)

    def test_priors_sum_to_one_exactly(self):
        rng = random.Random(2)
        rows = [(0, rng.randrange(6)) for _ in range(97)]
        h, p, mod = build_nb(rows, gamma=0.2, class_col=1)
        assert sum(Fraction(c, mod.m) for c in mod.priors.counts) == 1

    def test_conditionals_sum_at_most_one(self):
        rng = random.Random(5)
        rows = [(rng.randrange(6), rng.randrange(2)) for _ in range(300)]
        h, p, mod = build_nb(rows, gamma=0.1, class_col=1)
        for z in range(mod.ell):
            total = sum(
                Fraction(row[z], mod.priors.counts[z])
                for row in mod.class_counts_by_value[0].values()
            )
            assert total <= 1


class TestSingleClassReduction:
    def test_outputs_match_independence_algorithm(self):
        rng = random.Random(17)
        rows = [
            (rng.randrange(4), rng.randrange(4), rng.randrange(3), 0) for _ in range(600)
        ]
        h_nb = from_items(rows, class_col=3)
        h_ind = from_items([r[:3] for r in rows])
        p = HHParams(0.2)
        priors, cands = nb_pass1(h_nb, p)
        nb_mod = nb_pass2(h_nb, priors, cands, p)
        ind_mod = indep_pass2(h_ind, indep_pass1(h_ind, p), p)
        for coords in ([0], [1, 2], [0, 1, 2], [2, 0]):
            t = make_subcube(coords, 3)
            assert nb_all_query_scored(nb_mod, t) == indep_all_query_scored(ind_mod, t)
            for v in itertools.product(range(4), repeat=len(coords)):
                assert nb_query(nb_mod, t, v) == indep_query(ind_mod, t, v)

    @settings(max_examples=60)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 400),
        st.lists(st.integers(1, 6), min_size=1, max_size=3),
        st.sampled_from([0.05, 0.2, 0.5, 1.0]),
    )
    def test_one_class_models_equal_field_for_field(self, seed, m, cards, gamma):
        """On a class column holding one value, nb2p's model is indep2p's:
        every field equal, and every score equal bit for bit."""
        rng = random.Random(seed)
        rows = [(*(rng.randrange(n) for n in cards), 7) for _ in range(m)]
        h = from_items(rows, class_col=len(cards))
        p = HHParams(gamma)
        ind = indep_pass2(h, indep_pass1(h, p), p)
        nb = nb_pass2(h, *nb_pass1(h, p), p)
        for f in dataclasses.fields(FactorizedModel):
            assert getattr(ind, f.name) == getattr(nb, f.name), f.name
        d = len(cards)
        for k in range(1, d + 1):
            for coords in itertools.permutations(range(d), k):
                t = make_subcube(coords, d)
                hexes = [
                    {v: q.hex() for v, q in nb_all_query_scored(mod, t).items()}
                    for mod in (ind, nb)
                ]
                assert hexes[0] == hexes[1]
                for v in itertools.product(*(range(cards[c]) for c in coords)):
                    a, b = (nb_score(mod, t, v) for mod in (ind, nb))
                    assert (a is None and b is None) or (a.hex() == b.hex()), v


class TestSoundnessOnVerifiedData:
    def test_mandatory_verdicts_on_generated_nb_data(self):
        from subcubehh.datagen import make_random_nb, sample_rows
        from subcubehh.oracle import empirical_alpha_nb, exact_table
        from subcubehh.stream_io import from_rows

        gen = make_random_nb(d=3, cardinalities=[7, 6, 8], ell=3, skew=1.2, seed=47)
        rows = list(sample_rows(gen, 60_000, seed=3))
        h = from_rows(rows, class_col=0)
        h.replay(lambda _i, _c: None)
        gamma = 0.1
        p = HHParams(gamma)
        priors, cands = nb_pass1(h, p)
        mod = nb_pass2(h, priors, cands, p)
        for coords in ([0, 1], [0, 1, 2], [2, 1]):
            t = make_subcube(coords, 3)
            assert empirical_alpha_nb(h, t) <= gamma / 10
            truth = exact_table(h, t)
            supports = [sorted({v[i] for v in truth.counts}) for i in range(t.k)]
            for v in itertools.product(*supports):
                f = truth.freq(v)
                verdict = nb_query(mod, t, v)
                if f >= gamma:
                    assert verdict is Verdict.YES
                elif f < gamma / 4:
                    assert verdict is Verdict.NO


class TestAllQuery:
    def test_two_class_hand_model_matches_brute_force(self):
        mod = FactorizedModel.from_counts(
            HHParams(0.3),  # lambda 0.15
            ClassPriors((60, 40), 100),
            [{0: [40, 10], 1: [10, 20]}, {0: [35, 10], 1: [5, 20]}],
        )
        t = make_subcube([0, 1], 2)
        brute = set()
        for v in itertools.product([0, 1], repeat=2):
            q = nb_score(mod, t, v)
            if q is not None and q >= mod.params.lam:
                brute.add(v)
        assert nb_all_query(mod, t) == brute
        assert brute  # the hand model was chosen to report something

    def test_empty_s_gives_empty(self):
        rows = [(i, 0, i % 2) for i in range(40)]  # coordinate 0 all light
        h, p, mod = build_nb(rows, gamma=0.4, class_col=2)
        assert nb_all_query(mod, make_subcube([0, 1], 2)) == set()

    def test_prefix_scores_meet_threshold(self):
        rng = random.Random(23)
        rows = [
            (rng.randrange(3), rng.randrange(3), rng.randrange(4), rng.randrange(2))
            for _ in range(500)
        ]
        h, p, mod = build_nb(rows, gamma=0.2, class_col=3)
        t = make_subcube([1, 0, 2], 3)
        for v, _vec, _q in nb_all_query_levels(mod, t)[-1].entries:
            for j in range(1, 4):
                tj = make_subcube(t.coords[:j], 3)
                qj = nb_score(mod, tj, v[:j])
                assert qj is not None and qj >= p.lam

    def test_consistency_with_query(self):
        rng = random.Random(31)
        rows = [(rng.randrange(3), rng.randrange(4), rng.randrange(3)) for _ in range(400)]
        h, p, mod = build_nb(rows, gamma=0.15, class_col=2)
        t = make_subcube([0, 1], 2)
        reported = nb_all_query(mod, t)
        for v in itertools.product(range(3), range(4)):
            assert ((v in reported)) == (nb_query(mod, t, v) is Verdict.YES)


def no_break_levels(t, th, rows, prior):
    """grow_levels without the early break, the skip or the cap: every
    extension of every surviving prefix is scored, in the same order and
    arithmetic."""
    levels = []
    prev = [((), (1.0,) * len(prior), 1.0)]
    for coord in t.coords:
        nxt = []
        for prefix, vec, _q in prev:
            for x, _f, xvec, _cmax in rows(coord, th):
                new_vec = tuple(a * b for a, b in zip(vec, xvec))
                q = 0.0
                for p_z, v_z in zip(prior, new_vec):
                    q += p_z * v_z
                if q >= th:
                    nxt.append((prefix + (x,), new_vec, q))
        levels.append(nxt)
        prev = nxt
    return levels


@st.composite
def factorized_models(draw, ells=st.integers(1, 4)):
    """A FactorizedModel from consistent integer counts: every candidate's
    per-class counts on a coordinate sum to at most its class total. Values
    often sit in a single class, where the mixture meets its bound. The
    class count is drawn from `ells`; with one class it is the model indep2p
    builds. m may exceed the class totals' sum, so the priors sum to less
    than 1 (sum_z prior(z) * cond(x|z) == f(x) still holds) and a single
    class may have a prior other than 1.0."""
    ell = draw(ells)
    d = draw(st.integers(1, 3))
    rows = [
        draw(st.lists(
            st.lists(st.integers(0, 12) | st.just(0), min_size=ell, max_size=ell)
            .filter(any),
            min_size=1, max_size=6,
        ))
        for _ in range(d)
    ]
    class_totals = tuple(
        max(sum(r[z] for r in coord_rows) for coord_rows in rows) + draw(st.integers(0, 5))
        for z in range(ell)
    )
    class_totals = tuple(max(n, 1) for n in class_totals)
    m = sum(class_totals) + draw(st.integers(0, 3))
    by_value = [dict(enumerate(coord_rows)) for coord_rows in rows]
    return FactorizedModel.from_counts(HHParams(0.5), ClassPriors(class_totals, m), by_value)


class TestGrowLevelsProof:
    """grow_levels' early break against the no-break reference above:
    levels equal entry for entry, scores bit for bit, at thresholds on and
    one ulp either side of entries' scores, and the cap fires exactly when
    the levels together exceed it."""

    @settings(max_examples=300)
    @given(factorized_models(), st.data())
    def test_matches_no_break_reference(self, mod, data):
        coords = data.draw(st.permutations(range(len(mod.tables))))
        t = make_subcube(coords, len(mod.tables))
        prior = [mod.priors.prior(z) for z in range(mod.ell)]
        tiny = no_break_levels(t, 1e-300, mod.rows, prior)
        scores = sorted({q for level in tiny for _p, _v, q in level})
        score = data.draw(st.sampled_from(scores))
        th = data.draw(st.sampled_from(
            [score, math.nextafter(score, 0.0), math.nextafter(score, 2.0)]
        ))
        expected = no_break_levels(t, th, mod.rows, prior)
        levels = nb_all_query_levels(mod, t, th)
        assert [level.entries for level in levels] == expected
        scored = nb_all_query_scored(mod, t, th)
        assert scored == {prefix: q for prefix, _v, q in expected[-1]}
        for v, q in scored.items():
            assert q.hex() == nb_score(mod, t, v, th).hex()

        total = sum(len(level) for level in expected)
        for cap in sorted({0, *range(max(0, total - 3), total + 2)}):
            if cap < total:
                with pytest.raises(CapExceededError):
                    grow_levels(t, th, mod.rows, prior, cap)
            else:
                levels = grow_levels(t, th, mod.rows, prior, cap)
                assert [level.entries for level in levels] == expected


def scalar_levels(t, threshold, rows, prior, cap=math.inf):
    """The scalar reference for grow_levels: every extension that passes the
    max(vec) * f break is scored by the full class mixture, one class or
    several, and only q0 * max_z cond(x|z) skips one; the cap is checked
    after each prefix."""
    stop = threshold * (1.0 - 1e-9)
    levels = []
    prev, total = [((), (1.0,) * len(prior), 1.0)], 0
    for coord in t.coords:
        ext = rows(coord, threshold)
        nxt = []
        for prefix, vec, q0 in prev:
            top = max(vec)
            for x, f, xvec, cmax in ext:
                if top * f < stop:
                    break
                if q0 * cmax < stop:
                    continue
                new_vec = tuple(a * b for a, b in zip(vec, xvec))
                q = 0.0
                for p_z, v_z in zip(prior, new_vec):
                    q += p_z * v_z
                if q >= threshold:
                    nxt.append((prefix + (x,), new_vec, q))
            if total + len(nxt) > cap:
                raise CapExceededError(f"AllQuery levels exceed {cap} entries")
        total += len(nxt)
        levels.append(naivebayes.PartialLevel(nxt))
        prev = nxt
    return levels


@st.composite
def one_class_tables(draw):
    """A HeuristicModel built by hand: per coordinate up to 8 values with
    integer estimates c/m, sorted by estimate descending, ties by code."""
    m = draw(st.integers(1, 40))
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        counts = draw(st.lists(st.integers(1, m), max_size=8))
        table = [(x, c / m) for x, c in enumerate(counts)]
        tables.append(heuristic_table(sorted(table, key=lambda e: (-e[1], e[0]))))
    return HeuristicModel(m=m, params=HHParams(0.5), cms=[], mg=[], tables=tables)


class TestGrowLevelsScalarReference:
    """grow_levels (the one-class product path and the dominant-class bound)
    against the scalar reference above, on models with 1 to 7 classes and
    on the heuristic's (x, f) entries, which the reference reads as rows
    (x, f, (f,), f): levels equal entry for entry and float for float, in
    order, at thresholds on and one ulp either side of the levels' scores,
    and CapExceededError raised in the same level for every cap around the
    levels' total."""

    @staticmethod
    def outcome(grow, t, th, rows, prior, cap):
        """The levels' repr, or the error's message, and the coordinates
        whose rows were read before it."""
        read = []

        def counted(coord, threshold):
            read.append(coord)
            return rows(coord, threshold)

        try:
            return repr(grow(t, th, counted, prior, cap)), read
        except CapExceededError as e:
            return str(e), read

    def check(self, t, rows, prior, data, ref_rows=None):
        ref_rows = ref_rows or rows
        tiny = scalar_levels(t, 1e-300, ref_rows, prior)
        scores = sorted({q for level in tiny for _p, _v, q in level.entries}) or [0.5]
        th = ulps(data.draw(st.sampled_from(scores)), data.draw(st.integers(-1, 1)))
        expected = scalar_levels(t, th, ref_rows, prior)
        assert repr(grow_levels(t, th, rows, prior)) == repr(expected)
        total = sum(len(level.entries) for level in expected)
        for cap in sorted({0, *range(max(0, total - 3), total + 2)}):
            got = self.outcome(grow_levels, t, th, rows, prior, cap)
            assert got == self.outcome(scalar_levels, t, th, ref_rows, prior, cap)

    @settings(max_examples=400)
    @given(factorized_models(st.just(1) | st.integers(1, 7)), st.data())
    def test_factorized_models(self, mod, data):
        coords = data.draw(st.permutations(range(len(mod.tables))))
        t = make_subcube(coords, len(mod.tables))
        self.check(t, mod.rows, [mod.priors.prior(z) for z in range(mod.ell)], data)

    @settings(max_examples=200)
    @given(one_class_tables(), st.data())
    def test_heuristic_entries(self, mod, data):
        coords = data.draw(st.permutations(range(len(mod.tables))))

        def rows(coord, th):
            return [(x, f, (f,), f) for x, f in mod.candidate_entries(coord, th)]

        t = make_subcube(coords, len(mod.tables))
        self.check(t, mod.candidate_entries, (1.0,), data, ref_rows=rows)


class TestLevelBound:
    """The factorized model's scores form a sub-probability distribution:
    summed over every joint value of a level's coordinates they are at most 1.
    So no AllQuery level holds more than 1/threshold prefixes, whatever the
    model error alpha is. (The Count-Min heuristic overcounts, so its levels
    have no such bound; it keeps a cap instead.)"""

    @settings(max_examples=300)
    @given(factorized_models(), st.data())
    def test_levels_within_one_over_threshold(self, mod, data):
        coords = data.draw(st.permutations(range(len(mod.tables))))
        t = make_subcube(coords, len(mod.tables))
        prior = [mod.priors.prior(z) for z in range(mod.ell)]
        tiny = no_break_levels(t, 1e-300, mod.rows, prior)
        scores = sorted({q for level in tiny for _p, _v, q in level})
        th = data.draw(st.sampled_from(scores) | st.floats(1e-3, 1.0))
        for level in nb_all_query_levels(mod, t, th):
            assert len(level.entries) <= (1.0 / th) * (1.0 + 1e-9)


def check_frozen_rows(mod):
    """Each coordinate's rows against the counts they are frozen from: every
    row is (x, count/m, count(x,z)/count(z) per class, the max of those)
    bit for bit, rows are sorted by (-count, x), and heavy_entries equals a
    takewhile over the sorted counts at each row's f and one ulp either side."""
    for coord, table in enumerate(mod.tables):
        counts = mod.index[coord]
        ranked = sorted(counts, key=lambda x: (-counts[x], x))
        assert [row[0] for row in table] == ranked
        for x, f, cond_x, cmax in table:
            expect = [c / n for c, n in zip(mod.class_counts_by_value[coord][x], mod.priors.counts)]
            assert f.hex() == (counts[x] / mod.m).hex()
            assert [c.hex() for c in cond_x] == [c.hex() for c in expect]
            assert cmax.hex() == max(expect).hex()
        pairs = [(x, counts[x] / mod.m) for x in ranked]
        for _x, f, _cond, _cmax in table:
            for th in (f, math.nextafter(f, 0.0), math.nextafter(f, 2.0)):
                assert mod.heavy_entries(coord, th) == list(
                    itertools.takewhile(lambda e: e[1] >= th, pairs)
                )


class TestFrozenRows:
    @settings(max_examples=200)
    @given(factorized_models())
    def test_hand_counts(self, mod):
        check_frozen_rows(mod)

    @settings(max_examples=40)
    @given(st.integers(0, 2**16), st.integers(1, 600), st.booleans(),
           st.sampled_from([0.05, 0.2, 0.5]))
    def test_two_pass_builds(self, seed, m, with_class, gamma):
        rng = random.Random(seed)
        rows = [tuple(rng.randrange(n) for n in (9, 4, 3)) for _ in range(m)]
        p = HHParams(gamma)
        if with_class:
            h = from_items(rows, class_col=2)
            mod = nb_pass2(h, *nb_pass1(h, p), p)
        else:
            h = from_items(rows)
            mod = indep_pass2(h, indep_pass1(h, p), p)
        check_frozen_rows(mod)
