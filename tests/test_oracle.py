import itertools
import math
import random
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh.core import HHParams, make_subcube
from subcubehh.errors import ConfigError, NoClassColumnError, SupportTooLargeError
from subcubehh.heuristic import heuristic_build
from subcubehh.naivebayes import indep_pass1, nb_pass1
from subcubehh.oracle import (
    TruthLabel,
    _worst_deviation,
    empirical_alpha_independence,
    empirical_alpha_nb,
    exact_table,
    truth_label,
)
from subcubehh.stream_io import CHUNK_ROWS, DatasetHandle, from_items
from tests.conftest import file_and_rows, ulps


class TestExactTable:
    def test_d0_single_coordinate(self, d0_handle):
        gt = exact_table(d0_handle, make_subcube([0], 2))
        one = d0_handle.code(0, "1")
        two = d0_handle.code(0, "2")
        assert (gt.m, gt.counts[(one,)], gt.counts[(two,)]) == (8, 5, 3)

    def test_d0_joint(self, d0_handle):
        gt = exact_table(d0_handle, make_subcube([0, 1], 2))
        c = d0_handle.code
        assert gt.m == 8
        assert gt.counts[(c(0, "1"), c(1, "1"))] == 3
        assert gt.counts[(c(0, "1"), c(1, "2"))] == 2
        assert gt.counts[(c(0, "2"), c(1, "1"))] == 2
        assert gt.counts[(c(0, "2"), c(1, "2"))] == 1

    def test_single_item_dataset(self):
        h = from_items([(3, 9, 4)])
        gt = exact_table(h, make_subcube([0, 2], 3))
        assert list(gt.counts.values()) == [1]
        assert gt.m == 1
        assert gt.freq(next(iter(gt.counts))) == 1.0

    def test_frequencies_sum_to_one_exactly(self, d0_handle):
        gt = exact_table(d0_handle, make_subcube([0, 1], 2))
        assert sum(Fraction(c, gt.m) for c in gt.counts.values()) == 1

    def test_row_permutation_invariance(self):
        rows = [(i % 3, (i * 7) % 5) for i in range(40)]
        shuffled = rows[:]
        random.Random(3).shuffle(shuffled)
        t_rows = exact_table(from_items(rows), make_subcube([0, 1], 2))
        t_shuf = exact_table(from_items(shuffled), make_subcube([0, 1], 2))
        # Codes depend on first-seen order; compare via decoded tokens.
        assert t_rows.m == t_shuf.m
        assert sorted(t_rows.counts.values()) == sorted(t_shuf.counts.values())

    def test_marginal_consistency(self):
        rng = random.Random(9)
        rows = [(rng.randrange(3), rng.randrange(4), rng.randrange(2)) for _ in range(500)]
        h = from_items(rows)
        full = exact_table(h, make_subcube([0, 1, 2], 3))
        sub = exact_table(h, make_subcube([0, 2], 3))
        marginal: dict[tuple[int, ...], int] = {}
        for (a, _b, c), n in full.counts.items():
            marginal[(a, c)] = marginal.get((a, c), 0) + n
        assert marginal == sub.counts

    @settings(max_examples=25)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 2 * CHUNK_ROWS + 3),
        st.permutations(range(3)),
        st.integers(1, 3),
    )
    def test_counts_equal_per_row_count(self, seed, m, order, k):
        # Streams up to a little over two chunks, any ordered subcube.
        rng = random.Random(seed)
        rows = [tuple(rng.randrange(4) for _ in range(3)) for _ in range(m)]
        coords = order[:k]
        expect: dict[tuple[int, ...], int] = {}
        for row in rows:
            v = tuple(row[c] for c in coords)
            expect[v] = expect.get(v, 0) + 1
        h = from_items(rows)
        gt = exact_table(h, make_subcube(coords, 3))
        assert type(gt.counts) is Counter
        assert gt.m == m
        decoded = {
            tuple(int(h.decode(c, x)) for c, x in zip(coords, v)): n
            for v, n in gt.counts.items()
        }
        assert decoded == expect

    def test_top_values_deterministic(self):
        h = from_items([(0,), (1,), (1,), (2,), (2,)])
        gt = exact_table(h, make_subcube([0], 1))
        top = gt.top_values(2)
        assert len(top) == 2
        assert gt.counts[top[0]] >= gt.counts[top[1]]


class TestFileHandle:
    """The oracle's tables and diagnostics on a file handle equal those on
    a from_rows handle of the same rows, keys in the same order. The table
    is not re-keyed: its keys are ints equal to the codes."""

    ROWS = [(r * 7 % 600, r % 7, r * r % 11, r % 3) for r in range(2 * CHUNK_ROWS + 37)]

    @pytest.mark.parametrize("coords", [[0], [1, 2], [2, 0, 1]])
    def test_exact_table_equals_rows(self, tmp_path, coords):
        file, rows = file_and_rows(tmp_path / "d.csv", self.ROWS, class_col=3)
        t = make_subcube(coords, 3)
        want, got = exact_table(rows, t), exact_table(file, t)
        assert got == want
        assert list(got.counts) == list(want.counts)  # same first-seen order
        assert got.heavy_set(0.01) == want.heavy_set(0.01)

    @pytest.mark.parametrize("coords", [[0], [1, 2], [2, 0, 1]])
    def test_alpha_nb_equals_rows(self, tmp_path, coords):
        file, rows = file_and_rows(tmp_path / "d.csv", self.ROWS, class_col=3)
        t = make_subcube(coords, 3)
        assert empirical_alpha_nb(file, t) == empirical_alpha_nb(rows, t)


def skewed_rows(seed, m, with_class):
    """m rows of 3 skewed features, so some values are heavy and some are
    not, and a 2-valued class after them when `with_class`."""
    rng = random.Random(seed)
    rows = []
    for _ in range(m):
        row = tuple(min(int(rng.expovariate(0.6)), 9) for _ in range(3))
        rows.append(row + (rng.randrange(2),) if with_class else row)
    return rows


class TestPrunedTable:
    """A table pruned at g counts only the rows whose every value on the
    subcube occurs at least g*m times: it gives the full table's heavy set
    at g and above, and refuses what it cannot answer."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(1, 2 * CHUNK_ROWS + 3),
        st.permutations(range(3)),
        st.integers(1, 3),
        st.booleans(),
        st.data(),
    )
    def test_heavy_set_equals_full_tables(self, seed, m, order, k, with_class, data):
        rows = skewed_rows(seed, m, with_class)
        t = make_subcube(order[:k], 3)
        with tempfile.TemporaryDirectory() as tmp:
            file, in_memory = file_and_rows(
                Path(tmp) / "d.csv", rows, class_col=3 if with_class else None
            )
            full = exact_table(in_memory, t)
            # Count boundaries: every joint count and every marginal count on t.
            marginal_counts = {n for c in t.coords for n in Counter(r[c] for r in rows).values()}
            bounds = sorted(set(full.counts.values()) | marginal_counts)
            g, g2 = sorted(
                ulps(data.draw(st.sampled_from(bounds)) / m, data.draw(st.integers(-1, 1)))
                for _ in range(2)
            )
            for h in (file, in_memory):
                pruned = exact_table(h, t, g)
                assert pruned.floor == g
                assert pruned.heavy_set(g2) == full.heavy_set(g2)
                assert pruned.heavy_set(g) == full.heavy_set(g)
                assert len(pruned.counts) <= len(full.counts)
                assert all(full.counts[v] == n for v, n in pruned.counts.items())

    @pytest.mark.parametrize("last_heavy", [False, True])
    def test_one_row_last_chunk(self, tmp_path, last_heavy):
        # m = CHUNK_ROWS + 1: the last chunk holds one row, whose selector
        # is built from one code per coordinate. Codes 0-323 of coordinate 2
        # occur twice in the first chunk, the others once.
        rows = [(r % 2, r % 3, r % 700) for r in range(CHUNK_ROWS)]
        rows.append((1, 2, 0) if last_heavy else (1, 2, 5000))
        t = make_subcube([0, 1, 2], 3)
        floor = 2 / len(rows)
        marginals = [Counter(str(row[c]) for row in rows) for c in range(3)]
        file, in_memory = file_and_rows(tmp_path / "d.csv", rows, class_col=None)
        full = exact_table(in_memory, t)
        want = [
            (v, n) for v, n in full.counts.items()
            if all(marginals[c][in_memory.decode(c, x)] >= 2 for c, x in enumerate(v))
        ]
        last = tuple(in_memory.code(c, str(x)) for c, x in enumerate(rows[-1]))
        for h in (file, in_memory):
            pruned = exact_table(h, t, floor)
            assert list(pruned.counts.items()) == want
            assert (last in pruned.counts) is last_heavy
            assert pruned.heavy_set(floor) == full.heavy_set(floor)

    def test_refuses_below_its_floor(self):
        h = from_items([(i % 3, i % 2) for i in range(30)])
        t = make_subcube([0, 1], 2)
        pruned = exact_table(h, t, 0.2)
        assert pruned.heavy_set(0.2) == exact_table(h, t).heavy_set(0.2)
        with pytest.raises(ConfigError, match="below this table's floor 0.2"):
            pruned.heavy_set(math.nextafter(0.2, 0.0))
        with pytest.raises(ConfigError, match="freq needs a full table"):
            pruned.freq((0, 0))
        with pytest.raises(ConfigError, match="top_values needs a full table"):
            pruned.top_values(1)

    @pytest.mark.parametrize("in_memory", [False, True])
    def test_later_builds_replay_nothing(self, tmp_path, monkeypatch, in_memory):
        # The first pruned table counts every column's marginals, the class
        # column's included, in one replay before its own; a later one finds
        # them stored. Pass 1 and the heuristic then rebuild every summary
        # from them, given a budget that covers every cardinality.
        rows = skewed_rows(5, 3 * CHUNK_ROWS, with_class=True)
        h = file_and_rows(tmp_path / "d.csv", rows, class_col=3)[in_memory]
        replays = []
        replay = h.replay
        monkeypatch.setattr(h, "replay", lambda visit: replays.append(1) or replay(visit))
        p = HHParams(0.05)
        exact_table(h, make_subcube([2, 0], 3), 0.05)
        assert len(replays) == 2
        exact_table(h, make_subcube([1, 0], 3), 0.05)
        assert len(replays) == 3
        exact_table(h, make_subcube([1], 3), 0.05)
        assert len(replays) == 4
        budget, slots = max(h.cardinalities), 3 * 4 * 50

        def builds(handle):
            return (indep_pass1(handle, p, budget), nb_pass1(handle, p, budget),
                    heuristic_build(handle, slots, p).tables)

        built = builds(h)
        assert len(replays) == 4
        assert built == builds(from_items(rows, class_col=3))


class TestTruthLabel:
    P = HHParams(0.1)

    def test_must_yes(self):
        assert truth_label(0.5, self.P) is TruthLabel.MUST_YES

    def test_must_no(self):
        assert truth_label(0.01, self.P) is TruthLabel.MUST_NO

    def test_either(self):
        assert truth_label(0.05, self.P) is TruthLabel.EITHER

    def test_boundaries(self):
        assert truth_label(0.1, self.P) is TruthLabel.MUST_YES
        assert truth_label(0.025, self.P) is TruthLabel.EITHER  # == gamma/4

    def test_monotone_in_f(self):
        order = {TruthLabel.MUST_NO: 0, TruthLabel.EITHER: 1, TruthLabel.MUST_YES: 2}
        labels = [order[truth_label(f / 100, self.P)] for f in range(101)]
        assert labels == sorted(labels)


class TestAlphaIndependence:
    def test_duplicated_column(self):
        # X2 == X1 with two equally likely values: f((a,a)) = 1/2 while the
        # marginal product is 1/4 everywhere.
        h = from_items([(0, 0), (1, 1)] * 50)
        assert empirical_alpha_independence(h, make_subcube([0, 1], 2)) == 0.25

    def test_exact_product_support(self):
        # Every cell of a 2 x 3 support appears equally often: the joint is
        # exactly the product of its marginals.
        rows = list(itertools.product(range(2), range(3))) * 4
        h = from_items(rows)
        assert empirical_alpha_independence(h, make_subcube([0, 1], 2)) == 0.0

    def test_single_coordinate(self):
        h = from_items([(0,), (1,), (0,)])
        assert empirical_alpha_independence(h, make_subcube([0], 1)) == 0.0

    def test_support_cap(self):
        rows = [(i % 5, (i * 3) % 7) for i in range(35)]
        h = from_items(rows)
        with pytest.raises(SupportTooLargeError):
            empirical_alpha_independence(h, make_subcube([0, 1], 2), support_cap=10)

    def test_one_replay(self, monkeypatch):
        # The marginals are summed out of the joint table, not recounted.
        h = from_items([(i % 3, (i * 5) % 7, i % 2) for i in range(40)])
        replays = []
        replay = DatasetHandle.replay
        monkeypatch.setattr(
            DatasetHandle, "replay", lambda self, visit: replays.append(1) or replay(self, visit)
        )
        empirical_alpha_independence(h, make_subcube([2, 0], 3))
        assert len(replays) == 1


class TestAlphaNB:
    def test_single_class_reduces_to_independence(self):
        rng = random.Random(4)
        rows = [(rng.randrange(4), rng.randrange(3), 0) for _ in range(300)]
        h_feat = from_items([r[:2] for r in rows])
        h_cls = from_items(rows, class_col=2)
        t2 = make_subcube([0, 1], 2)
        assert empirical_alpha_nb(h_cls, t2) == empirical_alpha_independence(h_feat, t2)

    def test_point_mass_conditionals(self):
        # X1 == Z and X2 == Z: conditioned on the class both coordinates are
        # constants, so the factorization is exact.
        h = from_items([(0, 0, 0), (1, 1, 1)] * 50, class_col=2)
        assert empirical_alpha_nb(h, make_subcube([0, 1], 2)) == 0.0

    def test_needs_class_column(self):
        h = from_items([(0, 1)])
        with pytest.raises(NoClassColumnError):
            empirical_alpha_nb(h, make_subcube([0], 2))

    def test_one_replay(self, monkeypatch):
        # The joint table is counted in the same pass as the class tallies.
        h = from_items([(i % 3, (i * 5) % 7, i % 2) for i in range(40)], class_col=2)
        replays = []
        replay = DatasetHandle.replay
        monkeypatch.setattr(
            DatasetHandle, "replay", lambda self, visit: replays.append(1) or replay(self, visit)
        )
        empirical_alpha_nb(h, make_subcube([1, 0], 2))
        assert len(replays) == 1

    def test_generated_nb_data_small_alpha(self):
        from subcubehh.datagen import make_random_nb, sample_rows
        from subcubehh.stream_io import from_rows

        gen = make_random_nb(d=2, cardinalities=[6, 5], ell=3, skew=1.0, seed=13)
        rows = list(sample_rows(gen, 100_000, seed=2))
        h = from_rows(rows, class_col=0)
        alpha = empirical_alpha_nb(h, make_subcube([0, 1], 2))
        assert alpha <= 0.02


def per_value_worst_deviation(joint, m, priors, conds):
    """The reference: every joint value scored on its own, per class, as
    prior * cond_1 * ... * cond_k, the classes summed in order."""
    worst = 0.0
    for v in itertools.product(*(sorted(c) for c in conds)):
        q = 0.0
        for z, prior in enumerate(priors):
            prod = prior
            for c, x in zip(conds, v):
                prod *= c[x][z]
            q += prod
        worst = max(worst, abs(joint.get(v, 0) / m - q))
    return worst


@st.composite
def mixtures(draw):
    """(joint, m, priors, conds) over 1-3 coordinates and 1-3 classes."""
    ell = draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    priors = draw(st.lists(unit, min_size=ell, max_size=ell))
    conds = [
        {x: tuple(draw(st.lists(unit, min_size=ell, max_size=ell))) for x in values}
        for values in draw(
            st.lists(st.sets(st.integers(0, 9), min_size=1, max_size=4), min_size=1, max_size=3)
        )
    ]
    values = list(itertools.product(*(sorted(c) for c in conds)))
    joint = Counter(draw(st.lists(st.sampled_from(values), max_size=30)))
    return joint, draw(st.integers(max(1, sum(joint.values())), 100)), priors, conds


class TestWorstDeviation:
    @settings(max_examples=200, deadline=None)
    @given(mixtures())
    def test_equals_per_value_reference(self, mixture):
        # Same float, not just close: the reports pin alpha's repr.
        assert _worst_deviation(*mixture, cap=10**7) == per_value_worst_deviation(*mixture)

