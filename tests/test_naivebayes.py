import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh.core import HHParams, Verdict, make_subcube
from subcubehh.errors import CapExceededError, ConfigError, NoClassColumnError
from subcubehh.independence import (
    indep_all_query_scored,
    indep_pass1,
    indep_pass2,
    indep_query,
)
from subcubehh.naivebayes import (
    CandidateSets,
    ClassPriors,
    NBModel,
    grow_levels,
    nb_all_query,
    nb_all_query_levels,
    nb_all_query_scored,
    nb_pass1,
    nb_pass2,
    nb_query,
    nb_score,
)
from subcubehh.stream_io import CHUNK_ROWS, from_items

# D0's coordinate-0 column, paired with a second coordinate and a class
# column split half and half.
D0X_ROWS = [
    (1, 1, 0), (1, 1, 0), (1, 2, 0), (2, 1, 0),
    (2, 2, 1), (1, 1, 1), (2, 1, 1), (1, 2, 1),
]


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


class TestPass2:
    def test_feature_equals_class(self):
        rows = [(z, z) for z in (0, 1, 0, 1, 1)]
        h, p, mod = build_nb(rows, gamma=0.5, class_col=1)
        a0, a1 = h.code(0, "0"), h.code(0, "1")
        z0, z1 = h.class_code("0"), h.class_code("1")
        assert mod.conditionals[0][a0][z0] == 1.0
        assert mod.conditionals[0][a0][z1] == 0.0
        assert mod.conditionals[0][a1][z1] == 1.0

    def test_d0_extended_conditionals(self):
        h, p, mod = build_nb(D0X_ROWS, gamma=0.5, class_col=2)
        one = h.code(0, "1")
        z0, z1 = h.class_code("0"), h.class_code("1")
        assert mod.conditionals[0][one][z0] == pytest.approx(3 / 4)
        assert mod.conditionals[0][one][z1] == pytest.approx(2 / 4)

    def test_zero_cooccurrence_stored_as_zero(self):
        rows = [(0, 0)] * 5 + [(1, 1)] * 5
        h, p, mod = build_nb(rows, gamma=0.5, class_col=1)
        assert mod.conditionals[0][h.code(0, "0")][h.class_code("1")] == 0.0


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


class TestScore:
    def test_single_class_is_marginal_product(self):
        rows = [(a, b, 0) for a, b in itertools.product(range(2), range(3))] * 5
        h, p, mod = build_nb(rows, gamma=0.4, class_col=2)
        t = make_subcube([0, 1], 2)
        q = nb_score(mod, t, (0, 0))
        assert q == mod.marginal(0, 0) * mod.marginal(1, 0)

    def test_arithmetic(self):
        # priors (1/2, 1/2) with per-class products (0.4, 0.1) scores 0.25.
        mod = NBModel(
            m=10,
            params=HHParams(0.2),
            priors=ClassPriors((5, 5), 10),
            tables=[[(0, 6)]],
            index=[{0: 6}],
            class_counts_by_value=[{0: [2, 4]}],
            conditionals=[{0: (0.4, 0.1)}],
        )
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
        for f in dataclasses.fields(NBModel):
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
        mod = NBModel(
            m=100,
            params=HHParams(0.3),  # lambda 0.15
            priors=ClassPriors((60, 40), 100),
            tables=[[(0, 50), (1, 30)], [(0, 45), (1, 25)]],
            index=[{0: 50, 1: 30}, {0: 45, 1: 25}],
            class_counts_by_value=[
                {0: [40, 10], 1: [10, 20]},
                {0: [35, 10], 1: [5, 20]},
            ],
            conditionals=[
                {0: (40 / 60, 10 / 40), 1: (10 / 60, 20 / 40)},
                {0: (35 / 60, 10 / 40), 1: (5 / 60, 20 / 40)},
            ],
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


def no_break_levels(t, th, entries, prior, conditionals):
    """grow_levels without the early break or the cap: every extension of
    every surviving prefix is scored, in the same order and arithmetic."""
    levels = []
    prev = [((), (1.0,) * len(prior), 1.0)]
    for coord in t.coords:
        nxt = []
        for prefix, vec, _q in prev:
            for x, _f in entries(coord, th):
                new_vec = tuple(a * b for a, b in zip(vec, conditionals[coord][x]))
                q = 0.0
                for p_z, v_z in zip(prior, new_vec):
                    q += p_z * v_z
                if q >= th:
                    nxt.append((prefix + (x,), new_vec, q))
        levels.append(nxt)
        prev = nxt
    return levels


@st.composite
def factorized_models(draw):
    """A FactorizedModel from consistent integer counts: every candidate's
    per-class counts on a coordinate sum to at most its class total. Values
    often sit in a single class, where the mixture meets its bound. With
    ell = 1 it is the model indep2p builds."""
    ell = draw(st.integers(1, 4))
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
    m = sum(class_totals)
    by_value = [dict(enumerate(coord_rows)) for coord_rows in rows]
    index = [{x: sum(row) for x, row in bv.items()} for bv in by_value]
    tables = [sorted(ix.items(), key=lambda e: (-e[1], e[0])) for ix in index]
    conditionals = [
        {x: tuple(c / n for c, n in zip(row, class_totals)) for x, row in bv.items()}
        for bv in by_value
    ]
    priors = ClassPriors(class_totals, m)
    return NBModel(m, HHParams(0.5), tables, index, priors, by_value, conditionals)


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
        prior, conditionals = mod.mixture()
        tiny = no_break_levels(t, 1e-300, mod.heavy_entries, prior, conditionals)
        scores = sorted({q for level in tiny for _p, _v, q in level})
        score = data.draw(st.sampled_from(scores))
        th = data.draw(st.sampled_from(
            [score, math.nextafter(score, 0.0), math.nextafter(score, 2.0)]
        ))
        expected = no_break_levels(t, th, mod.heavy_entries, prior, conditionals)
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
                    grow_levels(t, th, mod.heavy_entries, cap, mod.mixture())
            else:
                levels = grow_levels(t, th, mod.heavy_entries, cap, mod.mixture())
                assert [level.entries for level in levels] == expected
