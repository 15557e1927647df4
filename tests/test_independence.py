import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh.core import HHParams, Verdict, make_subcube
from subcubehh.independence import (
    CandidateSets,
    IndepModel,
    candidate_cutoff,
    default_counter_budget,
    indep_all_query,
    indep_all_query_levels,
    indep_all_query_scored,
    indep_pass1,
    indep_pass2,
    indep_query,
)
from subcubehh.naivebayes import ClassPriors
from subcubehh.oracle import exact_table
from subcubehh.stream_io import from_items


def build(rows, gamma, counter_budget=None):
    h = from_items(rows)
    p = HHParams(gamma)
    cands = indep_pass1(h, p, counter_budget)
    return h, p, indep_pass2(h, cands, p)


def make_model(tables_ratios, m, gamma):
    """One-class model with prescribed exact marginals: {coord: {value: count}}."""
    tables = []
    index = []
    for counts in tables_ratios:
        index.append(dict(counts))
        tables.append(sorted(counts.items(), key=lambda e: (-e[1], e[0])))
    return IndepModel(
        m=m,
        params=HHParams(gamma),
        tables=tables,
        index=index,
        priors=ClassPriors((m,), m),
        class_counts_by_value=[{x: [c] for x, c in ix.items()} for ix in index],
        conditionals=[{x: (c / m,) for x, c in ix.items()} for ix in index],
    )


class TestPass1:
    def test_constant_coordinate(self):
        h = from_items([(5,)] * 30)
        cands = indep_pass1(h, HHParams(0.8))
        assert cands.sets[0] == {0}

    def test_uniform_coordinate_below_quarter_lambda(self):
        # 100 equally frequent values at lambda = 0.2: every f = 0.01 < lambda/4.
        rows = [(i,) for i in range(100)] * 3
        h = from_items(rows)
        cands = indep_pass1(h, HHParams(0.4))  # lambda 0.2
        assert cands.sets[0] == frozenset()

    def test_heavy_value_always_in(self):
        # f = 0.6 >= lambda/2 for the largest legal lambda (0.5).
        h = from_items([(1,), (1,), (1,), (2,), (3,)])
        cands = indep_pass1(h, HHParams(1.0))  # lambda 0.5
        assert h.code(0, "1") in cands.sets[0]

    def test_cutoff_default_budget(self):
        lam = 0.1
        assert candidate_cutoff(lam, default_counter_budget(HHParams(0.2))) == pytest.approx(
            3 * lam / 8
        )

    def test_cutoff_small_budget_keeps_recall(self):
        # With budget c the Misra-Gries error is at most m/c, so the cutoff
        # must not exceed lambda/2 - 1/c (or 0 once that goes negative).
        lam = 0.1
        for c in (5, 10, 30, 81, 200):
            cut = candidate_cutoff(lam, c)
            assert cut <= max(0.0, lam / 2 - 1 / c) + 1e-15
            assert cut <= 3 * lam / 8 + 1e-15


class TestPass2:
    def test_filters_at_lambda(self):
        # 20 items: f(a) = 0.5, f(b) = 0.05; only a survives at lambda = 0.1.
        rows = [("a",)] * 10 + [("b",)] + [("c",)] * 9
        h = from_items(rows)
        h.replay(lambda _i, _c: None)
        p = HHParams(0.2)  # lambda 0.1
        a, b = h.code(0, "a"), h.code(0, "b")
        cands = CandidateSets((frozenset({a, b}),))
        mod = indep_pass2(h, cands, p)
        assert mod.heavy_entries(0, p.lam) == [(a, 0.5)]
        assert mod.marginal(0, b) == 0.05  # counted exactly, below lambda
        assert mod.marginal(0, h.code(0, "c")) is None  # not a candidate

    def test_empty_candidates(self):
        h = from_items([(1,), (2,)])
        p = HHParams(0.2)
        mod = indep_pass2(h, CandidateSets((frozenset(),)), p)
        assert mod.heavy_entries(0, p.lam) == []

    def test_tie_at_lambda_kept(self):
        # Two values at exactly f = lambda: the >= comparison keeps both.
        rows = [("a",)] * 2 + [("b",)] * 2 + [("c",)] * 16
        h = from_items(rows)
        h.replay(lambda _i, _c: None)
        p = HHParams(0.2)  # lambda 0.1 = 2/20
        mod = indep_pass2(
            h, CandidateSets((frozenset({h.code(0, "a"), h.code(0, "b")}),)), p
        )
        assert len(mod.heavy_entries(0, p.lam)) == 2


class TestQuery:
    def test_product_above_threshold(self):
        mod = make_model([{0: 50}, {0: 40}], m=100, gamma=0.2)  # f 0.5, 0.4
        t = make_subcube([0, 1], 2)
        assert indep_query(mod, t, (0, 0)) is Verdict.YES  # 0.2 >= 0.1

    def test_product_below_threshold(self):
        mod = make_model([{0: 50}, {0: 40}], m=100, gamma=0.2)
        t = make_subcube([0, 1], 2)
        assert indep_query(mod, t, (0, 0), threshold=0.25) is Verdict.NO

    def test_missing_candidate_short_circuits(self):
        mod = make_model([{0: 50}, {0: 40}], m=100, gamma=0.2)
        t = make_subcube([0, 1], 2)
        assert indep_query(mod, t, (1, 0)) is Verdict.NO

    def test_boundary_inclusive(self):
        # product exactly lambda: 0.5 * 0.2 = 0.1 with lambda = 0.1.
        mod = make_model([{0: 50}, {0: 20}], m=100, gamma=0.2)
        t = make_subcube([0, 1], 2)
        assert indep_query(mod, t, (0, 0)) is Verdict.YES


class TestAllQuery:
    def test_hand_case_with_pruning(self):
        # S1 = [(a,.5),(b,.2)], S2 = [(c,.5),(d,.3)], threshold 0.12:
        # b is pruned entirely because 0.2 * 0.5 = 0.10 < 0.12.
        mod = make_model([{0: 50, 1: 20}, {0: 50, 1: 30}], m=100, gamma=0.24)
        t = make_subcube([0, 1], 2)
        scored = indep_all_query_scored(mod, t)
        assert scored == {(0, 0): 0.25, (0, 1): 0.15}

    def test_matches_brute_force(self):
        mod = make_model([{0: 50, 1: 20}, {0: 50, 1: 30}], m=100, gamma=0.24)
        t = make_subcube([0, 1], 2)
        lam = mod.params.lam
        brute = set()
        s1, s2 = mod.heavy_entries(0, lam), mod.heavy_entries(1, lam)
        for (x, fx), (y, fy) in itertools.product(s1, s2):
            if fx * fy >= lam:
                brute.add((x, y))
        assert indep_all_query(mod, t) == brute

    def test_k1_returns_s1(self):
        mod = make_model([{3: 30, 7: 20, 9: 5}], m=100, gamma=0.4)
        out = indep_all_query(mod, make_subcube([0], 1))
        assert out == {(3,), (7,)}

    def test_empty_s_gives_empty(self):
        mod = make_model([{0: 90}, {}], m=100, gamma=0.2)
        assert indep_all_query(mod, make_subcube([0, 1], 2)) == set()

    def test_prefix_products_meet_threshold(self):
        rng = random.Random(1)
        rows = [
            (rng.randrange(3), rng.randrange(4), rng.randrange(3)) for _ in range(400)
        ]
        h, p, mod = build(rows, gamma=0.2)
        t = make_subcube([2, 0, 1], 3)
        levels = indep_all_query_levels(mod, t)
        final = {v for v, _vec, _q in levels[-1].entries}
        for v in final:
            for j in range(1, t.k + 1):
                prod = 1.0
                for coord, x in zip(t.coords[:j], v[:j]):
                    prod *= mod.marginal(coord, x)
                assert prod >= p.lam

    def test_order_invariance_as_sets(self):
        rng = random.Random(7)
        rows = [(rng.randrange(3), rng.randrange(3), rng.randrange(4)) for _ in range(300)]
        h, p, mod = build(rows, gamma=0.3)
        fwd = indep_all_query(mod, make_subcube([0, 1, 2], 3))
        rev = indep_all_query(mod, make_subcube([2, 1, 0], 3))
        assert fwd == {(a, b, c) for (c, b, a) in rev}

    def test_consistency_with_query(self):
        rng = random.Random(11)
        rows = [(rng.randrange(4), rng.randrange(4)) for _ in range(500)]
        h, p, mod = build(rows, gamma=0.1)
        t = make_subcube([0, 1], 2)
        reported = indep_all_query(mod, t)
        for a in range(4):
            for b in range(4):
                assert ((a, b) in reported) == (
                    indep_query(mod, t, (a, b)) is Verdict.YES
                )


class TestSoundnessOnVerifiedData:
    def test_mandatory_verdicts_on_independent_data(self):
        # On data whose measured factorization error is within the assumed
        # budget, every mandatory verdict must come out right.
        from subcubehh.datagen import make_random_nb, sample_rows
        from subcubehh.oracle import empirical_alpha_independence
        from subcubehh.stream_io import from_rows

        gen = make_random_nb(d=3, cardinalities=[8, 8, 8], ell=1, skew=1.0, seed=41)
        rows = list(sample_rows(gen, 50_000, seed=2))
        h = from_rows(rows)
        h.replay(lambda _i, _c: None)
        gamma = 0.1
        p = HHParams(gamma)
        mod = indep_pass2(h, indep_pass1(h, p), p)
        for coords in ([0, 1], [0, 1, 2], [2, 0]):
            t = make_subcube(coords, 3)
            assert empirical_alpha_independence(h, t) <= gamma / 10
            truth = exact_table(h, t)
            supports = [
                sorted({v[i] for v in truth.counts}) for i in range(t.k)
            ]
            for v in itertools.product(*supports):
                f = truth.freq(v)
                verdict = indep_query(mod, t, v)
                if f >= gamma:
                    assert verdict is Verdict.YES
                elif f < gamma / 4:
                    assert verdict is Verdict.NO


class TestOracleEquivalence:
    @settings(max_examples=40)
    @given(st.integers(0, 10_000))
    def test_matches_oracle_marginal_product(self, seed):
        rng = random.Random(seed)
        d = rng.randint(2, 4)
        n = rng.randint(2, 8)
        m = rng.randint(30, 400)
        gamma = rng.uniform(0.05, 0.4)
        rows = [tuple(rng.randrange(n) for _ in range(d)) for _ in range(m)]
        h = from_items(rows)
        p = HHParams(gamma)
        mod = indep_pass2(h, indep_pass1(h, p), p)
        k = rng.randint(1, min(3, d))
        coords = rng.sample(range(d), k)
        t = make_subcube(coords, d)
        marginals = [exact_table(h, make_subcube([c], d)) for c in coords]
        supports = [sorted(x for (x,) in gt.counts) for gt in marginals]
        for v in itertools.product(*supports):
            prod = 1.0
            for gt, x in zip(marginals, v):
                prod *= gt.counts[(x,)] / gt.m
            expected = prod >= p.lam
            assert (indep_query(mod, t, v) is Verdict.YES) == expected
