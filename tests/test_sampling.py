import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh.core import HHParams, Verdict, make_subcube
from subcubehh.errors import BudgetTooSmallError, ConfigError
from subcubehh.sampling import (
    SampleModel,
    _joint_counts,
    build_sample,
    required_sample_size,
    sample_all_query,
    sample_all_query_scored,
    sample_frequencies,
    sample_query,
)
from subcubehh.stream_io import CHUNK_ROWS, from_items
from tests.conftest import D0_ROWS, file_and_rows, is_dictionary_int, ulps


class TestRequiredSampleSize:
    def test_reference_values(self):
        assert required_sample_size(HHParams(0.1), d=1, k=1, n_max=10) == 2211
        assert required_sample_size(HHParams(1.0), d=1, k=1, n_max=1) == 111

    def test_minimality_of_2211(self):
        # 2211 is the smallest size whose YES-side tail drops below the
        # 1/(10 * d^k * n^k) union budget; 2210 still misses it.
        gamma, budget = 0.1, 1 / (10 * 1 * 10)
        assert math.exp(-gamma * 2211 / 48) <= budget
        assert math.exp(-gamma * 2210 / 48) > budget
        # The NO-side tail decays three times faster and is dominated.
        assert math.exp(-gamma * 2211 / 12) <= budget

    def test_doubling_gamma_halves_size(self):
        lo = required_sample_size(HHParams(0.05), d=4, k=2, n_max=100)
        hi = required_sample_size(HHParams(0.1), d=4, k=2, n_max=100)
        assert abs(lo - 2 * hi) <= 2  # up to rounding

    @pytest.mark.parametrize("d, k, n_max", [(0, 1, 10), (2, 0, 10), (2, 1, 0)])
    def test_nonpositive_shape_rejected(self, d, k, n_max):
        with pytest.raises(ConfigError, match=">= 1"):
            required_sample_size(HHParams(0.1), d=d, k=k, n_max=n_max)

    def test_k_exceeding_d_rejected(self):
        with pytest.raises(ConfigError):
            required_sample_size(HHParams(0.1), d=2, k=3, n_max=10)

    def test_huge_support_no_overflow(self):
        # 10^600-sized union bounds stay finite in log space.
        out = required_sample_size(HHParams(0.5), d=10**6, k=100, n_max=10**6)
        assert out > 0


def d0_model():
    h = from_items(D0_ROWS)
    p = HHParams(0.5)
    mod = build_sample(h, capacity=100, seed=0, p=p)
    return h, mod


class TestBuildSample:
    def test_under_capacity_keeps_whole_stream(self):
        h, mod = d0_model()
        assert mod.m_prime == 8
        assert len(mod.samples) == 8

    def test_deterministic(self):
        h = from_items([(i % 5, i % 3) for i in range(200)])
        p = HHParams(0.2)
        a = build_sample(h, capacity=10, seed=42, p=p)
        b = build_sample(h, capacity=10, seed=42, p=p)
        assert a.samples == b.samples

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_capacity_below_one_rejected_before_replay(self, monkeypatch, capacity):
        # (0, 0) has f = 2/3 at gamma 0.5; a sample holding nothing would miss it.
        h = from_items([(0, 0)] * 100 + [(1, 1)] * 50)
        monkeypatch.setattr(h, "replay", lambda _visitor: pytest.fail("replayed"))
        with pytest.raises(BudgetTooSmallError, match=f"sample capacity {capacity} holds no item"):
            build_sample(h, capacity=capacity, seed=0, p=HHParams(0.5))

    def test_zero_capacity_answers_no(self):
        # build_sample rejects a capacity below 1; a model holding no item,
        # built by hand, still answers every query.
        mod = SampleModel(columns=[[], []], m_prime=0, capacity=0, params=HHParams(0.5))
        t = make_subcube([0, 1], 2)
        assert sample_query(mod, t, (0, 0)) is Verdict.NO
        assert sample_all_query(mod, t) == set()
        assert mod.capped_counts == [b"", b""]
        for th in (1e-9, 0.25, 2.0, math.inf):
            assert sample_all_query_scored(mod, t, th) == {}
        assert sample_frequencies(mod, t) == {}


class TestFileHandle:
    """A sample built on a file handle equals the one built on a from_rows
    handle of the same rows, and keeps the dictionary's own ints."""

    @pytest.mark.parametrize("capacity", [1, 300, CHUNK_ROWS + 5, 5 * CHUNK_ROWS])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_rows_build(self, tmp_path, capacity, seed):
        # Coordinate 0 has codes above 256, outside CPython's small-int cache.
        rows = [(r * 7 % 600, r % 7, r * r % 11, r % 3) for r in range(3 * CHUNK_ROWS + 37)]
        file, in_memory = file_and_rows(tmp_path / "d.csv", rows, class_col=3)
        p = HHParams(0.05)
        want = build_sample(in_memory, capacity, seed, p)
        got = build_sample(file, capacity, seed, p)
        assert got == want
        assert got.m_prime == min(capacity, len(rows))
        for coords in ([0], [1, 2], [2, 0, 1]):
            t = make_subcube(coords, 3)
            assert sample_all_query_scored(got, t) == sample_all_query_scored(want, t)
        for j, col in enumerate(got.columns):
            assert type(col) is list
            assert all(is_dictionary_int(file, j, x) for x in col)


class TestColumnarModel:
    """The model holds one list per coordinate; `samples` zips them."""

    def stream_model(self, capacity=40):
        h = from_items([(i % 5, (i * 7) % 11, i % 3) for i in range(300)])
        return build_sample(h, capacity=capacity, seed=3, p=HHParams(0.2))

    def test_frequencies_equal_per_item_loop(self):
        mod = self.stream_model()
        for coords in ([0], [1, 2], [2, 0, 1], [0, 1, 2]):
            t = make_subcube(coords, 3)
            # The per-item loop this model replaced, over the tuple view.
            counts = {}
            for item in mod.samples:
                v = tuple(item[c] for c in t.coords)
                counts[v] = counts.get(v, 0) + 1
            expect = {v: c / mod.m_prime for v, c in counts.items()}
            got = sample_frequencies(mod, t)
            assert got == expect
            assert list(got) == list(expect)  # same insertion order

    @pytest.mark.parametrize("capacity", [0, 1, 40, 1000])
    def test_charge_equals_allocated_slots(self, capacity):
        if capacity:
            mod = self.stream_model(capacity)
        else:  # build_sample rejects capacity 0, so this model is built by hand
            mod = SampleModel(columns=[[], [], []], m_prime=0, capacity=0, params=HHParams(0.2))
        assert sum(map(len, mod.columns)) == 3 * min(capacity, 300)


class TestSampleQuery:
    def test_d0_yes(self):
        h, mod = d0_model()
        t = make_subcube([0, 1], 2)
        v = (h.code(0, "1"), h.code(1, "1"))  # frequency 3/8
        assert sample_query(mod, t, v) is Verdict.YES

    def test_d0_no(self):
        h, mod = d0_model()
        t = make_subcube([0, 1], 2)
        v = (h.code(0, "2"), h.code(1, "2"))  # frequency 1/8
        assert sample_query(mod, t, v) is Verdict.NO

    def test_absent_value_is_no(self):
        h, mod = d0_model()
        t = make_subcube([0, 1], 2)
        assert sample_query(mod, t, (99, 99), threshold=1e-9) is Verdict.NO

    def test_threshold_override(self):
        h, mod = d0_model()
        t = make_subcube([0, 1], 2)
        v = (h.code(0, "2"), h.code(1, "2"))
        assert sample_query(mod, t, v, threshold=0.125) is Verdict.YES

    def test_wrong_length_rejected(self):
        h, mod = d0_model()
        with pytest.raises(ConfigError):
            sample_query(mod, make_subcube([0, 1], 2), (1,))


class TestSampleAllQuery:
    def test_d0_expected_set(self):
        h, mod = d0_model()
        t = make_subcube([0, 1], 2)
        c = h.code
        expected = {
            (c(0, "1"), c(1, "1")),
            (c(0, "1"), c(1, "2")),
            (c(0, "2"), c(1, "1")),
        }
        assert sample_all_query(mod, t) == expected

    def test_threshold_above_one_empty(self):
        h, mod = d0_model()
        assert sample_all_query(mod, make_subcube([0, 1], 2), threshold=1.01) == set()

    def test_constant_single_coordinate(self):
        h = from_items([(7,)] * 20)
        mod = build_sample(h, capacity=50, seed=0, p=HHParams(0.5))
        assert sample_all_query(mod, make_subcube([0], 1)) == {(0,)}

    def test_consistency_with_query(self):
        h = from_items([(i % 3, (i * 2) % 4) for i in range(60)])
        mod = build_sample(h, capacity=30, seed=5, p=HHParams(0.3))
        t = make_subcube([0, 1], 2)
        reported = sample_all_query(mod, t)
        for a in range(3):
            for b in range(4):
                verdict = sample_query(mod, t, (a, b))
                assert ((a, b) in reported) == (verdict is Verdict.YES)

    def test_scores_are_sample_frequencies(self):
        h, mod = d0_model()
        t = make_subcube([0, 1], 2)
        scored = sample_all_query_scored(mod, t)
        c = h.code
        assert scored[(c(0, "1"), c(1, "1"))] == pytest.approx(3 / 8)


@st.composite
def sample_models(draw):
    """A small columnar SampleModel: up to 3 coordinates of up to 60 sampled
    items over few values, so joint values repeat."""
    d = draw(st.integers(1, 3))
    m_prime = draw(st.integers(0, 60))
    values = st.integers(0, draw(st.integers(0, 4)))
    columns = [draw(st.lists(values, min_size=m_prime, max_size=m_prime)) for _ in range(d)]
    return SampleModel(columns=columns, m_prime=m_prime, capacity=60, params=HHParams(0.5))


class TestAllQueryFastPath:
    """sample_all_query_scored against the reference filter of
    sample_frequencies: the same keys, floats and order, at thresholds on
    each sampled frequency c/m' and one ulp either side of it."""

    @settings(max_examples=300)
    @given(sample_models(), st.data())
    def test_matches_frequency_filter(self, mod, data):
        coords = data.draw(st.permutations(range(len(mod.columns))))
        t = make_subcube(coords[: data.draw(st.integers(1, len(coords)))], len(mod.columns))
        freqs = sample_frequencies(mod, t)
        th = data.draw(st.sampled_from(sorted(set(freqs.values())) or [0.5]))
        th = data.draw(st.sampled_from([th, math.nextafter(th, 0.0), math.nextafter(th, 2.0)]))
        ref = {v: f for v, f in freqs.items() if f >= th}
        out = sample_all_query_scored(mod, t, th)
        assert out == ref
        assert list(out) == list(ref)


def rounded_onto_counts(up):
    """Six (c, m') pairs, m' < 60, whose float c/m' times m' rounds above c
    (up) or below it."""
    pairs = [(c, m) for m in range(2, 60) for c in range(1, m + 1)]
    return [(c, m) for c, m in pairs if ((c / m) * m > c if up else (c / m) * m < c)][:6]


class TestCutoffAtRounding:
    """sample_all_query_scored against the sample_frequencies filter where
    a joint count c sits on the threshold: th is the float c/m' and one ulp
    either side, on counts whose c/m' * m' rounds above c (where a cutoff
    of th*m' would drop c) and below it. Keys, floats and order agree."""

    @pytest.mark.parametrize("c, m_prime", rounded_onto_counts(True) + rounded_onto_counts(False))
    def test_matches_frequency_filter(self, c, m_prime):
        rest = range(1, m_prime - c + 1)
        columns = [[0] * c + list(rest), [0] * c + [x % 3 for x in rest]]
        mod = SampleModel(columns=columns, m_prime=m_prime, capacity=m_prime, params=HHParams(0.5))
        for coords in ([0, 1], [1, 0], [0]):
            t = make_subcube(coords, 2)
            freqs = sample_frequencies(mod, t)
            assert freqs[(0,) * t.k] == c / m_prime
            for n in (-1, 0, 1):
                th = ulps(c / m_prime, n)
                want = [(v, f) for v, f in freqs.items() if f >= th]
                assert list(sample_all_query_scored(mod, t, th).items()) == want
                assert ((0,) * t.k in dict(want)) == (n < 1)


@st.composite
def wide_models(draw):
    """A SampleModel of up to 3 coordinates, each over 3 to 1,200 values
    with skewed weights, so a coordinate may sample more than 256 distinct
    values and counts tie around ranks 254-256. Codes are shuffled, so ties
    by code differ from ties by first appearance."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    m_prime = draw(st.integers(300, 2000))
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        codes = rng.sample(range(5000), draw(st.sampled_from([3, 40, 257, 600, 1200])))
        skew = draw(st.sampled_from([0.0, 0.5, 1.0]))
        weights = [1.0 / (i + 1) ** skew for i in range(len(codes))]
        columns.append(rng.choices(codes, weights, k=m_prime))
    return SampleModel(columns=columns, m_prime=m_prime, capacity=m_prime, params=HHParams(0.5))


class TestRankMasks:
    """AllQuery counts only the items whose every value on t is sampled at
    least lo times, by their values' sample counts capped at 255; byte 255
    stands for every count from 255 on, so from there a mask keeps a
    superset. The answers stay those of the unmasked group-by."""

    def test_capped_counts(self):
        col = [9, 4, 4, 7, 9, 1] + [3] * 300
        mod = SampleModel(columns=[col], m_prime=len(col), capacity=len(col), params=HHParams(0.5))
        assert mod.capped_counts == [bytes([2, 2, 2, 1, 2, 1, *[255] * 300])]

    @settings(max_examples=150, deadline=None)
    @given(wide_models(), st.data())
    def test_matches_unmasked_counts_around_rank_255(self, mod, data):
        coords = data.draw(st.permutations(range(len(mod.columns))))
        t = make_subcube(coords[: data.draw(st.integers(1, len(coords)))], len(mod.columns))
        counts = sorted(Counter(mod.columns[data.draw(st.sampled_from(t.coords))]).values())[::-1]
        n = counts[min(data.draw(st.sampled_from([254, 255, 256])), len(counts) - 1)]
        lo = ulps(float(n), data.draw(st.integers(-1, 1)))
        full = Counter(zip(*(mod.columns[c] for c in t.coords)))
        got = _joint_counts(mod, t, lo)
        assert all(full[v] == c for v, c in got.items())
        kept = [(v, c) for v, c in got.items() if c >= lo]
        assert kept == [(v, c) for v, c in full.items() if c >= lo]  # same order
        th = ulps((n + 1) / mod.m_prime, data.draw(st.integers(-1, 1)))
        ref = {v: f for v, f in sample_frequencies(mod, t).items() if f >= th}
        out = sample_all_query_scored(mod, t, th)
        assert out == ref
        assert list(out) == list(ref)

    def test_a_mask_drops_light_items(self):
        # One value sampled 50 times and 300 once on each coordinate: at lo 2
        # only the first reaches lo, so every item of a count-1 value is dropped.
        col = [0] * 50 + list(range(1, 301))
        mod = SampleModel(columns=[col, col], m_prime=350, capacity=350, params=HHParams(0.5))
        t = make_subcube([0, 1], 2)
        assert _joint_counts(mod, t, 2.0) == Counter({(0, 0): 50})
        assert len(_joint_counts(mod, t, 1.0)) == 301  # every value reaches lo 1
        assert sample_all_query_scored(mod, t, 3 / 350) == {(0, 0): 50 / 350}

    def test_256_values_reaching_lo_masked_exactly(self):
        # 256 values sampled twice and 100 once: at lo 2 the mask keeps the
        # 256, however many reach lo.
        col = [x for x in range(256) for _ in range(2)] + list(range(256, 356))
        mod = SampleModel(columns=[col], m_prime=len(col), capacity=len(col), params=HHParams(0.5))
        t = make_subcube([0], 1)
        assert len(_joint_counts(mod, t, 2.0)) == 256
        assert len(_joint_counts(mod, t, math.nextafter(2.0, 3.0))) == 0

    def test_counts_from_255_on_share_a_byte(self):
        # Values sampled 300, 256 and 254 times: from lo 255 on every mask
        # keeps the first two, and the count filter drops the second.
        col = [0] * 300 + [1] * 256 + [2] * 254
        mod = SampleModel(columns=[col], m_prime=len(col), capacity=len(col), params=HHParams(0.5))
        t = make_subcube([0], 1)
        for lo in (255.0, 280.0):
            assert _joint_counts(mod, t, lo) == Counter({(0,): 300, (1,): 256})
        assert sample_all_query_scored(mod, t, 280 / len(col)) == {(0,): 300 / len(col)}
        assert sample_all_query_scored(mod, t, math.inf) == {}


class TestUnbiasedness:
    def test_mean_sample_frequency_matches_truth(self):
        # One value with frequency 0.3, capacity 10 over a 30-item stream:
        # the mean sample frequency over many seeds stays within 3 sigma of
        # the hypergeometric expectation.
        rows = [(0,)] * 9 + [(1,)] * 21
        h = from_items(rows)
        p_true, m, cap, seeds = 0.3, 30, 10, 1000
        total = 0.0
        t = make_subcube([0], 1)
        for seed in range(seeds):
            mod = build_sample(h, capacity=cap, seed=seed, p=HHParams(0.5))
            from subcubehh.sampling import sample_frequencies

            total += sample_frequencies(mod, t).get((0,), 0.0)
        mean = total / seeds
        var_one = p_true * (1 - p_true) / cap * (m - cap) / (m - 1)
        sigma = (var_one / seeds) ** 0.5
        assert abs(mean - p_true) <= 3 * sigma
