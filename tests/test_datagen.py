import math

import numpy as np
import pytest

from subcubehh.core import make_subcube
from subcubehh.datagen import (
    PAPER_PROFILE_CARDINALITIES,
    PAPER_PROFILE_ELL,
    _AliasTable,
    make_random_nb,
    paper_profile,
    sample_rows,
    sample_to_csv,
)
from subcubehh.errors import ConfigError
from subcubehh.oracle import empirical_alpha_independence
from subcubehh.stream_io import from_rows, open_dataset


class TestGeneratorConstruction:
    def test_paper_profile_shape(self):
        g = paper_profile(seed=1)
        assert g.d == 5
        assert g.cardinalities == PAPER_PROFILE_CARDINALITIES
        assert g.ell == PAPER_PROFILE_ELL
        assert g.class_prior.shape == (7,)
        assert [dist.shape for dist in g.dists] == [
            (7, n) for n in PAPER_PROFILE_CARDINALITIES
        ]

    def test_probability_vectors(self):
        g = make_random_nb(d=3, cardinalities=[10, 4, 25], ell=4, skew=1.5, seed=9)
        assert abs(g.class_prior.sum() - 1.0) < 1e-12
        assert (g.class_prior >= 0).all()
        for dist in g.dists:
            assert np.allclose(dist.sum(axis=1), 1.0, atol=1e-12)
            assert (dist >= 0).all()

    def test_fixed_seed_identical(self):
        a = make_random_nb(2, [5, 6], 3, 1.0, seed=4)
        b = make_random_nb(2, [5, 6], 3, 1.0, seed=4)
        assert np.array_equal(a.class_prior, b.class_prior)
        for da, db in zip(a.dists, b.dists):
            assert np.array_equal(da, db)

    def test_zero_skew_near_uniform(self):
        g = make_random_nb(1, [50], 1, 0.0, seed=2)
        p = g.dists[0][0]
        assert p.max() / p.min() < 3.0  # jitter only, no rank decay

    def test_skew_concentrates(self):
        flat = make_random_nb(1, [100], 1, 0.0, seed=5).dists[0][0]
        sharp = make_random_nb(1, [100], 1, 2.0, seed=5).dists[0][0]
        assert sharp.max() > 5 * flat.max()

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_random_nb(2, [5], 1, 1.0, seed=0)
        with pytest.raises(ConfigError):
            make_random_nb(1, [5], 0, 1.0, seed=0)
        with pytest.raises(ConfigError):
            make_random_nb(1, [5], 1, -1.0, seed=0)
        with pytest.raises(ConfigError):
            make_random_nb(2, [5, 0], 1, 1.0, seed=0)
        with pytest.raises(ConfigError, match="skew must be >= 0, got nan"):
            make_random_nb(1, [5], 1, float("nan"), seed=0)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -3"):
            make_random_nb(1, [5], 1, 1.0, seed=-3)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            sample_rows(make_random_nb(1, [5], 1, 1.0, seed=0), 10, seed=-1)


class TestAliasTable:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        table = _AliasTable(np.array([0.0, 1.0, 0.0]))
        assert (table.draw(rng, 500) == 1).all()

    def test_matches_distribution(self):
        rng = np.random.default_rng(1)
        p = np.array([0.5, 0.3, 0.2])
        draws = _AliasTable(p).draw(rng, 200_000)
        freq = np.bincount(draws, minlength=3) / len(draws)
        assert np.abs(freq - p).max() < 0.01


class TestSampling:
    def test_row_shapes(self):
        g = make_random_nb(3, [4, 5, 6], 2, 1.0, seed=7)
        whole = list(sample_rows(g, 50, seed=1))
        assert len(whole) == 50
        assert all(len(r) == 4 for r in whole)  # class + 3 features
        fixed = list(sample_rows(g, 50, seed=1, fix_class=0))
        assert all(len(r) == 3 for r in fixed)

    def test_deterministic_csv(self, tmp_path):
        g = make_random_nb(2, [6, 6], 2, 1.0, seed=3)
        p1 = sample_to_csv(g, 200, seed=5, path=tmp_path / "a.csv")
        p2 = sample_to_csv(g, 200, seed=5, path=tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_loads_back(self, tmp_path):
        g = make_random_nb(2, [4, 4], 3, 1.0, seed=11)
        path = sample_to_csv(g, 300, seed=0, path=tmp_path / "d.csv")
        h = open_dataset(path, class_col=0)
        assert h.replay(lambda _i, _c: None) == 300
        assert h.d == 2
        assert h.n_classes <= 3

    def test_fix_class_out_of_range(self):
        g = make_random_nb(1, [4], 2, 1.0, seed=0)
        with pytest.raises(ConfigError):
            list(sample_rows(g, 10, seed=0, fix_class=5))

    @pytest.mark.parametrize("m, fix_class", [(0, None), (-3, None), (10, 2)])
    def test_bad_arguments_fail_at_the_call(self, m, fix_class):
        # Before any row is read, so sample_to_csv opens no file.
        g = make_random_nb(1, [4], 2, 1.0, seed=0)
        with pytest.raises(ConfigError):
            sample_rows(g, m, seed=0, fix_class=fix_class)

    def test_single_class_alpha_small(self):
        # ell = 1 gives exactly independent coordinates; the empirical alpha
        # is pure sampling noise and shrinks with m.
        g = make_random_nb(2, [6, 5], 1, 1.0, seed=13)
        rows = list(sample_rows(g, 100_000, seed=2))
        h = from_rows(rows)
        t = make_subcube([0, 1], 2)
        assert empirical_alpha_independence(h, t) <= 0.02

    def test_fixed_class_alpha_decreases_with_m(self):
        g = make_random_nb(2, [5, 5], 3, 1.2, seed=17)
        alphas = []
        for m in (2_000, 200_000):
            rows = list(sample_rows(g, m, seed=3, fix_class=0))
            h = from_rows(rows)
            alphas.append(empirical_alpha_independence(h, make_subcube([0, 1], 2)))
        assert alphas[1] < alphas[0]

    def test_conditional_convergence_bound(self):
        # Empirical per-class conditionals approach the generator's
        # distributions at the usual sqrt(log / count) rate.
        g = make_random_nb(2, [40, 25], 3, 1.0, seed=19)
        m = 60_000
        rows = list(sample_rows(g, m, seed=4))
        h = from_rows(rows, class_col=0)
        h.replay(lambda _i, _c: None)
        counts = [dict(), dict()]
        class_counts = {}

        def tally(columns, classes):
            for item, cls in zip(zip(*columns), classes):
                class_counts[cls] = class_counts.get(cls, 0) + 1
                for j, x in enumerate(item):
                    counts[j][(x, cls)] = counts[j].get((x, cls), 0) + 1

        h.replay(tally)
        for j, n_j in enumerate(g.cardinalities):
            for z_code, c_z in class_counts.items():
                z = int(h.decode_class(z_code))
                bound = 4 * math.sqrt(math.log(n_j * g.ell) / c_z)
                worst = 0.0
                for x in range(n_j):
                    token = str(x)
                    try:
                        code = h.code(j, token)
                    except KeyError:
                        emp = 0.0
                    else:
                        emp = counts[j].get((code, z_code), 0) / c_z
                    worst = max(worst, abs(emp - g.dists[j][z][x]))
                assert worst <= bound
