import pytest

from subcubehh.core import HHParams, make_subcube
from subcubehh.errors import (
    ConfigError,
    DuplicateIndexError,
    EmptySubcubeError,
    IndexOutOfRangeError,
)


class TestMakeSubcube:
    def test_well_formed(self):
        t = make_subcube([0, 2, 4], d=6)
        assert t.coords == (0, 2, 4)
        assert t.k == 3

    def test_duplicate_index(self):
        with pytest.raises(DuplicateIndexError):
            make_subcube([1, 1], d=3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            make_subcube([5], d=5)
        with pytest.raises(IndexOutOfRangeError):
            make_subcube([-1], d=5)

    def test_empty(self):
        with pytest.raises(EmptySubcubeError):
            make_subcube([], d=4)


class TestHHParams:
    def test_defaults(self):
        p = HHParams(0.1)
        assert p.lam == 0.1 / 2
        assert p.gamma_star == 0.1 / 2
        assert p.alpha_budget == 0.1 / 10

    def test_lam_always_half_gamma(self):
        for gamma in (0.004, 0.25, 1.0):
            assert HHParams(gamma).lam == gamma / 2

    def test_gamma_range(self):
        with pytest.raises(ConfigError):
            HHParams(0.0)
        with pytest.raises(ConfigError):
            HHParams(1.5)
        with pytest.raises(ConfigError):
            HHParams(-0.2)

    def test_alpha_budget_range(self):
        with pytest.raises(ConfigError):
            HHParams(0.2, alpha_budget=-0.1)
