import math

import pytest

from subcubehh.core import HHParams, make_subcube
from subcubehh.errors import (
    ConfigError,
    DuplicateIndexError,
    EmptySubcubeError,
    IndexOutOfRangeError,
)
from subcubehh.heuristic import (
    heuristic_all_query,
    heuristic_all_query_scored,
    heuristic_build,
    heuristic_query,
)
from subcubehh.independence import (
    indep_all_query,
    indep_all_query_levels,
    indep_all_query_scored,
    indep_pass1,
    indep_pass2,
    indep_query,
)
from subcubehh.naivebayes import (
    nb_all_query,
    nb_all_query_levels,
    nb_all_query_scored,
    nb_pass1,
    nb_pass2,
    nb_query,
    nb_score,
)
from subcubehh.sampling import (
    build_sample,
    sample_all_query,
    sample_all_query_scored,
    sample_query,
)
from subcubehh.stream_io import from_items


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


def _models() -> dict:
    """One model per answerer over four rows with a class column."""
    h = from_items([(1, 1, 0), (1, 2, 0), (2, 1, 1), (1, 1, 1)], class_col=2)
    p = HHParams(0.5)
    return {
        "sampling": build_sample(h, capacity=10, seed=0, p=p),
        "indep2p": indep_pass2(h, indep_pass1(h, p), p),
        "nb2p": nb_pass2(h, *nb_pass1(h, p), p),
        "cms-heuristic": heuristic_build(h, memory_slots=64, p=p),
    }


# (answerer, entry point, whether it takes a joint value before the threshold)
ENTRY_POINTS = [
    ("sampling", sample_query, True),
    ("sampling", sample_all_query_scored, False),
    ("sampling", sample_all_query, False),
    ("indep2p", indep_query, True),
    ("indep2p", indep_all_query_levels, False),
    ("indep2p", indep_all_query_scored, False),
    ("indep2p", indep_all_query, False),
    ("nb2p", nb_score, True),
    ("nb2p", nb_query, True),
    ("nb2p", nb_all_query_levels, False),
    ("nb2p", nb_all_query_scored, False),
    ("nb2p", nb_all_query, False),
    ("cms-heuristic", heuristic_query, True),
    ("cms-heuristic", heuristic_all_query_scored, False),
    ("cms-heuristic", heuristic_all_query, False),
]


class TestThresholdNotPositive:
    """A decision threshold that is not > 0 would answer every candidate (or,
    as nan, none), so every Query and AllQuery entry point refuses it."""

    @pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize(
        "algo, query, takes_value",
        ENTRY_POINTS,
        ids=[f"{algo}-{query.__name__}" for algo, query, _ in ENTRY_POINTS],
    )
    def test_raises(self, algo, query, takes_value, threshold):
        mod = _models()[algo]
        t = make_subcube([0, 1], 2)
        args = (mod, t, (0, 0), threshold) if takes_value else (mod, t, threshold)
        with pytest.raises(ConfigError, match="decision threshold must be > 0"):
            query(*args)

    def test_default_is_lam(self):
        p = HHParams(0.3)
        assert p.threshold(None) == p.lam
        assert p.threshold(0.7) == 0.7
