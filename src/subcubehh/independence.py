"""Two-pass subcube heavy hitters under near-independence.

The near-independence algorithm is the class-conditional algorithm of
naivebayes.py with a single class. Its passes ignore any class column the
dataset has and build the factorized model with one class holding every
item: priors (m,), and for a candidate with count c the counts [c] and the
conditional (c/m,). The score sum_z prior(z) * prod_i cond_i(v_i|z) is then
exactly 1.0 * prod_i f_i(v_i), the product of the exact per-coordinate
marginals, and AllQuery prunes every prefix whose partial product already
falls below the threshold (default lam = gamma/2).
"""

from __future__ import annotations

from .core import HHParams
from .naivebayes import (  # candidate helpers re-exported under their old home
    CandidateSets,
    ClassPriors,
    FactorizedModel,
    _model,
    _pass1,
    _recount,
    candidate_cutoff,
    default_counter_budget,
    nb_all_query,
    nb_all_query_levels,
    nb_all_query_scored,
    nb_query,
)
from .stream_io import DatasetHandle

IndepModel = FactorizedModel


def indep_pass1(
    h: DatasetHandle, p: HHParams, counter_budget: int | None = None
) -> CandidateSets:
    """First pass: one Misra-Gries summary per coordinate, thresholded into H_i."""
    return _pass1(h, p, counter_budget, one_class=True)[1]


def indep_pass2(h: DatasetHandle, cands: CandidateSets, p: HHParams) -> FactorizedModel:
    """Second pass over the same stream: exact counts for candidate values,
    all in one class."""
    m, by_value = _recount(
        h, cands, lambda s, col, _zs: filter(s.__contains__, col), lambda tally, x: [tally[x]]
    )
    return _model(p, ClassPriors((m,), m), by_value)


indep_query = nb_query
indep_all_query_levels = nb_all_query_levels
indep_all_query_scored = nb_all_query_scored
indep_all_query = nb_all_query
