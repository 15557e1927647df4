"""Two-pass subcube heavy hitters under near-independence.

The near-independence algorithm is the class-conditional algorithm of
naivebayes.py with a single class, and naivebayes.py builds it: its passes
ignore any class column the dataset has and build the factorized model with
one class holding every item: priors (m,), and for a candidate with count c
the counts [c] and the conditional (c/m,). The score
sum_z prior(z) * prod_i cond_i(v_i|z) is then exactly 1.0 * prod_i f_i(v_i),
the product of the exact per-coordinate marginals, and AllQuery prunes every
prefix whose partial product already falls below the threshold (default
lam = gamma/2). This module re-exports the one-class names.
"""

from __future__ import annotations

from .naivebayes import CandidateSets, indep_pass1, indep_pass2
from .naivebayes import nb_all_query as indep_all_query
from .naivebayes import nb_all_query_levels as indep_all_query_levels
from .naivebayes import nb_all_query_scored as indep_all_query_scored
from .naivebayes import nb_query as indep_query
