"""Subcube heavy-hitter queries over multidimensional categorical streams.

Given a stream of d-dimensional categorical items, a subcube is a set of k
distinct coordinates; a joint value v of a subcube T is a heavy hitter when
the fraction of items whose T-projection equals v reaches the threshold
gamma. This package answers Query(T, v) and AllQuery(T) with:

- a one-pass reservoir-sampling baseline with a distribution-free guarantee,
- two-pass algorithms that factorize the joint frequency across coordinates
  (optionally conditioned on an observed class coordinate) and thereby get
  by with per-coordinate summaries; both share one factorized model, the
  near-independence one being its single-class case,
- a guarantee-free one-pass Count-Min heuristic,
- an exact brute-force oracle, a synthetic data generator, and an
  experiment harness with a CLI.
"""

from .core import HHParams, Item, JointValue, Subcube, Verdict, make_subcube
from .errors import (
    BudgetTooSmallError,
    CapExceededError,
    ConfigError,
    DuplicateIndexError,
    EmptyFileError,
    EmptySubcubeError,
    IndexOutOfRangeError,
    NoClassColumnError,
    RaggedRowError,
    SubcubeHHError,
    SupportTooLargeError,
)
from .heuristic import HeuristicModel, heuristic_all_query, heuristic_build, heuristic_query
from .independence import (
    CandidateSets,
    indep_all_query,
    indep_pass1,
    indep_pass2,
    indep_query,
)
from .naivebayes import (
    ClassPriors,
    FactorizedModel,
    nb_all_query,
    nb_pass1,
    nb_pass2,
    nb_query,
    nb_score,
)
from .oracle import (
    GroundTruth,
    TruthLabel,
    empirical_alpha_independence,
    empirical_alpha_nb,
    exact_table,
    truth_label,
)
from .sampling import (
    SampleModel,
    build_sample,
    required_sample_size,
    sample_all_query,
    sample_query,
)
from .sketches import CountMin, MisraGries, Reservoir
from .stream_io import DatasetHandle, from_items, from_rows, open_dataset

__version__ = "0.1.0"

__all__ = [
    "HHParams", "Item", "JointValue", "Subcube", "Verdict", "make_subcube",
    "SubcubeHHError", "ConfigError", "EmptySubcubeError", "DuplicateIndexError",
    "IndexOutOfRangeError", "RaggedRowError", "EmptyFileError",
    "SupportTooLargeError", "NoClassColumnError", "BudgetTooSmallError", "CapExceededError",
    "CountMin", "MisraGries", "Reservoir",
    "DatasetHandle", "open_dataset", "from_rows", "from_items",
    "GroundTruth", "TruthLabel", "exact_table", "truth_label",
    "empirical_alpha_independence", "empirical_alpha_nb",
    "SampleModel", "required_sample_size", "build_sample", "sample_query", "sample_all_query",
    "CandidateSets", "indep_pass1", "indep_pass2", "indep_query",
    "indep_all_query",
    "ClassPriors", "FactorizedModel", "nb_pass1", "nb_pass2", "nb_score",
    "nb_query", "nb_all_query",
    "HeuristicModel", "heuristic_build", "heuristic_query", "heuristic_all_query",
    "__version__",
]
