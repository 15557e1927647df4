"""Workload definitions and metric names shared by the runner and the child.

Every workload runs the paper-synthetic profile (model seed 7) at gamma
0.002 and memory-frac 0.02 on subcubes 1-2-3, 2-3-4 and 3-4-5. The data
seed comes from the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GAMMA = 0.002
LAM = GAMMA / 2.0
MEMORY_FRAC = 0.02
MODEL_SEED = 7
SUBCUBES = ("1-2-3", "2-3-4", "3-4-5")
# The level-size bound of acceptance criterion 7.
LEVEL_BOUND = math.ceil(5.0 / (4.0 * LAM))
ALGORITHMS = ("sampling", "indep2p", "nb2p", "cms-heuristic")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "eval" runs `subcubehh eval --task detect`; "stream" the library path
    rows: int
    fix_class: bool  # generate features only, conditioned on the top class
    class_col: int | None  # 1-based class column of the generated file
    algos: tuple[str, ...]
    guaranteed: str  # the answerer whose promise gap holds on this data
    eval_seeds: int = 0  # model seeds per `eval` call


WORKLOADS = {
    w.name: w
    for w in (
        Workload("detect-fixz", "eval", 135_000, True, None,
                 ("sampling", "indep2p", "cms-heuristic"), "indep2p", eval_seeds=2),
        Workload("detect-class", "eval", 168_000, False, 1,
                 ("sampling", "nb2p"), "nb2p", eval_seeds=2),
        Workload("stream-1m", "stream", 1_000_000, False, 1, ALGORITHMS, "nb2p"),
    )
}
