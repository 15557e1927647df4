"""Golden answers: the detection report of a fixed experiment, byte for byte.

Refactors of the answerers must not change what they report. The input is
written from `random.Random` and the threshold sweep is given explicitly, so
the digest depends on neither the numpy version nor the generator module.
"""

import hashlib
import random

from subcubehh.core import Subcube
from subcubehh.harness import ExperimentConfig, run_experiment

GOLDEN_CSV_SHA256 = "ad51fe029cc75af4bca3b1f4acce757828b813d1f88e57cb055e957afebebf8a"


def _write_skewed_csv(path, m=3000, d=5, ell=3, seed=2024):
    """Class in column 0, then d features whose Zipf-like weights depend on
    the class: skewed enough that every answerer reports heavy values."""
    rng = random.Random(seed)
    cards = [rng.randint(5, 9) for _ in range(d)]
    weights = [
        [[1.0 / (1 + (x + 2 * z) % n) ** 2.0 for x in range(n)] for n in cards]
        for z in range(ell)
    ]
    class_weights = [0.5, 0.3, 0.2][:ell]
    lines = []
    for _ in range(m):
        z = rng.choices(range(ell), class_weights)[0]
        feats = [rng.choices(range(n), weights[z][i])[0] for i, n in enumerate(cards)]
        lines.append(",".join(str(v) for v in [z, *feats]))
    path.write_text("\n".join(lines) + "\n")


def test_detection_report_digest(tmp_path):
    path = tmp_path / "golden.csv"
    _write_skewed_csv(path)
    cfg = ExperimentConfig(
        dataset=path,
        algos=["sampling", "indep2p", "nb2p", "cms-heuristic"],
        subcubes=[Subcube((0, 1)), Subcube((1, 2, 3)), Subcube((4, 2, 0))],
        gamma=0.02,
        seeds=[0, 1],
        gamma_stars=[0.005, 0.0075, 0.01, 0.015, 0.02, 0.03, 0.04],
        memory_frac=0.01,
        class_col=0,
    )
    report = run_experiment(cfg)
    assert all(r.reported for r in report.rows if r.gamma_star == 0.01)
    digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256
