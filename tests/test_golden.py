"""Golden answers: the detection and frequency reports of fixed experiments,
the oracle's JSON and the alpha diagnostics, byte for byte.

Refactors of the answerers and of the oracle must not change what they report. The input is
written from `random.Random` and the threshold sweep is given explicitly, so
the digest depends on neither the numpy version nor the generator module.
"""

import hashlib
import random

from subcubehh import cli
from subcubehh.core import Subcube
from subcubehh.harness import ExperimentConfig, run_experiment, run_freq_experiment
from subcubehh.oracle import empirical_alpha_independence, empirical_alpha_nb
from subcubehh.stream_io import open_dataset

GOLDEN_CSV_SHA256 = "ad51fe029cc75af4bca3b1f4acce757828b813d1f88e57cb055e957afebebf8a"
GOLDEN_FREQ_CSV_SHA256 = "ffcb5fc9ef84c5474117f2a5bdc4044111bcec1fe8c1aacbdff5417d02a0f57c"
GOLDEN_ORACLE_JSON_SHA256 = "3f83cda80234979cf422843a46098da6d8bbf8460e1829a7c95b635d2bde8d21"
GOLDEN_ALPHA_REPR = {(0, 1): "0.09063200000000002", (1, 2, 3): "0.09302190800000001"}
GOLDEN_ALPHA_NB_REPR = {(0, 1): "0.003641734369514704", (1, 2, 3): "0.00397119884789985"}


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


def test_freq_report_digest(tmp_path):
    path = tmp_path / "golden.csv"
    _write_skewed_csv(path)
    cfg = ExperimentConfig(
        dataset=path,
        algos=["sampling", "cms-heuristic"],
        subcubes=[Subcube((0, 1)), Subcube((1, 2, 3)), Subcube((4, 2, 0))],
        gamma=0.02,
        seeds=[0, 1],
        memory_fracs=[0.005, 0.01, 0.05],
        top_k=5,
        class_col=0,
    )
    report = run_freq_experiment(cfg)
    assert len(report.freq_rows) == 36 and all(r.mae > 0 for r in report.freq_rows)
    digest = hashlib.sha256(report.freq_csv().encode()).hexdigest()
    assert digest == GOLDEN_FREQ_CSV_SHA256


def test_oracle_json_digest(tmp_path):
    path = tmp_path / "golden.csv"
    _write_skewed_csv(path)
    out = tmp_path / "oracle.json"
    argv = ["oracle", "--data", str(path), "--class-col", "1", "--subcube", "1,2",
            "--subcube", "5-3-1", "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ORACLE_JSON_SHA256


def test_alpha_independence_repr(tmp_path):
    path = tmp_path / "golden.csv"
    _write_skewed_csv(path)
    h = open_dataset(path, class_col=0)
    for coords, expected in GOLDEN_ALPHA_REPR.items():
        assert repr(empirical_alpha_independence(h, Subcube(coords))) == expected


def test_alpha_nb_repr(tmp_path):
    path = tmp_path / "golden.csv"
    _write_skewed_csv(path)
    h = open_dataset(path, class_col=0)
    for coords, expected in GOLDEN_ALPHA_NB_REPR.items():
        assert repr(empirical_alpha_nb(h, Subcube(coords))) == expected
