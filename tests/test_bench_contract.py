"""The names and shapes perfbench/child.py relies on.

The benchmark times the package by replacing module attributes with timing
wrappers, and reads its per-layer counts off the models those calls return.
A rename, a changed return shape, or a function bound before the wrapper is
installed (the wrapper would then see no call) breaks it; these tests catch
that first.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import subcubehh
from subcubehh import cli, harness, heuristic, independence, naivebayes, stream_io
from subcubehh.core import HHParams, Subcube
from subcubehh.datagen import make_random_nb, sample_to_csv

GAMMA = 0.05
LAM = GAMMA / 2

# The attributes child.py replaces with timing wrappers, by owner.
WRAPPED = {
    cli: ["main", "run_experiment"],
    harness: [
        "open_config_dataset", "exact_table", "compute_detection_metrics",
        "build_sample", "indep_pass1", "indep_pass2", "nb_pass1", "nb_pass2",
        "heuristic_build", "sample_all_query_scored", "indep_all_query_scored",
        "nb_all_query_scored", "heuristic_all_query_scored",
    ],
    subcubehh: [
        "open_dataset", "build_sample", "indep_pass1", "indep_pass2", "nb_pass1",
        "nb_pass2", "heuristic_build", "sample_all_query", "indep_all_query",
        "nb_all_query", "heuristic_all_query",
    ],
    stream_io.DatasetHandle: ["replay"],
}


@pytest.fixture(scope="module")
def class_csv(tmp_path_factory):
    """3,000 rows: the class in column 1, then three features."""
    path = tmp_path_factory.mktemp("contract") / "data.csv"
    gen = make_random_nb(d=3, cardinalities=[8, 8, 8], ell=2, skew=1.2, seed=5)
    sample_to_csv(gen, 3000, seed=6, path=path)
    return path


def config(path, **kw) -> harness.ExperimentConfig:
    fields = dict(
        dataset=path, algos=["indep2p"], subcubes=[Subcube((0, 1))], gamma=GAMMA,
        seeds=[0], class_col=0,
    )
    return harness.ExperimentConfig(**{**fields, **kw})


@pytest.mark.parametrize("owner", list(WRAPPED), ids=lambda o: getattr(o, "__name__", o))
def test_wrapped_names_exist(owner):
    for name in WRAPPED[owner]:
        assert callable(getattr(owner, name)), name


def test_open_config_dataset_returns_frozen_handle_and_params(class_csv):
    # child.py keeps r[0] of the result as the frozen handle.
    h, p = harness.open_config_dataset(config(class_csv))
    assert isinstance(h, stream_io.DatasetHandle)
    assert (h.m, h.d) == (3000, 3)
    assert p == HHParams(GAMMA)


def test_model_shapes(class_csv):
    h, _p = harness.open_config_dataset(config(class_csv))
    p = HHParams(GAMMA)
    t = Subcube((0, 1))

    cands = subcubehh.indep_pass1(h, p, 50)
    assert len(cands.sets) == h.d
    model = subcubehh.indep_pass2(h, cands, p)
    levels = independence.indep_all_query_levels(model, t, LAM)
    assert len(levels) == t.k and all(isinstance(lv.entries, list) for lv in levels)

    result = subcubehh.nb_pass1(h, p, 50)
    assert isinstance(result, tuple) and len(result) == 2
    priors, cands = result
    assert len(cands.sets) == h.d
    model = subcubehh.nb_pass2(h, priors, cands, p)
    levels = naivebayes.nb_all_query_levels(model, t, LAM)
    assert len(levels) == t.k and all(isinstance(lv.entries, list) for lv in levels)
    assert all(isinstance(model.heavy_entries(c, LAM), list) for c in t.coords)

    model = subcubehh.heuristic_build(h, 600, p, 0, heuristic.DEFAULT_DEPTH)
    for c in t.coords:
        tracked = list(model.mg[c].tracked())
        kept = model.candidate_entries(c, LAM)
        assert {x for x, _f in kept} <= set(tracked)

    assert subcubehh.build_sample(h, 100, 0, p).m_prime == 100


def count_calls(monkeypatch, owner, names) -> Counter:
    """Wrap owner.<name> for each name, as child.py does. The Counter holds
    the calls per name, and under ("args", name, n) those made with n
    positional arguments."""
    calls = Counter()
    for name in names:
        def wrapper(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            calls["args", _name, len(args)] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_eval_calls_through_module_globals(class_csv, tmp_path, monkeypatch):
    entry = count_calls(monkeypatch, cli, ["run_experiment"])
    calls = count_calls(monkeypatch, harness, WRAPPED[harness])
    code = cli.main(
        [
            "eval", "--data", str(class_csv), "--class-col", "1", "--algo", "sampling",
            "--algo", "indep2p", "--algo", "nb2p", "--algo", "cms-heuristic",
            "--gamma", str(GAMMA), "--memory-frac", "0.2", "--seeds", "0,1",
            "--subcube", "1,2", "--subcube", "2,3", "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 0
    assert entry["run_experiment"] == calls["open_config_dataset"] == 1
    assert calls["exact_table"] == 2  # one per subcube
    for build in ("build_sample", "heuristic_build"):
        assert calls[build] == 2, build  # one per seed
    for build in ("indep_pass1", "indep_pass2", "nb_pass1", "nb_pass2"):
        assert calls[build] == 1, build  # seed-free: one build per eval
    for prefix in ("sample", "indep", "nb", "heuristic"):
        scorer = f"{prefix}_all_query_scored"
        # child.py reads (model, subcube, threshold) off the positional
        # arguments, and its oracle check expects one call per seed and subcube.
        assert calls[scorer] == calls["args", scorer, 3] == 4, scorer  # seeds x subcubes
    assert calls["compute_detection_metrics"] > 0


def test_freq_task_builds_through_harness(class_csv, monkeypatch):
    calls = count_calls(monkeypatch, harness, ["build_sample", "heuristic_build"])
    cfg = config(
        class_csv, algos=["sampling", "cms-heuristic"], seeds=[0, 1], memory_fracs=[0.1, 0.2]
    )
    report = harness.run_freq_experiment(cfg)
    assert (calls["build_sample"], calls["heuristic_build"]) == (4, 4)  # fracs x seeds
    assert len(report.freq_rows) == 8


def test_replay_calls_per_builder(class_csv, monkeypatch):
    # stream-1m counts its replays (5) and times the first as ingest. The
    # first build that needs exact marginals counts every column in one
    # replay of the handle's; pass 1 and the heuristic rebuild a summary
    # that cannot decrement from those counts and replay only to feed the
    # others, and pass 2 takes its totals from them. Budget 50 and the
    # heuristic's 320 counters hold all 8 values of each coordinate, budget
    # 5 does not.
    p = HHParams(GAMMA)
    calls = count_calls(monkeypatch, stream_io.DatasetHandle, ["replay"])

    def replays(h, steps):
        counts = {}
        for name, build in steps:
            calls.clear()
            build(h)
            counts[name] = calls["replay"]
        return counts

    # stream-1m's order; each pass-2 entry runs its pass 1 again first.
    # There the heuristic still replays, to feed
    # coordinates 0 and 1, whose cardinalities exceed its 8,000 counters.
    stream_1m = [
        ("build_sample", lambda h: subcubehh.build_sample(h, 100, 0, p)),
        ("indep_pass1", lambda h: subcubehh.indep_pass1(h, p, 50)),
        ("indep_pass2", lambda h: subcubehh.indep_pass2(h, subcubehh.indep_pass1(h, p, 50), p)),
        ("nb_pass1", lambda h: subcubehh.nb_pass1(h, p, 50)),
        ("nb_pass2", lambda h: subcubehh.nb_pass2(h, *subcubehh.nb_pass1(h, p, 50), p)),
        ("heuristic_build", lambda h: subcubehh.heuristic_build(h, 600, p, 0)),
        ("exact_table", lambda h: subcubehh.exact_table(h, Subcube((0, 1)))),
    ]
    h, _p = harness.open_config_dataset(config(class_csv))
    assert replays(h, stream_1m) == {
        "build_sample": 1, "indep_pass1": 1, "indep_pass2": 0, "nb_pass1": 0,
        "nb_pass2": 1, "heuristic_build": 0, "exact_table": 1,
    }
    # The first build counts, then feeds the summaries over budget.
    decrementing = [
        ("indep_pass1", lambda h: subcubehh.indep_pass1(h, p, 5)),
        ("indep_pass2", lambda h: subcubehh.indep_pass2(h, subcubehh.indep_pass1(h, p, 5), p)),
        ("nb_pass1", lambda h: subcubehh.nb_pass1(h, p, 5)),
        ("heuristic_build", lambda h: subcubehh.heuristic_build(h, 600, p, 0)),
        ("nb_pass1 exact", lambda h: subcubehh.nb_pass1(h, p, 50)),
    ]
    h, _p = harness.open_config_dataset(config(class_csv))
    assert replays(h, decrementing) == {
        "indep_pass1": 2, "indep_pass2": 1, "nb_pass1": 1, "heuristic_build": 0,
        "nb_pass1 exact": 0,
    }


@pytest.mark.parametrize("cache_items", [False, True])
def test_replay_takes_two_argument_noop(class_csv, cache_items):
    h = subcubehh.open_dataset(class_csv, class_col=0, cache_items=cache_items)
    assert h.replay(lambda _item, _cls: None) == 3000  # freezes
    assert h.replay(lambda _item, _cls: None) == 3000


def run_stream_path(class_csv, check: str) -> None:
    """Build every answerer on an uncached handle, one pass each, in a fresh
    interpreter, then run `check` there."""
    code = (
        "import sys, subcubehh\n"
        "from subcubehh import heuristic, naivebayes, sampling, sketches, stream_io\n"
        f"h = subcubehh.open_dataset({str(class_csv)!r}, class_col=0)\n"
        "h.replay(lambda _i, _c: None)\n"
        "p = subcubehh.HHParams(0.05)\n"
        "subcubehh.build_sample(h, 100, 0, p)\n"
        "subcubehh.indep_pass2(h, subcubehh.indep_pass1(h, p), p)\n"
        "subcubehh.nb_pass2(h, *subcubehh.nb_pass1(h, p), p)\n"
        "subcubehh.heuristic_build(h, 600, p)\n"
        f"{check}\n"
    )
    src = str(Path(subcubehh.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_stream_path_never_imports_numpy(class_csv):
    # stream-1m's peak RSS bound leaves no room for numpy (~12.5 MB).
    run_stream_path(class_csv, "assert 'numpy' not in sys.modules, 'numpy imported'")


def test_answer_commands_never_import_numpy(class_csv, tmp_path):
    # Only `gen` imports numpy (through datagen); `eval`, `run` and `oracle`
    # answer and score without it, the default sweep included.
    data, out = str(class_csv), str(tmp_path)
    runs = [
        ["eval", "--data", data, "--class-col", "1", "--algo", "sampling", "--algo", "indep2p",
         "--algo", "nb2p", "--algo", "cms-heuristic", "--gamma", "0.05", "--memory-frac",
         "0.05", "--seeds", "0", "--subcube", "1,2", "--out", out + "/report"],
        ["run", "--data", data, "--class-col", "1", "--algo", "nb2p", "--gamma", "0.05",
         "--subcube", "1,2", "--out", out + "/run.json"],
        ["oracle", "--data", data, "--class-col", "1", "--subcube", "1,2",
         "--out", out + "/oracle.json"],
    ]
    code = (
        "import sys\n"
        "from subcubehh.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    )
    src = str(Path(subcubehh.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "oracle.json", "report.csv", "report.json", "run.json"
    ]


def test_stream_path_never_imports_openssl(class_csv):
    # Importing hashlib loads OpenSSL (_hashlib), which raised VmHWM from
    # 15.8 to 19.4 MB.
    run_stream_path(class_csv, "assert '_hashlib' not in sys.modules, '_hashlib imported'")
