import dataclasses
import weakref

import pytest

from subcubehh import harness
from subcubehh.core import HHParams, Subcube
from subcubehh.datagen import make_random_nb, sample_to_csv
from subcubehh.errors import ConfigError
from subcubehh.harness import (
    ALGORITHMS,
    ExperimentConfig,
    build_model,
    default_gamma_star_sweep,
    run_experiment,
    run_freq_experiment,
    slot_budget,
)
from subcubehh.metrics import compute_detection_metrics, compute_error_metrics, roc_auc
from subcubehh.oracle import GroundTruth, exact_table
from subcubehh.sampling import required_sample_size
from subcubehh.stream_io import open_dataset


def truth_of(counts, m, coords=(0,)):
    return GroundTruth(Subcube(tuple(coords)), m, counts)


class TestDetectionMetrics:
    def test_perfect_report(self):
        gt = truth_of({(0,): 30, (1,): 20, (2,): 1}, 100)
        tp, fp = compute_detection_metrics({(0,), (1,)}, gt.heavy_set(0.2))
        assert (tp, fp) == (2, 0)

    def test_empty_report(self):
        gt = truth_of({(0,): 30}, 100)
        assert compute_detection_metrics(set(), gt.heavy_set(0.2)) == (0, 0)

    def test_mixed_report(self):
        gt = truth_of({(0,): 30, (1,): 30, (2,): 1}, 100)
        tp, fp = compute_detection_metrics({(0,), (2,)}, gt.heavy_set(0.2))
        assert (tp, fp) == (1, 1)


class TestErrorMetrics:
    def test_exact_estimates(self):
        gt = truth_of({(0,): 50, (1,): 30}, 100)
        est = {(0,): 0.5, (1,): 0.3}
        assert compute_error_metrics(est, gt, gt.top_values(10)) == (0.0, 0.0, 0.0)

    def test_single_value_arithmetic(self):
        gt = truth_of({(0,): 50}, 100)
        mse, mae, mape = compute_error_metrics({(0,): 0.4}, gt, gt.top_values(10))
        assert mse == pytest.approx(0.01)
        assert mae == pytest.approx(0.1)
        assert mape == pytest.approx(0.2)

    def test_missing_estimate_counts_as_zero(self):
        gt = truth_of({(0,): 50}, 100)
        mse, mae, mape = compute_error_metrics({}, gt, gt.top_values(10))
        assert mae == pytest.approx(0.5)
        assert mape == pytest.approx(1.0)

    def test_top_k_selection(self):
        counts = {(i,): 100 - i for i in range(20)}
        gt = truth_of(counts, sum(counts.values()))
        est = {v: gt.freq(v) for v in gt.top_values(10)}
        assert compute_error_metrics(est, gt, gt.top_values(10)) == (0.0, 0.0, 0.0)

    def test_empty_truth_rejected(self):
        gt = truth_of({}, 10)
        with pytest.raises(ConfigError):
            compute_error_metrics({}, gt, gt.top_values(10))


class TestRocAuc:
    def test_simple_area(self):
        points = [(0.0, 5.0), (10.0, 10.0)]
        assert roc_auc(points, fp_max=10.0) == pytest.approx(0.5 * (5 + 10) * 10 / 1)

    def test_degenerate_no_fp(self):
        assert roc_auc([(0.0, 3.0), (0.0, 7.0)], fp_max=0.0) == 7.0

    def test_horizontal_extension(self):
        # one point at (2, 4), extended flat to fp_max 10
        area = roc_auc([(2.0, 4.0)], fp_max=10.0)
        assert area == pytest.approx(0.5 * 4 * 2 + 4 * 8)

    def test_segment_cut_at_fp_max(self):
        # (2, 4) -> (10, 8) is cut at fp 6, where the line reaches tp 6.
        area = roc_auc([(2.0, 4.0), (10.0, 8.0)], fp_max=6.0)
        assert area == pytest.approx(0.5 * 4 * 2 + 0.5 * (4 + 6) * 4)


class TestSweep:
    def test_default_sweep_shape(self):
        sweep = default_gamma_star_sweep(0.2)
        assert len(sweep) == 12
        assert sweep[0] == pytest.approx(0.05)
        assert sweep[-1] == pytest.approx(0.4)
        assert all(a < b for a, b in zip(sweep, sweep[1:]))

    # numpy.geomspace(gamma / 4, 2 * gamma, 12) with numpy's AVX-512 kernels
    # switched off (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"),
    # which then reads libm's log10 and pow. With them on, an AVX-512 host
    # moves one point of each by one ulp: the sweep must not depend on the CPU.
    @pytest.mark.parametrize("gamma, expected", [
        (0.002, [0.0005, 0.0006040447222022236, 0.0007297400528407231, 0.0008815912549960212,
                 0.0010650410894399627, 0.0012866648980094319, 0.0015544062817709195,
                 0.001877861821323413, 0.0022686250443909256, 0.002740701969440248,
                 0.0033110131195392438, 0.004]),
        (0.05, [0.0125, 0.015101118055055594, 0.018243501321018082, 0.022039781374900536,
                0.026626027235999074, 0.032166622450235806, 0.038860157044272974,
                0.04694654553308531, 0.056715626109773126, 0.06851754923600618,
                0.08277532798848107, 0.1]),
    ])
    def test_default_sweep_values(self, gamma, expected):
        sweep = default_gamma_star_sweep(gamma)
        assert sweep == expected
        assert sweep[0] == gamma / 4 and sweep[-1] == 2 * gamma


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    gen = make_random_nb(d=3, cardinalities=[8, 8, 8], ell=2, skew=1.2, seed=21)
    sample_to_csv(gen, 4000, seed=2, path=path)
    return path


def toy_config(path, **kw):
    defaults = dict(
        dataset=path,
        algos=["sampling", "indep2p", "cms-heuristic"],
        subcubes=[Subcube((0, 1)), Subcube((1, 2))],
        gamma=0.05,
        seeds=[1, 2],
        memory_frac=0.05,
        class_col=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_report_shape_and_counts(self, small_dataset):
        cfg = toy_config(small_dataset)
        report = run_experiment(cfg)
        expected_rows = len(cfg.algos) * len(cfg.seeds) * len(cfg.gamma_stars) * 2
        assert len(report.rows) == expected_rows
        for row in report.rows:
            assert row.tp + row.fp == row.reported
        assert set(report.auc) == set(cfg.algos)

    def test_roc_monotone_in_threshold(self, small_dataset):
        report = run_experiment(toy_config(small_dataset))
        for algo in ("sampling", "cms-heuristic"):
            pts = report.roc[algo]  # ordered by gamma_star descending
            tps = [pt["tp_mean"] for pt in pts]
            fps = [pt["fp_mean"] for pt in pts]
            assert tps == sorted(tps)  # lowering the threshold only adds answers
            assert fps == sorted(fps)

    def test_determinism(self, small_dataset):
        a = run_experiment(toy_config(small_dataset))
        b = run_experiment(toy_config(small_dataset))
        assert a.to_json_dict() == b.to_json_dict()
        assert a.to_csv() == b.to_csv()

    def test_nb_requires_class_col(self, small_dataset):
        cfg = toy_config(small_dataset, algos=["nb2p"], class_col=None)
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_nb_runs_with_class_col(self, small_dataset):
        report = run_experiment(toy_config(small_dataset, algos=["nb2p", "sampling"]))
        assert "nb2p" in report.auc

    def test_unknown_algo_rejected(self, small_dataset):
        with pytest.raises(ConfigError):
            toy_config(small_dataset, algos=["quantum"])

    @pytest.mark.parametrize(
        "bad", [{"gamma_stars": [0.01, 0.0]}, {"gamma_stars": [-0.1]}, {"top_k": 0}]
    )
    def test_threshold_and_top_k_rejected(self, small_dataset, bad):
        with pytest.raises(ConfigError):
            toy_config(small_dataset, **bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"subcubes": []},
            {"seeds": []},
            # A repeat would count its entry twice; subcubes repeat when they
            # share a coordinate set, in any order.
            {"subcubes": [Subcube((0, 1)), Subcube((1, 0))]},
            {"subcubes": [Subcube((2,)), Subcube((0, 1)), Subcube((2,))]},
            {"seeds": [0, 0]},
            {"algos": ["indep2p", "sampling", "indep2p"]},
        ],
    )
    def test_empty_subcubes_or_seeds_rejected(self, small_dataset, bad):
        with pytest.raises(ConfigError):
            toy_config(small_dataset, **bad)

    def test_repeated_threshold_rejected(self, small_dataset):
        # Each threshold owns one ROC point; a repeated one would add its
        # answers into that point twice.
        with pytest.raises(ConfigError, match="repeat"):
            toy_config(small_dataset, gamma_stars=[0.02, 0.05, 0.05])
        report = run_experiment(toy_config(small_dataset, gamma_stars=[0.02, 0.05]))
        for algo, pts in report.roc.items():
            for pt in pts:
                gs = pt["gamma_star"]
                rows = [r for r in report.rows if r.algo == algo and r.gamma_star == gs]
                assert pt["tp_mean"] == sum(r.tp for r in rows) / 2  # two seeds
                assert pt["fp_mean"] == sum(r.fp for r in rows) / 2

    def test_thresholds_above_one_accepted(self, small_dataset):
        # The default sweep reaches 2 * gamma.
        assert toy_config(small_dataset, gamma=1.0).gamma_stars[-1] == pytest.approx(2.0)

    def test_subcube_out_of_range_rejected(self, small_dataset):
        cfg = toy_config(small_dataset, subcubes=[Subcube((0, 9))])
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestMemoryAccounting:
    @staticmethod
    def allocated_slots(algo, model, d):
        """The value-code slots a built model holds, read off the model."""
        if algo == "sampling":
            return d * model.m_prime
        if algo == "cms-heuristic":
            return d * model.cms[0].width * model.cms[0].depth
        return d * max(len(t) for t in model.tables)  # both two-pass models

    def test_models_fit_budget(self, small_dataset):
        # Every size rule floors the slot budget, so no model holds more than
        # it. The tight budget is d*4 + d - 1 slots: it leaves a remainder
        # under both the per-coordinate and the Count-Min floor division.
        h = open_dataset(small_dataset, class_col=0)
        h.replay(lambda _i, _c: None)
        p = HHParams(0.05)
        tight = (h.d * 4 + h.d - 1 + 0.5) / (h.m * h.d)
        assert slot_budget(tight, h.m, h.d) == h.d * 4 + h.d - 1
        for frac in (0.05, 0.01, tight):
            cfg = toy_config(small_dataset, algos=list(ALGORITHMS), memory_frac=frac)
            budget = slot_budget(frac, h.m, h.d)
            for algo in ALGORITHMS:
                model, _ = build_model(algo, h, p, seed=1, cfg=cfg)
                assert self.allocated_slots(algo, model, h.d) <= budget

    def test_unknown_algo_rejected_by_build_and_charge(self, small_dataset):
        h = open_dataset(small_dataset, class_col=0)
        h.replay(lambda _i, _c: None)
        with pytest.raises(ConfigError, match="unknown algorithm"):
            build_model("quantum", h, HHParams(0.05), seed=0, cfg=toy_config(small_dataset))

    def test_sampling_default_capacity(self, small_dataset, tmp_path):
        # Neither a budget nor a size: the guaranteed size for subcubes of
        # up to 3 dimensions at the largest cardinality, or of the largest
        # queried subcube's k when that is more.
        h = open_dataset(small_dataset, class_col=0)
        h.replay(lambda _i, _c: None)
        p = HHParams(0.05)
        cfg = toy_config(small_dataset, algos=["sampling"], memory_frac=None)
        model, _ = build_model("sampling", h, p, seed=0, cfg=cfg)
        assert model.capacity == required_sample_size(p, h.d, min(3, h.d), max(h.cardinalities))
        assert model.capacity > 0
        wide = tmp_path / "wide.csv"
        gen = make_random_nb(d=5, cardinalities=[6] * 5, ell=2, skew=1.2, seed=21)
        sample_to_csv(gen, 500, seed=2, path=wide)
        h = open_dataset(wide, class_col=0)
        h.replay(lambda _i, _c: None)
        n_max = max(h.cardinalities)
        for coords, k in (((1, 2), 3), ((1, 2, 3), 3), ((0, 1, 2, 3), 4), ((0, 1, 2, 3, 4), 5)):
            subcubes = [Subcube((0, 1)), Subcube(coords)]
            cfg = toy_config(wide, algos=["sampling"], memory_frac=None, subcubes=subcubes)
            model, _ = build_model("sampling", h, p, seed=0, cfg=cfg)
            assert model.capacity == required_sample_size(p, 5, k, n_max)
        assert required_sample_size(p, 5, 5, n_max) > required_sample_size(p, 5, 3, n_max)

    def test_sampling_capacity_from_budget(self, small_dataset):
        h = open_dataset(small_dataset, class_col=0)
        h.replay(lambda _i, _c: None)
        cfg = toy_config(small_dataset, algos=["sampling"])
        model, _ = build_model("sampling", h, HHParams(0.05), seed=0, cfg=cfg)
        assert model.capacity == slot_budget(cfg.memory_frac, h.m, h.d) // h.d


class TestBuiltModelsFrozen:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_fields_cannot_be_assigned(self, small_dataset, algo):
        h = open_dataset(small_dataset, class_col=0)
        h.replay(lambda _i, _c: None)
        model, _ = build_model(algo, h, HHParams(0.05), seed=1, cfg=toy_config(small_dataset))
        for f in dataclasses.fields(model):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, f.name, None)


class TestWideShallowShape:
    def test_sliding_window_subcubes_under_tight_memory(self, tmp_path):
        # The wide-and-shallow protocol shape: ten coordinates, eight
        # 3-dim sliding-window subcubes, gamma 0.1, memory 0.2%.
        path = tmp_path / "wide.csv"
        gen = make_random_nb(d=10, cardinalities=[10] * 10, ell=2, skew=1.0, seed=3)
        sample_to_csv(gen, 20_000, seed=4, path=path)
        subcubes = [Subcube((i, i + 1, i + 2)) for i in range(8)]
        cfg = ExperimentConfig(
            dataset=path,
            algos=["sampling", "indep2p"],
            subcubes=subcubes,
            gamma=0.1,
            seeds=[0, 1],
            memory_frac=0.002,
            class_col=0,
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 2 * 2 * 12 * 8
        assert set(report.auc) == {"sampling", "indep2p"}


class TestFreqExperiment:
    def test_rows_and_metrics(self, small_dataset):
        cfg = toy_config(
            small_dataset,
            algos=["sampling", "cms-heuristic"],
            memory_frac=None,
            memory_fracs=[0.01, 0.05],
        )
        report = run_freq_experiment(cfg)
        assert len(report.freq_rows) == 2 * 2 * 2 * 2  # algo x frac x seed x subcube
        for row in report.freq_rows:
            assert row.mse >= 0 and row.mae >= 0 and row.mape >= 0
        text = report.freq_csv()
        assert text.splitlines()[0] == "algo,subcube,memory_frac,seed,mse,mae,mape"

    def test_top_values_once_per_subcube(self, small_dataset, monkeypatch):
        calls = []
        top_values = GroundTruth.top_values
        monkeypatch.setattr(
            GroundTruth, "top_values", lambda gt, k: calls.append(gt.subcube) or top_values(gt, k)
        )
        cfg = toy_config(
            small_dataset, algos=["sampling", "cms-heuristic"], memory_frac=None,
            memory_fracs=[0.01, 0.05],
        )
        assert len(run_freq_experiment(cfg).freq_rows) == 16
        assert sorted(calls, key=lambda t: t.coords) == cfg.subcubes


class TestTableLifetime:
    """A run holds at most one full exact table at a time, and none while
    it builds models."""

    @pytest.mark.parametrize("runner", [run_experiment, run_freq_experiment])
    def test_one_table_at_a_time(self, small_dataset, monkeypatch, runner):
        refs = []
        at_table = []  # tables alive as each one is requested
        at_build = []  # tables alive as each model build starts

        def alive():
            return sum(ref() is not None for ref in refs)

        def table(h, t, heavy_at=None):
            at_table.append(alive())
            truth = exact_table(h, t, heavy_at)
            refs.append(weakref.ref(truth))
            return truth

        def build(*args, **kwargs):
            at_build.append(alive())
            return build_model(*args, **kwargs)

        monkeypatch.setattr(harness, "exact_table", table)
        monkeypatch.setattr(harness, "build_model", build)
        frac = None if runner is run_freq_experiment else 0.05  # freq builds at memory_fracs
        runner(toy_config(small_dataset, algos=["sampling", "cms-heuristic"], memory_frac=frac))
        assert at_table == [0, 0]  # two subcubes: the first is dead at the second
        assert at_build and set(at_build) == {0}
