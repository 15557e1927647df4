"""Experiment orchestration: build models under a memory budget, sweep the
decision threshold, and score every reported set against the exact oracle.

Memory is accounted in value-code slots relative to the dataset size m*d,
and each answerer's size rule is its accounting: the sampling model keeps
budget // d items of d slots each; the heuristic's Count-Min tables take
width = budget // (d * depth) columns per coordinate; the two-pass models
keep budget // d Misra-Gries counters per coordinate, which also bound the
second-pass exact counters. _model_size applies the rule before every
build, and nothing is charged after it.

A run holds at most one exact table at a time: each subcube's table is
counted, reduced to what the run scores against (its heavy set, or its top-k
values and their counts) and freed before the next one is counted. The
detection protocol's tables are pruned at gamma (oracle.exact_table's
heavy_at): they count only the rows whose every value on the subcube is
itself heavy, which is all a heavy set needs. The marginals pruning reads
are the handle's exact counts, counted once for every column, and the
builds that follow read the same counts. The freq task ranks its top-k
values from full tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .core import HHParams, JointValue, Subcube, make_subcube
from .errors import (
    ConfigError,
    DuplicateIndexError,
    ExperimentError,
    IndexOutOfRangeError,
    NoClassColumnError,
    SubcubeHHError,
)
from .heuristic import DEFAULT_DEPTH, cms_width, heuristic_all_query_scored, heuristic_build
from .independence import indep_all_query_scored, indep_pass1, indep_pass2
from .metrics import compute_detection_metrics, compute_error_metrics, roc_auc
from .naivebayes import nb_all_query_scored, nb_pass1, nb_pass2, pass1_budget
from .oracle import GroundTruth, exact_table
from .sampling import (
    build_sample,
    check_capacity,
    required_sample_size,
    sample_all_query_scored,
    sample_frequencies,
)
from .stream_io import DatasetHandle, open_dataset

ALGORITHMS = ("sampling", "indep2p", "nb2p", "cms-heuristic")
# The one-pass answerers that estimate frequencies, which the freq task needs.
FREQ_ALGORITHMS = ("sampling", "cms-heuristic")
# The deterministic two-pass answerers, whose builds read no seed.
SEED_FREE_ALGORITHMS = ("indep2p", "nb2p")


@dataclass
class ExperimentConfig:
    dataset: str | Path
    algos: list[str]
    subcubes: list[Subcube]
    gamma: float
    seeds: list[int]
    gamma_stars: list[float] | None = None  # default: 12 log-spaced in [gamma/4, 2*gamma]
    memory_frac: float | None = None
    memory_fracs: list[float] | None = None  # frequency-estimation sweep
    sample_size: int | None = None
    class_col: int | None = None  # 0-based file column
    delimiter: str = ","
    has_header: bool = False
    top_k: int = 10

    def __post_init__(self) -> None:
        for algo in self.algos:
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {algo!r}; pick from {ALGORITHMS}")
        p = HHParams(self.gamma)  # validates gamma
        if not self.subcubes:
            raise ConfigError("at least one subcube is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.gamma_stars is None:
            self.gamma_stars = default_gamma_star_sweep(self.gamma)
        for gs in self.gamma_stars:
            p.threshold(gs)  # a decision threshold must be > 0
        if self.memory_fracs is None:
            self.memory_fracs = [0.001, 0.005, 0.01]
        for name, values in (("algorithms", self.algos), ("subcubes", self.subcubes),
                             ("seeds", self.seeds), ("decision thresholds", self.gamma_stars),
                             ("memory fractions", self.memory_fracs)):
            check_no_repeats(name, values)
        if self.sample_size is not None and self.sample_size < 1:
            raise ConfigError(f"sample size must be >= 1, got {self.sample_size}")
        if self.sample_size is not None and "sampling" not in self.algos:
            raise ConfigError(f"a sample size is for the sampling algorithm; got {self.algos}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        fracs = [] if self.memory_frac is None else [self.memory_frac]
        for frac in fracs + list(self.memory_fracs):
            if not 0.0 < frac <= 1.0:
                raise ConfigError(f"memory fraction must be in (0, 1], got {frac}")


def check_no_repeats(name: str, values: list) -> None:
    """Raise ConfigError when a value repeats: the report would count it twice.
    Subcubes repeat when they share a coordinate set, in any order."""
    keys = [frozenset(v.coords) if isinstance(v, Subcube) else v for v in values]
    if len(set(keys)) < len(keys):
        shown = [_subcube_label(v) if isinstance(v, Subcube) else v for v in values]
        raise ConfigError(f"{name} repeat a value: {shown}")


def default_gamma_star_sweep(gamma: float) -> list[float]:
    """12 log-spaced decision thresholds covering [gamma/4, 2*gamma], endpoints
    exact. Computed in the interpreter's floats, so the same on every host."""
    lo, hi = math.log10(gamma / 4.0), math.log10(2.0 * gamma)
    step = (hi - lo) / 11
    return [gamma / 4.0, *(10.0 ** (i * step + lo) for i in range(1, 11)), 2.0 * gamma]


@dataclass
class DetectionRow:
    algo: str
    subcube: Subcube
    gamma_star: float
    seed: int
    tp: int
    fp: int
    reported: int


@dataclass
class FreqRow:
    algo: str
    subcube: Subcube
    memory_frac: float
    seed: int
    mse: float
    mae: float
    mape: float


@dataclass
class MetricsReport:
    config: dict
    rows: list[DetectionRow] = field(default_factory=list)
    freq_rows: list[FreqRow] = field(default_factory=list)
    roc: dict[str, list[dict]] = field(default_factory=dict)
    auc: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "rows": [_row_dict(r) for r in self.rows],
            "freq_rows": [_row_dict(r) for r in self.freq_rows],
            "roc": self.roc,
            "auc": self.auc,
        }

    def to_csv(self) -> str:
        return _csv(DetectionRow, self.rows)

    def freq_csv(self) -> str:
        return _csv(FreqRow, self.freq_rows)


def _csv(row_type: type, rows: list) -> str:
    """A header of the row fields, then each row with numbers as repr."""
    names = [f.name for f in fields(row_type)]
    lines = [",".join(names)]
    for r in rows:
        values = _row_dict(r)
        cells = (values[n] if n in ("algo", "subcube") else repr(values[n]) for n in names)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _row_dict(row: DetectionRow | FreqRow) -> dict:
    return {**asdict(row), "subcube": _subcube_label(row.subcube)}


def _subcube_label(t: Subcube) -> str:
    """1-based user-facing label, e.g. coordinates (0,2) -> "1-3"."""
    return "-".join(str(c + 1) for c in t.coords)


# ---------------------------------------------------------------------------
# Model building under a slot budget
# ---------------------------------------------------------------------------


def slot_budget(memory_frac: float, m: int, d: int) -> int:
    return int(memory_frac * m * d)


def _model_size(algo: str, h: DatasetHandle, p: HHParams, cfg: ExperimentConfig) -> int | None:
    """The size build_model gives `algo`'s builder under the config, checked
    by that builder's own size rule: the sample capacity (check_capacity),
    the heuristic's slot count (cms_width) or the two-pass counter budget
    per coordinate (pass1_budget; None: its default). Each rule floors the
    slot budget, so a size it accepts keeps the model inside that budget."""
    budget = None if cfg.memory_frac is None else slot_budget(cfg.memory_frac, h.m, h.d)
    if algo == "sampling":
        if cfg.sample_size is not None:
            size = cfg.sample_size
        elif budget is None:  # the guaranteed size for k = 3, or the largest queried k
            k = max(min(3, h.d), *(t.k for t in cfg.subcubes))
            size = required_sample_size(p, h.d, k, max(h.cardinalities))
        else:
            size = budget // h.d
        check_capacity(size)
    elif algo == "cms-heuristic":
        size = h.d * DEFAULT_DEPTH * 1024 if budget is None else budget
        cms_width(size, h.d)
    elif algo in SEED_FREE_ALGORITHMS:
        size = None if budget is None else budget // h.d  # slots per coordinate
        pass1_budget(p, size)
    else:
        raise ConfigError(f"unknown algorithm {algo!r}")
    return size


def build_model(algo: str, h: DatasetHandle, p: HHParams, seed: int, cfg: ExperimentConfig):
    """Build one model at the size _model_size gives it under the config's
    memory budget; returns (model, scorer) where scorer(t, threshold) ->
    {joint value: score}.

    Builders and scorers are looked up in this module's namespace on every
    call, so a wrapper installed there sees each build and query."""
    size = _model_size(algo, h, p, cfg)
    if algo == "sampling":
        model = build_sample(h, size, seed, p)
        score = sample_all_query_scored
    elif algo == "cms-heuristic":
        model = heuristic_build(h, size, p, seed)
        score = heuristic_all_query_scored
    elif algo == "indep2p":
        model = indep_pass2(h, indep_pass1(h, p, size), p)
        score = indep_all_query_scored
    else:
        priors, cands = nb_pass1(h, p, size)
        model = nb_pass2(h, priors, cands, p)
        score = nb_all_query_scored
    return model, partial(score, model)


# ---------------------------------------------------------------------------
# Experiment runners
# ---------------------------------------------------------------------------


def open_frozen(
    path: str | Path, subcubes: list[Subcube], out: str | Path | None = None, **layout
) -> DatasetHandle:
    """Open a delimited file (`layout`: open_dataset's delimiter, has_header
    and class_col), check every subcube against its feature count, known
    from the first row, and that the directory of the output file `out`
    (when given) exists, and only then run the replay that freezes the
    dictionaries and m. The packed codes go to a temporary file, which the
    later passes replay."""
    h = open_dataset(path, **layout)
    for t in subcubes:
        try:
            make_subcube(t.coords, h.d)
        except (IndexOutOfRangeError, DuplicateIndexError) as exc:
            raise type(exc)(
                f"subcube {_subcube_label(t)}: coordinates must be distinct and in 1..{h.d}"
            ) from None
    if out is not None and not Path(out).parent.is_dir():
        raise FileNotFoundError(f"output directory {Path(out).parent} does not exist")
    h.replay(lambda _i, _c: None)
    return h


def open_config_dataset(
    cfg: ExperimentConfig, out: str | Path | None = None
) -> tuple[DatasetHandle, HHParams]:
    """The config's frozen dataset and its params. nb2p without a class
    column fails before the file is read, as does a missing directory for
    the output file `out`."""
    if "nb2p" in cfg.algos and cfg.class_col is None:
        raise NoClassColumnError("algorithm nb2p needs --class-col")
    h = open_frozen(
        cfg.dataset,
        cfg.subcubes,
        out,
        delimiter=cfg.delimiter,
        has_header=cfg.has_header,
        class_col=cfg.class_col,
    )
    return h, HHParams(cfg.gamma)


def _prepare(cfg: ExperimentConfig, build_cfgs: list[ExperimentConfig]):
    """What both runners start from: the frozen dataset, the params and an
    empty report. Every algorithm's size rule runs under each of
    `build_cfgs` once m is known, before any table is counted or model
    built, so a budget too small for any `--algo` fails with its builder's
    error at once."""
    h, p = open_config_dataset(cfg)
    for build_cfg in build_cfgs:
        for algo in cfg.algos:
            _model_size(algo, h, p, build_cfg)
    return h, p, MetricsReport(config=_config_dict(cfg, h))


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """The detection protocol: per (algorithm, seed) build one model under
    the memory budget, enumerate each subcube once at the smallest threshold
    in the sweep, then rethreshold the scored answers for every gamma_star.
    A model of SEED_FREE_ALGORITHMS is built once and scored for every seed.

    Only each subcube's exact heavy set is kept: its table, pruned at gamma
    to the rows whose every value is marginally heavy, is freed before the
    next subcube's is counted. A failure partway through raises
    ExperimentError carrying the rows finished so far, so callers can flush
    partial results.
    """
    h, p, report = _prepare(cfg, [cfg])
    heavy = {t.coords: exact_table(h, t, cfg.gamma).heavy_set(cfg.gamma) for t in cfg.subcubes}
    sweep = sorted(cfg.gamma_stars, reverse=True)
    theta_min = min(sweep)
    try:
        for algo in cfg.algos:
            tp_sums = dict.fromkeys(sweep, 0)  # over seeds and subcubes
            fp_sums = dict.fromkeys(sweep, 0)
            scorer = None  # the last algorithm's model is freed before this one is built
            for seed in cfg.seeds:
                if scorer is None:
                    scorer = build_model(algo, h, p, seed, cfg)[1]
                scored = {t.coords: scorer(t, theta_min) for t in cfg.subcubes}
                if algo not in SEED_FREE_ALGORITHMS:
                    scorer = None  # free this model before the next one is built
                for gs in sweep:
                    for t in cfg.subcubes:
                        reported = {v for v, s in scored[t.coords].items() if s >= gs}
                        tp, fp = compute_detection_metrics(reported, heavy[t.coords])
                        report.rows.append(
                            DetectionRow(algo, t, gs, seed, tp, fp, len(reported))
                        )
                        tp_sums[gs] += tp
                        fp_sums[gs] += fp
            n = len(cfg.seeds)
            report.roc[algo] = [
                {"gamma_star": gs, "tp_mean": tp_sums[gs] / n, "fp_mean": fp_sums[gs] / n}
                for gs in sweep
            ]
    except ConfigError:
        raise
    except SubcubeHHError as exc:
        raise ExperimentError(str(exc), partial=report) from exc
    fp_max = max(
        (pt["fp_mean"] for pts in report.roc.values() for pt in pts), default=0.0
    )
    for algo, pts in report.roc.items():
        report.auc[algo] = roc_auc([(pt["fp_mean"], pt["tp_mean"]) for pt in pts], fp_max)
    return report


def run_freq_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """The frequency-estimation protocol: for each memory fraction, estimate
    the frequencies of the top-k true heavy values with the one-pass models
    and report MSE / MAE / MAPE. An algorithm without a frequency estimator,
    a fixed sample size or a single memory fraction fails before the data is
    read. Per subcube only the top-k values and their exact counts are kept."""
    unsupported = [a for a in cfg.algos if a not in FREQ_ALGORITHMS]
    if unsupported:
        raise ConfigError(
            f"no frequency estimator for {unsupported}; algorithms with one: {FREQ_ALGORITHMS}"
        )
    if cfg.sample_size is not None:
        raise ConfigError(f"the freq task takes no sample size; got {cfg.sample_size}")
    if cfg.memory_frac is not None:
        raise ConfigError(f"the freq task takes memory_fracs only; got {cfg.memory_frac}")
    frac_cfgs = [replace(cfg, memory_frac=frac) for frac in cfg.memory_fracs]
    h, p, report = _prepare(cfg, frac_cfgs)
    tops = {t.coords: _top_truth(h, t, cfg.top_k) for t in cfg.subcubes}
    for frac_cfg in frac_cfgs:
        for algo in cfg.algos:
            for seed in cfg.seeds:
                model, _scorer = build_model(algo, h, p, seed, frac_cfg)
                for t in cfg.subcubes:
                    top, truth = tops[t.coords]
                    estimates = _estimate_map(algo, model, t, top)
                    mse, mae, mape = compute_error_metrics(estimates, truth, top)
                    report.freq_rows.append(
                        FreqRow(algo, t, frac_cfg.memory_frac, seed, mse, mae, mape)
                    )
    return report


def _top_truth(h: DatasetHandle, t: Subcube, k: int) -> tuple[list[JointValue], GroundTruth]:
    """The k most frequent values of t and a GroundTruth holding the counts
    of those values only; the full table is freed on return. That is all
    compute_error_metrics reads: the freq of each top value."""
    truth = exact_table(h, t)
    top = truth.top_values(k)
    return top, GroundTruth(t, truth.m, Counter({v: truth.counts[v] for v in top}))


def _estimate_map(algo: str, model, t: Subcube, values: list[JointValue]):
    """The estimated frequency of each value by `algo`, one of FREQ_ALGORITHMS."""
    if algo == "sampling":
        freqs = sample_frequencies(model, t)
        return {v: freqs.get(v, 0.0) for v in values}
    return {v: model.product(t, v) for v in values}


def _config_dict(cfg: ExperimentConfig, h: DatasetHandle) -> dict:
    return {
        "dataset": str(cfg.dataset),
        "m": h.m,
        "d": h.d,
        "algos": list(cfg.algos),
        "subcubes": [_subcube_label(t) for t in cfg.subcubes],
        "gamma": cfg.gamma,
        "gamma_stars": list(cfg.gamma_stars),
        "memory_frac": cfg.memory_frac,
        "memory_fracs": list(cfg.memory_fracs),
        "sample_size": cfg.sample_size,
        "seeds": list(cfg.seeds),
        "class_col": None if cfg.class_col is None else cfg.class_col + 1,
        "top_k": cfg.top_k,
    }
