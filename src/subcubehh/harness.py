"""Experiment orchestration: build models under a memory budget, sweep the
decision threshold, and score every reported set against the exact oracle.

Memory is accounted in value-code slots relative to the dataset size m*d:
the sampling model costs d slots per kept item, and sketch-based models cost
d times their per-coordinate cell count (Count-Min cells are width*depth;
Misra-Gries cells are its counter budget, which also bounds the second-pass
exact counters).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .core import HHParams, JointValue, Subcube, make_subcube
from .errors import (
    BudgetTooSmallError,
    ConfigError,
    DuplicateIndexError,
    ExperimentError,
    IndexOutOfRangeError,
    NoClassColumnError,
    SubcubeHHError,
)
from .heuristic import DEFAULT_DEPTH, heuristic_all_query_scored, heuristic_build
from .independence import indep_all_query_scored, indep_pass1, indep_pass2
from .metrics import compute_detection_metrics, compute_error_metrics, roc_auc
from .naivebayes import nb_all_query_scored, nb_pass1, nb_pass2
from .oracle import exact_table
from .sampling import (
    build_sample,
    required_sample_size,
    sample_all_query_scored,
    sample_frequencies,
)
from .stream_io import DatasetHandle, open_dataset

ALGORITHMS = ("sampling", "indep2p", "nb2p", "cms-heuristic")
# The one-pass answerers that estimate frequencies, which the freq task needs.
FREQ_ALGORITHMS = ("sampling", "cms-heuristic")


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
        HHParams(self.gamma)  # validates gamma
        if not self.subcubes:
            raise ConfigError("at least one subcube is required")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.gamma_stars is None:
            self.gamma_stars = default_gamma_star_sweep(self.gamma)
        for gs in self.gamma_stars:
            if not gs > 0.0:
                raise ConfigError(f"decision threshold must be > 0, got {gs}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.memory_fracs is None:
            self.memory_fracs = [0.001, 0.005, 0.01]
        fracs = [] if self.memory_frac is None else [self.memory_frac]
        for frac in fracs + list(self.memory_fracs):
            if not 0.0 < frac <= 1.0:
                raise ConfigError(f"memory fraction must be in (0, 1], got {frac}")


def default_gamma_star_sweep(gamma: float, points: int = 12) -> list[float]:
    """12 log-spaced decision thresholds covering [gamma/4, 2*gamma]."""
    return [float(x) for x in np.geomspace(gamma / 4.0, 2.0 * gamma, points)]


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


def build_model(algo: str, h: DatasetHandle, p: HHParams, seed: int, cfg: ExperimentConfig):
    """Build one model under the config's memory budget; returns
    (model, scorer) where scorer(t, threshold) -> {joint value: score}.

    Builders and scorers are looked up in this module's namespace on every
    call, so a wrapper installed there sees each build and query."""
    budget = None
    if cfg.memory_frac is not None:
        budget = slot_budget(cfg.memory_frac, h.m, h.d)
    share = None if budget is None else budget // h.d  # slots per coordinate
    if algo not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algo!r}")
    if algo in ("indep2p", "nb2p") and share is not None and share < 1:
        raise BudgetTooSmallError(f"{budget} slots over {h.d} coordinates leave no counter")
    if algo == "sampling":
        if cfg.sample_size is not None:
            capacity = cfg.sample_size
        elif share is not None:
            capacity = share
        else:
            capacity = required_default_sample_size(h, p)
        if capacity < 1:
            raise BudgetTooSmallError(f"sample capacity {capacity} holds no item")
        model = build_sample(h, capacity, seed, p)
        score = sample_all_query_scored
    elif algo == "cms-heuristic":
        slots = budget if budget is not None else h.d * DEFAULT_DEPTH * 1024
        model = heuristic_build(h, slots, p, seed)
        score = heuristic_all_query_scored
    elif algo == "indep2p":
        model = indep_pass2(h, indep_pass1(h, p, share), p)
        score = indep_all_query_scored
    else:
        priors, cands = nb_pass1(h, p, share)
        model = nb_pass2(h, priors, cands, p)
        score = nb_all_query_scored
    if budget is not None and cfg.sample_size is None:
        used = accounted_memory_slots(algo, model, h.d)
        if used > budget:
            raise ConfigError(
                f"{algo} model uses {used} slots, over the budget of {budget}"
            )
    return model, partial(score, model)


def required_default_sample_size(h: DatasetHandle, p: HHParams) -> int:
    """Default capacity when neither a budget nor a size is given: the
    guaranteed size for subcubes up to 3 dimensions on this dataset."""
    n_max = max(h.cardinalities) if h.cardinalities else 1
    return required_sample_size(p, h.d, min(3, h.d), max(n_max, 1))


def accounted_memory_slots(algo: str, model, d: int) -> int:
    """Memory in value-code slots under the experiment's accounting rules."""
    if algo == "sampling":
        return d * model.m_prime
    if algo == "cms-heuristic":
        return d * model.cms[0].width * model.cms[0].depth
    if algo in ("indep2p", "nb2p"):
        # Candidate tables are bounded by the pass-1 counter budget per coordinate.
        return d * max((len(table) for table in model.tables), default=0)
    raise ConfigError(f"unknown algorithm {algo!r}")


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
    dictionaries and m. Chunk columns are cached for the later passes."""
    h = open_dataset(path, cache_items=True, **layout)
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


def _prepare(cfg: ExperimentConfig):
    """What both runners start from: the frozen dataset, the params, the
    exact table of each subcube (keyed by coordinates) and an empty report."""
    h, p = open_config_dataset(cfg)
    truths = {t.coords: exact_table(h, t) for t in cfg.subcubes}
    return h, p, truths, MetricsReport(config=_config_dict(cfg, h))


def run_experiment(cfg: ExperimentConfig) -> MetricsReport:
    """The detection protocol: per (algorithm, seed) build one model under
    the memory budget, enumerate each subcube once at the smallest threshold
    in the sweep, then rethreshold the scored answers for every gamma_star.

    A failure partway through raises ExperimentError carrying the rows
    finished so far, so callers can flush partial results.
    """
    h, p, truths, report = _prepare(cfg)
    heavy = {t.coords: truths[t.coords].heavy_set(cfg.gamma) for t in cfg.subcubes}
    sweep = sorted(cfg.gamma_stars, reverse=True)
    theta_min = min(sweep)
    try:
        for algo in cfg.algos:
            per_gs_tp: dict[float, list[int]] = {gs: [] for gs in sweep}
            per_gs_fp: dict[float, list[int]] = {gs: [] for gs in sweep}
            for seed in cfg.seeds:
                _model, scorer = build_model(algo, h, p, seed, cfg)
                scored = {t.coords: scorer(t, theta_min) for t in cfg.subcubes}
                del _model, scorer  # free this model before the next one is built
                for gs in sweep:
                    tp_total = fp_total = 0
                    for t in cfg.subcubes:
                        reported = {v for v, s in scored[t.coords].items() if s >= gs}
                        tp, fp = compute_detection_metrics(reported, heavy[t.coords])
                        report.rows.append(
                            DetectionRow(algo, t, gs, seed, tp, fp, len(reported))
                        )
                        tp_total += tp
                        fp_total += fp
                    per_gs_tp[gs].append(tp_total)
                    per_gs_fp[gs].append(fp_total)
            n_seeds = len(cfg.seeds)
            report.roc[algo] = [
                {
                    "gamma_star": gs,
                    "tp_mean": sum(per_gs_tp[gs]) / n_seeds,
                    "fp_mean": sum(per_gs_fp[gs]) / n_seeds,
                }
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
    or a fixed sample size, fails before the data is read."""
    unsupported = [a for a in cfg.algos if a not in FREQ_ALGORITHMS]
    if unsupported:
        raise ConfigError(
            f"no frequency estimator for {unsupported}; algorithms with one: {FREQ_ALGORITHMS}"
        )
    if cfg.sample_size is not None:
        raise ConfigError(f"the freq task takes no sample size; got {cfg.sample_size}")
    h, p, truths, report = _prepare(cfg)
    tops = {t.coords: truths[t.coords].top_values(cfg.top_k) for t in cfg.subcubes}
    for frac in cfg.memory_fracs:
        frac_cfg = replace(cfg, memory_frac=frac)
        for algo in cfg.algos:
            for seed in cfg.seeds:
                model, _scorer = build_model(algo, h, p, seed, frac_cfg)
                for t in cfg.subcubes:
                    top = tops[t.coords]
                    estimates = _estimate_map(algo, model, t, top)
                    mse, mae, mape = compute_error_metrics(estimates, truths[t.coords], top)
                    report.freq_rows.append(
                        FreqRow(algo, t, frac, seed, mse, mae, mape)
                    )
    return report


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
