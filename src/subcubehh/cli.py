"""Command-line interface.

Subcommands:
  gen     sample a synthetic dataset to CSV
  oracle  exact joint-frequency table of a subcube, as JSON
  run     build one model and answer AllQuery for the given subcubes
  eval    full experiment: sweep thresholds, score against the oracle,
          emit a JSON report plus plot-ready CSVs

Coordinates and column indices are 1-based on the command line and converted
internally. `oracle`, `run` and `eval` check their flags, subcubes
included, before they read the data past its first row; `run` and `oracle`
then check that the directory of `--out` exists. A memory budget too small
for an algorithm is found once the freezing replay has counted m, since the
budget is a fraction of m: `eval` checks every algorithm then, before it
counts an exact table or builds a model. `oracle` counts each table once
the one before is written, and writes each row as it builds it. A failed
command removes the `--out` file it opened; stdout may keep a partial
document. Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Iterator

from .core import Subcube
from .errors import ConfigError, ExperimentError, SubcubeHHError
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    build_model,
    check_no_repeats,
    open_config_dataset,
    open_frozen,
    run_experiment,
    run_freq_experiment,
)
from .oracle import exact_table


def _parse_subcube(spec: str) -> Subcube:
    """The 0-based subcube of a 1-based spec such as 1,2,3 or 1-2-3. It is
    checked against the dataset's feature count when the dataset is opened."""
    try:
        indices = [int(tok) for tok in spec.replace("-", ",").split(",") if tok]
    except ValueError:
        raise ConfigError(f"cannot parse subcube {spec!r}") from None
    if any(ix < 1 for ix in indices):
        raise ConfigError(f"subcube coordinates are 1-based, got {spec!r}")
    return Subcube(tuple(ix - 1 for ix in indices))


def _parse_list(text: str | None, kind: type, flag: str) -> list | None:
    """The values of a comma list such as 0,1,2 (None when the flag is unset)."""
    if text is None:
        return None
    try:
        values = [kind(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"cannot parse {flag} {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} lists no values")
    return values


def _layout(args) -> dict:
    """The file layout flags, under the names open_dataset and ExperimentConfig use."""
    if args.class_col is not None and args.class_col < 1:
        raise ConfigError(f"--class-col is 1-based, got {args.class_col}")
    return {
        "delimiter": args.delimiter,
        "has_header": args.header,
        "class_col": None if args.class_col is None else args.class_col - 1,
    }


def _add_dataset_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--data", required=True, help="CSV/TSV path; - reads stdin, ./- a file named -")
    sp.add_argument("--delimiter", default=",", help="field delimiter (default ',')")
    sp.add_argument("--header", action="store_true", help="skip a header row")
    sp.add_argument(
        "--class-col", type=int, default=None, help="1-based class column index"
    )


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="subcubehh",
        description="Subcube heavy-hitter queries over categorical data streams.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a synthetic dataset to CSV")
    gen.add_argument("--profile", default="paper-synthetic", choices=["paper-synthetic", "custom"])
    gen.add_argument("--m", type=int, required=True, help="number of rows")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--model-seed", type=int, default=None, help="defaults to --seed")
    gen.add_argument("--skew", type=float, default=None)
    gen.add_argument("--d", type=int, default=None, help="feature count (custom profile)")
    gen.add_argument("--cardinalities", default=None, help="comma list (custom profile)")
    gen.add_argument("--ell", type=int, default=None, help="class count (custom profile)")
    gen.add_argument(
        "--fix-class",
        default=None,
        help="emit features only, conditioned on this class value ('top' = most frequent)",
    )
    gen.add_argument("-o", "--out", required=True, help="output CSV path")
    gen.set_defaults(handler=_cmd_gen)

    orc = sub.add_parser("oracle", help="exact frequency table of a subcube (JSON)")
    _add_dataset_args(orc)
    orc.add_argument(
        "--subcube", required=True, action="append",
        help="1-based feature coordinates, e.g. 1,2,3 (repeatable)",
    )
    orc.add_argument("--out", default=None, help="write JSON here instead of stdout")
    orc.set_defaults(handler=_cmd_oracle)

    run = sub.add_parser("run", help="build one model and answer AllQuery")
    _add_dataset_args(run)
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument("--gamma", type=float, required=True)
    run.add_argument("--gamma-star", type=float, default=None, help="decision threshold")
    run.add_argument("--memory-frac", type=float, default=None)
    run.add_argument("--sample-size", type=int, default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--subcube", required=True, action="append")
    run.add_argument("--out", default=None, help="write JSON here instead of stdout")
    run.set_defaults(handler=_cmd_run)

    ev = sub.add_parser("eval", help="full experiment with oracle scoring")
    _add_dataset_args(ev)
    ev.add_argument("--algo", required=True, action="append", dest="algos")
    ev.add_argument("--gamma", type=float, required=True)
    ev.add_argument(
        "--gamma-star-sweep", default=None,
        help="comma list of thresholds for --task detect; "
        "default 12 log-spaced in [gamma/4, 2*gamma]",
    )
    ev.add_argument("--memory-frac", type=float, default=None)
    ev.add_argument(
        "--memory-fracs", default=None, help="comma list for --task freq (default 0.001,0.005,0.01)"
    )
    ev.add_argument("--sample-size", type=int, default=None)
    ev.add_argument("--seeds", default="0", help="comma list of seeds")
    ev.add_argument("--subcube", required=True, action="append")
    ev.add_argument("--task", default="detect", choices=["detect", "freq"])
    ev.add_argument("--top-k", type=int, default=None, help="for --task freq (default 10)")
    ev.add_argument(
        "--out", required=True,
        help="output path prefix: writes <out>.json and <out>.csv or <out>_freq.csv",
    )
    ev.set_defaults(handler=_cmd_eval)
    return ap


def _cmd_gen(args) -> int:
    from . import datagen  # here, so eval, run and oracle never load its array library
    model_seed = args.seed if args.model_seed is None else args.model_seed
    if args.profile == "paper-synthetic":
        if (args.d, args.cardinalities, args.ell) != (None, None, None):
            raise ConfigError("--d, --cardinalities and --ell are for the custom profile")
        skew = datagen.PAPER_PROFILE_SKEW if args.skew is None else args.skew
        gen = datagen.paper_profile(model_seed, skew)
    else:
        if args.d is None or args.cardinalities is None or args.ell is None:
            raise ConfigError("custom profile needs --d, --cardinalities and --ell")
        cards = _parse_list(args.cardinalities, int, "--cardinalities")
        skew = 1.0 if args.skew is None else args.skew
        gen = datagen.make_random_nb(args.d, cards, args.ell, skew, model_seed)
    fix_class = None
    if args.fix_class == "top":
        fix_class = gen.most_frequent_class()
    elif args.fix_class is not None:
        if not args.fix_class.isdecimal():
            raise ConfigError(f"--fix-class {args.fix_class!r} is not 'top' or a class index")
        fix_class = int(args.fix_class)
    datagen.sample_to_csv(gen, args.m, args.seed, args.out, fix_class)
    cols = gen.d if fix_class is not None else gen.d + 1
    sys.stdout.write(f"wrote {args.m} rows x {cols} columns to {args.out}\n")
    return 0


class _Streamed(list):
    """A JSON array of what `items` (at least one) yields as json.dump, which encodes
    in Python with an indent, iterates it; a placeholder keeps it from reading as empty."""

    def __init__(self, items: Iterator):
        super().__init__([None])
        self._items = items

    def __iter__(self) -> Iterator:
        return self._items


def _emit(payload: dict, out: str | Path | None) -> None:
    """Write `payload` as indented JSON, as the encoder yields it, to stdout or to
    the file `out`, which a failure removes; stdout may keep a partial document."""
    with nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        try:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        except BaseException:
            if out is not None and Path(out).is_file():  # never a device such as /dev/null
                Path(out).unlink()
            raise


def _ranked(h, t, scores: dict) -> Iterator[tuple[list[str], float]]:
    """(decoded tokens, score) per joint value, highest score first, ties by
    code, each decoded once it is reached. The keys are sorted, not the
    items, so no (key, score) pair is built for the sort."""
    ranked = sorted(scores)
    ranked.sort(key=scores.__getitem__, reverse=True)  # stable: ties stay by code
    for v in ranked:
        yield [h.decode(c, x) for c, x in zip(t.coords, v)], scores[v]


def _cmd_oracle(args) -> int:
    subcubes = [_parse_subcube(s) for s in args.subcube]
    check_no_repeats("subcubes", subcubes)
    h = open_frozen(args.data, subcubes, args.out, **_layout(args))

    def rows(t: Subcube) -> Iterator[dict]:  # count/m rises with count: the (-f, v) order
        for tokens, cnt in _ranked(h, t, exact_table(h, t).counts):
            yield {"v": tokens, "f": cnt / h.m}

    tables = [
        {"subcube": [c + 1 for c in t.coords], "m": h.m, "table": _Streamed(rows(t))}
        for t in subcubes
    ]
    _emit(tables[0] if len(tables) == 1 else {"tables": tables}, args.out)
    return 0


def _experiment_config(args, **rest) -> ExperimentConfig:
    """The config `run` and `eval` share: dataset, subcubes, gamma and budget."""
    return ExperimentConfig(
        dataset=args.data,
        subcubes=[_parse_subcube(s) for s in args.subcube],
        gamma=args.gamma,
        memory_frac=args.memory_frac,
        sample_size=args.sample_size,
        **_layout(args),
        **rest,
    )


def _cmd_run(args) -> int:
    sweep = None if args.gamma_star is None else [args.gamma_star]
    cfg = _experiment_config(args, algos=[args.algo], seeds=[args.seed], gamma_stars=sweep)
    h, p = open_config_dataset(cfg, args.out)
    threshold = p.threshold(args.gamma_star)
    _model, scorer = build_model(args.algo, h, p, args.seed, cfg)
    results = []
    for t in cfg.subcubes:
        answers = [
            {"v": tokens, "product": score, "verdict": "YES"}
            for tokens, score in _ranked(h, t, scorer(t, threshold))
        ]
        results.append({"subcube": [c + 1 for c in t.coords], "answers": answers})
    _emit(
        {
            "algo": args.algo,
            "gamma": args.gamma,
            "gamma_star": threshold,
            "seed": args.seed,
            "results": results,
        },
        args.out,
    )
    return 0


def _cmd_eval(args) -> int:
    other_task = {
        "detect": (("--memory-fracs", args.memory_fracs), ("--top-k", args.top_k)),
        "freq": (("--gamma-star-sweep", args.gamma_star_sweep),),
    }[args.task]
    given = [flag for flag, value in other_task if value is not None]
    if given:
        raise ConfigError(f"the {args.task} task takes no {' or '.join(given)}")
    prefix = Path(args.out)
    if not prefix.name:
        raise ConfigError(f"--out {args.out!r} names no file to prefix")
    cfg = _experiment_config(
        args,
        algos=args.algos,
        seeds=_parse_list(args.seeds, int, "--seeds"),
        gamma_stars=_parse_list(args.gamma_star_sweep, float, "--gamma-star-sweep"),
        memory_fracs=_parse_list(args.memory_fracs, float, "--memory-fracs"),
        top_k=ExperimentConfig.top_k if args.top_k is None else args.top_k,
    )

    def named(tail: str) -> Path:  # appended to the whole name, which may hold dots
        return prefix.parent / (prefix.name + tail)

    try:
        if args.task == "detect":
            report = run_experiment(cfg)
        else:
            report = run_freq_experiment(cfg)
    except ExperimentError as exc:
        if exc.partial is not None:
            prefix.parent.mkdir(parents=True, exist_ok=True)
            partial_path = named(".partial.json")
            _emit(exc.partial.to_json_dict(), partial_path)
            sys.stderr.write(f"partial results flushed to {partial_path}\n")
        raise
    prefix.parent.mkdir(parents=True, exist_ok=True)  # only once there is a report
    json_path = named(".json")
    _emit(report.to_json_dict(), json_path)
    written = [str(json_path)]
    if report.rows:
        csv_path = named(".csv")
        csv_path.write_text(report.to_csv())
        written.append(str(csv_path))
    if report.freq_rows:
        freq_path = named("_freq.csv")
        freq_path.write_text(report.freq_csv())
        written.append(str(freq_path))
    for path in written:
        sys.stdout.write(f"wrote {path}\n")
    for algo in sorted(report.auc):
        sys.stdout.write(f"auc {algo} {report.auc[algo]!r}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports bad flags itself
        return 2 if exc.code not in (0, None) else 0
    # The objects that exist before the command (modules, functions, the
    # parser) outlive it, so the collector's full passes skip them while it
    # runs. Otherwise each full pass rescans them, at whatever point the
    # allocation counts reach its threshold: a pause of several ms that
    # lands in a different phase from one input to the next.
    gc.freeze()
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (SubcubeHHError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    finally:
        gc.unfreeze()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
