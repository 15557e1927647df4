"""One repeat of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --data CSV --oracle NPZ \
        --traced 0|1 --out RESULT.json --report PREFIX

The plain run wraps only the calls the end-to-end metrics need (set-up,
model builds, AllQuery). The traced run also wraps the other public
functions each layer is reached through, and derives per-layer counts from
the models once the timed region is over. Both check every AllQuery answer
against the exact oracle after the timed region and write one JSON object
to --out. Times are in reference seconds (see spans.py). `src` must be on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import REF_SPEED, Recorder, SpeedSampler  # noqa: E402
from workloads import GAMMA, LAM, LEVEL_BOUND, MEMORY_FRAC, SUBCUBES, WORKLOADS  # noqa: E402

# Only what the stream path itself loads: the eval modules pull in numpy.
import subcubehh  # noqa: E402
from subcubehh import heuristic, independence, naivebayes, stream_io  # noqa: E402

# Span name of each AllQuery entry point, by algorithm.
ALLQUERY = {
    "sampling": "sampling.allquery",
    "indep2p": "independence.allquery",
    "nb2p": "naivebayes.allquery",
    "cms-heuristic": "heuristic.allquery",
}
# stream-1m makes one long repeat a run, so its plain repeat takes more
# samples of the two short phases: set-up on throwaway handles, and more
# rounds of AllQuery on each model. Neither counts towards wall_s.
EXTRA_SETUPS = 4
EXTRA_QUERY_ROUNDS = 9
# Model-building functions and their span names; each call is one full pass.
BUILDS = {
    "build_sample": "sampling.build",
    "indep_pass1": "independence.pass1",
    "indep_pass2": "independence.pass2",
    "nb_pass1": "naivebayes.pass1",
    "nb_pass2": "naivebayes.pass2",
    "heuristic_build": "heuristic.build",
}


def _peak_rss_mb() -> float:
    """VmHWM of this process. Unlike getrusage's ru_maxrss it starts afresh
    at exec, so it does not inherit the spawning process's footprint."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _end_to_end(rec: Recorder, sampler: SpeedSampler, m: int, wall_span: str,
                excluded: str = "") -> dict:
    """End-to-end metrics; wall_s is the one `wall_span` span, less the
    `excluded` spans inside it."""
    run = next(s for s in rec.spans if s[0] == wall_span)
    raw_wall = run[2] - run[1] - rec.raw_total(excluded)
    build_s = sum(rec.total(name) for name in BUILDS.values())
    passes = sum(rec.calls(name) for name in BUILDS.values())
    aq_s = sum(rec.total(name) for name in ALLQUERY.values())
    aq_calls = sum(rec.calls(name) for name in ALLQUERY.values())
    return {
        "wall_s": raw_wall * sampler.speed(run[1], run[2]) / REF_SPEED,
        "build_items_per_s": passes * m / build_s,
        "allquery_ms": 1000.0 * aq_s / aq_calls,
        "raw_wall_s": raw_wall,
        "mean_speed": sum(sampler.speeds) / len(sampler.speeds),
    }


def _layers(rec: Recorder, m: int, models: list, oracle_tables: list) -> dict:
    """Per-layer metrics of a traced repeat. `models` holds
    (algo, model, subcube, threshold) per AllQuery call; everything derived
    from them is computed here, after the timed region."""
    out: dict[str, float] = {}
    replays = rec.durations("stream_io.replay")
    out["stream_io.replays"] = len(replays)
    out["stream_io.rows"] = len(replays) * m
    out["stream_io.ingest_s"] = replays[0]  # the freezing replay
    out["stream_io.ingest_rows_per_s"] = m / replays[0]

    for layer in ("independence", "naivebayes"):
        t1, t2 = rec.total(f"{layer}.pass1"), rec.total(f"{layer}.pass2")
        passes = rec.calls(f"{layer}.pass1") + rec.calls(f"{layer}.pass2")
        out[f"{layer}.pass1_s"] = t1
        out[f"{layer}.pass2_s"] = t2
        out[f"{layer}.items_per_s"] = passes * m / (t1 + t2) if passes else 0.0
        out[f"{layer}.candidates"] = 0
        out[f"{layer}.allquery_s"] = rec.total(f"{layer}.allquery")
        out[f"{layer}.allquery_calls"] = rec.calls(f"{layer}.allquery")
        out[f"{layer}.level_max"] = 0
        out[f"{layer}.level_bound"] = LEVEL_BOUND
    for name, result in rec.captured:
        if name.endswith(".pass1"):
            cands = result[1] if isinstance(result, tuple) else result  # nb_pass1 adds priors
            out[f"{name.split('.')[0]}.candidates"] += sum(len(s) for s in cands.sets)

    tried = kept = point_queries = candidates_kept = 0
    for algo, model, t, threshold in models:
        if algo == "indep2p":
            levels = [len(lv.entries) for lv in independence.indep_all_query_levels(model, t, LAM)]
            out["independence.level_max"] = max(out["independence.level_max"], *levels)
        elif algo == "nb2p":
            levels = [len(lv.entries) for lv in naivebayes.nb_all_query_levels(model, t, LAM)]
            out["naivebayes.level_max"] = max(out["naivebayes.level_max"], *levels)
            ext = [len(model.heavy_entries(c, LAM)) for c in t.coords]
            tried += ext[0] + sum(w * e for w, e in zip(levels[:-1], ext[1:]))
            kept += sum(levels)
        elif algo == "cms-heuristic":
            for c in t.coords:
                point_queries += len(model.mg[c].tracked())
                candidates_kept += len(model.candidate_entries(c, threshold))
    out["naivebayes.extensions_tried"] = tried
    out["naivebayes.extensions_kept"] = kept
    out["naivebayes.keep_ratio"] = kept / tried if tried else 0.0

    for layer, build in (("sampling", "sampling.build"), ("heuristic", "heuristic.build")):
        build_s = rec.total(build)
        out[f"{layer}.build_s"] = build_s
        out[f"{layer}.items_per_s"] = rec.calls(build) * m / build_s if build_s else 0.0
        out[f"{layer}.allquery_s"] = rec.total(f"{layer}.allquery")
        out[f"{layer}.allquery_calls"] = rec.calls(f"{layer}.allquery")
    out["sampling.sample_size"] = sum(
        mod.m_prime for name, mod in rec.captured if name == "sampling.build"
    )
    out["heuristic.point_queries"] = point_queries
    out["heuristic.candidates_kept"] = candidates_kept
    out["heuristic.keep_ratio"] = candidates_kept / point_queries if point_queries else 0.0

    out["oracle.exact_table_s"] = rec.total("oracle.exact_table")
    out["oracle.tables"] = len(oracle_tables)
    out["oracle.joint_values"] = sum(len(g.counts) for g in oracle_tables)
    out["metrics.detection_s"] = rec.total("metrics.detection")
    out["metrics.detection_calls"] = rec.calls("metrics.detection")
    out["harness.self_s"] = rec.self_time("harness.run_experiment")
    out["cli.self_s"] = rec.self_time("cli.main")
    return out


def run_eval(args, w) -> dict:
    """`subcubehh eval --task detect` through cli.main."""
    from subcubehh import cli, harness

    traced = args.traced == 1
    sampler = SpeedSampler()
    rec = Recorder(sampler)
    keep_result = (lambda a, r: r) if traced else None
    rec.wrap(cli, "main", "cli.main")
    rec.wrap(harness, "open_config_dataset", "stream_io.open_freeze", keep=lambda a, r: r[0])
    rec.wrap(harness, "exact_table", "oracle.exact_table", keep=keep_result)
    for func, name in BUILDS.items():
        rec.wrap(harness, func, name, keep=keep_result)
    scored = {
        "sampling": "sample_all_query_scored",
        "indep2p": "indep_all_query_scored",
        "nb2p": "nb_all_query_scored",
        "cms-heuristic": "heuristic_all_query_scored",
    }
    for algo, func in scored.items():
        # The plain run keeps no model, so that none outlives its seed. It
        # does keep every scored answer for the oracle check: about 0.4 MB on
        # detect-fixz and 0.3 MB on detect-class, under 1% of peak_rss_mb.
        keep = (lambda a, r: (a[0] if traced else None, a[1], a[2], r))
        rec.wrap(harness, func, ALLQUERY[algo], keep=keep)
    if traced:
        rec.wrap(cli, "run_experiment", "harness.run_experiment")
        rec.wrap(harness, "compute_detection_metrics", "metrics.detection")
        rec.wrap(stream_io.DatasetHandle, "replay", "stream_io.replay")

    seeds = list(range(w.eval_seeds))
    argv = ["eval", "--task", "detect", "--data", args.data]
    for algo in w.algos:
        argv += ["--algo", algo]
    argv += ["--gamma", repr(GAMMA), "--memory-frac", repr(MEMORY_FRAC),
             "--seeds", ",".join(map(str, seeds)), "--out", args.report]
    for label in SUBCUBES:
        argv += ["--subcube", label]
    if w.class_col is not None:
        argv += ["--class-col", str(w.class_col)]

    sampler.start()
    rc = cli.main(argv)
    sampler.stop()
    rss = _peak_rss_mb()
    if rc != 0:
        raise SystemExit(f"eval exited with code {rc}")

    from oracle_check import Checker, Oracle

    h = next(v for n, v in rec.captured if n == "stream_io.open_freeze")
    out = _end_to_end(rec, sampler, h.m, "cli.main")
    out["setup_s"] = [rec.total("stream_io.open_freeze") + rec.total("oracle.exact_table")]
    out["peak_rss_mb"] = rss
    prefix = Path(args.report)
    json_bytes = prefix.with_suffix(".json").read_bytes()
    csv_bytes = prefix.with_suffix(".csv").read_bytes()
    out["answers_sha256"] = hashlib.sha256(json_bytes + csv_bytes).hexdigest()
    report = json.loads(json_bytes)
    checker = Checker(Oracle(args.oracle), h, w.guaranteed)
    calls = [v for n, v in rec.captured if n.endswith(".allquery")]
    models = checker.eval_report(report, calls, w.algos, seeds)
    out["quality"] = {}
    for algo in w.algos:
        out["quality"][f"quality.auc.{algo}"] = report["auc"][algo]
        low = min(report["roc"][algo], key=lambda pt: pt["gamma_star"])
        out["quality"][f"quality.fp_min.{algo}"] = low["fp_mean"]
    if traced:
        tables = [v for n, v in rec.captured if n == "oracle.exact_table"]
        out["layers"] = _layers(rec, h.m, models, tables)
        out["layers"]["harness.rows"] = len(report["rows"])
    return _finish(out, checker)


def run_stream(args, w) -> dict:
    """The README's library path on an uncached handle: one freezing replay,
    each answerer built once (seed 0), AllQuery at lam on every subcube."""
    traced = args.traced == 1
    sampler = SpeedSampler()
    rec = Recorder(sampler)
    rec.wrap(subcubehh, "open_dataset", "stream_io.open")
    for func, name in BUILDS.items():
        rec.wrap(subcubehh, func, name, keep=(lambda a, r: r) if traced else None)
    queries = {
        "sampling": "sample_all_query",
        "indep2p": "indep_all_query",
        "nb2p": "nb_all_query",
        "cms-heuristic": "heuristic_all_query",
    }
    for algo, func in queries.items():
        rec.wrap(subcubehh, func, ALLQUERY[algo])
    if traced:
        rec.wrap(stream_io.DatasetHandle, "replay", "stream_io.replay")

    p = subcubehh.HHParams(GAMMA)
    answers = []
    extra = []
    models = []
    sampler.start()
    for _ in range(0 if traced else EXTRA_SETUPS):
        with rec.span("stream.setup"):
            spare = subcubehh.open_dataset(args.data, class_col=w.class_col - 1)
            spare.replay(lambda _item, _cls: None)
        del spare
    with rec.span("stream.run"):
        with rec.span("stream.setup"):
            h = subcubehh.open_dataset(args.data, class_col=w.class_col - 1, cache_items=False)
            h.replay(lambda _item, _cls: None)  # freeze dictionaries and m
        budget = int(MEMORY_FRAC * h.m * h.d)
        subcubes = [subcubehh.make_subcube([int(c) - 1 for c in s.split("-")], h.d)
                    for s in SUBCUBES]
        for algo in w.algos:
            if algo == "sampling":
                model = subcubehh.build_sample(h, budget // h.d, 0, p)
            elif algo == "indep2p":
                model = subcubehh.indep_pass2(h, subcubehh.indep_pass1(h, p, budget // h.d), p)
            elif algo == "nb2p":
                priors, cands = subcubehh.nb_pass1(h, p, budget // h.d)
                model = subcubehh.nb_pass2(h, priors, cands, p)
            else:
                model = subcubehh.heuristic_build(h, budget, p, 0, heuristic.DEFAULT_DEPTH)
            query = getattr(subcubehh, queries[algo])
            for t in subcubes:
                answers.append((algo, t, query(model, t, LAM)))
                if traced:
                    models.append((algo, model, t, LAM))
            with rec.span("stream.extra_queries"):
                for _ in range(0 if traced else EXTRA_QUERY_ROUNDS):
                    extra.extend((algo, t, query(model, t, LAM)) for t in subcubes)
            del model
    sampler.stop()
    rss = _peak_rss_mb()

    from oracle_check import Checker, Oracle

    out = _end_to_end(rec, sampler, h.m, "stream.run", "stream.extra_queries")
    out["setup_s"] = rec.durations("stream.setup")
    out["peak_rss_mb"] = rss
    checker = Checker(Oracle(args.oracle), h, w.guaranteed)
    for i, (algo, t, ans) in enumerate(answers):
        checker.allquery(algo, SUBCUBES[i % len(SUBCUBES)], t.coords, ans)
    first = {(algo, t.coords): ans for algo, t, ans in answers}
    for i, (algo, t, ans) in enumerate(extra):
        checker.allquery(algo, SUBCUBES[i % len(SUBCUBES)], t.coords, ans)
        if ans != first[algo, t.coords]:
            checker.errors.append(f"nondeterminism: {algo} answers differ between AllQuery calls")
    decoded = sorted(
        (algo, t.coords, sorted(tuple(h.decode(c, x) for c, x in zip(t.coords, v)) for v in ans))
        for algo, t, ans in answers
    )
    out["answers_sha256"] = hashlib.sha256(repr(decoded).encode()).hexdigest()
    out["quality"] = {}
    if traced:
        out["layers"] = _layers(rec, h.m, models, [])
        out["layers"]["harness.rows"] = 0
    return _finish(out, checker)


def _finish(out: dict, checker) -> dict:
    out["attempted"] = checker.attempted
    out["failed"] = checker.failed
    out["errors"] = checker.errors
    if "layers" in out:
        out["layers"]["trace.wall_s"] = out["wall_s"]
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True)
    ap.add_argument("--oracle", required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--report", required=True)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    result = run_eval(args, w) if w.kind == "eval" else run_stream(args, w)
    Path(args.out).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
