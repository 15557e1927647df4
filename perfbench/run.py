"""Benchmark of the subcubehh package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The data seed N generates the workload's input
with `subcubehh gen` (paper-synthetic profile, model seed 7); the exact
oracle tables used by the output checks are computed here with numpy. Both
are cached under .bench_work/ and neither is timed.

The run then repeats the workload in fresh single-threaded interpreters
(perfbench/child.py) for about S seconds, and reports the median of each
metric over its samples. With --trace 0 every repeat is a plain run and the
end-to-end metrics of BENCHMARK.json are printed; with --trace 1 plain and
traced repeats alternate and the per-layer metrics are printed, including
the tracing overhead (traced minus plain wall time). Times are in reference
seconds, wall time corrected for the host's measured speed (spans.py).

Every metric is printed as `name value unit (better)`; the last line is one
JSON object {"correct", "attempted", "failed", "metrics"}. `attempted`
counts AllQuery calls and `failed` those whose answer broke the promise
gap; a repeat that raises ends the run with a non-zero exit. Metrics whose
name does not end in `_s` or `_ms` are counts or answer-quality values and
must repeat exactly across the repeats of a run. A result file with
provenance goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import MODEL_SEED, SUBCUBES, WORKLOADS  # noqa: E402

ROOT = Path.cwd()
WORK = Path(".bench_work")
CHILD = Path(__file__).resolve().parent / "child.py"
# Every subprocess must end by then, so that a run ends within 180 s.
DEADLINE_S = 170.0
START = time.monotonic()


def is_timing(name: str) -> bool:
    """Times and rates; every other metric is a count that must repeat exactly."""
    return name.endswith(("_s", "_ms"))


def as_list(value) -> list:
    return value if isinstance(value, list) else [value]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def time_left() -> float:
    return max(1.0, DEADLINE_S - (time.monotonic() - START))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def ensure_data(name: str, seed: int) -> Path:
    """Generate the workload's CSV for this data seed, once."""
    w = WORKLOADS[name]
    path = WORK / "data" / f"{name}-s{seed}.csv"
    if path.exists():
        return path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    cmd = [sys.executable, "-m", "subcubehh.cli", "gen", "--profile", "paper-synthetic",
           "--m", str(w.rows), "--seed", str(seed), "--model-seed", str(MODEL_SEED),
           "-o", str(tmp)]
    if w.fix_class:
        cmd += ["--fix-class", "top"]
    subprocess.run(cmd, check=True, env=child_env(), stdout=subprocess.DEVNULL,
                   timeout=time_left())
    tmp.replace(path)
    return path


def ensure_oracle(name: str, data: Path) -> Path:
    """Exact joint counts of every subcube, keyed by token values in mixed
    radix; computed from the CSV alone, independently of the package."""
    w = WORKLOADS[name]
    path = data.with_suffix(".oracle.npz")
    if path.exists():
        return path
    table = np.loadtxt(data, delimiter=",", dtype=np.int64, ndmin=2)
    if w.class_col is not None:
        table = np.delete(table, w.class_col - 1, axis=1)
    radix = int(table.max()) + 1
    blob = {"m": np.int64(len(table)), "radix": np.int64(radix)}
    for label in SUBCUBES:
        keys = np.zeros(len(table), dtype=np.int64)
        for c in label.split("-"):
            keys = keys * radix + table[:, int(c) - 1]
        blob[f"keys_{label}"], blob[f"counts_{label}"] = np.unique(keys, return_counts=True)
    tmp = path.with_suffix(".tmp.npz")
    np.savez(tmp, **blob)
    tmp.replace(path)
    return path


def run_child(name: str, data: Path, oracle: Path, traced: bool, scratch: Path) -> dict:
    out = scratch / "child.json"
    cmd = [sys.executable, str(CHILD), "--workload", name, "--data", str(data),
           "--oracle", str(oracle), "--traced", str(int(traced)), "--out", str(out),
           "--report", str(scratch / "report")]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=time_left())
    if proc.returncode != 0:
        raise RuntimeError(f"repeat failed with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(out.read_text())


def provenance(args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 cwd=ROOT, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*.py")):
        src.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload,
        "data_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "p25": q1, "p75": q3, "samples": len(values), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "subcubehh" / "__init__.py").is_file():
        sys.stderr.write("error: no src/subcubehh here; run from the repository root\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    prov = provenance(args)
    data = ensure_data(args.workload, args.seed)
    oracle = ensure_oracle(args.workload, data)
    scratch = WORK / "run" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)

    plain: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        is_traced = bool(args.trace) and len(traced) < len(plain)
        (traced if is_traced else plain).append(
            run_child(args.workload, data, oracle, is_traced, scratch)
        )
        took = time.perf_counter() - t0
        # Stop when the next repeat would end past the deadline.
        if (traced or not args.trace) and time.perf_counter() - start + took > args.seconds:
            break
    elapsed = time.perf_counter() - start
    shutil.rmtree(scratch)

    repeats = plain + traced
    errors = [e for r in repeats for e in r["errors"]]
    for key in ("answers_sha256", "quality"):
        seen = {json.dumps(r[key], sort_keys=True) for r in repeats}
        if len(seen) != 1:
            errors.append(f"nondeterminism: {key} differs across repeats: {sorted(seen)}")
    if args.trace:
        values = {k: [r["layers"][k] for r in traced] for k in traced[0]["layers"]}
        values.update({k: [v] for k, v in repeats[0]["quality"].items()})
        values["trace.overhead_s"] = [statistics.median(values["trace.wall_s"])
                                      - statistics.median(r["wall_s"] for r in plain)]
        for k, vals in values.items():
            if not is_timing(k) and len(set(vals)) != 1:
                errors.append(f"nondeterminism: {k} differs across repeats: {vals}")
    else:
        # A list holds several samples: a repeat may set up more than once.
        values = {m["name"]: [v for r in plain for v in as_list(r[m["name"]])] for m in listed}
    metrics: dict[str, dict] = {}
    for m in listed:
        if m["name"].startswith("quality."):
            values.setdefault(m["name"], [0.0])  # algorithm not run on this workload
        if m["name"] not in values:
            errors.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                              **summarize(values[m["name"]])}

    failed = sum(r["failed"] for r in repeats)
    result = {
        "correct": not errors and failed == 0,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": failed,
        "metrics": {k: {"value": v["median"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    raw_keys = ("raw_wall_s", "mean_speed", "wall_s", "setup_s", "peak_rss_mb")
    record = {
        "provenance": prov,
        "repeats": {"plain": len(plain), "traced": len(traced), "measured_s": elapsed},
        "answers_sha256": repeats[0]["answers_sha256"],
        "errors": errors,
        "metrics": metrics,
        "plain_repeats": [{k: r[k] for k in raw_keys} for r in plain],
        "result": result,
    }
    results = WORK / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = results / f"s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")

    for err in errors:
        sys.stderr.write(f"check failed: {err}\n")
    for k, v in metrics.items():
        print(f"{k} {v['median']!r} {v['unit']} ({v['better']} is better; "
              f"median of {v['samples']}, p25 {v['p25']!r}, p75 {v['p75']!r})")
    print(f"result file: {out}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
