"""Output checks against the exact oracle tables that perfbench/run.py writes.

Imported only after a repeat's timed region, so numpy and the tables never
count towards the program's time or memory. Answers are compared in token
space (DatasetHandle.decode), so the checks do not depend on how the
package encodes values.
"""

from __future__ import annotations

import numpy as np

from workloads import GAMMA, LAM, SUBCUBES


class Oracle:
    """Exact joint counts per subcube, keyed by the generated token values."""

    def __init__(self, path: str):
        blob = np.load(path)
        self.m = int(blob["m"])
        self.radix = int(blob["radix"])
        self.keys = {label: blob[f"keys_{label}"] for label in SUBCUBES}
        self.counts = {label: blob[f"counts_{label}"] for label in SUBCUBES}

    def key_of(self, tokens) -> int:
        key = 0
        for tok in tokens:
            key = key * self.radix + int(tok)
        return key

    def lookup(self, label: str, keys: np.ndarray) -> np.ndarray:
        """Exact count of each key; 0 for joint values that never occur."""
        ref, cnt = self.keys[label], self.counts[label]
        pos = np.minimum(np.searchsorted(ref, keys), len(ref) - 1)
        return np.where(ref[pos] == keys, cnt[pos], 0)

    def heavy_keys(self, label: str, gamma: float) -> set[int]:
        """Keys with count/m >= gamma, the MUST_YES values of truth_label."""
        cnt = self.counts[label]
        return set(self.keys[label][cnt / self.m >= gamma].tolist())


class Checker:
    """Counts AllQuery calls and promise-gap violations of the guaranteed
    answerer: a value of frequency >= gamma missing from the answer at lam,
    or a value below gamma/4 in it. Other failed checks go to `errors`."""

    def __init__(self, oracle: Oracle, h, guaranteed: str):
        self.oracle = oracle
        self.h = h
        self.guaranteed = guaranteed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._heavy = {label: oracle.heavy_keys(label, GAMMA) for label in SUBCUBES}

    def keys(self, coords, values) -> np.ndarray:
        dec = self.h.decode
        return np.array(
            [self.oracle.key_of(dec(c, x) for c, x in zip(coords, v)) for v in values],
            dtype=np.int64,
        )

    def allquery(self, algo: str, label: str, coords, answer_at_lam) -> None:
        self.attempted += 1
        if algo != self.guaranteed:
            return
        keys = self.keys(coords, answer_at_lam)
        counts = self.oracle.lookup(label, keys)
        must_no = int(np.count_nonzero(counts / self.oracle.m < GAMMA / 4.0))
        missing = len(self._heavy[label] - set(keys.tolist()))
        if must_no or missing:
            self.failed += 1
            self.errors.append(
                f"{algo} on {label}: {missing} MUST_YES values missing, "
                f"{must_no} MUST_NO values reported"
            )

    def eval_report(self, report: dict, calls: list, algos, seeds: list[int]) -> list:
        """Check an `eval --task detect` report against the scored AllQuery
        answers it was computed from. `calls` holds (model, subcube,
        threshold, {value: score}) per call, in the harness's algorithm,
        seed, subcube order. Every answer is checked at lam, and every
        report row's TP/FP/reported is recomputed from the oracle. Returns
        (algo, model, subcube, threshold) per call."""
        expected = len(algos) * len(seeds) * len(SUBCUBES)
        if len(calls) != expected:
            self.errors.append(f"{len(calls)} AllQuery calls, expected {expected}")
            return []
        rows = {(r["algo"], r["subcube"], r["seed"], r["gamma_star"]): r for r in report["rows"]}
        n_rows = len(calls) * len(report["config"]["gamma_stars"])
        if len(report["rows"]) != n_rows or len(rows) != n_rows:
            self.errors.append(f"report has {len(report['rows'])} rows, expected {n_rows}")
        heavy_count = GAMMA * self.oracle.m  # GroundTruth.heavy_set's cut
        out = []
        for i, (model, t, threshold, scored) in enumerate(calls):
            algo = algos[i // (len(seeds) * len(SUBCUBES))]
            seed = seeds[(i // len(SUBCUBES)) % len(seeds)]
            label = SUBCUBES[i % len(SUBCUBES)]
            out.append((algo, model, t, threshold))
            self.allquery(algo, label, t.coords, [v for v, s in scored.items() if s >= LAM])
            values = list(scored)
            heavy = self.oracle.lookup(label, self.keys(t.coords, values)) >= heavy_count
            scores = np.array([scored[v] for v in values])
            for gs in report["config"]["gamma_stars"]:
                reported = scores >= gs
                tp = int(np.count_nonzero(reported & heavy))
                n = int(np.count_nonzero(reported))
                row = rows.get((algo, label, seed, gs))
                if row is None or (row["tp"], row["fp"], row["reported"]) != (tp, n - tp, n):
                    self.errors.append(
                        f"report row {algo} {label} seed {seed} gamma_star {gs!r} is {row}; "
                        f"the oracle gives tp {tp}, fp {n - tp}, reported {n}"
                    )
        return out
