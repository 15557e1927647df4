"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The heavyweight synthetic datasets are generated once per session and shared.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from subcubehh.core import HHParams, Subcube, Verdict, make_subcube
from subcubehh.datagen import make_random_nb, paper_profile, sample_rows, sample_to_csv
from subcubehh.harness import ExperimentConfig, run_experiment, run_freq_experiment
from subcubehh.independence import (
    indep_all_query,
    indep_all_query_levels,
    indep_pass1,
    indep_pass2,
    indep_query,
)
from subcubehh.naivebayes import (
    nb_all_query,
    nb_all_query_levels,
    nb_pass1,
    nb_pass2,
    nb_query,
    nb_score,
)
from subcubehh.oracle import (
    empirical_alpha_independence,
    empirical_alpha_nb,
    exact_table,
)
from subcubehh.sampling import build_sample, required_sample_size
from subcubehh.sketches import CountMin, MisraGries
from subcubehh.stream_io import from_items, from_rows


@contextmanager
def criterion(number, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE {number} ({label}): PASS [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# Random-dataset corpus shared by criteria 1 and 2
# ---------------------------------------------------------------------------


def _random_dataset(rng: np.random.Generator):
    d = int(rng.integers(2, 6))
    ell = int(rng.integers(1, 5))
    m = int(np.exp(rng.uniform(np.log(200), np.log(20_000))))
    gamma = float(rng.uniform(0.02, 0.3))
    cards = rng.integers(2, 13, size=d)
    style = int(rng.integers(0, 3))
    cols = []
    for j in range(d):
        n_j = int(cards[j])
        if style == 0:
            probs = rng.dirichlet(np.full(n_j, 0.7))
            cols.append(rng.choice(n_j, size=m, p=probs))
        elif style == 1:
            cols.append(rng.integers(0, n_j, size=m))
        else:
            base = cols[0] if cols else rng.integers(0, n_j, size=m)
            noise = rng.integers(0, 2, size=m)
            cols.append((base + noise) % n_j)
    cls = rng.integers(0, ell, size=m)
    rows = np.column_stack(cols + [cls]).tolist()
    h = from_items(rows, class_col=d)
    h.replay(lambda _i, _c: None)
    # Pick query subcubes whose observed-support product stays enumerable,
    # preferring higher-dimensional ones.
    subcubes = []
    for _ in range(2):
        for k in range(min(3, d), 0, -1):
            coords = [int(c) for c in rng.choice(d, size=k, replace=False)]
            cells = 1
            for c in coords:
                cells *= h.cardinalities[c]
            if cells <= 4000:
                subcubes.append(make_subcube(coords, d))
                break
    if not subcubes:
        subcubes.append(make_subcube([0], d))
    return h, HHParams(gamma), subcubes


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(20_240_817)
    return [_random_dataset(rng) for _ in range(200)]


def test_criterion_1_oracle_equivalence_independence(corpus):
    with criterion(1, "independence algorithm == oracle marginal product"):
        start = time.monotonic()
        violations = 0
        checked = 0
        for h, p, subcubes in corpus:
            mod = indep_pass2(h, indep_pass1(h, p), p)
            for t in subcubes:
                marginals = [exact_table(h, make_subcube([c], h.d)) for c in t.coords]
                supports = [sorted(x for (x,) in gt.counts) for gt in marginals]
                freqs = [
                    {x: gt.counts[(x,)] / gt.m for (x,) in gt.counts} for gt in marginals
                ]
                for v in itertools.product(*supports):
                    prod = 1.0
                    for fr, x in zip(freqs, v):
                        prod *= fr[x]
                    expected = prod >= p.lam
                    got = indep_query(mod, t, v) is Verdict.YES
                    checked += 1
                    if got != expected:
                        violations += 1
        elapsed = time.monotonic() - start
        assert checked > 50_000  # non-vacuity: the corpus exercised real queries
        assert violations == 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_criterion_2_all_query_equals_brute_force(corpus):
    with criterion(2, "AllQuery == brute-force cartesian filter"):
        for h, p, subcubes in corpus:
            mod = indep_pass2(h, indep_pass1(h, p), p)
            priors, cands = nb_pass1(h, p)
            nbm = nb_pass2(h, priors, cands, p)
            for t in subcubes:
                entries = [mod.heavy_entries(c, p.lam) for c in t.coords]
                brute = set()
                for combo in itertools.product(*entries):
                    prod = 1.0
                    for _x, f in combo:
                        prod *= f
                    if prod >= p.lam:
                        brute.add(tuple(x for x, _f in combo))
                assert indep_all_query(mod, t) == brute
                nb_entries = [nbm.heavy_entries(c, p.lam) for c in t.coords]
                nb_brute = set()
                for combo in itertools.product(*nb_entries):
                    v = tuple(x for x, _f in combo)
                    q = nb_score(nbm, t, v)
                    if q is not None and q >= p.lam:
                        nb_brute.add(v)
                assert nb_all_query(nbm, t) == nb_brute


def test_criterion_3_sampling_guarantee():
    with criterion(3, "sampling guarantee at derived sample size"):
        start = time.monotonic()
        gamma = 0.01
        p = HHParams(gamma)
        gen = make_random_nb(
            d=6, cardinalities=[50] * 6, ell=1, skew=1.2, seed=404
        )
        rows = list(sample_rows(gen, 100_000, seed=11))
        h = from_rows(rows)
        h.replay(lambda _i, _c: None)
        m_prime = required_sample_size(p, d=6, k=3, n_max=50)
        subcubes = [make_subcube(c, 6) for c in ([0, 1, 2], [1, 2, 3], [3, 4, 5])]
        truths = {t.coords: exact_table(h, t) for t in subcubes}
        # The promise is vacuous without mandatory-YES values; the generator
        # profile was chosen so every subcube has some.
        for t in subcubes:
            assert truths[t.coords].heavy_set(gamma), "no heavy values to detect"
        clean_seeds = 0
        for seed in range(20):
            model = build_sample(h, m_prime, seed, p)
            violations = 0
            for t in subcubes:
                counts = {}
                for item in model.samples:
                    v = tuple(item[c] for c in t.coords)
                    counts[v] = counts.get(v, 0) + 1
                truth = truths[t.coords]
                mp = model.m_prime
                for v, c in truth.counts.items():
                    f = c / truth.m
                    f_hat = counts.get(v, 0) / mp
                    if f >= gamma and f_hat < p.gamma_star:
                        violations += 1
                    elif f < gamma / 4 and f_hat >= p.gamma_star:
                        violations += 1
                # values never observed in the stream cannot enter the sample,
                # so their NO verdicts hold automatically
            if violations == 0:
                clean_seeds += 1
        elapsed = time.monotonic() - start
        assert clean_seeds >= 18, f"only {clean_seeds}/20 seeds clean"
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def _adversarial_streams():
    """Single-coordinate streams that stress the candidate-set promise."""
    streams = []
    # value exactly at lambda/2, padded with eviction-forcing singletons
    for m, gamma in ((200, 0.2), (400, 0.1), (160, 0.5)):
        lam = gamma / 2
        heavy = max(1, int(round(lam / 2 * m)))
        stream = [0] * heavy + [1000 + i for i in range(m - heavy)]
        streams.append((stream, gamma))
        streams.append((stream[::-1], gamma))  # heavy arrives last
    # value just under gamma/8 = lambda/4: must stay out
    for m, gamma in ((400, 0.2), (800, 0.05)):
        lam = gamma / 2
        light = max(0, int(math.ceil(lam / 4 * m)) - 1)
        stream = [0] * light + [2000 + i for i in range(m - light)]
        streams.append((stream, gamma))
        streams.append((stream[::-1], gamma))
    # several values on the boundary at once, interleaved
    for gamma in (0.2, 0.4):
        lam = gamma / 2
        m = 240
        per = int(round(lam / 2 * m))
        k = 4
        body = []
        for r in range(per):
            body.extend(range(k))
        filler = [5000 + i for i in range(m - len(body))]
        streams.append((body + filler, gamma))
        streams.append((filler + body, gamma))
    # round-robin over budget+1 distinct values: maximal decrement pressure
    for gamma in (0.25, 0.5):
        budget = math.ceil(8 / (gamma / 2))
        stream = [i % (budget + 1) for i in range(6 * (budget + 1))]
        streams.append((stream, gamma))
    return streams


def test_criterion_4_candidate_promise_deterministic():
    with criterion(4, "candidate sets keep >=lam/2 in and <lam/4 out"):
        cases = list(_adversarial_streams())
        rng = random.Random(99)
        while len(cases) < 500:
            m = rng.randint(50, 2000)
            gamma = rng.choice([0.04, 0.1, 0.2, 0.3, 0.5, 0.8, 1.0])
            style = rng.random()
            if style < 0.4:
                stream = [min(int(rng.expovariate(0.3)), 40) for _ in range(m)]
            elif style < 0.8:
                stream = [rng.randrange(rng.randint(2, 60)) for _ in range(m)]
            else:
                hot = rng.randrange(5)
                stream = [
                    hot if rng.random() < rng.uniform(0.05, 0.6) else 100 + rng.randrange(m)
                    for _ in range(m)
                ]
            cases.append((stream, gamma))
        violations = 0
        for stream, gamma in cases:
            p = HHParams(gamma)
            h = from_items([(x,) for x in stream])
            cands = indep_pass1(h, p)
            counts = {}
            for x in stream:
                counts[x] = counts.get(x, 0) + 1
            m = len(stream)
            h_set = {int(h.decode(0, code)) for code in cands.sets[0]}
            for x, c in counts.items():
                f = c / m
                if f >= p.lam / 2 and x not in h_set:
                    violations += 1
                if f < p.lam / 4 and x in h_set:
                    violations += 1
        assert violations == 0


def test_criterion_5_sketch_bounds():
    with criterion(5, "Misra-Gries and Count-Min bounds on every prefix"):
        rng = random.Random(2718)
        overshoot_queries = 0
        overshoot_hits = 0
        depth = 4
        for _ in range(1000):
            length = rng.randint(10, 60)
            alphabet = rng.randint(2, 10)
            width = rng.choice([2, 4, 8])
            stream = [rng.randrange(alphabet) for _ in range(length)]
            sketches = {b: MisraGries(b) for b in (1, 2, 4, 8)}
            cms = CountMin(width=width, depth=depth, seed=rng.randrange(2**32))
            true = {}
            for x in stream:
                true[x] = true.get(x, 0) + 1
                cms.update(x)
                for budget, sk in sketches.items():
                    sk.update(x)
                    bound = sk.processed / budget
                    for y, ty in true.items():
                        est = sk.estimate(y)
                        assert ty - bound <= est <= ty
                for y, ty in true.items():
                    assert cms.point_query(y) >= ty
            m = len(stream)
            for y, ty in true.items():
                overshoot_queries += 1
                if cms.point_query(y) - ty > 2 * m / width:
                    overshoot_hits += 1
        rate = overshoot_hits / overshoot_queries
        assert rate <= 2 ** (-depth + 1), f"overshoot rate {rate:.4f}"


def test_criterion_6_nb_identities(corpus):
    with criterion(6, "class-mixture identity exact; single class == independence"):
        from fractions import Fraction

        # Exact rational identity on a slice of the random corpus.
        for h, p, _subcubes in corpus[:40]:
            priors, cands = nb_pass1(h, p)
            nbm = nb_pass2(h, priors, cands, p)
            for coord in range(h.d):
                for x, row in nbm.class_counts_by_value[coord].items():
                    mixture = sum(
                        Fraction(nbm.priors.counts[z], nbm.m)
                        * Fraction(row[z], nbm.priors.counts[z])
                        for z in range(nbm.ell)
                    )
                    assert mixture == Fraction(nbm.index[coord][x], nbm.m)
        # Single-class outputs match the independence algorithm exactly.
        rng = random.Random(161)
        for _ in range(10):
            d = rng.randint(2, 4)
            m = rng.randint(100, 2000)
            gamma = rng.uniform(0.05, 0.4)
            rows = [
                tuple(rng.randrange(rng.randint(2, 8)) for _ in range(d)) + (0,)
                for _ in range(m)
            ]
            h_nb = from_items(rows, class_col=d)
            h_ind = from_items([r[:d] for r in rows])
            p = HHParams(gamma)
            priors, cands = nb_pass1(h_nb, p)
            nbm = nb_pass2(h_nb, priors, cands, p)
            ind = indep_pass2(h_ind, indep_pass1(h_ind, p), p)
            for k in range(1, d + 1):
                t = make_subcube(list(range(k)), d)
                assert nb_all_query(nbm, t) == indep_all_query(ind, t)
                for v in itertools.islice(
                    itertools.product(*[range(4) for _ in range(k)]), 64
                ):
                    assert nb_query(nbm, t, v) == indep_query(ind, t, v)


def test_criterion_7_level_size_bound():
    with criterion(7, "|W_j| <= ceil(5/(4*lam)) on assumption-verified data"):
        gamma = 0.1
        p = HHParams(gamma)
        bound = math.ceil(5 / (4 * p.lam))
        # Independence side: a single-class generator is a product model.
        gen = make_random_nb(d=4, cardinalities=[8, 8, 8, 8], ell=1, skew=1.0, seed=31)
        rows = list(sample_rows(gen, 60_000, seed=5))
        h = from_rows(rows)
        h.replay(lambda _i, _c: None)
        mod = indep_pass2(h, indep_pass1(h, p), p)
        subcubes = [make_subcube(c, 4) for c in ([0, 1, 2], [1, 2, 3], [0, 2, 3])]
        for t in subcubes:
            alpha = empirical_alpha_independence(h, t)
            assert alpha <= p.lam / 5, f"data does not qualify: alpha={alpha:.4f}"
            for level in indep_all_query_levels(mod, t):
                assert len(level.entries) <= bound
        # Class-mixture side: a 3-class generator with verified alpha.
        gen = make_random_nb(d=3, cardinalities=[7, 7, 7], ell=3, skew=1.2, seed=37)
        rows = list(sample_rows(gen, 80_000, seed=6))
        hn = from_rows(rows, class_col=0)
        hn.replay(lambda _i, _c: None)
        priors, cands = nb_pass1(hn, p)
        nbm = nb_pass2(hn, priors, cands, p)
        for coords in ([0, 1, 2], [0, 2], [1, 2]):
            t = make_subcube(coords, 3)
            alpha = empirical_alpha_nb(hn, t)
            assert alpha <= p.lam / 5, f"data does not qualify: alpha={alpha:.4f}"
            for level in nb_all_query_levels(nbm, t):
                assert len(level.entries) <= bound


# ---------------------------------------------------------------------------
# Paper-profile synthetic data shared by criteria 8 and 9
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def paper_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("paper")
    gen = paper_profile(seed=7)
    fixz = root / "fixz.csv"
    whole = root / "whole.csv"
    sample_to_csv(gen, 135_000, seed=101, path=fixz, fix_class=gen.most_frequent_class())
    sample_to_csv(gen, 168_000, seed=102, path=whole)
    return {"fixz": fixz, "whole": whole}


def test_criterion_8_directional_reproduction(paper_data):
    with criterion(8, "two-pass ROC dominates sampling; fewer FPs than heuristic"):
        start = time.monotonic()
        gamma = 0.002
        seeds = list(range(10))
        subcubes = [Subcube((0, 1, 2)), Subcube((1, 2, 3)), Subcube((2, 3, 4))]
        fixz_report = run_experiment(
            ExperimentConfig(
                dataset=paper_data["fixz"],
                algos=["sampling", "indep2p", "cms-heuristic"],
                subcubes=subcubes,
                gamma=gamma,
                seeds=seeds,
                memory_frac=0.02,
            )
        )
        whole_report = run_experiment(
            ExperimentConfig(
                dataset=paper_data["whole"],
                algos=["sampling", "nb2p"],
                subcubes=subcubes,
                gamma=gamma,
                seeds=seeds,
                memory_frac=0.02,
                class_col=0,
            )
        )
        assert fixz_report.auc["indep2p"] >= fixz_report.auc["sampling"]
        assert whole_report.auc["nb2p"] >= whole_report.auc["sampling"]
        # ROC points are ordered by gamma_star descending: the sweep's
        # smallest threshold is the last entry.
        fp_twopass = fixz_report.roc["indep2p"][-1]["fp_mean"]
        fp_heuristic = fixz_report.roc["cms-heuristic"][-1]["fp_mean"]
        assert fp_twopass <= fp_heuristic
        elapsed = time.monotonic() - start
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"


def test_criterion_9_warmup_frequency_estimation(paper_data):
    with criterion(9, "heuristic beats sampling on top-10 MAE at small memory"):
        gamma = 0.002
        report = run_freq_experiment(
            ExperimentConfig(
                dataset=paper_data["fixz"],
                algos=["sampling", "cms-heuristic"],
                subcubes=[Subcube((0, 1, 2)), Subcube((1, 2, 3)), Subcube((2, 3, 4))],
                gamma=gamma,
                seeds=list(range(10)),
                memory_fracs=[0.001, 0.005, 0.01],
            )
        )
        by_key = {}
        for row in report.freq_rows:
            by_key.setdefault((row.algo, row.memory_frac), []).append(row.mae)
        for frac in (0.001, 0.005, 0.01):
            sampling_mae = sum(by_key[("sampling", frac)]) / len(by_key[("sampling", frac)])
            heuristic_mae = sum(by_key[("cms-heuristic", frac)]) / len(
                by_key[("cms-heuristic", frac)]
            )
            assert heuristic_mae <= sampling_mae, (
                f"at {frac:.3%}: heuristic {heuristic_mae:.5f} > sampling {sampling_mae:.5f}"
            )


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI runs are byte-identical given config and seeds"):
        def cli(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "subcubehh.cli", *args],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        data = tmp_path / "data.csv"
        gen_args = (
            "gen", "--profile", "custom", "--d", "3", "--cardinalities", "9,9,9",
            "--ell", "2", "--skew", "1.2", "--m", "6000", "--seed", "5",
        )
        cli(*gen_args, "-o", str(data))
        twin = tmp_path / "twin.csv"
        cli(*gen_args, "-o", str(twin))
        assert data.read_bytes() == twin.read_bytes()

        run_args = (
            "run", "--data", str(data), "--algo", "cms-heuristic", "--gamma", "0.05",
            "--memory-frac", "0.05", "--seed", "3", "--subcube", "2,3",
            "--class-col", "1",
        )
        assert cli(*run_args) == cli(*run_args)

        outs = []
        for tag in ("e1", "e2"):
            out = tmp_path / tag / "rep"
            stdout = cli(
                "eval", "--data", str(data), "--algo", "sampling", "--algo",
                "indep2p", "--algo", "cms-heuristic", "--gamma", "0.05",
                "--memory-frac", "0.05", "--seeds", "0,1,2", "--subcube", "1,2",
                "--subcube", "2,3", "--class-col", "1", "--out", str(out),
            )
            outs.append(
                (
                    (tmp_path / tag / "rep.json").read_bytes(),
                    (tmp_path / tag / "rep.csv").read_bytes(),
                    stdout.replace(tag, ""),
                )
            )
        assert outs[0] == outs[1]
