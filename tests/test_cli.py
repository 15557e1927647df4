import errno
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import pytest

from subcubehh import cli, harness
from subcubehh.cli import main
from subcubehh.core import make_subcube
from subcubehh.oracle import exact_table
from subcubehh.stream_io import DatasetHandle, from_items
from tests.conftest import fifo_fed


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "subcubehh.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.csv"
    code = main(
        [
            "gen", "--profile", "custom", "--d", "3", "--cardinalities", "6,6,6",
            "--ell", "2", "--skew", "1.2", "--m", "2000", "--seed", "3",
            "-o", str(path),
        ]
    )
    assert code == 0
    return path


class TestGen:
    def test_paper_profile_columns(self, tmp_path):
        out = tmp_path / "g.csv"
        assert main(["gen", "--m", "50", "--seed", "1", "-o", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 50
        assert all(len(r.split(",")) == 6 for r in rows)

    def test_fix_class_drops_class_column(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(
            ["gen", "--m", "30", "--seed", "1", "--fix-class", "top", "-o", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert all(len(r.split(",")) == 5 for r in rows)

    def test_fix_class_numeric(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(
            ["gen", "--m", "30", "--seed", "1", "--fix-class", "2", "-o", str(out)]
        )
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 30

    def test_fix_class_out_of_range(self, tmp_path):
        code = main(
            ["gen", "--m", "30", "--seed", "1", "--fix-class", "99",
             "-o", str(tmp_path / "g.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize("bad", [
        ["--m", "0"], ["--m", "30", "--fix-class", "99"], ["--m", "30", "--fix-class", "abc"],
        ["--m", "30", "--seed", "-1"], ["--m", "30", "--model-seed", "-3"],
        ["--m", "30", "--skew", "nan"], ["--m", "30", "--d", "2"],
        ["--m", "30", "--cardinalities", "3,3"], ["--m", "30", "--ell", "2"],
        ["--m", "30", "--d", "2", "--cardinalities", "3,3", "--ell", "2"],
    ])
    def test_bad_args_write_nothing(self, tmp_path, capsys, bad):
        # The arguments are checked before the output file is opened. --seed 1
        # comes first, so that the case's own --seed wins.
        existing, new = tmp_path / "existing.csv", tmp_path / "new.csv"
        existing.write_bytes(b"1,2,3\n")
        for out in (existing, new):
            assert main(["gen", "--seed", "1", *bad, "-o", str(out)]) == 2
        assert existing.read_bytes() == b"1,2,3\n"
        assert not new.exists()
        assert capsys.readouterr().out == ""

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["gen", "--m", "500", "--seed", "9", "--profile", "custom",
                "--d", "2", "--cardinalities", "5,5", "--ell", "1"]
        assert main(argv + ["-o", str(a)]) == 0
        assert main(argv + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_custom_needs_shape(self, tmp_path):
        code = main(["gen", "--profile", "custom", "--m", "10", "-o", str(tmp_path / "x.csv")])
        assert code == 2

    def test_bad_cardinalities(self, tmp_path):
        code = main(
            ["gen", "--profile", "custom", "--m", "10", "--d", "2", "--cardinalities", "5,x",
             "--ell", "1", "-o", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert not (tmp_path / "x.csv").exists()


class TestOracle:
    def test_json_table(self, tiny_csv, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        code = main(
            [
                "oracle", "--data", str(tiny_csv), "--class-col", "1",
                "--subcube", "1,2", "--out", str(out),
            ]
        )
        assert code == 0
        table = json.loads(out.read_text())
        assert table["subcube"] == [1, 2]
        assert table["m"] == 2000
        freqs = [entry["f"] for entry in table["table"]]
        assert freqs == sorted(freqs, reverse=True)
        assert sum(freqs) == pytest.approx(1.0)

    def test_multiple_subcubes_wrapped(self, tiny_csv, tmp_path):
        out = tmp_path / "oracle2.json"
        code = main(
            [
                "oracle", "--data", str(tiny_csv), "--subcube", "1",
                "--subcube", "2,3", "--out", str(out),
            ]
        )
        assert code == 0
        blob = json.loads(out.read_text())
        assert [t["subcube"] for t in blob["tables"]] == [[1], [2, 3]]

    def test_bad_subcube_is_config_error(self, tiny_csv):
        assert main(["oracle", "--data", str(tiny_csv), "--subcube", "0,1"]) == 2
        assert main(["oracle", "--data", str(tiny_csv), "--subcube", "1,9"]) == 2

    def test_missing_file(self):
        assert main(["oracle", "--data", "/nonexistent.csv", "--subcube", "1"]) == 2

    def test_unwritable_output_is_runtime_error(self, tiny_csv):
        code = main(
            [
                "oracle", "--data", str(tiny_csv), "--subcube", "1",
                "--out", "/nonexistent-dir/out.json",
            ]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "subcubes", [["1-2-3"], ["1,2", "2,3", "1-2-3"]], ids=["one", "three"]
    )
    def test_one_table_at_a_time(self, tiny_csv, monkeypatch, subcubes):
        # Each table is counted once the one before is written, and each row
        # is built once the one before is written, so the command holds one
        # table at a time.
        out = io.StringIO()
        monkeypatch.setattr(sys, "stdout", out)
        written_at_count, tables = [], []

        def counting_exact_table(h, t):
            assert all(table() is None for table in tables)  # the last one is freed
            written_at_count.append(out.getvalue().count('"f"'))
            truth = exact_table(h, t)
            tables.append(weakref.ref(truth))
            return truth

        rows_written_at_decode = []
        decode = DatasetHandle.decode

        def counting_decode(h, coord, code):
            rows_written_at_decode.append(out.getvalue().count('"f"'))
            return decode(h, coord, code)

        monkeypatch.setattr(cli, "exact_table", counting_exact_table)
        monkeypatch.setattr(DatasetHandle, "decode", counting_decode)
        argv = ["oracle", "--data", str(tiny_csv), "--class-col", "1"]
        assert main([*argv, *(arg for t in subcubes for arg in ("--subcube", t))]) == 0
        blob = json.loads(out.getvalue())
        sizes = [len(t["table"]) for t in (blob["tables"] if len(subcubes) > 1 else [blob])]
        assert min(sizes) > 1
        assert written_at_count == [sum(sizes[:i]) for i in range(len(subcubes))]
        # Row r (over all tables) decodes its k tokens once r rows are written.
        widths = [len(t.replace("-", ",").split(",")) for t in subcubes]
        assert rows_written_at_decode == [
            r for r, k in enumerate(w for w, n in zip(widths, sizes) for _ in range(n))
            for _ in range(k)
        ]

    def test_failed_second_table_leaves_no_out(self, tiny_csv, tmp_path, capsys, monkeypatch):
        # The first table is written before the second is counted; a failure
        # then removes the half-written file, so exit 3 leaves nothing.
        calls = []

        def failing_exact_table(h, t):
            calls.append(t)
            if len(calls) == 2:
                raise OSError(errno.EIO, "Input/output error")
            return exact_table(h, t)

        monkeypatch.setattr(cli, "exact_table", failing_exact_table)
        out = tmp_path / "o.json"
        code = main(
            [
                "oracle", "--data", str(tiny_csv), "--class-col", "1",
                "--subcube", "1,2", "--subcube", "2,3", "--out", str(out),
            ]
        )
        assert code == 3 and len(calls) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: [Errno 5] Input/output error\n"
        assert list(tmp_path.iterdir()) == []


class TestRanked:
    def test_score_descending_ties_by_code(self):
        # Keys arrive out of code order; each score is shared by many keys.
        h = from_items([(i % 7, i % 5) for i in range(35)])
        h.replay(lambda _c, _z: None)
        t = make_subcube([1, 0], 2)
        rng = random.Random(3)
        keys = [(x, y) for x in range(5) for y in range(7)]
        rng.shuffle(keys)
        scores = {v: rng.choice([0.5, 0.25, 0.125]) for v in keys}
        want = [
            ([h.decode(1, x), h.decode(0, y)], s)
            for (x, y), s in sorted(scores.items(), key=lambda e: (-e[1], e[0]))
        ]
        assert list(cli._ranked(h, t, scores)) == want


class TestSpill:
    """eval, run and oracle replay their data from the one temporary file
    the freezing replay spills to; a spill that cannot be opened exits 3."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--algo", "sampling", "--algo", "indep2p", "--memory-frac", "0.1"],
            ["eval", "--task", "freq", "--algo", "sampling", "--algo", "cms-heuristic",
             "--memory-fracs", "0.05,0.1"],
            ["run", "--algo", "nb2p", "--memory-frac", "0.1"],
            ["oracle", "--subcube", "1"],
        ],
        ids=["eval", "eval-freq", "run", "oracle"],
    )
    def test_one_temporary_file(self, tiny_csv, tmp_path, argv):
        args = [*argv, "--data", str(tiny_csv), "--class-col", "1", "--subcube", "2,3"]
        if argv[0] != "oracle":
            args += ["--gamma", "0.05"]
        out = tmp_path / ("rep" if argv[0] == "eval" else "out.json")
        with mock.patch.object(tempfile, "TemporaryFile", wraps=tempfile.TemporaryFile) as opened:
            assert main([*args, "--out", str(out)]) == 0
        assert opened.call_count == 1

    @pytest.mark.parametrize("task", ["detect", "freq"])
    def test_unopenable_spill_exits_3(self, tiny_csv, tmp_path, capsys, task):
        def temporary_file(*_args, **_kwargs):
            raise OSError(errno.ENOENT, "No usable temporary directory")

        with mock.patch.object(tempfile, "TemporaryFile", temporary_file):
            code = main(
                [
                    "eval", "--data", str(tiny_csv), "--task", task, "--algo", "sampling",
                    "--gamma", "0.05", "--seeds", "1", "--subcube", "2,3", "--class-col", "1",
                    "--out", str(tmp_path / "rep"),
                ]
            )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No usable temporary directory" in err
        assert list(tmp_path.iterdir()) == []  # no .json, .csv or .partial.json


class TestCollector:
    def test_command_runs_with_startup_objects_frozen(self, tiny_csv, tmp_path, monkeypatch):
        """Full collections during a command skip the objects that existed
        before it; the freeze is undone when it returns, on an error too."""
        seen = []
        real = cli.exact_table

        def counting(*args):
            seen.append(gc.get_freeze_count())
            return real(*args)

        monkeypatch.setattr(cli, "exact_table", counting)
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--data", str(tiny_csv), "--subcube", "1", "--out", str(out)]) == 0
        assert len(seen) == 1 and seen[0] > 0
        assert gc.get_freeze_count() == 0
        assert main(["oracle", "--data", "/nonexistent.csv", "--subcube", "1"]) == 2
        assert gc.get_freeze_count() == 0


class TestRun:
    def test_sampling_run(self, tiny_csv, capsys):
        code = main(
            [
                "run", "--data", str(tiny_csv), "--algo", "sampling",
                "--gamma", "0.05", "--sample-size", "500", "--seed", "7",
                "--subcube", "2,3", "--class-col", "1",
            ]
        )
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["algo"] == "sampling"
        assert blob["results"][0]["subcube"] == [2, 3]
        for answer in blob["results"][0]["answers"]:
            assert answer["verdict"] == "YES"
            assert answer["product"] >= blob["gamma_star"]

    def test_indep2p_run(self, tiny_csv, capsys):
        code = main(
            [
                "run", "--data", str(tiny_csv), "--algo", "indep2p",
                "--gamma", "0.05", "--subcube", "2,3", "--class-col", "1",
            ]
        )
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["gamma_star"] == 0.025

    def test_nb2p_needs_class_col(self, tiny_csv):
        code = main(
            [
                "run", "--data", str(tiny_csv), "--algo", "nb2p",
                "--gamma", "0.05", "--subcube", "1,2",
            ]
        )
        assert code == 2

    def test_bad_gamma(self, tiny_csv):
        code = main(
            [
                "run", "--data", str(tiny_csv), "--algo", "sampling",
                "--gamma", "1.5", "--subcube", "1,2",
            ]
        )
        assert code == 2

    def test_gamma_star_outside_window_is_a_sweep_point(self, tiny_csv, capsys):
        # Decision thresholds below gamma/4 are legal on the command line;
        # they behave like sweep points rather than rebuilding parameters.
        code = main(
            [
                "run", "--data", str(tiny_csv), "--algo", "indep2p",
                "--gamma", "0.05", "--gamma-star", "0.005",
                "--subcube", "2,3", "--class-col", "1",
            ]
        )
        assert code == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["gamma_star"] == 0.005


class TestEval:
    def test_detect_outputs(self, tiny_csv, tmp_path):
        out = tmp_path / "report"
        code = main(
            [
                "eval", "--data", str(tiny_csv), "--algo", "sampling",
                "--algo", "indep2p", "--gamma", "0.05", "--memory-frac", "0.1",
                "--seeds", "1,2", "--subcube", "2,3", "--class-col", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        blob = json.loads((tmp_path / "report.json").read_text())
        assert set(blob["auc"]) == {"sampling", "indep2p"}
        csv_text = (tmp_path / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "algo,subcube,gamma_star,seed,tp,fp,reported"

    def test_freq_outputs(self, tiny_csv, tmp_path):
        out = tmp_path / "freq"
        code = main(
            [
                "eval", "--data", str(tiny_csv), "--algo", "sampling",
                "--algo", "cms-heuristic", "--gamma", "0.05",
                "--memory-fracs", "0.05,0.1", "--seeds", "1", "--task", "freq",
                "--subcube", "2,3", "--class-col", "1", "--out", str(out),
            ]
        )
        assert code == 0
        assert (tmp_path / "freq.json").exists()
        assert (tmp_path / "freq_freq.csv").exists()

    def test_failure_flushes_partial_results(self, tiny_csv, tmp_path, capsys, monkeypatch):
        # A heuristic AllQuery that exceeds its cap fails the run after the
        # sampling rows are done; those rows are written, the report is not.
        scored = harness.heuristic_all_query_scored
        monkeypatch.setattr(
            harness, "heuristic_all_query_scored",
            lambda mod, t, threshold=None: scored(mod, t, threshold, cap=0),
        )
        common = ["eval", "--data", str(tiny_csv), "--gamma", "0.05", "--memory-frac", "0.1",
                  "--seeds", "1,2", "--subcube", "2,3", "--class-col", "1"]
        assert main([*common, "--algo", "sampling", "--out", str(tmp_path / "ref" / "s")]) == 0
        expected = json.loads((tmp_path / "ref" / "s.json").read_text())
        capsys.readouterr()
        out = tmp_path / "run" / "rep"
        code = main([*common, "--algo", "sampling", "--algo", "cms-heuristic", "--out", str(out)])
        assert code == 3
        partial_path = tmp_path / "run" / "rep.partial.json"
        partial = json.loads(partial_path.read_text())
        assert partial["rows"] == expected["rows"] and partial["rows"]
        assert partial["roc"] == expected["roc"] == {"sampling": expected["roc"]["sampling"]}
        assert partial["auc"] == {}
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["rep.partial.json"]
        assert f"partial results flushed to {partial_path}\n" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "task, flags, tails",
        [
            ("detect", ["--memory-frac", "0.1"], [".csv", ".json"]),
            ("freq", ["--memory-fracs", "0.05"], [".json", "_freq.csv"]),
        ],
        ids=["detect", "freq"],
    )
    def test_dotted_out_keeps_its_whole_name(
        self, tiny_csv, tmp_path, capsys, task, flags, tails
    ):
        # Each file name is the whole --out name plus its tail, so runs
        # named by gamma leave separate files.
        for gamma in ("0.01", "0.05"):
            code = main(
                [
                    "eval", "--data", str(tiny_csv), "--task", task, "--algo", "sampling",
                    "--gamma", gamma, *flags, "--seeds", "1", "--subcube", "2,3",
                    "--class-col", "1", "--out", str(tmp_path / "dir" / f"g{gamma}"),
                ]
            )
            assert code == 0
        names = sorted(f"g{gamma}{tail}" for gamma in ("0.01", "0.05") for tail in tails)
        assert sorted(p.name for p in (tmp_path / "dir").iterdir()) == names
        for gamma in ("0.01", "0.05"):
            blob = json.loads((tmp_path / "dir" / f"g{gamma}.json").read_text())
            assert blob["config"]["gamma"] == float(gamma)
        assert f"wrote {tmp_path / 'dir' / 'g0.05.json'}\n" in capsys.readouterr().out

    def test_dotted_out_names_partial_results(self, tiny_csv, tmp_path, capsys, monkeypatch):
        scored = harness.heuristic_all_query_scored
        monkeypatch.setattr(
            harness, "heuristic_all_query_scored",
            lambda mod, t, threshold=None: scored(mod, t, threshold, cap=0),
        )
        code = main(
            [
                "eval", "--data", str(tiny_csv), "--algo", "sampling", "--algo", "cms-heuristic",
                "--gamma", "0.05", "--memory-frac", "0.1", "--seeds", "1", "--subcube", "2,3",
                "--class-col", "1", "--out", str(tmp_path / "dir" / "g0.05"),
            ]
        )
        assert code == 3
        assert [p.name for p in (tmp_path / "dir").iterdir()] == ["g0.05.partial.json"]
        assert json.loads((tmp_path / "dir" / "g0.05.partial.json").read_text())["rows"]


    def test_config_error_partway_writes_nothing(self, tiny_csv, tmp_path, capsys):
        # 2000 rows x 3 features x 0.001 = 6 slots: two sampled items, but no
        # Count-Min column (depth 4 needs 12). The heuristic's size rule fails
        # the run as a config error, so no partial report.
        out = tmp_path / "run" / "rep"
        code = main(
            [
                "eval", "--data", str(tiny_csv), "--algo", "sampling", "--algo", "cms-heuristic",
                "--gamma", "0.05", "--memory-frac", "0.001", "--subcube", "2,3",
                "--class-col", "1", "--out", str(out),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert "leaves width 0" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestHelp:
    @pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: subcubehh")


class TestDeterminismSubprocess:
    def test_eval_byte_identical(self, tiny_csv, tmp_path):
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / tag / "rep"
            proc = run_cli(
                "eval", "--data", str(tiny_csv), "--algo", "sampling",
                "--algo", "cms-heuristic", "--gamma", "0.05",
                "--memory-frac", "0.1", "--seeds", "3,4", "--subcube", "1,2",
                "--class-col", "1", "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(
                (
                    (tmp_path / tag / "rep.json").read_bytes(),
                    (tmp_path / tag / "rep.csv").read_bytes(),
                    proc.stdout.replace(tag, ""),
                )
            )
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]
        assert outs[0][2] == outs[1][2]


class TestBudgets:
    """A memory budget that cannot work exits 2 instead of answering nothing."""

    def run_algo(self, tiny_csv, algo, *extra):
        return main(
            [
                "run", "--data", str(tiny_csv), "--algo", algo, "--gamma", "0.05",
                "--subcube", "2,3", "--class-col", "1", *extra,
            ]
        )

    @pytest.mark.parametrize("frac", ["0", "3", "-0.5"])
    @pytest.mark.parametrize("algo", ["sampling", "indep2p", "nb2p", "cms-heuristic"])
    def test_memory_frac_outside_unit_interval(self, tiny_csv, capsys, algo, frac):
        assert self.run_algo(tiny_csv, algo, "--memory-frac", frac) == 2
        assert "memory fraction must be in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["sampling", "indep2p", "nb2p", "cms-heuristic"])
    def test_budget_below_one_slot_per_coordinate(self, tiny_csv, capsys, algo):
        # 2000 rows x 3 features x 1e-4 = 0 slots.
        assert self.run_algo(tiny_csv, algo, "--memory-frac", "0.0001") == 2
        assert capsys.readouterr().out == ""

    def test_zero_sample_size(self, tiny_csv):
        assert self.run_algo(tiny_csv, "sampling", "--sample-size", "0") == 2

    @pytest.mark.parametrize(
        "task",
        [
            ["--algo", "sampling", "--algo", "indep2p", "--algo", "cms-heuristic",
             "--memory-frac", "0.001"],
            ["--task", "freq", "--algo", "sampling", "--algo", "cms-heuristic",
             "--memory-fracs", "0.1,0.001"],
        ],
        ids=["detect", "freq"],
    )
    def test_eval_checks_every_budget_first(self, tiny_csv, tmp_path, capsys, monkeypatch, task):
        # 0.001 leaves 6 slots: enough for every algorithm but the last, the
        # heuristic (depth 4 over 3 features needs 12). Its builder's error
        # comes before any exact table is counted or any model is built.
        def fail(*_args, **_kwargs):
            pytest.fail("a table was counted or a model built before the budget check")

        for name in ("exact_table", "build_sample", "indep_pass1", "indep_pass2",
                     "nb_pass1", "nb_pass2", "heuristic_build"):
            monkeypatch.setattr(harness, name, fail)
        code = main(
            [
                "eval", "--data", str(tiny_csv), "--gamma", "0.05", "--subcube", "2,3",
                "--class-col", "1", "--out", str(tmp_path / "r"), *task,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: 6 slots over 3 coordinates x depth 4 leaves width 0\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_eval_memory_fracs_entry_rejected(self, tiny_csv, tmp_path):
        code = main(
            [
                "eval", "--data", str(tiny_csv), "--algo", "sampling", "--gamma", "0.05",
                "--memory-fracs", "0.05,0", "--task", "freq", "--subcube", "2,3",
                "--class-col", "1", "--out", str(tmp_path / "f"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "f.json").exists()


@pytest.fixture(scope="module")
def ragged_csv(tiny_csv, tmp_path_factory):
    """tiny_csv with a ragged last row: reading the whole file fails."""
    path = tmp_path_factory.mktemp("ragged") / "ragged.csv"
    path.write_text(tiny_csv.read_text() + "1,2\n")
    return path


class TestConfigBeforeData:
    """`run`, `eval` and `oracle` check the whole config, subcubes included,
    before they read the data past its first row."""

    RUN = ["run", "--algo", "indep2p", "--gamma", "0.05"]

    def test_ragged_file_is_runtime_error(self, ragged_csv, capsys):
        code = main([*self.RUN, "--subcube", "2,3", "--data", str(ragged_csv)])
        assert code == 3
        assert "row 2001 has 2 fields" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            [*RUN, "--subcube", "2,3", "--memory-frac", "0"],
            [*RUN, "--subcube", "1,9"],
            [*RUN, "--subcube", "2,2"],
            [*RUN, "--subcube", "2,x"],
            [*RUN, "--subcube", "2,3", "--gamma-star", "0"],
            [*RUN, "--subcube", "2,3", "--class-col", "0"],
            ["run", "--algo", "nb2p", "--gamma", "0.05", "--subcube", "2,3"],
            ["oracle", "--subcube", "1,9"],
            ["eval", "--algo", "sampling", "--gamma", "0.05", "--subcube", "1,9"],
            ["eval", "--algo", "nb2p", "--gamma", "0.05", "--subcube", "2,3"],
            ["eval", "--task", "freq", "--algo", "indep2p", "--gamma", "0.05",
             "--subcube", "2,3"],
            ["eval", "--task", "freq", "--algo", "sampling", "--algo", "nb2p",
             "--class-col", "1", "--gamma", "0.05", "--subcube", "2,3"],
            ["eval", "--task", "freq", "--algo", "sampling", "--sample-size", "50",
             "--gamma", "0.05", "--subcube", "2,3"],
            ["run", "--algo", "sampling", "--gamma", "0.05", "--subcube", "2,3",
             "--sample-size", "0"],
            ["eval", "--algo", "sampling", "--gamma", "0.05", "--subcube", "2,3",
             "--sample-size", "-3"],
        ],
        ids=["run-memory-frac", "run-subcube", "run-subcube-repeat", "run-subcube-unparsed",
             "run-gamma-star",
             "run-class-col", "run-nb2p-no-class", "oracle-subcube", "eval-subcube",
             "eval-nb2p-no-class", "eval-freq-indep2p", "eval-freq-nb2p",
             "eval-freq-sample-size", "run-sample-size-zero", "eval-sample-size-negative"],
    )
    def test_config_error_first(self, ragged_csv, tmp_path, capsys, argv):
        out = tmp_path / "new" / "out"  # eval would create its parent on success
        code = main([*argv, "--data", str(ragged_csv), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        for spec in ("1,9", "2,2"):  # named in the command line's 1-based terms
            if spec in argv:
                assert f"subcube {spec.replace(',', '-')}:" in captured.err
                assert "1..4" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [[*RUN, "--subcube", "2,3"], ["oracle", "--subcube", "2,3"]], ids=["run", "oracle"]
    )
    def test_missing_out_dir_fails_before_replay(self, ragged_csv, tmp_path, capsys, argv):
        out = tmp_path / "new" / "out.json"
        code = main([*argv, "--data", str(ragged_csv), "--out", str(out)])
        assert code == 3
        captured = capsys.readouterr()
        # the ragged row would be the error had the data been replayed
        assert captured.err == f"error: output directory {out.parent} does not exist\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestNotARegularFile:
    """`--data` naming no regular file. A directory exits 2 and writes
    nothing. A FIFO is read as a stream, like a file: one whose first row
    leaves no feature column exits 2 once that row is read, and writes
    nothing."""

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["oracle", "--subcube", "1"],
            ["run", "--algo", "sampling", "--gamma", "0.05", "--subcube", "1"],
            ["eval", "--algo", "sampling", "--gamma", "0.05", "--subcube", "1"],
        ],
        ids=["oracle", "run", "eval"],
    )
    def test_exits_2(self, tmp_path, capsys, argv, kind):
        data = tmp_path / "data"
        argv = [*argv, "--data", str(data), "--class-col", "1", "--out", str(tmp_path / "out")]
        if kind == "directory":
            data.mkdir()
            assert main(argv) == 2
            error = f"cannot open {data}: Is a directory"
        else:
            with fifo_fed(data, b"a\nb\n"):
                assert main(argv) == 2
            error = "dataset has no feature columns"
        captured = capsys.readouterr()
        assert captured.err == f"config error: {error}\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == [data]


STREAM_ARGV = {
    "oracle": ["oracle", "--subcube", "1,2", "--subcube", "3"],
    "run": ["run", "--algo", "cms-heuristic", "--gamma", "0.05", "--subcube", "1,2"],
    "eval": [
        "eval", "--algo", "sampling", "--algo", "indep2p", "--gamma", "0.05",
        "--memory-frac", "0.05", "--seeds", "0,1", "--subcube", "1,2", "--subcube", "2,3",
    ],
}


def check_same_outputs(command, ref, got, dataset):
    """`got` holds what `ref` holds: the JSON of oracle and run, and eval's
    CSV, byte for byte; eval's JSON is equal but for the dataset it names."""
    if command != "eval":
        assert got.read_bytes() == ref.read_bytes()
        return
    assert Path(f"{got}.csv").read_bytes() == Path(f"{ref}.csv").read_bytes()
    reports = [json.loads(Path(f"{out}.json").read_text()) for out in (ref, got)]
    assert reports[1]["config"].pop("dataset") == dataset
    reports[0]["config"].pop("dataset")
    assert reports[1] == reports[0]


@pytest.mark.parametrize("command", ["oracle", "run", "eval"])
class TestStream:
    """`--data -` reads standard input, and a FIFO reads as a stream; either
    writes what `--data FILE` writes."""

    def test_standard_input_equals_the_file(self, tiny_csv, tmp_path, command):
        argv = STREAM_ARGV[command]
        assert main([*argv, "--data", str(tiny_csv), "--out", str(tmp_path / "file")]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "subcubehh.cli", *argv, "--data", "-",
             "--out", str(tmp_path / "stdin")],
            input=tiny_csv.read_bytes(), capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        check_same_outputs(command, tmp_path / "file", tmp_path / "stdin", "-")

    def test_fifo_equals_the_file(self, tiny_csv, tmp_path, command):
        argv = STREAM_ARGV[command]
        assert main([*argv, "--data", str(tiny_csv), "--out", str(tmp_path / "file")]) == 0
        with fifo_fed(tmp_path / "fifo", tiny_csv.read_bytes()) as fifo:
            assert main([*argv, "--data", str(fifo), "--out", str(tmp_path / "fed")]) == 0
        check_same_outputs(command, tmp_path / "file", tmp_path / "fed", str(fifo))


class TestBadValues:
    """Every malformed or nonsensical value exits 2 and writes nothing."""

    @pytest.mark.parametrize("threshold", ["0", "-1"])
    def test_run_threshold_not_positive(self, tiny_csv, capsys, threshold):
        code = main(
            [
                "run", "--data", str(tiny_csv), "--algo", "indep2p", "--gamma", "0.05",
                "--gamma-star", threshold, "--subcube", "2,3", "--class-col", "1",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "decision threshold must be > 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra",
        [
            ["--task", "freq", "--top-k", "0"],
            ["--top-k", "-3"],
            ["--seeds", "a"],
            ["--seeds", "0,x"],
            ["--gamma-star-sweep", "0.01,0"],
            ["--gamma-star-sweep", "0.01,-1"],
            ["--gamma-star-sweep", "low"],
            ["--gamma-star-sweep", ","],
            ["--task", "freq", "--memory-fracs", "a"],
            ["--gamma-star-sweep", "0.02,0.05,0.05"],
            ["--algo", "sampling"],
            ["--subcube", "2,3"],
            ["--subcube", "3,2"],
            ["--seeds", "0,0"],
            ["--task", "freq", "--memory-frac", "0.5"],  # freq builds at --memory-fracs
            ["--memory-frac", "0.5", "--memory-fracs", "0.1"],  # detect reads neither
            ["--memory-frac", "0.5", "--top-k", "3"],
            ["--top-k", "10"],  # the freq default, given to detect
            ["--task", "freq", "--memory-fracs", "0.1", "--gamma-star-sweep", "0.01,0.02"],
            ["--task", "freq", "--memory-fracs", "0.05,0.05"],
            ["--out", "."],  # names no file to prefix
        ],
    )
    def test_eval_value(self, tiny_csv, tmp_path, capsys, extra):
        code = main(
            [
                "eval", "--data", str(tiny_csv), "--algo", "sampling", "--gamma", "0.05",
                "--subcube", "2,3", "--class-col", "1", "--out", str(tmp_path / "r"), *extra,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--algo", "nb2p", "--algo", "indep2p", "--sample-size", "50"],
            ["run", "--algo", "nb2p", "--sample-size", "50"],
        ],
        ids=["eval", "run"],
    )
    def test_sample_size_without_sampling(self, tiny_csv, tmp_path, capsys, argv):
        # Only a sampling build reads a sample size, so one given without it is an error.
        code = main(
            [
                *argv, "--data", str(tiny_csv), "--gamma", "0.05", "--subcube", "2,3",
                "--class-col", "1", "--out", str(tmp_path / "r"),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: a sample size is for the sampling algorithm")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delimiter", [",,", "", '"', "\r", "\n"])
    @pytest.mark.parametrize("command", ["oracle", "eval"])
    def test_delimiter_not_one_plain_character(
        self, tiny_csv, tmp_path, capsys, delimiter, command
    ):
        # Not one character, or a line end or csv's quote character.
        extra = ["--algo", "sampling", "--gamma", "0.05"] if command == "eval" else []
        code = main(
            [
                command, "--data", str(tiny_csv), "--subcube", "1,2",
                "--out", str(tmp_path / "r" / "out.json"), "--delimiter", delimiter, *extra,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "config error: delimiter must be one character other than \\r, \\n and '\"', "
            f"got {delimiter!r}\n"
        )
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_oracle_repeated_subcube(self, tiny_csv, tmp_path, capsys):
        # The same coordinate set in another order, as eval and run reject it.
        out = tmp_path / "o.json"
        code = main(
            [
                "oracle", "--data", str(tiny_csv), "--class-col", "1",
                "--subcube", "2,3", "--subcube", "3,2", "--out", str(out),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: subcubes repeat a value: ['2-3', '3-2']\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
