import csv
import errno
import gc
import io
import os
import random
import tempfile
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh.errors import ConfigError, EmptyFileError, RaggedRowError
from subcubehh import stream_io
from subcubehh.core import HHParams, make_subcube
from subcubehh.heuristic import DEFAULT_DEPTH, heuristic_build
from subcubehh.naivebayes import indep_pass1, indep_pass2, nb_pass1, nb_pass2
from subcubehh.oracle import exact_table
from subcubehh.sampling import build_sample
from subcubehh.stream_io import CHUNK_ROWS, from_items, from_rows, open_dataset
from tests.conftest import fifo_fed, file_and_rows, is_dictionary_int


def write_csv(path, rows, delimiter=","):
    path.write_text("\n".join(delimiter.join(r) for r in rows) + "\n")


def collect(handle):
    """Every (item, class code) the replay hands over, in order."""
    out = []

    def visit(columns, classes):
        rows = list(zip(*columns))
        out.extend(zip(rows, classes if classes is not None else [None] * len(rows)))

    handle.replay(visit)
    return out


def check_spill_serves_the_freeze(path, change):
    """Freeze a handle on the file ``path``, apply ``change(path)``, and
    check that two later replays hand over what the freeze read without
    parsing the file again."""
    h = open_dataset(path)
    first = collect(h)
    change(path)
    with count_parses() as parses:
        assert collect(h) == first
        assert collect(h) == first
    assert parses.call_count == 0
    return h


class TestOpenDataset:
    def test_basic_counts(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a", "b", "c"]] * 8)
        h = open_dataset(p)
        assert h.d == 3
        assert h.replay(lambda _i, _c: None) == 8
        assert h.m == 8

    def test_class_column_split(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a", "b", "c", "z0"], ["a", "b", "d", "z1"]])
        h = open_dataset(p, class_col=3)
        assert h.d == 3
        items = collect(h)
        assert items[0] == ((0, 0, 0), 0)
        assert items[1] == ((0, 0, 1), 1)
        assert h.n_classes == 2
        assert h.decode_class(1) == "z1"

    def test_class_lookups_need_a_class_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a", "b"]] * 3)
        h = open_dataset(p)
        h.replay(lambda _i, _c: None)
        for lookup in (lambda: h.n_classes, lambda: h.class_code("a"), lambda: h.decode_class(0)):
            with pytest.raises(ConfigError, match="no class column"):
                lookup()

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c,d\na,b,c,d\na,b,c,d,e\n")
        h = open_dataset(p)
        with pytest.raises(RaggedRowError):
            h.replay(lambda _i, _c: None)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(EmptyFileError):
            open_dataset(p)

    def test_header_only_file_is_empty(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("col1,col2\n")
        with pytest.raises(EmptyFileError):
            open_dataset(p, has_header=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            open_dataset(tmp_path / "nope.csv")

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_not_a_regular_file(self, tmp_path, kind):
        # A directory cannot be opened. A FIFO is opened once and read once,
        # as a stream, and hands over what the file it carries would.
        p = tmp_path / kind
        if kind == "directory":
            p.mkdir()
            with pytest.raises(ConfigError, match=f"cannot open {p}: Is a directory"):
                open_dataset(p)
            return
        rows = token_rows(2 * CHUNK_ROWS + 5)
        write_csv(tmp_path / "d.csv", rows)
        with fifo_fed(p, (tmp_path / "d.csv").read_bytes()):
            h = open_dataset(p, class_col=2)
            frozen = record(h)
        assert frozen == record(from_rows(rows, class_col=2)) == record(h)

    def test_tsv(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_csv(p, [["x", "y"], ["x", "z"]], delimiter="\t")
        h = open_dataset(p, delimiter="\t")
        assert [i for i, _ in collect(h)] == [(0, 0), (0, 1)]

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["c1", "c2"], ["a", "b"], ["a", "c"]])
        h = open_dataset(p, has_header=True)
        assert h.replay(lambda _i, _c: None) == 2

    def test_cache_items_true_rejected(self, tmp_path):
        # Every handle spills to a temporary file; keeping it in memory is gone.
        p = tmp_path / "d.csv"
        write_csv(p, [["a", "b"]])
        with pytest.raises(ConfigError, match="cache_items=True is gone"):
            open_dataset(p, cache_items=True)


class TestReplay:
    def test_first_seen_coding(self):
        h = from_rows([["a"], ["b"], ["a"]])
        assert [i for i, _ in collect(h)] == [(0,), (1,), (0,)]

    def test_two_replays_identical(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a", "x"], ["b", "y"], ["a", "x"], ["c", "y"]])
        h = open_dataset(p)
        first = collect(h)
        second = collect(h)
        assert first == second

    def test_decode_roundtrip(self):
        h = from_rows([["foo", "1"], ["bar", "2"], ["foo", "3"]])
        h.replay(lambda _i, _c: None)
        for coord in range(2):
            for token in {"foo", "bar"} if coord == 0 else {"1", "2", "3"}:
                assert h.decode(coord, h.code(coord, token)) == token

    def test_distinct_counts(self):
        h = from_rows([["a", "p"], ["b", "p"], ["a", "q"]])
        assert h.replay(lambda _i, _c: None) == 3
        assert h.cardinalities == (2, 2)

    def test_source_never_read_after_the_freeze(self, tmp_path):
        # Every pass sees the stream the freezing replay read: its spill, a
        # temporary file, serves it, whatever happens to the file afterwards.
        rows = token_rows(CHUNK_ROWS + 40)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=2)
        with count_temporary_files() as opened:
            first = collect(h)
        assert opened.call_count == 1
        with count_parses() as parses:
            write_csv(p, [["never-seen", "u0", "c0"]] + rows[::-1])  # new token, new length
            assert collect(h) == first
            p.unlink()
            assert collect(h) == first
        assert parses.call_count == 0
        assert h.m == len(rows)
        with pytest.raises(KeyError):
            h.code(0, "never-seen")

    def test_new_token_after_the_freeze_is_never_read(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a"], ["b"]])
        h = check_spill_serves_the_freeze(p, lambda q: write_csv(q, [["a"], ["zzz"]]))
        with pytest.raises(KeyError):
            h.code(0, "zzz")

    def test_changed_length_after_the_freeze_is_never_read(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a"], ["b"]])
        h = check_spill_serves_the_freeze(p, lambda q: write_csv(q, [["a"], ["b"], ["a"]]))
        assert h.m == 2

    def test_nested_replay_rejected(self):
        h = from_rows([["a"], ["b"]])

        def reenter(_item, _cls):
            h.replay(lambda _i, _c: None)

        with pytest.raises(ConfigError):
            h.replay(reenter)

    def test_bad_class_col(self):
        with pytest.raises(ConfigError):
            from_rows([["a", "b"]], class_col=2)

    def test_exact_counts_stored_once(self):
        # The first request counts every column in one replay; every later
        # one, of any column, reads the store.
        h = from_rows([["a", "x"], ["b", "y"], ["a", "x"]], class_col=1)
        h.replay(lambda _i, _c: None)
        with mock.patch.object(
            stream_io.DatasetHandle, "replay", autospec=True,
            side_effect=stream_io.DatasetHandle.replay,
        ) as replay:
            assert h.exact_counts(0) == {0: 2, 1: 1}
            assert h.exact_counts(None) == {0: 2, 1: 1}
            counts = h.exact_counts(0)
        assert replay.call_count == 1
        assert list(counts.items()) == [(0, 2), (1, 1)]
        # Keyed by the dictionary's own ints, as code_table gives them.
        assert [x is h.code(0, t) for x, t in zip(counts, "ab")] == [True, True]

    def test_exact_counts_freeze_an_unfrozen_handle(self, tmp_path):
        # On an unfrozen handle the count replay is the freezing replay.
        rows = token_rows(CHUNK_ROWS + 40)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=2)
        with count_parses() as parses, count_temporary_files() as opened:
            counts = h.exact_counts(1)
        assert parses.call_count == 1
        assert opened.call_count == 1
        assert h.m == len(rows)
        assert counts == Counter(h.code(1, r[1]) for r in rows)
        assert h.exact_counts(None) == Counter(h.class_code(r[2]) for r in rows)

    def test_dictionary_sizes_need_the_first_replay(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a", "b", "z"], ["c", "d", "z"]])
        for h in (open_dataset(p, class_col=2), from_items([(1, 2, 0), (3, 4, 0)], class_col=2)):
            for size in (lambda: h.cardinalities, lambda: h.n_classes):
                with pytest.raises(ConfigError, match="needs its first replay"):
                    size()
            h.replay(lambda _i, _c: None)
            assert (h.cardinalities, h.n_classes) == ((2, 2), 1)

    def test_in_memory_source_dropped_by_the_freeze(self):
        # Only the freezing replay reads the rows: a failed one keeps them,
        # to be read again, whether its visitor or its spill failed, and
        # the handle lets them go once one succeeds.
        class Rows(list):
            pass

        rows = Rows(token_rows(CHUNK_ROWS + 3))
        want = first_seen_codes(rows)
        source = weakref.ref(rows)
        h = stream_io.DatasetHandle(rows, class_col=2)
        del rows

        def fail(_columns, _classes):
            raise RuntimeError("visitor failed")

        with pytest.raises(RuntimeError):
            h.replay(fail)
        assert source() is not None
        check_failed_spill(h, token_rows(CHUNK_ROWS + 3), unopenable_spill, [])
        assert source() is None
        assert [(*item, z) for item, z in collect(h)] == want

    def test_in_memory_source_spills_to_one_temporary_file(self):
        h = from_rows(token_rows(CHUNK_ROWS + 3), class_col=2)
        with count_temporary_files() as opened:
            for _ in range(3):
                assert h.replay(lambda _c, _z: None) == CHUNK_ROWS + 3
        assert opened.call_count == 1
        spill = h._spill
        assert not spill.closed
        del h
        gc.collect()
        assert spill.closed  # closed with the handle

    def test_exact_counts_need_a_class_column(self):
        h = from_rows([["a"]])
        with pytest.raises(ConfigError, match="no class column"):
            h.exact_counts(None)

    def test_class_only_file_rejected(self):
        with pytest.raises(ConfigError):
            from_rows([["a"]], class_col=0)


def token_rows(m):
    """m rows whose first column meets a new token every 7 rows, so each
    chunk codes new tokens; the last column is a 3-valued class."""
    return [[f"t{r // 7}", f"u{r % 5}", f"c{r % 3}"] for r in range(m)]


def first_seen_codes(rows):
    """Reference encoding: per column, codes in first-seen order, row by row."""
    dicts = [{} for _ in rows[0]]
    return [tuple(d.setdefault(tok, len(d)) for d, tok in zip(dicts, row)) for row in rows]


def check_first_seen_coding(path, m, in_memory, class_col):
    """Chunk sizes, codes, decoding and cardinalities of `token_rows(m)`,
    read from a from_rows handle (`in_memory`) or from their file at
    `path`, equal the first-seen reference, in the freezing replay and
    after it."""
    rows = token_rows(m)
    if in_memory:
        h = from_rows(rows, class_col=class_col)
    else:
        write_csv(path, rows)
        h = open_dataset(path, class_col=class_col)
    features = [j for j in range(3) if j != class_col]
    sizes = []

    def visit(columns, classes):
        assert len(columns) == len(features)
        sizes.append(len(columns[0]))
        assert classes is None or len(classes) == sizes[-1]
        assert all(len(col) == sizes[-1] for col in columns)

    assert h.replay(visit) == m
    assert sizes == [CHUNK_ROWS] * (m // CHUNK_ROWS) + [m % CHUNK_ROWS] * (m % CHUNK_ROWS > 0)
    expect = [
        (tuple(codes[j] for j in features), None if class_col is None else codes[class_col])
        for codes in first_seen_codes(rows)
    ]
    assert collect(h) == expect  # frozen pass: the spill
    assert collect(h) == expect
    distinct = [list(dict.fromkeys(col)) for col in zip(*rows)]  # first-seen order
    assert h.cardinalities == tuple(len(distinct[j]) for j in features)
    for coord, j in enumerate(features):
        assert [h.decode(coord, x) for x in range(len(distinct[j]))] == distinct[j]
        assert [h.code(coord, tok) for tok in distinct[j]] == list(range(len(distinct[j])))
    if class_col is not None:
        assert h.n_classes == len(distinct[class_col])
        assert [h.decode_class(z) for z in range(h.n_classes)] == distinct[class_col]
        assert [h.class_code(tok) for tok in distinct[class_col]] == list(range(h.n_classes))


NEAR_ONE_AND_TWO_CHUNKS = [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]


class TestChunks:
    @pytest.mark.parametrize("m", NEAR_ONE_AND_TWO_CHUNKS)
    @pytest.mark.parametrize("in_memory", [False, True])
    def test_boundaries(self, tmp_path, m, in_memory):
        check_first_seen_coding(tmp_path / "d.csv", m, in_memory, class_col=2)

    @pytest.mark.parametrize("m", NEAR_ONE_AND_TWO_CHUNKS)
    @pytest.mark.parametrize("in_memory", [False, True])
    @pytest.mark.parametrize("class_col", [None, 0])
    def test_boundaries_class_column_absent_or_first(self, tmp_path, m, in_memory, class_col):
        check_first_seen_coding(tmp_path / "d.csv", m, in_memory, class_col)

    def test_ragged_row_in_second_chunk(self, tmp_path):
        rows = token_rows(CHUNK_ROWS + 5)
        rows[CHUNK_ROWS + 2].append("extra")  # row CHUNK_ROWS + 3, 1-based
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p)
        with pytest.raises(RaggedRowError, match=f"^row {CHUNK_ROWS + 3} has 4 fields"):
            h.replay(lambda _c, _z: None)

    def test_unseen_token_in_later_chunk_after_the_freeze_is_never_read(self, tmp_path):
        rows = token_rows(2 * CHUNK_ROWS)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        changed = [list(row) for row in rows]
        changed[CHUNK_ROWS + 10][1] = "never-seen"
        h = check_spill_serves_the_freeze(p, lambda q: write_csv(q, changed))
        with pytest.raises(KeyError):
            h.code(1, "never-seen")

    def test_blank_lines_and_header_skipped(self, tmp_path):
        rows = token_rows(CHUNK_ROWS + 2)
        lines = ["h1,h2,h3"]
        for r, row in enumerate(rows):
            lines.append(",".join(row))
            if r % 100 == 0 or r == CHUNK_ROWS - 1:
                lines.append("")
        p = tmp_path / "d.csv"
        p.write_text("\n".join(lines) + "\n")
        h = open_dataset(p, has_header=True)
        assert [item for item, _ in collect(h)] == first_seen_codes(rows)
        assert h.m == CHUNK_ROWS + 2


def record(handle):
    """Every chunk the replay hands over, as (columns, classes) copies, and
    the item count the replay returns."""
    chunks = []

    def visit(columns, classes):
        chunks.append((list(map(list, columns)), None if classes is None else list(classes)))

    return chunks, handle.replay(visit)


def count_temporary_files():
    """Patch tempfile.TemporaryFile to count the spill files opened while
    the patch holds."""
    return mock.patch.object(tempfile, "TemporaryFile", wraps=tempfile.TemporaryFile)


def columns_of(chunks):
    """Every column of every (columns, classes) chunk, classes included."""
    return [col for columns, classes in chunks for col in (*columns, classes) if col is not None]


def frozen_chunks(h):
    """The chunks of `h`'s freezing replay, copied as `record` copies them,
    after checking that that replay hands list columns and a later one
    hands the same codes in array('I') columns, the spill's packed codes."""
    parsed, packed = [], []
    for chunks in (parsed, packed):
        h.replay(lambda columns, classes, chunks=chunks: chunks.append((columns, classes)))
    assert all(type(col) is list for col in columns_of(parsed))
    assert all(type(col) is array and col.typecode == "I" for col in columns_of(packed))

    def copied(chunks):
        return [(list(map(list, c)), None if z is None else list(z)) for c, z in chunks]

    assert copied(packed) == copied(parsed)
    return copied(parsed)


def count_parses():
    """Patch the one parse entry point to count the parses made while the
    patch holds."""
    parse = stream_io.DatasetHandle._token_chunks
    return mock.patch.object(
        stream_io.DatasetHandle, "_token_chunks", autospec=True, side_effect=parse
    )


# Row counts at and around 1, 2 and 3 chunks, and a few below one chunk.
NEAR_CHUNK_MULTIPLES = st.one_of(
    st.integers(1, 5),
    st.integers(1, 3).flatmap(
        lambda k: st.integers(k * CHUNK_ROWS - 2, k * CHUNK_ROWS + 2)
    ),
)


class TestSpill:
    """Later replays of a file read the codes its freezing replay spilled,
    and hand over exactly what that replay parsed."""

    @settings(max_examples=25)
    @given(m=NEAR_CHUNK_MULTIPLES, class_col=st.sampled_from([None, 0, 2]))
    def test_spill_replay_equals_csv_replay(self, tmp_path_factory, m, class_col):
        rows = token_rows(m)
        p = tmp_path_factory.mktemp("spill") / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=class_col)
        with count_parses() as parses:
            parsed, first_m = record(h)  # the freezing replay parses the file
            assert parses.call_count == 1
            for _ in range(2):
                spilled, again = record(h)
                assert parses.call_count == 1  # served from the spill
                assert again == first_m == m
                assert spilled == parsed  # sizes, codes and class codes
        sizes = [len(columns[0]) for columns, _classes in parsed]
        assert sizes == [CHUNK_ROWS] * (m // CHUNK_ROWS) + [m % CHUNK_ROWS] * (m % CHUNK_ROWS > 0)
        features = [j for j in range(3) if j != class_col]
        expect = first_seen_codes(rows)
        got_items = [row for columns, _z in spilled for row in zip(*columns)]
        assert got_items == [tuple(codes[j] for j in features) for codes in expect]
        got_classes = [z for _c, classes in spilled for z in (classes or [])]
        assert got_classes == ([] if class_col is None else [c[class_col] for c in expect])

    def test_file_and_rows_handles_spill_equal_codes(self, tmp_path):
        # The file's split path and a from_rows handle's row path spill the
        # same codes.
        rows = token_rows(2 * CHUNK_ROWS + 5)
        spilled, in_memory = file_and_rows(tmp_path / "d.csv", rows, class_col=2)
        chunks = []
        with count_parses() as parses:
            spilled.replay(lambda columns, classes: chunks.append((columns, classes)))
        assert parses.call_count == 0
        for columns, classes in chunks:  # each column a slice of the packed codes
            assert all(type(col) is array and col.typecode == "I" for col in (*columns, classes))
        assert [(list(map(list, c)), list(z)) for c, z in chunks] == record(in_memory)[0]
        code = spilled.code(0, rows[-1][0])
        assert code > 256  # outside CPython's small-int cache
        last = chunks[-1][0][0][-1]
        assert last == code and last is not code  # an equal int, not the dictionary's

    def test_rewritten_file_is_never_read(self, tmp_path):
        rows = token_rows(CHUNK_ROWS + 40)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        size = p.stat().st_size

        def rewrite(q):
            write_csv(q, rows[::-1])  # the same length, and only tokens seen before
            assert q.stat().st_size == size

        h = check_spill_serves_the_freeze(p, rewrite)
        assert [item for item, _z in collect(h)] == first_seen_codes(rows)

    def test_deleted_file_is_never_read(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, token_rows(10))
        h = check_spill_serves_the_freeze(p, lambda q: q.unlink())
        assert h.m == 10

    def test_unchanged_file_parsed_once_per_handle(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, token_rows(3 * CHUNK_ROWS))
        h = open_dataset(p, class_col=2)  # reads the first row only
        with count_parses() as parses:
            for _ in range(7):
                assert h.replay(lambda _c, _z: None) == 3 * CHUNK_ROWS
        assert parses.call_count == 1

    def test_failed_freezing_replay_leaves_no_spill(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, token_rows(CHUNK_ROWS + 3))
        h = open_dataset(p)

        def fail(_columns, _classes):
            raise RuntimeError("visitor failed")

        with pytest.raises(RuntimeError):
            h.replay(fail)
        assert h.m is None
        with count_parses() as parses:
            first, _ = record(h)  # freezes now
            second, _ = record(h)
        assert parses.call_count == 1
        assert first == second

    @pytest.mark.parametrize("fails", ["open", "write"])
    def test_unwritable_spill_fails_the_freeze(self, tmp_path, fails):
        rows = token_rows(2 * CHUNK_ROWS + 1)
        opened = []

        class FullDisk(io.BytesIO):
            def write(self, data):
                if self.tell() > 0:  # the first chunk fits, the second does not
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        def temporary_file():
            if fails == "open":
                unopenable_spill()
            opened.append(FullDisk())
            return opened[-1]

        check_failed_spill(file_handle(tmp_path, rows), rows, temporary_file, opened)

    @pytest.mark.parametrize(
        "m, buffer_size",
        [
            (1000, 1 << 16),  # every chunk fits the buffer: only the final flush fails
            (2 * CHUNK_ROWS + 1, 1 << 14),  # a write fails with a chunk still buffered
        ],
    )
    def test_unflushable_spill_fails_the_freeze(self, tmp_path, m, buffer_size):
        opened = []

        class FullDiskFile(io.FileIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        def temporary_file():
            raw = FullDiskFile(tmp_path / "spill", "w+b")
            opened.append(io.BufferedRandom(raw, buffer_size))
            return opened[-1]

        rows = token_rows(m)
        check_failed_spill(file_handle(tmp_path, rows), rows, temporary_file, opened)


def unopenable_spill(*_args, **_kwargs):
    raise OSError(errno.ENOENT, "No usable temporary directory")


def fail_in_second_chunk():
    """A visitor that raises RuntimeError at the second chunk it is handed."""
    seen = []

    def visit(columns, _classes):
        seen.append(columns)
        if len(seen) == 2:
            raise RuntimeError("visitor failed")

    return visit


def file_handle(tmp_path, rows):
    """An unfrozen handle on `rows` written to a file, class column 2."""
    p = tmp_path / "d.csv"
    write_csv(p, rows)
    return open_dataset(p, class_col=2)


def check_failed_spill(h, rows, temporary_file, opened):
    """A freezing replay of `h`, an unfrozen handle on `rows` with class
    column 2, whose spill (made by `temporary_file`, which puts each file
    it opens in `opened`) cannot be opened, written or flushed fails with
    that OSError, leaves the handle unfrozen with no spill and every spill
    closed; a retry freezes, and replays as a from_rows handle on `rows`."""
    with mock.patch.object(tempfile, "TemporaryFile", temporary_file):
        with pytest.raises(OSError, match="No usable temporary directory|No space left"):
            record(h)
    assert h.m is None and h._spill is None
    assert all(f.closed for f in opened)
    frozen, m = record(h)  # the retry spills to a real temporary file
    assert m == len(rows) and h._spill is not None
    want = record(from_rows(rows, class_col=2))
    assert (frozen, m) == want
    with count_parses() as parses:
        assert record(h) == want
    assert parses.call_count == 0


@contextmanager
def code_table_calls():
    """Counts the code_table calls per coordinate (None: the class column)
    made while the patch holds."""
    calls = Counter()
    real = stream_io.DatasetHandle.code_table

    def counting(self, coord):
        calls[coord] += 1
        return real(self, coord)

    with mock.patch.object(stream_io.DatasetHandle, "code_table", counting):
        yield calls


class TestDecodeOnRead:
    """A replay of the spill decodes nothing; a build maps the codes it
    keeps through code_table once per coordinate, at the end."""

    # Coordinate 0 overflows the heuristic's 16 counters; the rest fit.
    ROWS = [(r * 7 % 40, r % 5, r % 3, r % 4) for r in range(3 * CHUNK_ROWS + 37)]
    M = len(ROWS)

    def spilled(self, tmp_path):
        return file_and_rows(tmp_path / "d.csv", self.ROWS, class_col=3)[0]

    def test_no_op_visitor_decodes_nothing(self, tmp_path):
        h = self.spilled(tmp_path)
        with code_table_calls() as calls:
            assert h.replay(lambda _c, _z: None) == self.M
        assert calls == {}

    def test_heuristic_decodes_only_what_it_feeds(self, tmp_path):
        h = self.spilled(tmp_path)
        p = HHParams(1.0)  # 16 counters per coordinate
        # The first build counts every column, then feeds coordinate 0
        # alone; so does a second one, which reads the stored counts.
        builds = []
        for _ in range(2):
            with code_table_calls() as calls:
                builds.append(heuristic_build(h, 3 * 4 * 7, p, seed=1))
            assert calls == {0: 1}
        first, second = builds
        kept = [len(sk.counters) for sk in first.mg]
        assert kept[1:] == [5, 3] and first.mg[0].decrements > 0
        assert second.tables == first.tables
        for mod in (first, second):
            for j, (sk, table) in enumerate(zip(mod.mg, mod.tables)):
                assert all(is_dictionary_int(h, j, x) for x in [*sk.counters, *table[0]])

    @pytest.mark.parametrize("capacity", [300, CHUNK_ROWS + 5])
    def test_sample_maps_each_coordinate_once(self, tmp_path, capacity):
        h = self.spilled(tmp_path)
        with code_table_calls() as calls:
            mod = build_sample(h, capacity, 3, HHParams(0.5))
        assert calls == {0: 1, 1: 1, 2: 1}
        assert mod.m_prime == capacity
        assert all(is_dictionary_int(h, j, x) for j, col in enumerate(mod.columns) for x in col)


def build_all(h, budget, capacity, width, seed, heuristic_first):
    """Every model, oracle table and exact count on `h`, in an order that
    decides which build makes the handle count its columns."""
    p = HHParams(0.5)  # the heuristic's summaries hold 32 counters
    built = {}
    if heuristic_first:
        built["heuristic"] = heuristic_build(h, DEFAULT_DEPTH * h.d * width, p, seed)
    built["nb_pass1"] = nb_pass1(h, p, budget)
    built["nb"] = nb_pass2(h, *built["nb_pass1"], p)
    built["indep_pass1"] = indep_pass1(h, p, budget)
    built["indep"] = indep_pass2(h, built["indep_pass1"], p)
    if not heuristic_first:
        built["heuristic"] = heuristic_build(h, DEFAULT_DEPTH * h.d * width, p, seed)
    built["sample"] = build_sample(h, capacity, seed, p)
    for coords in ([0, 1], [2, 0, 1]):
        built[tuple(coords)] = exact_table(h, make_subcube(coords, h.d))
    built["marginals"] = [h.exact_counts(j) for j in range(h.d)] + [h.exact_counts(None)]
    return built


def kept_codes(built):
    """(coordinate, code) for every feature code the models keep."""
    heur = built["heuristic"]
    yield from ((j, x) for j, col in enumerate(built["sample"].columns) for x in col)
    for j, (sk, table) in enumerate(zip(heur.mg, heur.tables)):
        yield from ((j, x) for x in [*sk.counters, *table[0]])
    for cands in (built["nb_pass1"][1], built["indep_pass1"]):
        yield from ((j, x) for j, s in enumerate(cands.sets) for x in s)
    yield from ((j, x) for j, counts in enumerate(built["marginals"][:-1]) for x in counts)
    for mod in (built["nb"], built["indep"]):
        for j in range(len(mod.tables)):
            rows = [x for x, *_ in mod.tables[j]]
            yield from ((j, x) for x in [*rows, *mod.index[j], *mod.class_counts_by_value[j]])


class TestModelsOnSpill:
    """Every model, oracle table and exact count built on a file handle
    equals the one built on a from_rows handle of the same rows, oracle
    keys in the same order. Every model and the exact counts keep only the
    dictionary's own ints, whether the summaries decrement or not."""

    @settings(max_examples=30)
    @given(
        data_seed=st.integers(0, 2**16),
        m=st.integers(1, 3 * CHUNK_ROWS),
        cards=st.tuples(st.integers(300, 700), st.integers(1, 40), st.integers(1, 40)),
        ell=st.integers(1, 4),
        budget=st.integers(1, 60),  # below and above coordinates 1 and 2
        capacity=st.integers(1, 3 * CHUNK_ROWS),
        width=st.integers(1, 50),
        seed=st.integers(0, 3),
        heuristic_first=st.booleans(),
    )
    def test_file_models_equal_rows_models_and_keep_dictionary_ints(
        self, tmp_path_factory, data_seed, m, cards, ell, budget, capacity, width, seed,
        heuristic_first,
    ):
        rng = random.Random(data_seed)
        # Half the draws from the first 3 values of a coordinate, so some are heavy.
        rows = [
            (*(rng.randrange(min(n, 3) if rng.random() < 0.5 else n) for n in cards),
             rng.randrange(ell))
            for _ in range(m)
        ]
        path = tmp_path_factory.mktemp("models") / "d.csv"
        spilled, in_memory = file_and_rows(path, rows, class_col=3)
        args = budget, capacity, width, seed, heuristic_first
        want, got = build_all(in_memory, *args), build_all(spilled, *args)
        for key in want:
            if key == "heuristic":
                summaries = [
                    [(sk.counters, sk.processed, sk.decrements) for sk in mod.mg]
                    for mod in (got[key], want[key])
                ]
                assert got[key].tables == want[key].tables
                assert summaries[0] == summaries[1]
            else:
                assert got[key] == want[key], key
            if isinstance(key, tuple):  # an oracle table
                assert list(got[key].counts) == list(want[key].counts)
        assert all(is_dictionary_int(spilled, j, x) for j, x in kept_codes(got))


class TestFreezeCoding:
    """Only the freezing replay codes new tokens; every other lookup leaves
    the dictionaries as they are."""

    def test_lookups_before_the_freeze_raise_and_code_nothing(self, tmp_path):
        rows = token_rows(CHUNK_ROWS + 10)  # the last row's first token is new in chunk 2
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=2)
        for lookup in (lambda: h.code(0, "t5"), lambda: h.code(1, "never"),
                       lambda: h.class_code("c1")):
            with pytest.raises(KeyError):
                lookup()
        missed = []

        def visit(_columns, _classes):
            try:  # mid-freeze: a token of a later chunk is not coded yet
                h.code(0, rows[-1][0])
            except KeyError as exc:
                missed.append(exc.args[0])

        h.replay(visit)
        assert missed == [rows[-1][0]]  # the first chunk missed it; the second coded it
        assert [item for item, _z in collect(h)] == [c[:2] for c in first_seen_codes(rows)]
        assert h.cardinalities == (len({r[0] for r in rows}), 5)
        assert h.n_classes == 3
        with pytest.raises(KeyError):
            h.code(1, "never")
        assert h.cardinalities == (len({r[0] for r in rows}), 5)

    @pytest.mark.parametrize("in_memory", [False, True])
    def test_failed_freezing_replay_then_retry(self, tmp_path, in_memory):
        rows = token_rows(2 * CHUNK_ROWS + 5)
        h = from_rows(rows, class_col=2) if in_memory else file_handle(tmp_path, rows)
        with pytest.raises(RuntimeError):
            h.replay(fail_in_second_chunk())
        assert h.m is None
        with pytest.raises(KeyError):  # no longer coding: the last chunk's token is unknown
            h.code(0, rows[-1][0])
        assert h.decode(0, h.code(0, rows[0][0])) == rows[0][0]  # what was coded decodes
        assert [item for item, _z in collect(h)] == [c[:2] for c in first_seen_codes(rows)]
        distinct = list(dict.fromkeys(r[0] for r in rows))
        assert [h.decode(0, x) for x in range(len(distinct))] == distinct
        assert [item for item, _z in collect(h)] == [c[:2] for c in first_seen_codes(rows)]



class TestEncodeOneCall:
    """Each chunk column is encoded by one itemgetter call, which hands a
    bare code, not a tuple, for a single key: a chunk of one row is coded
    apart."""

    @pytest.mark.parametrize("m", [1, CHUNK_ROWS + 1])  # the last chunk holds one row
    @pytest.mark.parametrize("source", ["file", "rows"])
    def test_one_row_chunk(self, tmp_path, m, source):
        rows = token_rows(m)
        h = file_handle(tmp_path, rows) if source == "file" else from_rows(rows, class_col=2)
        with count_temporary_files() as opened:
            chunks, n = record(h)
        assert (n, len(chunks[-1][1])) == (m, 1)
        assert opened.call_count == 1
        rows_seen = [zip(*columns, classes) for columns, classes in chunks]
        assert [row for chunk in rows_seen for row in chunk] == first_seen_codes(rows)
        assert record(h) == (chunks, n)

    @pytest.mark.parametrize("m", [1, CHUNK_ROWS, CHUNK_ROWS + 1])
    @pytest.mark.parametrize("class_col", [None, 2])
    @pytest.mark.parametrize("source", ["split", "csv", "rows"])
    def test_cached_replays_hand_packed_codes(self, tmp_path, source, class_col, m):
        # Every handle, whatever parses its source, keeps the packed codes,
        # not the lists its freezing replay parsed, in one temporary file.
        # A quoted file hands off to csv.reader at its first block.
        rows = token_rows(m)
        with count_temporary_files() as opened, mock.patch.object(
            stream_io, "_row_chunks", wraps=stream_io._row_chunks
        ) as row_chunks:
            if source == "rows":
                h = from_rows(rows, class_col=class_col)
            else:
                p = tmp_path / "d.csv"
                quoting = csv.QUOTE_ALL if source == "csv" else csv.QUOTE_MINIMAL
                with open(p, "w", newline="") as fh:
                    csv.writer(fh, quoting=quoting).writerows(rows)
                h = open_dataset(p, class_col=class_col)
            chunks = frozen_chunks(h)
        assert opened.call_count == 1
        assert row_chunks.called == (source != "split")
        features = [j for j in range(3) if j != class_col]
        expect = first_seen_codes(rows)
        assert [row for columns, _z in chunks for row in zip(*columns)] == [
            tuple(codes[j] for j in features) for codes in expect
        ]
        classes = [z for _c, zs in chunks for z in (zs or [])]
        assert classes == ([] if class_col is None else [codes[class_col] for codes in expect])


def csv_reference(path, delimiter, has_header):
    """The csv.reader parse, kept as the reference for the split path: the
    token columns of each chunk of up to CHUNK_ROWS non-blank rows, the
    first line skipped with has_header, and a ragged row or an empty file
    raising as the handle raises."""
    chunks = []
    m = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        if has_header:
            next(reader, None)
        rows = filter(None, reader)
        while chunk := list(islice(rows, CHUNK_ROWS)):
            n_cols = len(chunks[0]) if chunks else len(chunk[0])
            for r, row in enumerate(chunk):
                if len(row) != n_cols:
                    raise RaggedRowError(
                        f"row {m + r + 1} has {len(row)} fields, expected {n_cols}"
                    )
            m += len(chunk)
            chunks.append([list(col) for col in zip(*chunk)])
    if not chunks:
        raise EmptyFileError("no data rows in source")
    return chunks


def handle_tokens(path, delimiter, has_header):
    """The token columns of each chunk the handle hands over in its
    freezing replay, which a later replay of the packed codes repeats."""
    h = open_dataset(path, delimiter=delimiter, has_header=has_header)
    chunks = frozen_chunks(h)
    return [
        [[h.decode(j, x) for x in col] for j, col in enumerate(columns)] for columns, _z in chunks
    ]


def outcome(parse):
    """What a parse returns, or the type and message of what it raises."""
    try:
        return parse()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome compared
        return type(exc), str(exc)


class TestSplitPath:
    """A file is split by text blocks until a block holds a '"' or a NUL,
    when csv.reader reads the rest, and reads exactly as csv.reader reads
    it: the same chunks, tokens and errors."""

    @settings(max_examples=100, deadline=None)
    @given(
        m=NEAR_CHUNK_MULTIPLES,
        n_cols=st.integers(1, 4),
        delimiter=st.sampled_from([",", "\t"]),
        endings=st.sampled_from(["\n", "\r\n", "\r", "mixed"]),
        blank_every=st.sampled_from([0, 1, 5, 300]),
        has_header=st.booleans(),
        blank_first=st.booleans(),
        trailing_newline=st.booleans(),
        odd_row=st.sampled_from([None, "ragged", "quote", "long"]),
        block=st.sampled_from([1, 2, 7, 64, 1 << 14]),
        field_limit=st.sampled_from([None, 8]),
        seed=st.integers(0, 2**16),
    )
    def test_split_path_equals_csv_reader(
        self, tmp_path_factory, m, n_cols, delimiter, endings, blank_every, has_header,
        blank_first, trailing_newline, odd_row, block, field_limit, seed,
    ):
        rnd = random.Random(seed)
        # Whitespace, and characters str.splitlines() would split at but csv does not.
        alphabet = "ab \x0b\x0c\x1c\x85\u2028é"
        rows = [
            ["".join(rnd.choices(alphabet, k=rnd.randint(0, 4))) for _ in range(n_cols)]
            for _ in range(m)
        ]
        r = rnd.randrange(m)
        if odd_row == "ragged" and (n_cols == 1 or rnd.random() < 0.5):
            rows[r].append("extra")
        elif odd_row == "ragged":
            rows[r].pop()
        elif odd_row == "quote":  # a quoted field holding the delimiter and a line end
            rows[r][0] = f'"q{delimiter}\nq"'
        elif odd_row == "long":
            rows[r][-1] = "x" * 12
        lines = ["h" * n_cols] if has_header else []
        if blank_first:
            lines.insert(0, "")
        for i, row in enumerate(rows):
            lines.append(delimiter.join(row))
            if blank_every and i % blank_every == 0:
                lines.append("")
        ends = ["\n", "\r\n", "\r"] if endings == "mixed" else [endings]
        text = "".join(line + rnd.choice(ends) for line in lines)
        if not trailing_newline:
            text = text.rstrip("\r\n")
        p = tmp_path_factory.mktemp("split") / "d.csv"
        p.write_text(text, newline="")
        plain = odd_row != "quote"
        assert ('"' not in text) == plain
        limit = csv.field_size_limit()
        try:
            if field_limit is not None:
                csv.field_size_limit(field_limit)
            expect = outcome(lambda: csv_reference(p, delimiter, has_header))
            with mock.patch.object(stream_io, "_TEXT_BLOCK", block), mock.patch.object(
                stream_io, "_split_chunks", wraps=stream_io._split_chunks
            ) as split, mock.patch.object(
                stream_io, "_row_chunks", wraps=stream_io._row_chunks
            ) as handoff:
                got = outcome(lambda: handle_tokens(p, delimiter, has_header))
        finally:
            csv.field_size_limit(limit)
        assert got == expect
        assert not (plain and handoff.called)  # csv.reader reads no plain file
        if isinstance(got, list):  # the file was read: split, and a quoted one handed off
            assert split.called and handoff.called == (not plain)

    @pytest.mark.parametrize("long_field", [False, True])
    def test_line_over_field_size_limit(self, tmp_path, long_field):
        # Lines of "t293,u4,c2" are longer than the limit, and their fields
        # are not; a 20-character field in the second chunk is. csv meets
        # that field before the chunk's ragged row is checked.
        rows = token_rows(2 * CHUNK_ROWS + 5)
        rows[CHUNK_ROWS + 9].append("extra")
        if long_field:
            rows[CHUNK_ROWS + 3][1] = "x" * 20
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        limit = csv.field_size_limit(9)
        try:
            expect = outcome(lambda: csv_reference(p, ",", False))
            got = outcome(lambda: handle_tokens(p, ",", False))
        finally:
            csv.field_size_limit(limit)
        assert got == expect
        if long_field:
            assert got == (csv.Error, "field larger than field limit (9)")
        else:
            assert got == (RaggedRowError, f"row {CHUNK_ROWS + 10} has 4 fields, expected 3")

    @pytest.mark.parametrize("body", [b"a,b\nc,\x00d\ne,f\n", b'a,b\n"c\n,d",e\n'])
    def test_nul_or_quote_takes_the_csv_path(self, tmp_path, body):
        # csv before Python 3.11 rejects NUL ("line contains NUL"); later
        # versions read it as a character. The handle does what csv does:
        # the first chunk is split, and csv.reader reads on, from the row
        # after it, at the 64-character block holding the NUL or '"'.
        p = tmp_path / "d.csv"
        p.write_bytes(b"a,b\n" * CHUNK_ROWS + body)
        expect = outcome(lambda: csv_reference(p, ",", False))
        with mock.patch.object(stream_io, "_TEXT_BLOCK", 64), mock.patch.object(
            stream_io, "_row_chunks", wraps=stream_io._row_chunks
        ) as handoff:
            assert outcome(lambda: handle_tokens(p, ",", False)) == expect
        assert handoff.call_count == 1 and handoff.call_args.args[2] == CHUNK_ROWS

    @pytest.mark.parametrize("in_memory", [False, True])
    def test_failing_visitor_closes_the_file(self, tmp_path, in_memory):
        # Both the source file, when there is one, and the spill. The file
        # is opened when the handle is made.
        rows = token_rows(3 * CHUNK_ROWS)
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        spills = []

        def tracking_spill():
            spills.append(spill_file())
            return spills[-1]

        spill_file = tempfile.TemporaryFile
        with mock.patch.object(stream_io, "open", tracking_open, create=True), mock.patch.object(
            stream_io, "_split_chunks", wraps=stream_io._split_chunks
        ) as split, mock.patch.object(tempfile, "TemporaryFile", tracking_spill):
            h = from_rows(rows, class_col=2) if in_memory else file_handle(tmp_path, rows)
            with pytest.raises(RuntimeError):
                h.replay(fail_in_second_chunk())
        assert split.call_count == (not in_memory)
        assert len(spills) == 1 and bool(opened) == (not in_memory)
        assert all(f.closed for f in [*opened, *spills])  # not left to the garbage collector


class CountingFile:
    """A text file that counts the characters its reads return."""

    def __init__(self, fh):
        self.fh, self.chars = fh, 0

    def _counted(self, text):
        self.chars += len(text)
        return text

    def read(self, n=-1):
        return self._counted(self.fh.read(n))

    def readline(self):
        return self._counted(self.fh.readline())

    def close(self):
        self.fh.close()


@contextmanager
def counting_opens():
    """Patch the module's open to wrap each file it opens in a CountingFile,
    listed in the value yielded."""
    opened = []

    def counting_open(*args, **kwargs):
        opened.append(CountingFile(open(*args, **kwargs)))
        return opened[-1]

    with mock.patch.object(stream_io, "open", counting_open, create=True):
        yield opened


class TestOneRead:
    """A file is opened once, when the handle is made, and the freeze reads
    on from the first row: every character is read once, whatever reads
    it, and the file is closed when the freeze, or the handle's making,
    ends. Standard input reads the same way."""

    @pytest.mark.parametrize("has_header", [False, True])
    @pytest.mark.parametrize("quote_at", [None, 5 * CHUNK_ROWS // 2], ids=["plain", "late-quote"])
    def test_one_open_reads_every_character_once(self, tmp_path, quote_at, has_header):
        # The quoted field falls in the second 16k-character block, so the
        # rows before it are split and csv.reader reads those after it.
        rows = token_rows(3 * CHUNK_ROWS)
        if quote_at is not None:
            rows[quote_at][1] = 'q"\n"q'
        p = tmp_path / "d.csv"
        with open(p, "w", newline="") as fh:
            csv.writer(fh).writerows([["h1", "h2", "h3"]] * has_header + rows)
        with open(p, newline="") as fh:
            n_chars = len(fh.read())
        with counting_opens() as opened, mock.patch.object(
            stream_io, "_row_chunks", wraps=stream_io._row_chunks
        ) as handoff:
            h = open_dataset(p, has_header=has_header, class_col=2)
            frozen = record(h)
        assert len(opened) == 1 and opened[0].fh.closed
        assert opened[0].chars == n_chars
        assert handoff.called == (quote_at is not None)
        assert frozen == record(from_rows(rows, class_col=2)) == record(h)

    @pytest.mark.parametrize(
        "text, class_col, error",
        [
            ("a,bbbbbbbbbbbb\nc,d\n", None, csv.Error),  # a field over the limit in row 1
            ("\n\r\n", None, EmptyFileError),
            ("a,b\nc,d\n", 2, ConfigError),
            ("a\nb\n", 0, ConfigError),  # no feature column
        ],
        ids=["csv-error", "empty", "bad-class-col", "class-only"],
    )
    def test_failed_open_leaves_no_file_open(self, tmp_path, text, class_col, error):
        p = tmp_path / "d.csv"
        p.write_text(text)
        limit = csv.field_size_limit(8)
        try:
            with counting_opens() as opened, pytest.raises(error):
                open_dataset(p, class_col=class_col)
        finally:
            csv.field_size_limit(limit)
        assert len(opened) == 1 and opened[0].fh.closed

    def test_dropped_unfrozen_handle_closes_the_file(self, tmp_path):
        with counting_opens() as opened:
            h = file_handle(tmp_path, token_rows(5))
        assert not opened[0].fh.closed
        del h
        gc.collect()
        assert opened[0].fh.closed

    def test_failed_freeze_reopens_a_regular_file(self, tmp_path):
        rows = token_rows(2 * CHUNK_ROWS + 5)
        with counting_opens() as opened:
            h = file_handle(tmp_path, rows)
            with pytest.raises(RuntimeError):
                h.replay(fail_in_second_chunk())
            assert len(opened) == 1 and opened[0].fh.closed
            assert record(h) == record(from_rows(rows, class_col=2))
        assert len(opened) == 2 and opened[1].fh.closed

    def test_standard_input(self, tmp_path):
        # "-" reads the file descriptor of sys.stdin, which the handle
        # never closes; after a failed freeze it cannot be read again.
        rows = token_rows(2 * CHUNK_ROWS + 5)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        with open(p, "rb") as stdin, mock.patch("sys.stdin", stdin):
            assert record(open_dataset("-", class_col=2)) == record(from_rows(rows, class_col=2))
        with open(p, "rb") as stdin, mock.patch("sys.stdin", stdin):
            h = open_dataset("-", class_col=2)
            with pytest.raises(RuntimeError):
                h.replay(fail_in_second_chunk())
            with pytest.raises(ConfigError, match="standard input cannot be read again"):
                h.replay(lambda _c, _z: None)
            assert h.m is None and not stdin.closed

    def test_dot_slash_dash_names_a_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_csv(tmp_path / "-", [["a", "b"]] * 3)
        with mock.patch("sys.stdin", None):  # standard input is never touched
            assert open_dataset("./-").replay(lambda _c, _z: None) == 3
