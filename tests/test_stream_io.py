import csv
import errno
import io
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh.errors import (
    ConfigError,
    EmptyFileError,
    IngestInconsistencyError,
    RaggedRowError,
)
from subcubehh.stream_io import CHUNK_ROWS, PassSummary, from_rows, open_dataset


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


class TestOpenDataset:
    def test_basic_counts(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a", "b", "c"]] * 8)
        h = open_dataset(p)
        assert h.d == 3
        summary = h.replay(lambda _i, _c: None)
        assert summary.m == 8
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

    def test_tsv(self, tmp_path):
        p = tmp_path / "d.tsv"
        write_csv(p, [["x", "y"], ["x", "z"]], delimiter="\t")
        h = open_dataset(p, delimiter="\t")
        assert [i for i, _ in collect(h)] == [(0, 0), (0, 1)]

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["c1", "c2"], ["a", "b"], ["a", "c"]])
        h = open_dataset(p, has_header=True)
        assert h.replay(lambda _i, _c: None).m == 2


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
        summary = h.replay(lambda _i, _c: None)
        assert summary.m == 3
        assert h.cardinalities == (2, 2)

    def test_new_token_in_second_pass_fails(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a"], ["b"]])
        h = open_dataset(p)  # no item cache: rereads the file each pass
        h.replay(lambda _i, _c: None)
        write_csv(p, [["a"], ["zzz"]])
        with pytest.raises(IngestInconsistencyError):
            h.replay(lambda _i, _c: None)

    def test_changed_length_in_second_pass_fails(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a"], ["b"]])
        h = open_dataset(p)
        h.replay(lambda _i, _c: None)
        write_csv(p, [["a"], ["b"], ["a"]])
        with pytest.raises(IngestInconsistencyError):
            h.replay(lambda _i, _c: None)

    def test_cached_items_replay_fast_path(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, [["a", "x"], ["b", "y"]])
        h = open_dataset(p, cache_items=True)
        first = collect(h)
        p.unlink()  # cached handles never re-read the source
        assert collect(h) == first

    def test_nested_replay_rejected(self):
        h = from_rows([["a"], ["b"]])

        def reenter(_item, _cls):
            h.replay(lambda _i, _c: None)

        with pytest.raises(ConfigError):
            h.replay(reenter)

    def test_bad_class_col(self):
        with pytest.raises(ConfigError):
            from_rows([["a", "b"]], class_col=2)

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


class TestChunks:
    @pytest.mark.parametrize(
        "m", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]
    )
    @pytest.mark.parametrize("cached", [False, True])
    def test_boundaries(self, tmp_path, m, cached):
        rows = token_rows(m)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=2, cache_items=cached)
        sizes = []

        def visit(columns, classes):
            assert len(columns) == 2
            sizes.append(len(classes))
            assert all(len(col) == len(classes) for col in columns)

        assert h.replay(visit).m == m
        assert sizes == [CHUNK_ROWS] * (m // CHUNK_ROWS) + [m % CHUNK_ROWS] * (m % CHUNK_ROWS > 0)
        expect = [(codes[:2], codes[2]) for codes in first_seen_codes(rows)]
        assert collect(h) == expect  # frozen pass: the file again, or the cache
        assert collect(h) == expect
        assert h.cardinalities == (len({r[0] for r in rows}), 5)

    def test_ragged_row_in_second_chunk(self, tmp_path):
        rows = token_rows(CHUNK_ROWS + 5)
        rows[CHUNK_ROWS + 2].append("extra")  # row CHUNK_ROWS + 3, 1-based
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p)
        with pytest.raises(RaggedRowError, match=f"^row {CHUNK_ROWS + 3} has 4 fields"):
            h.replay(lambda _c, _z: None)

    def test_unseen_token_in_later_chunk_of_pass_two(self, tmp_path):
        rows = token_rows(2 * CHUNK_ROWS)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p)
        h.replay(lambda _c, _z: None)
        rows[CHUNK_ROWS + 10][1] = "never-seen"
        write_csv(p, rows)
        chunks = []
        with pytest.raises(IngestInconsistencyError, match="changed since the first pass"):
            h.replay(lambda columns, _z: chunks.append(columns))
        assert chunks == []  # rejected before the first chunk

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
    the replay's summary."""
    chunks = []

    def visit(columns, classes):
        chunks.append((list(map(list, columns)), None if classes is None else list(classes)))

    return chunks, handle.replay(visit)


def count_readers():
    """Patch csv.reader to count the parses made while the patch holds."""
    return mock.patch.object(csv, "reader", wraps=csv.reader)


# Row counts at and around 1, 2 and 3 chunks, and a few below one chunk.
NEAR_CHUNK_MULTIPLES = st.one_of(
    st.integers(1, 5),
    st.integers(1, 3).flatmap(
        lambda k: st.integers(k * CHUNK_ROWS - 2, k * CHUNK_ROWS + 2)
    ),
)


class TestSpill:
    """Later replays of an uncached file read the codes its freezing replay
    spilled, and hand over exactly what parsing the file again would."""

    @settings(max_examples=25)
    @given(m=NEAR_CHUNK_MULTIPLES, class_col=st.sampled_from([None, 0, 2]))
    def test_spill_replay_equals_csv_replay(self, tmp_path_factory, m, class_col):
        rows = token_rows(m)
        p = tmp_path_factory.mktemp("spill") / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=class_col)
        with count_readers() as reader:
            parsed, summary = record(h)  # the freezing replay parses the file
            assert reader.call_count == 1
            for _ in range(2):
                spilled, again = record(h)
                assert reader.call_count == 1  # served from the spill
                assert again == summary == PassSummary(m)
                assert spilled == parsed  # sizes, codes and class codes
        sizes = [len(columns[0]) for columns, _classes in parsed]
        assert sizes == [CHUNK_ROWS] * (m // CHUNK_ROWS) + [m % CHUNK_ROWS] * (m % CHUNK_ROWS > 0)
        features = [j for j in range(3) if j != class_col]
        expect = first_seen_codes(rows)
        got_items = [row for columns, _z in spilled for row in zip(*columns)]
        assert got_items == [tuple(codes[j] for j in features) for codes in expect]
        got_classes = [z for _c, classes in spilled for z in (classes or [])]
        assert got_classes == ([] if class_col is None else [c[class_col] for c in expect])

    def test_spilled_code_is_the_dictionary_int(self, tmp_path):
        rows = token_rows(2 * CHUNK_ROWS + 5)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=2)
        h.replay(lambda _c, _z: None)
        chunks = []
        with count_readers() as reader:
            h.replay(lambda columns, classes: chunks.append((columns, classes)))
        assert reader.call_count == 0
        code = h.code(0, rows[-1][0])
        assert code > 256  # outside CPython's small-int cache
        assert chunks[-1][0][0][-1] is code
        assert chunks[-1][1][-1] is h.class_code(rows[-1][2])

    def test_rewritten_file_is_rejected(self, tmp_path):
        rows = token_rows(CHUNK_ROWS + 40)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=2)
        h.replay(lambda _c, _z: None)
        size = p.stat().st_size
        write_csv(p, rows[::-1])  # the same length, and only tokens seen before
        assert p.stat().st_size == size
        chunks = []
        with count_readers() as reader:
            for _ in range(2):
                with pytest.raises(IngestInconsistencyError, match="changed since"):
                    h.replay(lambda columns, _z: chunks.append(columns))
            assert reader.call_count == 0  # neither replay parsed the file
        assert chunks == []
        write_csv(p, rows)  # the original bytes again: the spill serves them
        with count_readers() as reader:
            assert [item for item, _z in collect(h)] == [
                codes[:2] for codes in first_seen_codes(rows)
            ]
            assert reader.call_count == 0

    def test_deleted_file_raises_inconsistency(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, token_rows(10))
        h = open_dataset(p)
        h.replay(lambda _c, _z: None)
        p.unlink()
        chunks = []
        with pytest.raises(IngestInconsistencyError, match="no longer be read") as replay_error:
            h.replay(lambda columns, _z: chunks.append(columns))
        assert isinstance(replay_error.value.__cause__, FileNotFoundError)
        assert chunks == []

    def test_unchanged_file_parsed_once_per_handle(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, token_rows(3 * CHUNK_ROWS))
        h = open_dataset(p, class_col=2)  # reads the first row only
        with count_readers() as reader:
            for _ in range(7):
                assert h.replay(lambda _c, _z: None).m == 3 * CHUNK_ROWS
        assert reader.call_count == 1

    def test_failed_freezing_replay_leaves_no_spill(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, token_rows(CHUNK_ROWS + 3))
        h = open_dataset(p)

        def fail(_columns, _classes):
            raise RuntimeError("visitor failed")

        with pytest.raises(RuntimeError):
            h.replay(fail)
        assert h.m is None
        with count_readers() as reader:
            first, _ = record(h)  # freezes now
            second, _ = record(h)
        assert reader.call_count == 1
        assert first == second

    @pytest.mark.parametrize("fails", ["open", "write"])
    def test_unwritable_spill_falls_back_to_parsing(self, tmp_path, fails):
        rows = token_rows(2 * CHUNK_ROWS + 1)
        p = tmp_path / "d.csv"
        write_csv(p, rows)

        class FullDisk(io.BytesIO):
            def write(self, data):
                if self.tell() > 0:  # the first chunk fits, the second does not
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(data)

        def temporary_file():
            if fails == "open":
                raise OSError(errno.ENOENT, "No usable temporary directory")
            return FullDisk()

        h = open_dataset(p, class_col=2)
        with mock.patch.object(tempfile, "TemporaryFile", temporary_file):
            parsed, summary = record(h)
        assert summary.m == len(rows)
        with count_readers() as reader:
            assert record(h) == (parsed, summary)
            assert record(h) == (parsed, summary)
            assert reader.call_count == 2  # no spill: every replay parses
            write_csv(p, rows[::-1])  # the same bytes, reordered
            with pytest.raises(IngestInconsistencyError):
                record(h)
            assert reader.call_count == 2  # rejected before parsing
