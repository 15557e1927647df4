import csv
import errno
import io
import random
import tempfile
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from subcubehh.errors import (
    ConfigError,
    EmptyFileError,
    IngestInconsistencyError,
    RaggedRowError,
)
from subcubehh import stream_io
from subcubehh.stream_io import CHUNK_ROWS, from_rows, open_dataset


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

    def test_exact_counts_stored_once(self):
        h = from_rows([["a", "x"], ["b", "y"], ["a", "x"]], class_col=1)
        h.replay(lambda _i, _c: None)
        assert h.exact_counts(0) is None and h.exact_counts(None) is None
        assert h.exact_counts(0, [2, 1]) == {0: 2, 1: 1}
        assert h.exact_counts(0, [1, 2]) == {0: 2, 1: 1}  # the first store is kept
        assert h.exact_counts(None, iter([2, 1])) == {0: 2, 1: 1}
        counts = h.exact_counts(0)
        assert list(counts.items()) == [(0, 2), (1, 1)]
        # Keyed by the dictionary's own ints, as a replayed chunk is.
        assert [x is h.code(0, t) for x, t in zip(counts, "ab")] == [True, True]

    @pytest.mark.parametrize("counts", [[3], [1, 1], [2, 1, 0]])
    def test_exact_counts_of_another_column_rejected(self, counts):
        # Counts must cover every code and sum to m.
        h = from_rows([["a"], ["b"], ["a"]])
        h.replay(lambda _i, _c: None)
        with pytest.raises(ConfigError, match="counts summing to"):
            h.exact_counts(0, counts)
        assert h.exact_counts(0) is None

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


def check_first_seen_coding(path, m, cached, class_col):
    """Chunk sizes, codes, decoding and cardinalities of `token_rows(m)`
    equal the first-seen reference, in the freezing replay and after it."""
    rows = token_rows(m)
    write_csv(path, rows)
    h = open_dataset(path, class_col=class_col, cache_items=cached)
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
    assert collect(h) == expect  # frozen pass: the file again, the spill, or the cache
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
    @pytest.mark.parametrize("cached", [False, True])
    def test_boundaries(self, tmp_path, m, cached):
        check_first_seen_coding(tmp_path / "d.csv", m, cached, class_col=2)

    @pytest.mark.parametrize("m", NEAR_ONE_AND_TWO_CHUNKS)
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize("class_col", [None, 0])
    def test_boundaries_class_column_absent_or_first(self, tmp_path, m, cached, class_col):
        check_first_seen_coding(tmp_path / "d.csv", m, cached, class_col)

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
    the item count the replay returns."""
    chunks = []

    def visit(columns, classes):
        chunks.append((list(map(list, columns)), None if classes is None else list(classes)))

    return chunks, handle.replay(visit)


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
    """Later replays of an uncached file read the codes its freezing replay
    spilled, and hand over exactly what parsing the file again would."""

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

    def test_spilled_code_is_the_dictionary_int(self, tmp_path):
        rows = token_rows(2 * CHUNK_ROWS + 5)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=2)
        h.replay(lambda _c, _z: None)
        chunks = []
        with count_parses() as parses:
            h.replay(lambda columns, classes: chunks.append((columns, classes)))
        assert parses.call_count == 0
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
        with count_parses() as parses:
            for _ in range(2):
                with pytest.raises(IngestInconsistencyError, match="changed since"):
                    h.replay(lambda columns, _z: chunks.append(columns))
            assert parses.call_count == 0  # neither replay parsed the file
        assert chunks == []
        write_csv(p, rows)  # the original bytes again: the spill serves them
        with count_parses() as parses:
            assert [item for item, _z in collect(h)] == [
                codes[:2] for codes in first_seen_codes(rows)
            ]
            assert parses.call_count == 0

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
            parsed, m = record(h)
        assert m == len(rows)
        with count_parses() as parses:
            assert record(h) == (parsed, m)
            assert record(h) == (parsed, m)
            assert parses.call_count == 2  # no spill: every replay parses
            write_csv(p, rows[::-1])  # the same bytes, reordered
            with pytest.raises(IngestInconsistencyError):
                record(h)
            assert parses.call_count == 2  # rejected before parsing

    @pytest.mark.parametrize(
        "m, buffer_size",
        [
            (1000, 1 << 16),  # every chunk fits the buffer: only the final flush fails
            (2 * CHUNK_ROWS + 1, 1 << 14),  # a write fails with a chunk still buffered
        ],
    )
    def test_unflushable_spill_falls_back_to_parsing(self, tmp_path, m, buffer_size):
        rows = token_rows(m)
        p = tmp_path / "d.csv"
        write_csv(p, rows)

        class FullDiskFile(io.FileIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        def temporary_file():
            return io.BufferedRandom(FullDiskFile(tmp_path / "spill", "w+b"), buffer_size)

        h = open_dataset(p, class_col=2)
        with mock.patch.object(tempfile, "TemporaryFile", temporary_file):
            parsed, m = record(h)
        assert m == len(rows)
        with count_parses() as parses:
            assert record(h) == (parsed, m)
            assert parses.call_count == 1  # no spill: the file is parsed again


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

    @pytest.mark.parametrize("cached", [False, True])
    def test_failed_freezing_replay_then_retry(self, tmp_path, cached):
        rows = token_rows(2 * CHUNK_ROWS + 5)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=2, cache_items=cached)
        seen = []

        def fail_in_second_chunk(columns, _classes):
            seen.append(columns)
            if len(seen) == 2:
                raise RuntimeError("visitor failed")

        with pytest.raises(RuntimeError):
            h.replay(fail_in_second_chunk)
        assert h.m is None
        with pytest.raises(KeyError):  # no longer coding: the last chunk's token is unknown
            h.code(0, rows[-1][0])
        assert h.decode(0, h.code(0, rows[0][0])) == rows[0][0]  # what was coded decodes
        assert [item for item, _z in collect(h)] == [c[:2] for c in first_seen_codes(rows)]
        distinct = list(dict.fromkeys(r[0] for r in rows))
        assert [h.decode(0, x) for x in range(len(distinct))] == distinct
        assert [item for item, _z in collect(h)] == [c[:2] for c in first_seen_codes(rows)]

    def test_unseen_token_on_reparse_raises_inconsistency(self, tmp_path):
        # A change the source check misses (the file rewritten between the
        # check and the parse) still fails at the first token never coded.
        rows = token_rows(CHUNK_ROWS + 3)
        p = tmp_path / "d.csv"
        write_csv(p, rows)
        h = open_dataset(p, class_col=2)

        def no_temporary_file():
            raise OSError(errno.ENOENT, "No usable temporary directory")

        with mock.patch.object(tempfile, "TemporaryFile", no_temporary_file):
            h.replay(lambda _c, _z: None)  # freezes; no spill, so later replays parse
        cardinalities = h.cardinalities
        rows[CHUNK_ROWS + 1][1] = "never-seen"
        write_csv(p, rows)
        frozen_digest = h._digest
        with mock.patch.object(stream_io, "_source_digest", lambda _path: frozen_digest):
            with pytest.raises(IngestInconsistencyError, match="'never-seen', unseen by the first"):
                h.replay(lambda _c, _z: None)
        assert h.cardinalities == cardinalities
        with pytest.raises(KeyError):
            h.code(1, "never-seen")


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


def handle_tokens(path, delimiter, has_header, mode):
    """The token columns of each chunk the handle hands over: in its
    freezing replay, and, for mode "reparse" (an uncached file whose spill
    could not be written), in the replay that parses the file again."""
    h = open_dataset(path, delimiter=delimiter, has_header=has_header, cache_items=mode == "cached")
    if mode == "reparse":

        def no_temporary_file():
            raise OSError(errno.ENOENT, "No usable temporary directory")

        with mock.patch.object(tempfile, "TemporaryFile", no_temporary_file):
            chunks, _ = record(h)
        again, _ = record(h)
        assert again == chunks
    else:
        chunks, _ = record(h)
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
    """A file with no '"' and no NUL byte is split by text blocks, and reads
    exactly as csv.reader reads it: the same chunks, tokens and errors."""

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
        mode=st.sampled_from(["cached", "uncached", "reparse"]),
        seed=st.integers(0, 2**16),
    )
    def test_split_path_equals_csv_reader(
        self, tmp_path_factory, m, n_cols, delimiter, endings, blank_every, has_header,
        blank_first, trailing_newline, odd_row, block, field_limit, mode, seed,
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
        assert stream_io._source_digest(p).plain == plain
        limit = csv.field_size_limit()
        try:
            if field_limit is not None:
                csv.field_size_limit(field_limit)
            expect = outcome(lambda: csv_reference(p, delimiter, has_header))
            with mock.patch.object(stream_io, "_TEXT_BLOCK", block), mock.patch.object(
                stream_io, "_split_chunks", wraps=stream_io._split_chunks
            ) as split:
                got = outcome(lambda: handle_tokens(p, delimiter, has_header, mode))
        finally:
            csv.field_size_limit(limit)
        assert got == expect
        assert plain or not split.called
        if isinstance(got, list):  # the file was read: a plain file by the split path
            assert split.called == plain

    @pytest.mark.parametrize("long_field", [False, True])
    @pytest.mark.parametrize("mode", ["cached", "uncached", "reparse"])
    def test_line_over_field_size_limit(self, tmp_path, long_field, mode):
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
            got = outcome(lambda: handle_tokens(p, ",", False, mode))
        finally:
            csv.field_size_limit(limit)
        assert got == expect
        if long_field:
            assert got == (csv.Error, "field larger than field limit (9)")
        else:
            assert got == (RaggedRowError, f"row {CHUNK_ROWS + 10} has 4 fields, expected 3")

    @pytest.mark.parametrize("body", [b"a,b\nc,\x00d\ne,f\n", b'a,b\n"c\n,d",e\n'])
    @pytest.mark.parametrize("mode", ["cached", "uncached", "reparse"])
    def test_nul_or_quote_takes_the_csv_path(self, tmp_path, body, mode):
        # csv before Python 3.11 rejects NUL ("line contains NUL"); later
        # versions read it as a character. The handle does what csv does.
        p = tmp_path / "d.csv"
        p.write_bytes(body)
        assert not stream_io._source_digest(p).plain
        expect = outcome(lambda: csv_reference(p, ",", False))
        with mock.patch.object(stream_io, "_split_chunks") as split:
            assert outcome(lambda: handle_tokens(p, ",", False, mode)) == expect
        assert not split.called

    @pytest.mark.parametrize("cached", [False, True])
    def test_failing_visitor_closes_the_file(self, tmp_path, cached):
        p = tmp_path / "d.csv"
        write_csv(p, token_rows(3 * CHUNK_ROWS))
        h = open_dataset(p, class_col=2, cache_items=cached)
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        seen = []

        def fail_in_second_chunk(columns, _classes):
            seen.append(columns)
            if len(seen) == 2:
                raise RuntimeError("visitor failed")

        with mock.patch.object(stream_io, "open", tracking_open, create=True), mock.patch.object(
            stream_io, "_split_chunks", wraps=stream_io._split_chunks
        ) as split:
            with pytest.raises(RuntimeError):
                h.replay(fail_in_second_chunk)
        assert split.call_count == 1
        assert opened and all(f.closed for f in opened)  # not left to the garbage collector
