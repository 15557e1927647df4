"""Dataset ingestion: delimited text with per-coordinate dictionary encoding.

A DatasetHandle replays its source as a sequence of encoded chunks, any
number of times, in identical order; each replay returns m, the item count,
which the handle also keeps as `h.m`. Tokens are opaque categorical strings;
each column gets its own first-seen-first-coded dictionary, built during the
first full replay and frozen afterwards.

The visitor is called once per chunk of up to CHUNK_ROWS rows, as
`visitor(columns, classes)`: `columns` is a tuple of d lists of feature
codes, one list per coordinate, and `classes` the list of class codes, or
None without a class column. Row r of the chunk is
`tuple(col[r] for col in columns)`. A file with no '"' and no NUL byte is
read in text blocks and cut into lines at every \\r and \\n; each chunk of
lines is split into fields by one join and one split, and column j is every
n-th field from j. Any other file (quoted fields, embedded line ends) goes
through csv.reader and a zip transpose, as does an in-memory source. Both
read exactly what csv.reader reads. Chunks are then encoded by map over the
dictionaries, so reading a chunk costs no Python call per item or cell. A
cached handle keeps these chunk columns, not rows, and hands the same lists
to every pass: visitors read them and never modify them.

An uncached file is parsed once per handle. Before its freezing replay
parses, it records the CRC32 and byte count of the source, and it also
writes each chunk's codes, class codes included, as 32-bit unsigned ints to
an anonymous temporary file: 4*d*m bytes of temporary disk, 4*(d+1)*m with
a class column, so every code must fit in 32 bits. Multi-pass algorithms
need every pass to see the same stream, so a later replay whose source
changed, or can no longer be read, fails with IngestInconsistencyError
before the visitor sees a chunk. Otherwise it reads the chunks back from the
spill, decoded to the dictionaries' own int objects; when the spill could
not be written, it parses the unchanged file again, and a token the first
pass never coded raises IngestInconsistencyError.

One column may be designated as the class column; it is stripped from the
feature columns and handed to the visitor separately.

A handle also keeps the exact count of each code of a column once a build
has counted it over the whole stream (`exact_counts`): one array('Q') per
feature coordinate and for the class column, 8 bytes x (sum of the
cardinalities + ell) at most, about 0.23 MB on the benchmark's 1M-row file.
The freezing replay counts nothing. The Misra-Gries builds (naivebayes,
heuristic) store the summaries that never decremented, and a later build
that finds stored all it would count reads no row, so it makes no source
check either.
"""

from __future__ import annotations

import csv
import tempfile
import weakref
import zlib
from array import array
from collections import defaultdict
from contextlib import contextmanager, suppress
from itertools import count, islice, repeat
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

from .errors import (
    ConfigError,
    EmptyFileError,
    IngestInconsistencyError,
    RaggedRowError,
)

CHUNK_ROWS = 1024
_DIGEST_BLOCK = 1 << 16
# Characters per read of a plain file. Larger blocks raised the freezing
# replay's peak RSS and measured no faster.
_TEXT_BLOCK = 1 << 14

Columns = tuple[list[int], ...]
Visitor = Callable[[Columns, "list[int] | None"], None]


class DatasetHandle:
    def __init__(
        self,
        source: str | Path | Sequence[Sequence[str]],
        *,
        delimiter: str = ",",
        has_header: bool = False,
        class_col: int | None = None,
        cache_items: bool = False,
    ):
        if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in '\r\n"':
            raise ConfigError(
                f"delimiter must be one character other than \\r, \\n and '\"', got {delimiter!r}"
            )
        self._path: Path | None = None
        self._rows: Sequence[Sequence[str]] | None = None
        if isinstance(source, (str, Path)):
            self._path = Path(source)
        else:
            self._rows = source
            cache_items = True  # in-memory sources are replayed from the buffer anyway
        self.delimiter = delimiter
        self.has_header = has_header
        self.class_col = class_col
        self._cache_items = cache_items
        self._cached_chunks: list[tuple[Columns, list[int] | None]] | None = None
        # An uncached file's digest when its freezing replay read it, and
        # the codes that replay encoded, unless unwritable.
        self._digest: _Digest | None = None
        self._spill: BinaryIO | None = None
        # File column -> the exact count of each of its codes, once a build
        # has stored them (exact_counts).
        self._exact: dict[int, array] = {}

        self.m: int | None = None  # set, and the dictionaries frozen, by the first replay
        self._replaying = False

        first = self._peek_first_row()
        n_cols = len(first)
        if class_col is not None and not 0 <= class_col < n_cols:
            raise ConfigError(f"class column {class_col} outside [0, {n_cols})")
        self._n_cols = n_cols
        self._feature_cols = [j for j in range(n_cols) if j != class_col]
        self.d = len(self._feature_cols)
        if self.d == 0:
            raise ConfigError("dataset has no feature columns")
        # Token -> code per file column. Only the freezing replay gives them
        # a default factory, which codes a new token next in its column.
        self._dicts: list[defaultdict[str, int]] = [defaultdict(None) for _ in range(n_cols)]
        self._rev: list[list[str]] = [[] for _ in range(n_cols)]

    # -- raw row access -----------------------------------------------------

    def _peek_first_row(self) -> Sequence[str]:
        with self._raw_rows() as rows:
            first = next(rows, None)
        if first is None:
            raise EmptyFileError("no data rows in source")
        return first

    @contextmanager
    def _raw_rows(self) -> Iterator[Iterator[Sequence[str]]]:
        """An iterator over the source rows, read by csv.reader from a file.
        A file skips its blank lines and, with has_header, its first line."""
        if self._rows is not None:
            yield iter(self._rows)
            return
        with open(self._path, "r", newline="") as fh:
            reader = csv.reader(fh, delimiter=self.delimiter)
            if self.has_header:
                next(reader, None)
            yield filter(None, reader)

    @contextmanager
    def _token_chunks(self, plain: bool) -> Iterator[Iterator[list[Sequence[str]]]]:
        """The one parse of the source: the token columns of each chunk of
        up to CHUNK_ROWS rows, `tokens[j]` for file column j. A plain file
        (see _source_digest) is split by text blocks; any other file, and an
        in-memory source, goes through its rows."""
        if plain:
            with open(self._path, "r", newline="") as fh:
                yield _split_chunks(fh, self.delimiter, self.has_header, self._n_cols)
        else:
            with self._raw_rows() as rows:
                yield _row_chunks(rows, self._n_cols)

    # -- encoding -----------------------------------------------------------

    @contextmanager
    def _coding_new_tokens(self) -> Iterator[None]:
        """While the freezing replay runs, a token not yet seen in a column
        gets that column's next code, so codes follow first-seen order. Then
        an unseen token raises KeyError again, and the decode lists are
        rebuilt from the dictionaries' key order."""
        for codes in self._dicts:
            codes.default_factory = count(len(codes)).__next__
        try:
            yield
        finally:
            for codes in self._dicts:
                codes.default_factory = None
            self._rev = [list(codes) for codes in self._dicts]

    def _encode_column(self, col: int, tokens: Sequence[str]) -> list[int]:
        """Codes of one chunk column. In the freezing replay a new token is
        coded as it is met; afterwards a token that replay never saw raises
        IngestInconsistencyError."""
        try:
            return list(map(self._dicts[col].__getitem__, tokens))
        except KeyError as exc:
            raise IngestInconsistencyError(
                f"column {col + 1} holds {exc.args[0]!r}, unseen by the first pass"
            ) from None

    def code(self, coord: int, token: str) -> int:
        """Code of `token` in feature coordinate `coord` (after a replay)."""
        return _known_code(self._dicts[self._feature_cols[coord]], token)

    def decode(self, coord: int, code: int) -> str:
        return self._rev[self._feature_cols[coord]][code]

    def _class_column(self) -> int:
        if self.class_col is None:
            raise ConfigError("no class column designated")
        return self.class_col

    def class_code(self, token: str) -> int:
        return _known_code(self._dicts[self._class_column()], token)

    def decode_class(self, code: int) -> str:
        return self._rev[self._class_column()][code]

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Observed distinct count per feature coordinate."""
        return tuple(len(self._dicts[j]) for j in self._feature_cols)

    @property
    def n_classes(self) -> int:
        return len(self._dicts[self._class_column()])

    def exact_counts(
        self, coord: int | None, counts: Iterable[int] | None = None
    ) -> dict[int, int] | None:
        """The exact count of each code of feature coordinate `coord` (None:
        the class column) over the whole stream, as {code: count} in code
        order, or None until a build has stored them. The handle keeps the
        counts as one array('Q'); the codes handed out are its
        dictionary's own ints, as in a replayed chunk. A build that counted
        every item passes `counts`, in code order, to store them; counts
        already stored are kept."""
        col = self._class_column() if coord is None else self._feature_cols[coord]
        if counts is not None and col not in self._exact:
            stored = array("Q", counts)
            if len(stored) != len(self._dicts[col]) or sum(stored) != self.m:
                raise ConfigError(
                    f"{len(stored)} counts summing to {sum(stored)} for a column of "
                    f"{len(self._dicts[col])} codes over {self.m} items"
                )
            self._exact[col] = stored
        stored = self._exact.get(col)
        return None if stored is None else dict(zip(self._dicts[col].values(), stored))

    # -- replay -------------------------------------------------------------

    def replay(self, visitor: Visitor) -> int:
        """Invoke `visitor(columns, classes)` once per chunk of up to
        CHUNK_ROWS items, in source order; returns m, the item count."""
        if self._replaying:
            raise ConfigError("handle supports one active replay at a time")
        self._replaying = True
        try:
            if self._cached_chunks is not None:
                for columns, classes in self._cached_chunks:
                    visitor(columns, classes)
                return self.m
            if self.m is None:
                with self._coding_new_tokens():
                    if self._cache_items:
                        plain = self._path is not None and _source_digest(self._path).plain
                        return self._replay_source(visitor, plain)
                    return self._replay_source_to_spill(visitor)
            try:  # a frozen uncached file: it must hold the bytes first read
                same = _source_digest(self._path) == self._digest
            except OSError as exc:
                raise IngestInconsistencyError(f"source can no longer be read: {exc}") from exc
            if not same:
                raise IngestInconsistencyError(f"{self._path} changed since the first pass")
            if self._spill is not None:
                return self._replay_spill(visitor)
            return self._replay_source(visitor, self._digest.plain)
        finally:
            self._replaying = False

    def _replay_source_to_spill(self, visitor: Visitor) -> int:
        """The freezing replay of an uncached file. It also spills each
        chunk's codes, and keeps the source's digest taken before the parse.
        A spill that cannot be written (no temporary disk) is dropped, and
        later replays parse the file again."""
        digest = _source_digest(self._path)
        spill: BinaryIO | None = None
        with suppress(OSError):
            spill = tempfile.TemporaryFile()

        def drop_spill() -> None:
            nonlocal spill
            with suppress(OSError):  # closing flushes, which may fail again
                spill.close()
            spill = None

        def spilling(columns: Columns, classes: list[int] | None) -> None:
            if spill is not None:
                codes = array("I")
                for col in (*columns, classes) if classes is not None else columns:
                    codes.fromlist(col)
                try:
                    spill.write(codes)
                except OSError:
                    drop_spill()
            visitor(columns, classes)

        try:
            m = self._replay_source(spilling, digest.plain)
        except BaseException:
            if spill is not None:
                drop_spill()
            raise
        if spill is not None:
            try:
                spill.flush()  # the buffered tail, which no write has pushed out
            except OSError:
                drop_spill()
            else:
                weakref.finalize(self, spill.close)  # closed with the handle
        self._spill, self._digest = spill, digest
        return m

    def _replay_spill(self, visitor: Visitor) -> int:
        """The chunks the freezing replay spilled. Codes are decoded to the
        dictionaries' own int objects, so a chunk holds what parsing holds."""
        cols = [*self._feature_cols, *([] if self.class_col is None else [self.class_col])]
        objs = [list(self._dicts[j].values()) for j in cols]  # code -> the dict's int
        spill = self._spill
        spill.seek(0)
        for start in range(0, self.m, CHUNK_ROWS):
            n = min(CHUNK_ROWS, self.m - start)
            codes = array("I")
            codes.fromfile(spill, n * len(cols))  # column by column, as spilled
            decoded = [
                list(map(o.__getitem__, codes[i * n : (i + 1) * n])) for i, o in enumerate(objs)
            ]
            classes = None if self.class_col is None else decoded.pop()
            visitor(tuple(decoded), classes)
        return self.m

    def _replay_source(self, visitor: Visitor, plain: bool) -> int:
        feature_cols = self._feature_cols
        class_col = self.class_col
        # A cached handle parses only in its freezing replay, and keeps the chunks.
        chunks: list | None = [] if self._cache_items else None
        m = 0
        with self._token_chunks(plain) as source:
            for tokens in source:
                m += len(tokens[0])
                columns = tuple(self._encode_column(j, tokens[j]) for j in feature_cols)
                classes = None
                if class_col is not None:
                    classes = self._encode_column(class_col, tokens[class_col])
                if chunks is not None:
                    chunks.append((columns, classes))
                visitor(columns, classes)
        self.m = m  # a later parse reads the same bytes, so the same m
        if chunks is not None:
            self._cached_chunks = chunks
        return m


def _known_code(codes: dict[str, int], token: str) -> int:
    """The code of a token already coded; a lookup that never codes one."""
    code = codes.get(token)
    if code is None:
        raise KeyError(token)
    return code


def _row_chunks(rows: Iterator[Sequence[str]], n_cols: int) -> Iterator[list[Sequence[str]]]:
    """Token columns of each chunk of rows, transposed by zip."""
    m = 0
    while chunk := list(islice(rows, CHUNK_ROWS)):
        if set(map(len, chunk)) != {n_cols}:
            raise _ragged_row(m, list(map(len, chunk)), n_cols)
        m += len(chunk)
        yield list(zip(*chunk))


def _split_chunks(
    fh: TextIO, delimiter: str, has_header: bool, n_cols: int
) -> Iterator[list[list[str]]]:
    """Token columns of each chunk of a plain file's rows, as csv.reader
    would read them. The text is read in blocks of _TEXT_BLOCK characters
    and a line ends at every \\r and \\n: a \\r\\n leaves a blank line
    between, and blank lines are dropped as csv drops them. A partial last
    line waits for the next block. Each chunk is cut into fields by one
    join and one split, and column j is every n_cols-th field from j."""
    limit = csv.field_size_limit()
    skip_header = has_header
    lines: list[str] = []  # whole non-blank lines not yet chunked
    tail = ""
    m = 0
    while True:
        block = fh.read(_TEXT_BLOCK)
        split = (tail + block).replace("\r", "\n").split("\n")
        tail = split.pop() if block else ""
        if skip_header and split:
            del split[0]  # the first line, even a blank one, as next(csv.reader) skips it
            skip_header = False
        lines += filter(None, split)
        while len(lines) >= CHUNK_ROWS or not block and lines:
            chunk = lines[:CHUNK_ROWS]
            del lines[:CHUNK_ROWS]
            text = delimiter.join(chunk)
            if len(text) > limit and max(map(len, chunk)) > limit:
                list(csv.reader(chunk, delimiter=delimiter))  # raises csv's field size error
            if set(map(str.count, chunk, repeat(delimiter))) != {n_cols - 1}:
                raise _ragged_row(m, [line.count(delimiter) + 1 for line in chunk], n_cols)
            m += len(chunk)
            fields = text.split(delimiter)
            yield [fields[j::n_cols] for j in range(n_cols)]
        if not block:
            return


def _ragged_row(m: int, widths: list[int], n_cols: int) -> RaggedRowError:
    """The error for the first row of a chunk, after m rows, whose field
    count is not n_cols."""
    r = next(r for r, width in enumerate(widths) if width != n_cols)
    return RaggedRowError(f"row {m + r + 1} has {widths[r]} fields, expected {n_cols}")


class _Digest(NamedTuple):
    crc: int
    size: int
    plain: bool  # no '"' and no NUL byte: each line is a row of fields split at the delimiter


def _source_digest(path: Path) -> _Digest:
    """CRC32 and byte count of a file, and whether it is plain, read through
    one reused buffer. In UTF-8 neither '"' nor NUL occurs inside a
    multi-byte sequence, so the bytes tell."""
    crc = size = 0
    plain = True
    buf = bytearray(_DIGEST_BLOCK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            crc = zlib.crc32(view[:n], crc)
            size += n
            plain = plain and buf.find(b'"', 0, n) < 0 and buf.find(b"\0", 0, n) < 0
    return _Digest(crc, size, plain)


def open_dataset(
    path: str | Path,
    *,
    delimiter: str = ",",
    has_header: bool = False,
    class_col: int | None = None,
    cache_items: bool = False,
) -> DatasetHandle:
    """Open a delimited text file for replay. class_col is a 0-based column index."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"no such file: {p}")
    return DatasetHandle(
        p,
        delimiter=delimiter,
        has_header=has_header,
        class_col=class_col,
        cache_items=cache_items,
    )


def from_rows(
    rows: Iterable[Sequence[str]], *, class_col: int | None = None
) -> DatasetHandle:
    """In-memory dataset from pre-split token rows."""
    materialized = [list(r) for r in rows]
    return DatasetHandle(materialized, class_col=class_col)


def from_items(items: Iterable[Sequence[int]], *, class_col: int | None = None) -> DatasetHandle:
    """In-memory dataset from integer-valued rows (tokens are the decimal strings)."""
    return from_rows(([str(v) for v in row] for row in items), class_col=class_col)
