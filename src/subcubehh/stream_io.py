"""Dataset ingestion: delimited text with per-coordinate dictionary encoding.

A DatasetHandle replays its source as a sequence of encoded chunks, any
number of times, in identical order; each replay returns m, the item count,
which the handle also keeps as `h.m`. Tokens are opaque categorical strings;
each column gets its own first-seen-first-coded dictionary, built during the
first full replay and frozen afterwards.

The visitor is called once per chunk of up to CHUNK_ROWS rows, as
`visitor(columns, classes)`: `columns` is a tuple of d read-only sequences
of feature codes, one per coordinate, and `classes` the sequence of class
codes, or None without a class column. Row r of the chunk is
`tuple(col[r] for col in columns)`. A column is a list in the freezing
replay and an array('I') in every later one; either way it holds ints
equal to the codes, and visitors use only len, iteration, index and
slice. Only a list holds the dictionary's own int objects, so a build
that keeps codes maps them once, at the end, through `code_table`.
A file, or standard input named "-", is opened once and read once, as a
stream, so a pipe or a FIFO reads like a regular file. The freeze cuts
its text, from the first row on, block by block into lines at every \\r
and \\n, and each chunk of lines into fields by one join and one split;
column j is every n-th field from j. From the first block holding a '"'
or a NUL, csv.reader reads the rest, as it reads an in-memory source, and
a zip transposes its rows. Both read exactly what csv.reader reads. Each
chunk column is then encoded by one itemgetter call on its dictionary,
so reading a chunk costs no Python call per item or cell.

The freezing replay is the only one that reads the source, so every pass
sees the stream it read, whatever later happens to the file. It closes
the file, and an in-memory source is let go once it succeeds; after one
that fails, the next reopens a regular file, and standard input or a FIFO
cannot be read again (ConfigError).
The freezing replay also writes each chunk's codes, class codes included,
as 32-bit unsigned ints to the spill: 4*d*m bytes, 4*(d+1)*m with a class
column, so every code must fit in 32 bits.
The spill is an anonymous temporary file for every handle, an in-memory
source's too, closed with the handle. A spill that cannot be opened,
written or flushed fails that replay with its OSError, and the handle
stays unfrozen. Later replays read the chunks back from the spill, each
column a slice of the chunk's packed codes, so a replay decodes nothing.

One column may be designated as the class column; it is stripped from the
feature columns and handed to the visitor separately.

A handle also keeps the exact count of each code of every column
(`exact_counts`): the first request counts every feature column and the
class column in one replay, and the handle keeps one array('Q') per
column, 8 bytes x (sum of the cardinalities + ell), about 0.23 MB on the
benchmark's 1M-row file. Every build and oracle table that needs exact
marginals reads them there.
"""

from __future__ import annotations

import csv
import io
import sys
import tempfile
import weakref
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager, suppress
from itertools import chain, count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from .errors import ConfigError, EmptyFileError, RaggedRowError

CHUNK_ROWS = 1024
# Characters per read of a file. Larger blocks raised the freezing
# replay's peak RSS and measured no faster.
_TEXT_BLOCK = 1 << 14

Columns = tuple[Sequence[int], ...]
Tokens = list[Sequence[str]]  # a chunk's token columns, one per file column
Visitor = Callable[[Columns, "Sequence[int] | None"], None]


class DatasetHandle:
    def __init__(
        self,
        source: str | Path | Sequence[Sequence[str]],
        *,
        delimiter: str = ",",
        has_header: bool = False,
        class_col: int | None = None,
    ):
        if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in '\r\n"':
            raise ConfigError(
                f"delimiter must be one character other than \\r, \\n and '\"', got {delimiter!r}"
            )
        is_path = isinstance(source, (str, Path))
        self._rows: Sequence[Sequence[str]] | None = None if is_path else source
        # "-" is standard input; Path("./-") names a file called "-".
        self._path: Path | None = Path(source) if is_path and source != "-" else None
        self.delimiter = delimiter
        self.has_header = has_header
        self.class_col = class_col
        self._spill: BinaryIO | None = None  # the freeze's packed codes, in a temporary file
        # File column -> the exact count of each of its codes, from the
        # first exact_counts call.
        self._exact: dict[int, array] = {}

        self.m: int | None = None  # set, and the dictionaries frozen, by the first replay
        self._replaying = False

        first = self._open() if self._rows is None else next(iter(self._rows), None)
        try:
            if first is None:
                raise EmptyFileError("no data rows in source")
            self._n_cols = n_cols = len(first)
            if class_col is not None and not 0 <= class_col < n_cols:
                raise ConfigError(f"class column {class_col} outside [0, {n_cols})")
            self._feature_cols = [j for j in range(n_cols) if j != class_col]
            self.d = len(self._feature_cols)
            if self.d == 0:
                raise ConfigError("dataset has no feature columns")
        except BaseException:
            if self._rows is None:
                self._close_source()
            raise
        # File columns in the spill's order: the features, then the class.
        self._spilled_cols = [*self._feature_cols, *([] if class_col is None else [class_col])]
        # Token -> code per file column. Only the freezing replay gives them
        # a default factory, which codes a new token next in its column.
        self._dicts: list[defaultdict[str, int]] = [defaultdict(None) for _ in range(n_cols)]
        self._rev: list[list[str]] = [[] for _ in range(n_cols)]

    # -- the source ---------------------------------------------------------

    def _open(self) -> Sequence[str] | None:
        """Open the file source and read its first row (None: it has none),
        past the header with has_header; the text after the header is the
        freeze's first block. `_close_source`, or dropping the handle, closes it."""
        try:
            fh = open(self._path or sys.stdin.fileno(), newline="", closefd=self._path is not None)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
            raise ConfigError(f"cannot open {self._path}: {exc.strerror}") from None
        self._close_source = weakref.finalize(self, fh.close)
        read: list[str] = []

        def lines() -> Iterator[str]:
            for line in iter(fh.readline, ""):
                read.append(line)
                yield line

        rows = csv.reader(lines(), delimiter=self.delimiter)
        try:
            if self.has_header:
                next(rows, None)  # the first line, even a blank one
                read.clear()
            first = next(filter(None, rows), None)
        except BaseException:
            self._close_source()
            raise
        self._source, self._head = fh, "".join(read)
        return first

    @contextmanager
    def _token_chunks(self) -> Iterator[Iterator[Tokens]]:
        """The one parse of the source: the token columns of each chunk of up
        to CHUNK_ROWS rows, `tokens[j]` for file column j, by _split_chunks
        from a file, closed when the parse ends, or from in-memory rows."""
        if self._rows is not None:
            yield _row_chunks(iter(self._rows), self._n_cols)
            return
        if not self._close_source.alive:  # a failed freeze read and closed it
            if self._path is None or not self._path.is_file():
                raise ConfigError(f"{self._path or 'standard input'} cannot be read again")
            self._open()
        try:
            yield _split_chunks(self._head, self._source, self.delimiter, self._n_cols)
        finally:
            self._close_source()

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
        """Codes of one chunk column, by one itemgetter call; the freezing
        replay, the only caller, codes a new token as it is met."""
        codes = self._dicts[col]
        if len(tokens) == 1:  # itemgetter of one key gives the bare code
            return [codes[tokens[0]]]
        return list(itemgetter(*tokens)(codes))

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

    def _check_frozen(self) -> None:
        if self.m is None:
            raise ConfigError("the handle needs its first replay to know its dictionaries")

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Observed distinct count per feature coordinate."""
        self._check_frozen()
        return tuple(len(self._dicts[j]) for j in self._feature_cols)

    @property
    def n_classes(self) -> int:
        col = self._class_column()
        self._check_frozen()
        return len(self._dicts[col])

    def exact_counts(self, coord: int | None) -> dict[int, int]:
        """The exact count of each code of feature coordinate `coord` (None:
        the class column) over the whole stream, as {code: count} in code
        order, keyed by the dictionary's own ints, as `code_table` gives.
        The first call counts every column in one replay (the freezing one
        on an unfrozen handle); the handle keeps one array('Q') per column,
        and every later call reads it."""
        col = self._class_column() if coord is None else self._feature_cols[coord]
        if not self._exact:
            cols = self._spilled_cols
            tallies: list[Counter[int]] = [Counter() for _ in cols]

            def visit(columns: Columns, classes: Sequence[int] | None) -> None:
                for tally, codes in zip(tallies, (*columns, classes)):  # classes last, if any
                    tally.update(codes)

            self.replay(visit)
            # A full pass meets each code first in code order, so each tally is keyed in it.
            self._exact = {j: array("Q", tally.values()) for j, tally in zip(cols, tallies)}
        return dict(zip(self._dicts[col].values(), self._exact[col]))

    def code_table(self, coord: int | None) -> list[int]:
        """Code -> the dictionary's own int object, for feature coordinate
        `coord` (None: the class column). A replay after the freeze hands
        equal ints, which a build maps through this table once for the
        codes it keeps."""
        col = self._class_column() if coord is None else self._feature_cols[coord]
        return list(self._dicts[col].values())

    # -- replay -------------------------------------------------------------

    def replay(self, visitor: Visitor) -> int:
        """Invoke `visitor(columns, classes)` once per chunk of up to
        CHUNK_ROWS items, in source order; returns m, the item count."""
        if self._replaying:
            raise ConfigError("handle supports one active replay at a time")
        self._replaying = True
        try:
            if self.m is not None:
                return self._replay_spill(visitor)
            with self._coding_new_tokens():
                self.m = self._freeze(visitor)
            return self.m
        finally:
            self._replaying = False

    def _freeze(self, visitor: Visitor) -> int:
        """The freezing replay, the only reader of the source: it encodes
        each chunk, writes its packed codes to the spill and visits it. A
        spill that cannot be opened, written or flushed fails the replay
        with its OSError, and nothing is kept."""
        spill = tempfile.TemporaryFile()
        m = 0
        try:
            with self._token_chunks() as source:
                for tokens in source:
                    m += len(tokens[0])
                    columns = [self._encode_column(j, tokens[j]) for j in self._spilled_cols]
                    codes = array("I")
                    for col in columns:
                        codes.fromlist(col)
                    spill.write(codes)
                    classes = None if self.class_col is None else columns.pop()
                    visitor(tuple(columns), classes)
            spill.flush()  # the buffered tail, which no write has pushed out
        except BaseException:
            with suppress(OSError):  # closing flushes, which may fail again
                spill.close()
            raise
        weakref.finalize(self, spill.close)  # closed with the handle
        self._spill = spill
        self._rows = None  # an in-memory source is never read again
        return m

    def _replay_spill(self, visitor: Visitor) -> int:
        """The chunks the freezing replay spilled, each column an
        array('I') slice of the chunk's packed codes."""
        width = len(self._spilled_cols)
        spill = self._spill
        spill.seek(0)
        for start in range(0, self.m, CHUNK_ROWS):
            n = min(CHUNK_ROWS, self.m - start)
            codes = array("I")
            codes.fromfile(spill, n * width)  # column by column, as spilled
            columns = [codes[i * n : (i + 1) * n] for i in range(width)]
            classes = None if self.class_col is None else columns.pop()
            visitor(tuple(columns), classes)
        return self.m


def _known_code(codes: dict[str, int], token: str) -> int:
    """The code of a token already coded; a lookup that never codes one."""
    code = codes.get(token)
    if code is None:
        raise KeyError(token)
    return code


def _row_chunks(rows: Iterator[Sequence[str]], n_cols: int, m: int = 0) -> Iterator[Tokens]:
    """Token columns of each chunk of rows, transposed by zip; m rows came before."""
    while chunk := list(islice(rows, CHUNK_ROWS)):
        if set(map(len, chunk)) != {n_cols}:
            raise _ragged_row(m, list(map(len, chunk)), n_cols)
        m += len(chunk)
        yield list(zip(*chunk))


def _split_chunks(head: str, fh: TextIO, delimiter: str, n_cols: int) -> Iterator[Tokens]:
    """Token columns of each chunk of the rows of `head` and then `fh`, read
    in blocks of _TEXT_BLOCK characters, as csv.reader would read them. A
    line ends at every \\r and \\n (a \\r\\n leaves a blank line between),
    blank lines are dropped as csv drops them, and a partial last line waits
    for the next block. Each chunk is cut into fields by one join and one
    split, and column j is every n_cols-th field from j. From the first
    block holding a '"' or a NUL, csv.reader reads the lines not yet
    chunked, that block to its line end, and the rest of the file."""
    limit = csv.field_size_limit()
    lines: list[str] = []  # whole non-blank lines not yet chunked, none with '"' or NUL
    tail = ""
    m = 0
    block = head
    while '"' not in block and "\0" not in block:
        split = (tail + block).replace("\r", "\n").split("\n")
        tail = split.pop() if block else ""
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
        block = fh.read(_TEXT_BLOCK)
    rest = io.StringIO(tail + block + fh.readline(), newline="")  # cut into lines as fh is
    rows = csv.reader(chain(lines, rest, iter(fh.readline, "")), delimiter=delimiter)
    yield from _row_chunks(filter(None, rows), n_cols, m)


def _ragged_row(m: int, widths: list[int], n_cols: int) -> RaggedRowError:
    """The error for the first row of a chunk, after m rows, whose field
    count is not n_cols."""
    r = next(r for r, width in enumerate(widths) if width != n_cols)
    return RaggedRowError(f"row {m + r + 1} has {widths[r]} fields, expected {n_cols}")


def open_dataset(
    path: str | Path,
    *,
    delimiter: str = ",",
    has_header: bool = False,
    class_col: int | None = None,
    cache_items: bool = False,
) -> DatasetHandle:
    """Open a delimited file ("-": standard input) for replay; class_col is a 0-based column index.
    cache_items stays until no caller passes False; True, an in-memory spill, raises."""
    if cache_items:
        raise ConfigError("cache_items=True is gone: every handle spills to a temporary file")
    return DatasetHandle(path, delimiter=delimiter, has_header=has_header, class_col=class_col)


def from_rows(rows: Iterable[Sequence[str]], *, class_col: int | None = None) -> DatasetHandle:
    """In-memory dataset from pre-split token rows."""
    return DatasetHandle([list(r) for r in rows], class_col=class_col)


def from_items(items: Iterable[Sequence[int]], *, class_col: int | None = None) -> DatasetHandle:
    """In-memory dataset from integer-valued rows (tokens are the decimal strings)."""
    return from_rows(([str(v) for v in row] for row in items), class_col=class_col)
