"""Dataset ingestion: delimited text with per-coordinate dictionary encoding.

A DatasetHandle replays its source as a sequence of encoded chunks, any
number of times, in identical order. Tokens are opaque categorical strings;
each column gets its own first-seen-first-coded dictionary, built during the
first full replay and frozen afterwards.

The visitor is called once per chunk of up to CHUNK_ROWS rows, as
`visitor(columns, classes)`: `columns` is a tuple of d lists of feature
codes, one list per coordinate, and `classes` the list of class codes, or
None without a class column. Row r of the chunk is
`tuple(col[r] for col in columns)`. A chunk is transposed and encoded by
C-level builtins (zip, map), so reading a chunk costs no Python call per
item or cell. A cached handle keeps these chunk columns, not rows, and
hands the same lists to every pass: visitors read them and never modify
them.

An uncached file is parsed once per handle. Before its freezing replay
parses, it records the CRC32 and byte count of the source, and it also
writes each chunk's codes, class codes included, as 32-bit unsigned ints to
an anonymous temporary file: 4*d*m bytes of temporary disk, 4*(d+1)*m with
a class column, so every code must fit in 32 bits. Multi-pass algorithms
need every pass to see the same stream, so a later replay whose source
changed, or can no longer be read, fails with IngestInconsistencyError
before the visitor sees a chunk. Otherwise it reads the chunks back from the
spill, decoded to the dictionaries' own int objects; when the spill could
not be written, it parses the unchanged file again.

One column may be designated as the class column; it is stripped from the
feature columns and handed to the visitor separately.
"""

from __future__ import annotations

import csv
import tempfile
import weakref
import zlib
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import filterfalse, islice
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .errors import (
    ConfigError,
    EmptyFileError,
    IngestInconsistencyError,
    RaggedRowError,
)

CHUNK_ROWS = 1024
_DIGEST_BLOCK = 1 << 16

Columns = tuple[list[int], ...]
Visitor = Callable[[Columns, "list[int] | None"], None]


@dataclass(frozen=True)
class PassSummary:
    """What one full replay saw: its item count."""

    m: int


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
        # An uncached file's (CRC32, byte count) when its freezing replay
        # read it, and the codes that replay encoded, unless unwritable.
        self._digest: tuple[int, int] | None = None
        self._spill: BinaryIO | None = None

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
        self._dicts: list[dict[str, int]] = [{} for _ in range(n_cols)]
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
        """An iterator over the source rows. A file skips its blank lines
        and, with has_header, its first line."""
        if self._rows is not None:
            yield iter(self._rows)
            return
        with open(self._path, "r", newline="") as fh:
            reader = csv.reader(fh, delimiter=self.delimiter)
            if self.has_header:
                next(reader, None)
            yield filter(None, reader)

    # -- encoding -----------------------------------------------------------

    def _encode_column(self, col: int, tokens: Sequence[str]) -> list[int]:
        """Codes of one chunk column. The freezing replay first codes its
        unseen tokens in first-seen order."""
        codes = self._dicts[col]
        if self.m is None:
            new = list(filterfalse(codes.__contains__, dict.fromkeys(tokens)))
            codes.update(zip(new, range(len(codes), len(codes) + len(new))))
            self._rev[col].extend(new)
        return list(map(codes.__getitem__, tokens))

    def code(self, coord: int, token: str) -> int:
        """Code of `token` in feature coordinate `coord` (after a replay)."""
        return self._dicts[self._feature_cols[coord]][token]

    def decode(self, coord: int, code: int) -> str:
        return self._rev[self._feature_cols[coord]][code]

    def _class_column(self) -> int:
        if self.class_col is None:
            raise ConfigError("no class column designated")
        return self.class_col

    def class_code(self, token: str) -> int:
        return self._dicts[self._class_column()][token]

    def decode_class(self, code: int) -> str:
        return self._rev[self._class_column()][code]

    @property
    def cardinalities(self) -> tuple[int, ...]:
        """Observed distinct count per feature coordinate."""
        return tuple(len(self._dicts[j]) for j in self._feature_cols)

    @property
    def n_classes(self) -> int:
        return len(self._dicts[self._class_column()])

    # -- replay -------------------------------------------------------------

    def replay(self, visitor: Visitor) -> PassSummary:
        """Invoke `visitor(columns, classes)` once per chunk of up to
        CHUNK_ROWS items, in source order."""
        if self._replaying:
            raise ConfigError("handle supports one active replay at a time")
        self._replaying = True
        try:
            if self._cached_chunks is not None:
                for columns, classes in self._cached_chunks:
                    visitor(columns, classes)
                return PassSummary(self.m)
            if self.m is None:
                if self._cache_items:
                    return self._replay_source(visitor)
                return self._replay_source_to_spill(visitor)
            try:  # a frozen uncached file: it must hold the bytes first read
                same = _source_digest(self._path) == self._digest
            except OSError as exc:
                raise IngestInconsistencyError(f"source can no longer be read: {exc}") from exc
            if not same:
                raise IngestInconsistencyError(f"{self._path} changed since the first pass")
            if self._spill is not None:
                return self._replay_spill(visitor)
            return self._replay_source(visitor)
        finally:
            self._replaying = False

    def _replay_source_to_spill(self, visitor: Visitor) -> PassSummary:
        """The freezing replay of an uncached file. It also spills each
        chunk's codes, and keeps the source's digest taken before the parse.
        A spill that cannot be written (no temporary disk) is dropped, and
        later replays parse the file again."""
        digest = _source_digest(self._path)
        spill: BinaryIO | None = None
        with suppress(OSError):
            spill = tempfile.TemporaryFile()

        def spilling(columns: Columns, classes: list[int] | None) -> None:
            nonlocal spill
            if spill is not None:
                codes = array("I")
                for col in (*columns, classes) if classes is not None else columns:
                    codes.fromlist(col)
                try:
                    spill.write(codes)
                except OSError:
                    spill.close()
                    spill = None
            visitor(columns, classes)

        try:
            summary = self._replay_source(spilling)
        except BaseException:
            if spill is not None:
                spill.close()
            raise
        if spill is not None:
            weakref.finalize(self, spill.close)  # closed with the handle
        self._spill, self._digest = spill, digest
        return summary

    def _replay_spill(self, visitor: Visitor) -> PassSummary:
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
        return PassSummary(self.m)

    def _replay_source(self, visitor: Visitor) -> PassSummary:
        n_cols = self._n_cols
        feature_cols = self._feature_cols
        class_col = self.class_col
        # A cached handle parses only in its freezing replay, and keeps the chunks.
        chunks: list | None = [] if self._cache_items else None
        m = 0
        with self._raw_rows() as source:
            while rows := list(islice(source, CHUNK_ROWS)):
                if set(map(len, rows)) != {n_cols}:
                    r = next(r for r, row in enumerate(rows) if len(row) != n_cols)
                    raise RaggedRowError(
                        f"row {m + r + 1} has {len(rows[r])} fields, expected {n_cols}"
                    )
                m += len(rows)
                tokens = list(zip(*rows))
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
        return PassSummary(m)


def _source_digest(path: Path) -> tuple[int, int]:
    """CRC32 and byte count of a file, read through one reused buffer."""
    crc = size = 0
    buf = bytearray(_DIGEST_BLOCK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            crc = zlib.crc32(view[:n], crc)
            size += n
    return crc, size


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
