"""Dataset ingestion: delimited text with per-coordinate dictionary encoding.

A DatasetHandle replays its source as a sequence of encoded items, any number
of times, in identical order. Tokens are opaque categorical strings; each
column gets its own first-seen-first-coded dictionary, built during the first
full replay and frozen afterwards. A later pass that sees a token missing
from the frozen dictionary (or a different row count) fails with
IngestInconsistencyError, since multi-pass algorithms require both passes to
observe the same stream.

One column may be designated as the class column; it is stripped from the
feature vector and handed to the visitor separately.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    ConfigError,
    EmptyFileError,
    IngestInconsistencyError,
    RaggedRowError,
)

Visitor = Callable[[tuple[int, ...], "int | None"], None]


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
        self._cached_feats: list[tuple[int, ...]] | None = None
        self._cached_classes: list[int | None] | None = None

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
        for row in self._iter_raw_rows():
            return row
        raise EmptyFileError("no data rows in source")

    def _iter_raw_rows(self) -> Iterator[Sequence[str]]:
        if self._rows is not None:
            yield from self._rows
            return
        with open(self._path, "r", newline="") as fh:
            reader = csv.reader(fh, delimiter=self.delimiter)
            if self.has_header:
                next(reader, None)
            for row in reader:
                if row:
                    yield row

    # -- encoding -----------------------------------------------------------

    def _encode(self, col: int, token: str) -> int:
        codes = self._dicts[col]
        code = codes.get(token)
        if code is None:
            if self.m is not None:
                raise IngestInconsistencyError(
                    f"token {token!r} in column {col} was not seen in the first pass"
                )
            code = len(codes)
            codes[token] = code
            self._rev[col].append(token)
        return code

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
        """Invoke `visitor(features, class_code)` once per item, in source order."""
        if self._replaying:
            raise ConfigError("handle supports one active replay at a time")
        self._replaying = True
        try:
            if self._cached_feats is not None:
                for feats, cls in zip(self._cached_feats, self._cached_classes):
                    visitor(feats, cls)
                return PassSummary(self.m)
            return self._replay_source(visitor)
        finally:
            self._replaying = False

    def _replay_source(self, visitor: Visitor) -> PassSummary:
        feature_cols = self._feature_cols
        class_col = self.class_col
        encode = self._encode
        caching = self._cache_items and self._cached_feats is None and self.m is None
        feats_buf: list[tuple[int, ...]] = [] if caching else None
        cls_buf: list[int | None] = [] if caching else None
        m = 0
        for row in self._iter_raw_rows():
            if len(row) != self._n_cols:
                raise RaggedRowError(
                    f"row {m + 1} has {len(row)} fields, expected {self._n_cols}"
                )
            feats = tuple(encode(j, row[j]) for j in feature_cols)
            cls = encode(class_col, row[class_col]) if class_col is not None else None
            m += 1
            if caching:
                feats_buf.append(feats)
                cls_buf.append(cls)
            visitor(feats, cls)
        if self.m is None:
            self.m = m
        elif m != self.m:
            raise IngestInconsistencyError(f"pass saw {m} items, first pass saw {self.m}")
        if caching:
            self._cached_feats = feats_buf
            self._cached_classes = cls_buf
        return PassSummary(m)


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
    """In-memory dataset from pre-split token rows; used by tests and the oracle."""
    materialized = [list(r) for r in rows]
    return DatasetHandle(materialized, class_col=class_col)


def from_items(items: Iterable[Sequence[int]], *, class_col: int | None = None) -> DatasetHandle:
    """In-memory dataset from integer-valued rows (tokens are the decimal strings)."""
    return from_rows(([str(v) for v in row] for row in items), class_col=class_col)
