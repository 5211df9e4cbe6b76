"""Columnar batch containers and vectorized predicate evaluation.

A scan produces one column object per projected schema column:

* numeric columns (INT64/DATE/FLOAT64) hold a numpy array with NULL slots
  zero-filled plus a validity mask,
* string columns hold either decoded Python strings or, on the stripe fast
  path, the raw length/byte buffers decoded only when values are needed.

NULL never satisfies a comparison; float comparisons are IEEE-754, so NaN
satisfies only ``!=``.

``RowScan`` turns either format's columnar scan into row-tuple batches, and
``ScanStats`` counts what a scan read.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import TypeMismatch
from .schema import ColumnType
from .values import check_value


@dataclass
class NumColumn:
    data: np.ndarray  # int64 or float64, NULL slots zero-filled
    valid: np.ndarray | None  # bool mask, None means all valid

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class StrColumn:
    data: np.ndarray  # object array of str, NULL slots hold None
    valid: np.ndarray | None

    def __len__(self) -> int:
        return len(self.data)


class LazyStrColumn:
    """String column backed by raw stripe bytes; decoded on demand."""

    __slots__ = ("lengths", "offsets", "buf", "valid")

    def __init__(self, lengths: np.ndarray, buf: bytes, valid: np.ndarray | None):
        self.lengths = lengths.astype(np.int64, copy=False)
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths)))
        self.buf = buf
        self.valid = valid

    def __len__(self) -> int:
        return len(self.lengths)

    def eq_mask(self, lit: str) -> np.ndarray:
        """Vectorized equality against a literal without decoding."""
        raw = lit.encode("utf-8")
        n = len(raw)
        mask = self.lengths == n
        if self.valid is not None:
            mask &= self.valid
        if n == 0 or not mask.any():
            return mask
        arr = np.frombuffer(self.buf, dtype=np.uint8)
        starts = self.offsets[:-1][mask]
        windows = arr[starts[:, None] + np.arange(n)]
        hits = (windows == np.frombuffer(raw, dtype=np.uint8)).all(axis=1)
        out = np.zeros(len(self.lengths), dtype=bool)
        out[np.flatnonzero(mask)[hits]] = True
        return out

    def decode(self) -> StrColumn:
        offs = self.offsets
        buf = self.buf
        out = np.empty(len(self.lengths), dtype=object)
        for i in range(len(self.lengths)):
            out[i] = buf[offs[i]:offs[i + 1]].decode("utf-8")
        if self.valid is not None:
            out[~self.valid] = None
        return StrColumn(out, self.valid)


Column = NumColumn | StrColumn | LazyStrColumn


@dataclass
class ScanStats:
    rows_read: int = 0
    bytes_read: int = 0
    stripes_total: int = 0
    stripes_pruned: int = 0


def conjunct_mask(col: Column, op: str, value) -> np.ndarray:
    """Boolean mask of rows whose (non-NULL) value satisfies ``op value``."""
    if isinstance(col, (StrColumn, LazyStrColumn)):
        if op == "=":
            if isinstance(col, LazyStrColumn):
                return col.eq_mask(value)
            mask = col.data == value
        elif op == "!=":
            if isinstance(col, LazyStrColumn):
                mask = ~col.eq_mask(value)
                if col.valid is not None:
                    mask &= col.valid
                return mask
            mask = col.data != value
        else:
            raise ValueError(f"operator {op} not supported on STRING")
        if col.valid is not None:
            mask &= col.valid
        return np.asarray(mask, dtype=bool)

    d = col.data
    if op == "=":
        mask = d == value
    elif op == "!=":
        mask = d != value
    elif op == "<":
        mask = d < value
    elif op == "<=":
        mask = d <= value
    elif op == ">":
        mask = d > value
    else:
        mask = d >= value
    if col.valid is not None:
        mask = mask & col.valid
    return mask


def predicate_mask(columns: dict[int, Column], conjuncts) -> np.ndarray | None:
    """AND of all conjunct masks; None means no predicate (all rows pass)."""
    mask = None
    for c in conjuncts:
        m = conjunct_mask(columns[c.col], c.op, c.value)
        mask = m if mask is None else (mask & m)
    return mask


def take(col: Column, idx: np.ndarray) -> Column:
    if isinstance(col, LazyStrColumn):
        col = col.decode()
    if isinstance(col, StrColumn):
        return StrColumn(col.data[idx], None if col.valid is None else col.valid[idx])
    return NumColumn(col.data[idx], None if col.valid is None else col.valid[idx])


def filter_project(cols: dict[int, Column], conjuncts, projection,
                   n_rows: int) -> tuple[int, list[Column]] | None:
    """``(rows, columns in projection order)`` of the rows passing ``conjuncts``.

    None when no row passes.
    """
    mask = predicate_mask(cols, conjuncts)
    if mask is None:
        return n_rows, [cols[i] for i in projection]
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        return None
    return len(idx), [take(cols[i], idx) for i in projection]


class RowScan:
    """Row-tuple scan over a columnar scan: yields one list of tuples, in
    ``projection`` order (None = all columns), per batch with a row passing
    ``predicate``.

    ``columnar(needed)`` makes the columnar scan of the ``needed`` column
    indices: an iterable of ``(n_rows, {col_index: Column})`` with a
    ``.stats`` that is complete after iteration, which this scan shares.
    """

    def __init__(self, columnar, schema, projection, predicate):
        self._projection = list(range(schema.arity)) if projection is None else list(projection)
        self._predicate = tuple(predicate)
        self._types = [c.ctype for c in schema.columns]
        self._inner = columnar(sorted(set(self._projection) | {c.col for c in self._predicate}))
        self.stats = self._inner.stats

    def __iter__(self):
        for n_rows, cols in self._inner:
            kept = filter_project(cols, self._predicate, self._projection, n_rows)
            if kept and kept[0]:
                n, out = kept
                values = [column_to_values(c, self._types[i])
                          for c, i in zip(out, self._projection)]
                yield list(zip(*values)) if values else [()] * n


def concat(cols: list[Column]) -> NumColumn | StrColumn:
    """One decoded column holding the rows of ``cols`` in order."""
    cols = [c.decode() if isinstance(c, LazyStrColumn) else c for c in cols]
    if len(cols) == 1:
        return cols[0]
    if any(c.valid is not None for c in cols):
        valid = np.concatenate([
            c.valid if c.valid is not None else np.ones(len(c), dtype=bool)
            for c in cols
        ])
    else:
        valid = None
    return type(cols[0])(np.concatenate([c.data for c in cols]), valid)


def column_from_values(values, ctype: ColumnType) -> Column:
    """Build a column from a sequence of Python values (None = NULL)."""
    n = len(values)
    if ctype is ColumnType.STRING:
        data = np.empty(n, dtype=object)
        valid = np.ones(n, dtype=bool)
        for i, v in enumerate(values):
            if v is None:
                valid[i] = False
                data[i] = None
            else:
                data[i] = v
        return StrColumn(data, valid if not valid.all() else None)
    dtype = np.float64 if ctype is ColumnType.FLOAT64 else np.int64
    data = np.zeros(n, dtype=dtype)
    valid = np.ones(n, dtype=bool)
    any_null = False
    for i, v in enumerate(values):
        if v is None:
            valid[i] = False
            any_null = True
        else:
            data[i] = v
    return NumColumn(data, valid if any_null else None)


def write_rows(writer, rows, batch_rows: int, *, partition_id: int,
               worker_id: int):
    """Type-checked row tuples through ``writer``, ``batch_rows`` at a time.

    ``writer`` has the ``append_columns`` / ``abort`` / ``close`` methods of
    the storage writers; returns what ``close`` returns.
    """
    schema = writer.schema
    it = iter(rows)
    try:
        while batch := list(islice(it, batch_rows)):
            for row in batch:
                if len(row) != schema.arity:
                    raise TypeMismatch(
                        f"row arity {len(row)} != schema arity {schema.arity}"
                    )
                for col, value in zip(schema.columns, row):
                    check_value(value, col.ctype, col.nullable, col.name)
            writer.append_columns([
                column_from_values([r[i] for r in batch], c.ctype)
                for i, c in enumerate(schema.columns)
            ])
    except BaseException:
        writer.abort()
        raise
    return writer.close(partition_id=partition_id, worker_id=worker_id)


def column_to_values(col: Column, ctype: ColumnType) -> list:
    """Back to Python values with None for NULL slots."""
    if isinstance(col, LazyStrColumn):
        col = col.decode()
    if isinstance(col, StrColumn):
        return list(col.data)
    if ctype is ColumnType.FLOAT64:
        out = [float(x) for x in col.data]
    else:
        out = [int(x) for x in col.data]
    if col.valid is not None:
        for i in np.flatnonzero(~col.valid):
            out[i] = None
    return out
