"""Row-oriented delimited block files (``.rtx``): the no-index baseline.

Layout: UTF-8, ``|`` between fields, ``\\n`` between records, NULL as the
empty field, no header. Counting or filtering always scans the whole file,
so ``rows_read`` equals the file's row count no matter the predicate.

Note the format cannot distinguish an empty string from NULL; both encode
as an empty field and read back as NULL. A string holding ``|``, ``\\n`` or
``\\r`` cannot be written. ``encode_column`` and ``decode_column`` are the
only code that knows this encoding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import columns as C
from .errors import IllegalCharacter, IoFailure, MalformedRecord
from .schema import ColumnType, PartitionDescriptor, StorageFormat, TableSchema

DEFAULT_BATCH_ROWS = 4096
EXTENSION = ".rtx"


@dataclass
class ScanStats:
    rows_read: int = 0
    bytes_read: int = 0
    stripes_total: int = 0
    stripes_pruned: int = 0


def encode_column(col: C.Column, ctype: ColumnType) -> list[str]:
    """Field text per value: FLOAT64 as shortest round-trip decimal, DATE as
    ISO ``YYYY-MM-DD``, NULL as the empty field."""
    if isinstance(col, C.StrColumn):
        if col.valid is None:
            return list(col.data)
        return [v if v is not None else "" for v in col.data]
    data = col.data
    if ctype is ColumnType.FLOAT64:
        out = [repr(v) for v in data.tolist()]
    elif ctype is ColumnType.DATE:
        out = [str(d) for d in data.astype("datetime64[D]")]
    else:
        out = [str(v) for v in data.tolist()]
    if col.valid is not None:
        for i in np.flatnonzero(~col.valid):
            out[i] = ""
    return out


def decode_column(fields: list[str], ctype: ColumnType, bad_field) -> C.Column:
    """Typed column from field texts; the empty field decodes to NULL.

    Equal strings of one batch share one object. For the first unparsable
    field, raises the exception ``bad_field(index_in_fields, message)``
    returns, so each caller reports the position its own way.
    """
    if ctype is ColumnType.STRING:
        memo: dict[str, str] = {}
        data = np.array(list(map(memo.setdefault, fields, fields)), dtype=object)
        valid = data != ""
        if valid.all():
            return C.StrColumn(data, None)
        data[~valid] = None
        return C.StrColumn(data, valid)
    u = np.asarray(fields)
    valid = u != ""
    all_valid = bool(valid.all())
    if not all_valid:
        u = np.where(valid, u, "1970-01-01" if ctype is ColumnType.DATE else "0")
    try:
        if ctype is ColumnType.INT64:
            data = u.astype(np.int64)
        elif ctype is ColumnType.FLOAT64:
            data = u.astype(np.float64)
        else:
            data = u.astype("datetime64[D]").astype(np.int64)
    except ValueError:
        for j, text in enumerate(fields):
            if text == "":
                continue
            try:
                if ctype is ColumnType.INT64:
                    int(text)
                elif ctype is ColumnType.FLOAT64:
                    float(text)
                else:
                    np.datetime64(text, "D")
            except ValueError:
                raise bad_field(j, f"unparsable {ctype.value} value {text!r}") from None
        raise
    return C.NumColumn(data, None if all_valid else valid)


class RowtextWriter:
    """Streaming writer of one block file; byte-deterministic for identical input."""

    def __init__(self, schema: TableSchema, path):
        self.schema = schema
        self.path = Path(path)
        self._rows = 0
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._f = open(self.path, "w", encoding="utf-8", newline="")
        except OSError as e:
            raise IoFailure(f"cannot write {self.path}: {e}") from e

    def append_columns(self, cols: list[C.Column]) -> None:
        """Append one batch; raises IllegalCharacter, writing nothing, when a
        value holds ``|``, ``\\n`` or ``\\r``."""
        texts = [encode_column(col, c.ctype) for col, c in zip(cols, self.schema.columns)]
        n = len(texts[0])
        text = "".join(["|".join(row) + "\n" for row in zip(*texts)])
        seps = n * (self.schema.arity - 1)
        if (text.count("|"), text.count("\n"), text.count("\r")) != (seps, n, 0):
            name, value = next(
                (c.name, v) for c, vs in zip(self.schema.columns, texts)
                for v in vs if "|" in v or "\n" in v or "\r" in v
            )
            raise IllegalCharacter(f"column {name} value {value!r} contains a delimiter")
        try:
            self._f.write(text)
        except OSError as e:
            raise IoFailure(f"cannot write {self.path}: {e}") from e
        self._rows += n

    def abort(self) -> None:
        """Close and delete the partly written file."""
        self._f.close()
        self.path.unlink(missing_ok=True)

    def close(self, *, partition_id: int = 0, worker_id: int = 0) -> PartitionDescriptor:
        try:
            self._f.close()
        except OSError as e:
            raise IoFailure(f"cannot write {self.path}: {e}") from e
        return PartitionDescriptor(
            partition_id=partition_id,
            worker_id=worker_id,
            path=str(self.path),
            format=StorageFormat.ROWTEXT,
            row_count=self._rows,
        )


def write_rowtext(rows, schema: TableSchema, path, *, partition_id: int = 0,
                  worker_id: int = 0) -> PartitionDescriptor:
    """Write type-checked row tuples to one block file."""
    return C.write_rows(RowtextWriter(schema, path), rows, DEFAULT_BATCH_ROWS,
                        partition_id=partition_id, worker_id=worker_id)


def scan_rowtext_columnar(path, schema: TableSchema, needed: list[int],
                          batch_rows: int = DEFAULT_BATCH_ROWS):
    """Yield ``(n_rows, {col_index: Column})`` batches plus final stats.

    Generator yields batches of at most ``batch_rows`` rows; the returned
    object's ``stats`` attribute is complete once iteration finishes. Only
    ``needed`` columns are converted; arity is validated on every record.
    """
    return _RowtextScan(path, schema, needed, batch_rows)


class _RowtextScan:
    def __init__(self, path, schema, needed, batch_rows):
        self.path = Path(path)
        self.schema = schema
        self.needed = sorted(set(needed))
        self.batch_rows = batch_rows
        self.stats = ScanStats()

    def __iter__(self):
        arity = self.schema.arity
        seps = arity - 1
        try:
            size = os.path.getsize(self.path)
            f = open(self.path, "r", encoding="utf-8", newline="\n")
        except OSError as e:
            raise IoFailure(f"cannot read {self.path}: {e}") from e
        self.stats.bytes_read = size
        line_no = 0

        def bad(j, message):  # field j of the current batch
            return MalformedRecord(message, base_line + j)

        with f:
            while True:
                lines = list(islice(f, self.batch_rows))
                if not lines:
                    break
                base_line = line_no + 1
                if not self.needed:
                    # arity check without materializing fields
                    for line in lines:
                        line_no += 1
                        if line.count("|") != seps:
                            raise MalformedRecord(
                                f"expected {arity} fields, got {line.count('|') + 1}",
                                line_no,
                            )
                    self.stats.rows_read += len(lines)
                    yield len(lines), {}
                    continue
                per_col: list[list[str]] = [[] for _ in self.needed]
                for line in lines:
                    line_no += 1
                    if line.endswith("\n"):
                        line = line[:-1]
                    parts = line.split("|")
                    if len(parts) != arity:
                        raise MalformedRecord(
                            f"expected {arity} fields, got {len(parts)}", line_no
                        )
                    for k, i in enumerate(self.needed):
                        per_col[k].append(parts[i])
                self.stats.rows_read += len(lines)
                cols = {
                    i: decode_column(per_col[k], self.schema.columns[i].ctype, bad)
                    for k, i in enumerate(self.needed)
                }
                yield len(lines), cols


def scan_rowtext(path, schema: TableSchema, projection=None, predicate=(),
                 batch_rows: int = DEFAULT_BATCH_ROWS):
    """Row-tuple scan: yields batches (lists of tuples) of matching rows.

    ``projection`` is a list of column indices (None = all); ``predicate``
    a sequence of resolved conjuncts. Returns the scan object; iterate it
    for batches and read ``.stats`` afterwards.
    """
    return _RowScan(path, schema, projection, predicate, batch_rows)


class _RowScan:
    def __init__(self, path, schema, projection, predicate, batch_rows):
        self.stats = ScanStats()
        self._path = path
        self._schema = schema
        self._projection = list(range(schema.arity)) if projection is None else list(projection)
        self._predicate = tuple(predicate)
        self._batch_rows = batch_rows

    def __iter__(self):
        needed = sorted(set(self._projection) | {c.col for c in self._predicate})
        inner = scan_rowtext_columnar(self._path, self._schema, needed, self._batch_rows)
        self.stats = inner.stats
        types = [c.ctype for c in self._schema.columns]
        for n_rows, cols in inner:
            rows = C.filter_rows(cols, self._predicate, self._projection, types, n_rows)
            if rows:
                yield rows
