"""Row tuples in and out of one ``.stp`` or ``.rtx`` file, for tests: through the
format's writer, and back by the scan path queries run (``planner._scan_op`` on)."""

from itertools import islice
from pathlib import Path

import numpy as np

from stripehouse import columns as C, planner
from stripehouse.errors import TypeMismatch
from stripehouse.ingest import DEFAULT_STRIPE_SIZE
from stripehouse.rowtext import RowtextWriter, scan_rowtext_columnar
from stripehouse.schema import ColumnType, PartitionDescriptor, StorageFormat, TableEntry
from stripehouse.stripefile import EXTENSION, StripeWriter, read_stripe_columns
from stripehouse.values import DAYS_MAX, DAYS_MIN, INT64_MAX, INT64_MIN

_PYTYPE = {ColumnType.FLOAT64: (int, float), ColumnType.STRING: str}  # else int
_RANGE = {ColumnType.INT64: (INT64_MIN, INT64_MAX), ColumnType.DATE: (DAYS_MIN, DAYS_MAX)}


def check_row(row, schema) -> None:
    if len(row) != schema.arity:
        raise TypeMismatch(f"row arity {len(row)} != schema arity {schema.arity}")
    for col, v in zip(schema.columns, row):
        lo, hi = _RANGE.get(col.ctype, (None, None))
        if not ((v is None and col.nullable) or (
                isinstance(v, _PYTYPE.get(col.ctype, int)) and not isinstance(v, bool)
                and (lo is None or lo <= v <= hi))):
            raise TypeMismatch(f"column {col.name}: {col.ctype.value} cannot hold {v!r}")


def column_from_values(values, ctype: ColumnType) -> C.Column:
    valid = np.array([v is not None for v in values], dtype=bool) if None in values else None
    if ctype is ColumnType.STRING:
        return C.strings_column(["" if v is None else v for v in values], valid)
    dtype = np.float64 if ctype is ColumnType.FLOAT64 else np.int64
    return C.NumColumn(np.array([0 if v is None else v for v in values], dtype=dtype), valid)


def column_to_values(col: C.Column) -> list:
    out = col.strings() if isinstance(col, C.StrColumn) else col.data.tolist()
    return out if col.valid is None else [v if ok else None for v, ok in zip(out, col.valid)]


def write_file(rows, schema, path, stripe_size=DEFAULT_STRIPE_SIZE, partition_id=0):
    """Write type-checked ``rows`` to ``path`` in batches of ``stripe_size``
    rows, each a stripe of a ``.stp`` file; returns its PartitionDescriptor."""
    fmt = StorageFormat.STRIPE if Path(path).suffix == EXTENSION else StorageFormat.ROWTEXT
    writer = (StripeWriter if fmt is StorageFormat.STRIPE else RowtextWriter)(schema, path)
    it = iter(rows)
    try:
        while batch := list(islice(it, stripe_size)):
            for row in batch:
                check_row(row, schema)
            writer.append_columns([column_from_values([r[i] for r in batch], c.ctype)
                                   for i, c in enumerate(schema.columns)])
    except BaseException:
        writer.abort()
        raise
    return PartitionDescriptor(partition_id, 0, str(Path(path)), fmt, writer.close())


def scan_file(path, schema, projection=None, predicate=(), prune=True):
    """``(rows, ScanOp, ScanStats)``; the rows pass ``predicate``, in ``projection`` order."""
    fmt = StorageFormat.STRIPE if Path(path).suffix == EXTENSION else StorageFormat.ROWTEXT
    entry = TableEntry(schema, fmt, (PartitionDescriptor(0, 0, str(path), fmt, 0),), "")
    footers = {}
    op = planner._scan_op(0, entry, tuple(predicate), range(schema.arity)
                          if projection is None else projection, prune, footers)
    needed = sorted(set(op.projection) | {c.col for c in op.conjuncts})
    nbytes, rows = sum(f.bytes_read for f in footers.values()), []
    for task in op.tasks:
        if fmt is StorageFormat.ROWTEXT:  # the file's one task
            parts = scan_rowtext_columnar(task.path, schema, needed)
        else:
            cols, size = read_stripe_columns(task.path, footers[task.path], task.stripe_index, needed)
            parts, nbytes = [(task.rows, cols)], nbytes + size
        for n, cols in parts:
            if kept := C.filter_project(cols, op.conjuncts, op.projection, n):
                rows.extend(zip(*map(column_to_values, kept[1])))
    return rows, op, parts.stats if fmt is StorageFormat.ROWTEXT else \
        C.ScanStats(op.rows_total, nbytes)
