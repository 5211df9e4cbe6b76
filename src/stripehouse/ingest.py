"""CSV ingestion into partitioned tables.

Accepts RFC-4180-style CSV (quoted fields, ``""`` escape) with a mandatory
header whose names must match the target schema case-insensitively, in any
order. Rows are distributed round-robin in batches of ``stripe_size``
across ``partitions`` writers, so partition 0 gets batches 0, P, 2P, ...
A CSV of fewer than ``partitions * stripe_size`` rows therefore fills
fewer partitions than asked (``stripehouse ingest`` prints how many).
Ingest alone decides this layout: the format writers write each batch they
are handed as it is, so every batch becomes one stripe of a ``.stp`` file.

An optional stable pre-sort on one column clusters values so stripe
statistics become selective; without it uniformly distributed columns
never prune.
"""

from __future__ import annotations

import csv
from itertools import islice

import numpy as np

from . import columns as C
from .errors import ArityError, HeaderMismatch, IoFailure, ParseError
from .rowtext import EXTENSION as RTX_EXT, RowtextWriter, decode_column
from .schema import (
    DEFAULT_PARTITIONS,
    DEFAULT_WORKERS,
    Catalog,
    PartitionDescriptor,
    StorageFormat,
    TableEntry,
    TableSchema,
)
from .stripefile import EXTENSION as STP_EXT, StripeWriter

DEFAULT_STRIPE_SIZE = 10_000


def _open_reader(path):
    try:
        f = open(path, "r", encoding="utf-8", newline="")
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    return f, csv.reader(f)


def _header_map(header: list[str], schema: TableSchema, path) -> list[int]:
    """For each schema column, the CSV field position holding it."""
    names = [h.lower() for h in header]
    want = [c.name for c in schema.columns]
    if sorted(names) != sorted(want):
        raise HeaderMismatch(
            f"{path}: header {names} does not match schema columns {want}"
        )
    return [names.index(w) for w in want]


def ingest_csv(catalog: Catalog, table: str, csv_path, *,
               partitions: int = DEFAULT_PARTITIONS,
               stripe_size: int = DEFAULT_STRIPE_SIZE,
               sort_by: str | None = None) -> TableEntry:
    """Load a CSV file into an existing (created) table.

    Returns the updated TableEntry. With ``sort_by`` the whole file is read,
    stably sorted on that column, then distributed; NULLs sort first.
    """
    entry = catalog.get_table(table)
    schema = entry.schema
    fmt = entry.format
    base = catalog.data_root / "tables" / schema.table_name
    writer_cls, ext = ((StripeWriter, STP_EXT) if fmt is StorageFormat.STRIPE
                       else (RowtextWriter, RTX_EXT))

    f, reader = _open_reader(csv_path)
    with f:
        try:
            header = next(reader)
        except StopIteration:
            raise HeaderMismatch(f"{csv_path}: empty file, header required") from None
        field_pos = _header_map(header, schema, csv_path)

        batches = _read_batches(reader, schema, field_pos, stripe_size, csv_path)
        if sort_by is not None:
            batches = _sorted_batches(batches, schema, sort_by, stripe_size)

        writers: list = []
        next_part = len(entry.partitions)
        try:
            for b, cols in enumerate(batches):
                slot = b % partitions
                if slot >= len(writers):
                    writers.append(writer_cls(schema, base / f"part-{next_part + slot:05d}{ext}"))
                writers[slot].append_columns(cols)
        except BaseException:
            for w in writers:
                w.abort()
            raise

    for slot, w in enumerate(writers):
        pid = next_part + slot
        desc = PartitionDescriptor(pid, pid % DEFAULT_WORKERS, str(w.path), fmt, w.close())
        entry = catalog.register_partition(schema.table_name, desc)
    return entry


def _read_batches(reader, schema: TableSchema, field_pos: list[int],
                  batch_rows: int, csv_path):
    """Yield per-batch column lists in schema order; NULL in a NOT NULL
    column is a ParseError."""
    arity = len(field_pos)
    line_no = 1  # header consumed
    while True:
        rows = list(islice(reader, batch_rows))
        if not rows:
            return
        first_line = line_no + 1
        for r in rows:
            line_no += 1
            if len(r) != arity:
                raise ArityError(
                    f"{csv_path}: row {line_no} has {len(r)} fields, expected {arity}"
                )
        cols = []
        for col_schema, pos in zip(schema.columns, field_pos):
            def bad(j, message):
                return ParseError(message, row=first_line + j, column=pos + 1)

            col = decode_column([r[pos] for r in rows], col_schema.ctype, bad)
            if not col_schema.nullable and col.valid is not None:
                raise bad(int(np.argmin(col.valid)),
                          f"column {col_schema.name} is not nullable")
            cols.append(col)
        yield cols


def _sorted_batches(batches, schema: TableSchema, sort_by: str, batch_rows: int):
    """Materialize, stable-sort on one column, re-batch."""
    key_idx = schema.column_index(sort_by)
    collected = [[] for _ in schema.columns]
    for cols in batches:
        for i, col in enumerate(cols):
            collected[i].append(col)
    if not collected[0]:
        return
    merged = [C.concat(parts) for parts in collected]
    collected.clear()
    key = merged[key_idx]
    k = C.sort_key(key) if isinstance(key, C.StrColumn) else key.data
    # lexsort is stable; primary key last: NULLs first, then value
    order = (np.argsort(k, kind="stable") if key.valid is None
             else np.lexsort((k, key.valid)))
    n = len(key)
    for start in range(0, n, batch_rows):
        idx = order[start:start + batch_rows]
        yield [C.take(col, idx) for col in merged]
