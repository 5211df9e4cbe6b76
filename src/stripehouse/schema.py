"""Table metadata: schemas, storage formats, partition placement, and the
persistent catalog.

The catalog is a single JSON file under the data root, replaced atomically
on every mutation so a reader never observes a half-written state.
"""

from __future__ import annotations

import json
import os
import re
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

from .errors import (
    DuplicateTable,
    FormatMismatch,
    InvalidSchema,
    IoFailure,
    NonContiguousPartitionId,
    UnknownTable,
)

IDENT_RE = re.compile(r"[a-z_][a-z0-9_]*\Z")

# Logical worker count used for partition placement metadata.
DEFAULT_WORKERS = 8
DEFAULT_PARTITIONS = 8


class ColumnType(Enum):
    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    DATE = "date"  # stored as signed days since 1970-01-01


class StorageFormat(Enum):
    ROWTEXT = "rowtext"
    STRIPE = "stripe"


@dataclass(frozen=True)
class Column:
    name: str
    ctype: ColumnType
    nullable: bool = True


@dataclass(frozen=True)
class TableSchema:
    table_name: str
    columns: tuple[Column, ...]

    @staticmethod
    def create(table_name: str, columns) -> "TableSchema":
        """Build a validated schema; identifiers are lowercased on the way in."""
        name = table_name.lower()
        if not IDENT_RE.match(name):
            raise InvalidSchema(f"illegal table name {table_name!r}")
        cols = []
        seen = set()
        for c in columns:
            if isinstance(c, Column):
                col = Column(c.name.lower(), c.ctype, c.nullable)
            else:
                cname, ctype = c[0], c[1]
                nullable = c[2] if len(c) > 2 else True
                col = Column(cname.lower(), ctype, nullable)
            if not IDENT_RE.match(col.name):
                raise InvalidSchema(f"illegal column name {col.name!r}")
            if col.name in seen:
                raise InvalidSchema(f"duplicate column name {col.name!r}")
            seen.add(col.name)
            cols.append(col)
        if not cols:
            raise InvalidSchema("schema must have at least one column")
        return TableSchema(name, tuple(cols))

    def column_index(self, name: str) -> int:
        name = name.lower()
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(name)

    @property
    def arity(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class PartitionDescriptor:
    partition_id: int
    worker_id: int
    path: str
    format: StorageFormat
    row_count: int


@dataclass(frozen=True)
class TableEntry:
    schema: TableSchema
    format: StorageFormat
    partitions: tuple[PartitionDescriptor, ...]
    created_at: str  # RFC-3339 UTC

    @property
    def row_count(self) -> int:
        return sum(p.row_count for p in self.partitions)


def schema_to_json(schema: TableSchema) -> dict:
    """The schema as the catalog and the stripe footer store it."""
    return {
        "table_name": schema.table_name,
        "columns": [[c.name, c.ctype.value, c.nullable] for c in schema.columns],
    }


def schema_from_json(d: dict) -> TableSchema:
    """Inverse of ``schema_to_json``; raises KeyError, ValueError or TypeError
    on a malformed document."""
    cols = tuple(Column(n, ColumnType(t), bool(nl)) for n, t, nl in d["columns"])
    return TableSchema(d["table_name"], cols)


def _entry_to_json(entry: TableEntry) -> dict:
    return {
        "schema": schema_to_json(entry.schema),
        "format": entry.format.value,
        "created_at": entry.created_at,
        "partitions": [
            {
                "partition_id": p.partition_id,
                "worker_id": p.worker_id,
                "path": p.path,
                "format": p.format.value,
                "row_count": p.row_count,
            }
            for p in entry.partitions
        ],
    }


def _entry_from_json(d: dict) -> TableEntry:
    parts = tuple(
        PartitionDescriptor(
            partition_id=p["partition_id"],
            worker_id=p["worker_id"],
            path=p["path"],
            format=StorageFormat(p["format"]),
            row_count=p["row_count"],
        )
        for p in d["partitions"]
    )
    return TableEntry(
        schema=schema_from_json(d["schema"]),
        format=StorageFormat(d["format"]),
        partitions=parts,
        created_at=d["created_at"],
    )


def resolve_data_root(data_root: str | os.PathLike | None = None) -> Path:
    """Absolute data root from the explicit argument, STRIPEHOUSE_ROOT, or
    cwd, so that catalog paths built from it do not depend on the cwd."""
    if data_root is None:
        data_root = os.environ.get("STRIPEHOUSE_ROOT") or "."
    return Path(data_root).absolute()


class Catalog:
    """Persistent table catalog.

    Many concurrent readers, one writer at a time; every mutation rewrites
    ``catalog.json`` via write-temp-then-rename. Entries handed out are
    immutable snapshots.
    """

    def __init__(self, data_root: str | os.PathLike | None = None):
        self.data_root = resolve_data_root(data_root)
        self.path = self.data_root / "catalog.json"
        self._lock = threading.RLock()
        self._tables: dict[str, TableEntry] = {}
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise IoFailure(f"cannot read catalog {self.path}: {e}") from e
        self._tables = {name: _entry_from_json(d) for name, d in raw["tables"].items()}

    def _persist(self) -> None:
        doc = {"tables": {name: _entry_to_json(e) for name, e in self._tables.items()}}
        tmp = self.path.with_suffix(".json.tmp")
        try:
            self.data_root.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            os.replace(tmp, self.path)
        except OSError as e:
            raise IoFailure(f"cannot write catalog {self.path}: {e}") from e

    def create_table(self, schema: TableSchema, fmt: StorageFormat) -> TableEntry:
        with self._lock:
            if schema.table_name in self._tables:
                raise DuplicateTable(schema.table_name)
            entry = TableEntry(
                schema=schema,
                format=fmt,
                partitions=(),
                created_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
            )
            self._tables[schema.table_name] = entry
            self._persist()
            return entry

    def register_partition(self, table: str, desc: PartitionDescriptor) -> TableEntry:
        with self._lock:
            entry = self.get_table(table)
            if desc.partition_id != len(entry.partitions):
                raise NonContiguousPartitionId(
                    f"expected partition_id {len(entry.partitions)}, got {desc.partition_id}"
                )
            if desc.format != entry.format:
                raise FormatMismatch(
                    f"table {entry.schema.table_name} is {entry.format.value}, "
                    f"partition is {desc.format.value}"
                )
            updated = TableEntry(
                schema=entry.schema,
                format=entry.format,
                partitions=entry.partitions + (desc,),
                created_at=entry.created_at,
            )
            self._tables[entry.schema.table_name] = updated
            self._persist()
            return updated

    def get_table(self, name: str) -> TableEntry:
        key = name.lower()
        with self._lock:
            try:
                return self._tables[key]
            except KeyError:
                raise UnknownTable(name) from None
