"""Columnar stripe files (``.stp``).

Layout::

    "STRP" | stripe 0 | ... | stripe n-1 | footer | footer_len u32le | "STRP"

Each stripe holds one chunk per schema column, in schema order::

    chunk := encoding u8 (0 = plain)
           | row_count u32le
           | null bitmap, ceil(rows/8) bytes, LSB-first, bit set = NULL
           | data

Data is little-endian and uncompressed: INT64 and DATE as 8-byte signed
integers (DATE = days since 1970-01-01), FLOAT64 as IEEE-754 doubles,
STRING as a u32le length array followed by the concatenated UTF-8 bytes.
NULL slots are zero-filled (length 0 for strings).

The footer is UTF-8 JSON describing the schema and, per stripe, the file
offset/length of every column chunk plus null counts and min/max values.
String bounds keep at most the first 32 UTF-8 bytes; a truncated upper
bound never prunes. NaN is excluded from float bounds and flagged so the
pruning rule leaves such columns alone.

``StripeWriter`` writes each ``append_columns`` batch as one stripe and
never re-splits it: ingest (``ingest.ingest_csv``) decides the stripe and
partition boundaries, and a shuffle spill is one batch, so one stripe.

``read_footer`` is the one footer parser and validator. Queries get their
footers through ``cached_footer``, a process-wide cache in front of it. An
entry is served only while the file's stamp (device, inode, size, mtime,
ctime) equals the stamp taken before it was parsed, so a rewrite, a
replacement or a deletion is seen on the next call; errors are never
cached. A file changed less than ``RACY_NS`` before the call is parsed and
not cached, since a second write within the same timestamp tick could
leave its stamp unchanged (git's "racily clean" rule). The cache holds at
most ``FOOTER_CACHE_BYTES`` of footers (summed ``bytes_read``) and evicts
the least recently used entry.

``prune_stripes`` is the one pruning rule, and the planner its only caller:
it prunes each partition once, and the engine reads the stripes it keeps
with ``read_stripe_columns``. A conjunction gives each column it touches one
range ``(lo, lo_open, hi, hi_open)``, None for an unbounded end, and a list
of ``!=`` values. A stripe is pruned when a touched column holds only NULLs,
when the column's ``[min, max]`` misses its range (a truncated string max
counts as unbounded), or when the column holds one exactly known value that
a ``!=`` excludes; a column holding NaN is not tested. A range with
``hi < lo``, or ``hi == lo`` and an open end, prunes every stripe.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import columns as C
from .errors import BadMagic, CorruptFooter, IoFailure
from .schema import ColumnType, TableSchema, schema_from_json, schema_to_json

MAGIC = b"STRP"
EXTENSION = ".stp"
STR_BOUND_BYTES = 32
FOOTER_CACHE_BYTES = 32 << 20
RACY_NS = 50_000_000  # well above a coarse (one-jiffy) file timestamp tick


@dataclass(frozen=True)
class ColumnStats:
    offset: int          # absolute file offset of the chunk
    length: int          # chunk byte length
    null_count: int
    min: object          # absent (None) when no usable values
    max: object
    min_truncated: bool = False
    max_truncated: bool = False
    has_nan: bool = False


@dataclass(frozen=True)
class StripeInfo:
    offset: int
    length: int
    row_count: int
    columns: tuple[ColumnStats, ...]


@dataclass(frozen=True)
class StripeFooter:
    schema: TableSchema
    row_count: int
    stripes: tuple[StripeInfo, ...]
    bytes_read: int  # bytes consumed to obtain this footer


def _column_stats(col: C.Column, ctype: ColumnType, n: int) -> dict:
    """Stats dict for one chunk (offsets filled in by the writer)."""
    valid = col.valid
    null_count = 0 if valid is None else int(n - valid.sum())
    out: dict = {"nulls": null_count}
    if null_count == n:
        return out
    if ctype is ColumnType.STRING:
        # a bound keeps the first STR_BOUND_BYTES bytes, so the key needs no more
        rows = np.arange(n) if valid is None else np.flatnonzero(valid)
        key = C.sort_key(col, STR_BOUND_BYTES)[rows]
        for name, r in (("min", rows[key.argmin()]), ("max", rows[key.argmax()])):
            raw = col.buf[col.offsets[r]:col.offsets[r + 1]].tobytes()
            out[name] = raw[:STR_BOUND_BYTES].decode("utf-8", "ignore")
            if len(raw) > STR_BOUND_BYTES:
                out[f"{name}_truncated"] = True
        return out
    vals = col.data if valid is None else col.data[valid]
    if ctype is ColumnType.FLOAT64:
        nan = np.isnan(vals)
        if nan.any():
            out["has_nan"] = True
            vals = vals[~nan]
        if len(vals) == 0:
            return out
        out["min"], out["max"] = float(vals.min()), float(vals.max())
    else:
        out["min"], out["max"] = int(vals.min()), int(vals.max())
    return out


def _pack_chunk(col: C.Column, ctype: ColumnType, n: int) -> bytes:
    parts = [b"\x00", struct.pack("<I", n)]
    if col.valid is None:
        parts.append(bytes((n + 7) // 8))
    else:
        parts.append(np.packbits(~col.valid, bitorder="little").tobytes())
    if ctype is ColumnType.STRING:
        parts.append(np.diff(col.offsets).astype("<u4").tobytes())
        parts.append(col.buf.tobytes())
    elif ctype is ColumnType.FLOAT64:
        parts.append(col.data.astype("<f8", copy=False).tobytes())
    else:
        parts.append(col.data.astype("<i8", copy=False).tobytes())
    return b"".join(parts)


class StripeWriter:
    """Streaming writer of one stripe file: each ``append_columns`` call
    writes one stripe. The caller decides the stripe boundaries."""

    def __init__(self, schema: TableSchema, path):
        self.schema = schema
        self.path = Path(path)
        self._rows = 0
        self._stripe_dirs: list[dict] = []
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._f = open(self.path, "wb")
            self._f.write(MAGIC)
        except OSError as e:
            raise IoFailure(f"cannot write {self.path}: {e}") from e
        self._pos = len(MAGIC)

    def append_columns(self, cols: list[C.Column]) -> None:
        """Write ``cols`` as one stripe; an empty batch writes nothing."""
        n = len(cols[0]) if cols else 0
        if n == 0:
            return
        stripe_off = self._pos
        col_dirs = []
        try:
            for col, col_schema in zip(cols, self.schema.columns):
                chunk = _pack_chunk(col, col_schema.ctype, n)
                stats = _column_stats(col, col_schema.ctype, n)
                stats["offset"] = self._pos
                stats["length"] = len(chunk)
                col_dirs.append(stats)
                self._f.write(chunk)
                self._pos += len(chunk)
        except OSError as e:
            raise IoFailure(f"cannot write {self.path}: {e}") from e
        self._stripe_dirs.append(
            {
                "offset": stripe_off,
                "length": self._pos - stripe_off,
                "rows": n,
                "columns": col_dirs,
            }
        )
        self._rows += n

    def abort(self) -> None:
        """Close and delete the partly written file."""
        self._f.close()
        self.path.unlink(missing_ok=True)

    def close(self) -> int:
        """Write the footer and close the file; returns its row count."""
        footer = {
            "schema": schema_to_json(self.schema),
            "rows": self._rows,
            "stripes": self._stripe_dirs,
        }
        blob = json.dumps(footer, sort_keys=True, separators=(",", ":")).encode("utf-8")
        try:
            self._f.write(blob)
            self._f.write(struct.pack("<I", len(blob)))
            self._f.write(MAGIC)
            self._f.close()
        except OSError as e:
            raise IoFailure(f"cannot write {self.path}: {e}") from e
        return self._rows


def read_footer(path) -> StripeFooter:
    """Parse the footer directory; reads only header magic + trailer + footer."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            head = f.read(4)
            f.seek(0, 2)
            size = f.tell()
            if size < 12 or head != MAGIC:
                raise BadMagic(f"{path} is not a stripe file")
            f.seek(size - 8)
            tail = f.read(8)
            if tail[4:] != MAGIC:
                raise BadMagic(f"{path}: trailing magic missing (truncated?)")
            flen = struct.unpack("<I", tail[:4])[0]
            if flen > size - 12:
                raise BadMagic(f"{path}: footer length {flen} exceeds file size")
            f.seek(size - 8 - flen)
            blob = f.read(flen)
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    try:
        doc = json.loads(blob.decode("utf-8"))
        schema = schema_from_json(doc["schema"])
        stripes = []
        for s in doc["stripes"]:
            cols = tuple(
                ColumnStats(
                    offset=c["offset"],
                    length=c["length"],
                    null_count=c["nulls"],
                    min=c.get("min"),
                    max=c.get("max"),
                    min_truncated=c.get("min_truncated", False),
                    max_truncated=c.get("max_truncated", False),
                    has_nan=c.get("has_nan", False),
                )
                for c in s["columns"]
            )
            stripes.append(StripeInfo(s["offset"], s["length"], s["rows"], cols))
        total = doc["rows"]
    except (KeyError, ValueError, TypeError) as e:
        raise CorruptFooter(f"{path}: unparsable footer: {e}") from e

    footer_start = size - 8 - flen
    prev_end = 4
    for s in stripes:
        if s.offset != prev_end:
            raise CorruptFooter(f"{path}: stripe offsets not contiguous/increasing")
        if s.length <= 0 or s.offset + s.length > footer_start:
            raise CorruptFooter(f"{path}: stripe extends past footer")
        for c in s.columns:
            if not (s.offset <= c.offset and c.offset + c.length <= s.offset + s.length):
                raise CorruptFooter(f"{path}: column chunk outside its stripe")
        prev_end = s.offset + s.length
    if sum(s.row_count for s in stripes) != total:
        raise CorruptFooter(f"{path}: stripe row counts do not sum to total")
    return StripeFooter(
        schema=schema,
        row_count=total,
        stripes=tuple(stripes),
        bytes_read=4 + 8 + flen,
    )


_footer_lock = threading.Lock()
_footer_cache: OrderedDict = OrderedDict()  # path -> (stamp, StripeFooter)
_footer_cache_bytes = 0


def cached_footer(path) -> StripeFooter:
    """``read_footer(path)``, served from the footer cache while the file
    is unchanged; raises whatever ``read_footer`` raises."""
    global _footer_cache_bytes
    key = os.fspath(path)
    # taken before the stat: a file last changed RACY_NS before this had
    # every write of its stamp's tick done before it is read
    now = time.time_ns()
    try:
        st = os.stat(key)
    except OSError as e:
        raise IoFailure(f"cannot read {key}: {e}") from e
    stamp = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    with _footer_lock:
        hit = _footer_cache.get(key)
        if hit is not None and hit[0] == stamp:
            _footer_cache.move_to_end(key)
            return hit[1]
    result = read_footer(key)  # by module lookup, so a wrapper sees each parse
    if now - max(st.st_mtime_ns, st.st_ctime_ns) < RACY_NS:
        return result
    with _footer_lock:
        old = _footer_cache.pop(key, None)
        if old is not None:
            _footer_cache_bytes -= old[1].bytes_read
        _footer_cache[key] = (stamp, result)
        _footer_cache_bytes += result.bytes_read
        while _footer_cache_bytes > FOOTER_CACHE_BYTES:
            _, (_, evicted) = _footer_cache.popitem(last=False)
            _footer_cache_bytes -= evicted.bytes_read
    return result


def read_stripe_columns(path, footer: StripeFooter, stripe_idx: int,
                        needed: list[int]) -> tuple[dict[int, C.Column], int]:
    """Read the requested column chunks of one stripe.

    Returns ``({col_index: Column}, bytes_read)``. Every column wraps the
    bytes read, undecoded.
    """
    stripe = footer.stripes[stripe_idx]
    out: dict[int, C.Column] = {}
    bytes_read = 0
    try:
        with open(path, "rb") as f:
            for i in needed:
                st = stripe.columns[i]
                f.seek(st.offset)
                raw = f.read(st.length)
                bytes_read += len(raw)
                out[i] = _parse_chunk(raw, footer.schema.columns[i].ctype,
                                      stripe.row_count, path)
    except OSError as e:
        raise IoFailure(f"cannot read {path}: {e}") from e
    return out, bytes_read


def _parse_chunk(raw: bytes, ctype: ColumnType, rows: int, path) -> C.Column:
    """The chunk's column, wrapping ``raw`` without a copy."""
    if len(raw) < 5 or raw[0] != 0:
        raise CorruptFooter(f"{path}: bad chunk header")
    rc = struct.unpack("<I", raw[1:5])[0]
    if rc != rows:
        raise CorruptFooter(f"{path}: chunk row count {rc} != stripe rows {rows}")
    bm_len = (rc + 7) // 8
    start = 5 + bm_len
    bitmap = np.frombuffer(raw, dtype=np.uint8, count=bm_len, offset=5)
    nulls = np.unpackbits(bitmap, count=rc, bitorder="little").astype(bool)
    valid = None if not nulls.any() else ~nulls
    if ctype is ColumnType.STRING:
        if len(raw) - start < 4 * rc:
            raise CorruptFooter(f"{path}: string chunk too short")
        lengths = np.frombuffer(raw, dtype="<u4", count=rc, offset=start)
        offsets = C.str_offsets(lengths)
        if offsets[-1] != len(raw) - start - 4 * rc:
            raise CorruptFooter(f"{path}: string chunk byte count mismatch")
        if valid is not None and lengths[nulls].any():
            raise CorruptFooter(f"{path}: NULL string slot holds bytes")
        return C.StrColumn(offsets, np.frombuffer(raw, dtype=np.uint8, offset=start + 4 * rc),
                           valid)
    if len(raw) - start != 8 * rc:
        raise CorruptFooter(f"{path}: numeric chunk byte count mismatch")
    dtype = "<f8" if ctype is ColumnType.FLOAT64 else "<i8"
    return C.NumColumn(np.frombuffer(raw, dtype=dtype, count=rc, offset=start), valid)


# --- pruning rule (the single authority; the planner calls it) ---

_UNBOUNDED = (None, False, None, False)


def _column_ranges(conjuncts) -> tuple[dict[int, tuple], dict[int, list]]:
    """Per column the conjunction touches: the range ``(lo, lo_open, hi,
    hi_open)`` its comparisons leave, None for an unbounded end, and its
    ``!=`` values. Of two bounds at one value, the open one holds."""
    ranges: dict[int, tuple] = {}
    neq: dict[int, list] = {}
    for c in conjuncts:
        lo, lo_open, hi, hi_open = ranges.get(c.col, _UNBOUNDED)
        v = c.value
        if c.op == "!=":
            neq.setdefault(c.col, []).append(v)
        if c.op in ("=", ">", ">="):
            if lo is None or lo < v:
                lo, lo_open = v, c.op == ">"
            elif not v < lo:
                lo_open = lo_open or c.op == ">"
        if c.op in ("=", "<", "<="):
            if hi is None or v < hi:
                hi, hi_open = v, c.op == "<"
            elif not hi < v:
                hi_open = hi_open or c.op == "<"
        ranges[c.col] = (lo, lo_open, hi, hi_open)
    return ranges, neq


def _misses(st: ColumnStats, rows: int, rng: tuple, neq) -> bool:
    """True when no row of a stripe of ``rows`` rows, whose column ``st``
    describes, can lie in ``rng`` and differ from every value of ``neq``."""
    if st.null_count == rows:
        return True  # only NULLs: no comparison can be satisfied
    if st.has_nan or st.min is None:
        return False  # NaN rows defeat range reasoning on this column
    lo, lo_open, hi, hi_open = rng
    smin, smax = st.min, None if st.max_truncated else st.max
    if lo is not None and smax is not None and (smax < lo or (lo_open and not lo < smax)):
        return True
    if hi is not None and (hi < smin or (hi_open and not smin < hi)):
        return True
    # one value in the stripe, known exactly, that a != excludes
    return not st.min_truncated and any(smin == smax == v for v in neq)


def prune_stripes(footer: StripeFooter, conjuncts) -> list[bool]:
    """Retained-mask over stripes for a conjunctive predicate."""
    ranges, neq = _column_ranges(conjuncts)
    for lo, lo_open, hi, hi_open in ranges.values():
        if lo is not None and hi is not None and (
                hi < lo or (not lo < hi and (lo_open or hi_open))):
            return [False] * len(footer.stripes)  # the conjunction contradicts itself
    tests = [(col, rng, neq.get(col, ())) for col, rng in ranges.items()]
    kept = []
    for s in footer.stripes:
        for col, rng, values in tests:
            if _misses(s.columns[col], s.row_count, rng, values):
                kept.append(False)
                break
        else:
            kept.append(True)
    return kept


def dump_footer(path) -> str:
    """Human-readable footer dump for the ``inspect`` CLI subcommand."""
    footer = read_footer(path)
    lines = [
        f"file: {path}",
        f"table: {footer.schema.table_name}",
        "columns: " + ", ".join(
            f"{c.name}:{c.ctype.value}" for c in footer.schema.columns
        ),
        f"rows: {footer.row_count}",
        f"stripes: {len(footer.stripes)}",
    ]
    for i, s in enumerate(footer.stripes):
        lines.append(
            f"  stripe {i}: offset={s.offset} length={s.length} rows={s.row_count}"
        )
        for c_schema, st in zip(footer.schema.columns, s.columns):
            extra = ""
            if st.min is not None:
                mn = st.min if not st.min_truncated else f"{st.min}…"
                mx = st.max if not st.max_truncated else f"{st.max}…"
                extra = f" min={mn!r} max={mx!r}"
            if st.has_nan:
                extra += " has_nan"
            lines.append(
                f"    {c_schema.name}: nulls={st.null_count}{extra}"
            )
    return "\n".join(lines)
