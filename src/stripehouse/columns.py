"""Columnar batch containers and vectorized predicate evaluation.

A scan produces one column object per projected schema column:

* numeric columns (INT64/DATE/FLOAT64) hold a numpy array with NULL slots
  zero-filled plus a validity mask,
* string columns (``StrColumn``) hold Apache Arrow's variable-size binary
  layout, which is also the stripe chunk's: int64 offsets, one compact
  buffer of UTF-8 bytes and a validity mask; NULL rows are empty. Both
  formats build it from the bytes they read, and per-row Python values
  exist only in its ``data`` and ``strings()``.

NULL never satisfies a comparison; float comparisons are IEEE-754, so NaN
satisfies only ``!=``.

Each format has one scan driver: the planner chooses a scan's tasks and the
engine reads each with the format's columnar reader, then keeps the rows
passing the predicate with ``filter_project``. ``ScanStats`` counts what a
scan read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass
class NumColumn:
    data: np.ndarray  # int64 or float64, NULL slots zero-filled
    valid: np.ndarray | None  # bool mask, None means all valid

    def __len__(self) -> int:
        return len(self.data)


@dataclass
class StrColumn:
    """Row r is the UTF-8 bytes ``buf[offsets[r]:offsets[r + 1]]``;
    ``offsets[0] == 0``, ``offsets[-1] == len(buf)`` and NULL rows are empty."""

    offsets: np.ndarray  # int64, one more than the rows
    buf: np.ndarray  # uint8
    valid: np.ndarray | None

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def data(self) -> np.ndarray:
        """Each row's bytes as an object array, NULL as ``b""``; bytes order
        as their code points, so join keys and distinct sets use them."""
        raw = self.buf.tobytes()
        o = self.offsets.tolist()
        out = np.empty(len(self), dtype=object)
        out[:] = [raw[a:b] for a, b in zip(o, o[1:])]
        return out

    def strings(self) -> list[str]:
        """Each row as ``str``, NULL as ``""``, from one decode of ``buf``."""
        text = self.buf.tobytes().decode("utf-8")
        o = self.offsets
        if len(text) < len(self.buf):
            # a str offset is the byte offset less the UTF-8 continuation bytes before it
            cont = np.concatenate(([0], np.cumsum((self.buf & 0xC0) == 0x80)))
            o = o - cont[o]
        o = o.tolist()
        return [text[a:b] for a, b in zip(o, o[1:])]

    def eq_mask(self, lit: str) -> np.ndarray:
        """Rows whose bytes equal ``lit``'s, NULL rows included when it is empty."""
        raw = np.frombuffer(lit.encode("utf-8"), dtype=np.uint8)
        mask = np.diff(self.offsets) == len(raw)
        if len(raw) and mask.any():
            rows = np.flatnonzero(mask)
            windows = self.buf[self.offsets[rows][:, None] + np.arange(len(raw))]
            mask[rows] = (windows == raw).all(axis=1)
        return mask


Column = NumColumn | StrColumn


def str_offsets(lengths) -> np.ndarray:
    """Offsets of rows of the given byte lengths, laid end to end."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out[1:])
    return out


def gather_strings(a: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                   valid: np.ndarray | None) -> StrColumn:
    """The rows ``a[starts[r]:starts[r] + lengths[r]]`` as one compact column."""
    offsets = str_offsets(lengths)
    src = np.arange(offsets[-1]) + np.repeat(starts - offsets[:-1], lengths)
    return StrColumn(offsets, a[src], valid)


def padded(a: np.ndarray, starts: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """``(rows, width)`` uint8 array: row r holds ``a[starts[r]:][:lengths[r]]``,
    cut or zero-padded to ``width`` (at least 1)."""
    g = sliding_window_view(np.concatenate((a, np.zeros(width, np.uint8))), width)[starts]
    g[np.arange(width) >= lengths[:, None]] = 0
    return g


def sort_key(col: StrColumn, width: int | None = None) -> np.ndarray:
    """One fixed-width ``S`` key per row that orders rows as their bytes, so
    as their code points: the bytes zero-padded to the longest row, then the
    length big-endian, so that ``"a" < "a\\0"``. With ``width`` only the
    first ``width`` bytes count, and longer rows that share them order by
    length."""
    lengths = np.diff(col.offsets)
    longest = int(lengths.max(initial=0))
    w = max(longest if width is None else min(width, longest), 1)
    key = np.empty((len(col), w + 8), dtype=np.uint8)
    key[:, :w] = padded(col.buf, col.offsets[:-1], lengths, w)
    key[:, w:] = lengths.astype(">i8").view(np.uint8).reshape(-1, 8)
    return key.view(f"S{w + 8}").ravel()


@dataclass
class ScanStats:
    rows_read: int = 0
    bytes_read: int = 0


_OPS = {"=": np.equal, "!=": np.not_equal, "<": np.less, "<=": np.less_equal,
        ">": np.greater, ">=": np.greater_equal}


def conjunct_mask(col: Column, op: str, value) -> np.ndarray:
    """Boolean mask of rows whose (non-NULL) value satisfies ``op value``."""
    if isinstance(col, StrColumn):
        if op not in ("=", "!="):
            raise ValueError(f"operator {op} not supported on STRING")
        mask = col.eq_mask(value)
        if op == "!=":
            mask = ~mask
    else:
        mask = _OPS[op](col.data, value)
    if col.valid is not None:
        mask &= col.valid
    return mask


def predicate_mask(columns: dict[int, Column], conjuncts) -> np.ndarray | None:
    """AND of all conjunct masks; None means no predicate (all rows pass)."""
    mask = None
    for c in conjuncts:
        m = conjunct_mask(columns[c.col], c.op, c.value)
        mask = m if mask is None else (mask & m)
    return mask


def take(col: Column, idx: np.ndarray) -> Column:
    valid = None if col.valid is None else col.valid[idx]
    if isinstance(col, StrColumn):
        starts = col.offsets[idx]
        return gather_strings(col.buf, starts, col.offsets[idx + 1] - starts, valid)
    return NumColumn(col.data[idx], valid)


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


def concat(cols: list[Column]) -> Column:
    """One column holding the rows of ``cols`` in order."""
    if len(cols) == 1:
        return cols[0]
    if any(c.valid is not None for c in cols):
        valid = np.concatenate([
            c.valid if c.valid is not None else np.ones(len(c), dtype=bool)
            for c in cols
        ])
    else:
        valid = None
    if isinstance(cols[0], StrColumn):
        bases = np.cumsum([0] + [len(c.buf) for c in cols[:-1]])
        offsets = np.concatenate([cols[0].offsets[:1]]
                                 + [c.offsets[1:] + b for c, b in zip(cols, bases)])
        return StrColumn(offsets, np.concatenate([c.buf for c in cols]), valid)
    return NumColumn(np.concatenate([c.data for c in cols]), valid)


def strings_column(texts: list[str], valid: np.ndarray | None) -> StrColumn:
    """``texts`` (NULL rows as ``""``) encoded to UTF-8 as one column."""
    joined = "".join(texts)
    buf = joined.encode("utf-8")
    # all ASCII: each row has as many bytes as characters
    rows = texts if len(buf) == len(joined) else map(str.encode, texts)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(texts))
    return StrColumn(str_offsets(lengths), np.frombuffer(buf, dtype=np.uint8), valid)
