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
from pathlib import Path

import numpy as np

from . import columns as C
from .errors import IllegalCharacter, IoFailure, MalformedRecord
from .schema import ColumnType, TableSchema
from .values import DAYS_MAX, DAYS_MIN, INT64_MAX, INT64_MIN

DEFAULT_BATCH_ROWS = 4096
READ_BLOCK_BYTES = 1 << 20
EXTENSION = ".rtx"
# a number or DATE field longer than this is parsed on its own, so that one
# wide field does not widen every row's cell of a fixed-width array
WIDE_FIELD = 64
# per number or DATE type: the dtype astype parses a field to, the column's
# dtype, and the parse of one field as astype parses it
_PARSERS = {
    ColumnType.INT64: (np.int64, np.int64, int),
    ColumnType.FLOAT64: (np.float64, np.float64, float),
    ColumnType.DATE: ("datetime64[D]", np.int64, lambda t: np.datetime64(t, "D").view(np.int64)),
}


def encode_column(col: C.Column, ctype: ColumnType) -> list[str]:
    """Field text per value: FLOAT64 as shortest round-trip decimal, DATE as
    ISO ``YYYY-MM-DD``, NULL as the empty field."""
    if isinstance(col, C.StrColumn):
        return col.strings()
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


def decode_column(fields, ctype: ColumnType, bad_field) -> C.Column:
    """Typed column from field texts; the empty field decodes to NULL.

    ``fields`` is a list of ``str``; for a STRING column it may also be a
    ``StrColumn`` of the fields' bytes, and for a number or DATE column an
    ``S`` array of ASCII fields holding no NUL byte (so each element is its
    field's whole text, which numpy parses as it parses the ``str``). A list
    with a field wider than ``WIDE_FIELD`` is parsed field by field, to the
    same values.
    For the first unparsable field, or INT64 outside int64 or DATE outside
    years 1-9999, raises the exception ``bad_field(index_in_fields, message)``
    returns, so each caller reports the position its own way.
    """
    if ctype is ColumnType.STRING:
        if not isinstance(fields, C.StrColumn):
            fields = C.strings_column(fields, None)
        valid = np.diff(fields.offsets) != 0
        return C.StrColumn(fields.offsets, fields.buf, None if valid.all() else valid)
    parsed, dtype, parse = _PARSERS[ctype]
    try:
        if isinstance(fields, list) and (max(map(len, fields), default=0) > WIDE_FIELD
                                         or "\x00" in "".join(fields)):
            raise ValueError  # astype would widen every cell, or drop a trailing NUL
        u = np.asarray(fields)
        valid = u != u.dtype.type()
        if not valid.all():
            u = np.where(valid, u, u.dtype.type("1970-01-01" if ctype is ColumnType.DATE else "0"))
        data = u.astype(parsed).view(dtype)
    except (ValueError, OverflowError):  # parse field by field, in memory linear in the text
        data, valid = np.zeros(len(fields), dtype), np.ones(len(fields), bool)
        for j, text in enumerate(map(_text, fields)):
            if text == "":
                valid[j] = False
                continue
            try:
                value = parse(text)
            except (ValueError, OverflowError):
                raise bad_field(j, f"unparsable {ctype.value} value {text!r}") from None
            if ctype is ColumnType.INT64 and not INT64_MIN <= value <= INT64_MAX:
                raise bad_field(j, f"INT64 value {text!r} out of range")
            data[j] = value
    if ctype is ColumnType.DATE:
        outside = np.flatnonzero((data < DAYS_MIN) | (data > DAYS_MAX))
        if len(outside):
            j = int(outside[0])
            raise bad_field(j, f"DATE value {_text(fields[j])!r} outside years 1-9999")
    return C.NumColumn(data, None if valid.all() else valid)


def _text(field) -> str:
    return field.decode() if isinstance(field, bytes) else field


class RowtextWriter:
    """Streaming writer of one block file; byte-deterministic for identical
    input. Each ``append_columns`` call writes its batch's records, in order."""

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

    def close(self) -> int:
        """Close the file; returns its row count."""
        try:
            self._f.close()
        except OSError as e:
            raise IoFailure(f"cannot write {self.path}: {e}") from e
        return self._rows


def scan_rowtext_columnar(path, schema: TableSchema, needed: list[int],
                          batch_rows: int = DEFAULT_BATCH_ROWS):
    """Yield ``(n_rows, {col_index: Column})`` batches plus final stats.

    Generator yields batches of at most ``batch_rows`` rows; the returned
    object's ``stats`` attribute is complete once iteration finishes. Only
    ``needed`` columns are converted; the UTF-8 encoding and the arity of
    every record are validated whatever ``needed`` holds.
    """
    return _RowtextScan(path, schema, needed, batch_rows)


class _RowtextScan:
    def __init__(self, path, schema, needed, batch_rows):
        self.path = Path(path)
        self.schema = schema
        self.needed = sorted(set(needed))
        self.batch_rows = batch_rows
        self.stats = C.ScanStats()

    def __iter__(self):
        try:
            size = os.path.getsize(self.path)
            f = open(self.path, "rb")
        except OSError as e:
            raise IoFailure(f"cannot read {self.path}: {e}") from e
        self.stats.bytes_read = size
        line_no = 1  # of the block's first record
        with f:
            for block in _record_blocks(f, self.batch_rows):
                n_rows, cols = self._decode_block(block, line_no)
                line_no += n_rows
                self.stats.rows_read += n_rows
                yield n_rows, cols

    def _decode_block(self, block: bytes, line_no: int):
        """``(n_rows, {col_index: Column})`` of whole records ending in ``\\n``.

        Finds every ``|`` / ``\\n`` at once; record r's field i then lies
        between delimiters ``r*arity + i - 1`` and ``r*arity + i``.
        """
        arity = self.schema.arity
        try:
            block.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedRecord(f"invalid UTF-8: {e.reason}",
                                  line_no + block.count(b"\n", 0, e.start)) from None
        a = np.frombuffer(block, np.uint8)
        delims = np.flatnonzero((a == 0x7C) | (a == 0x0A))
        record_ends = np.flatnonzero(a[delims] == 0x0A)
        n_fields = np.diff(record_ends, prepend=-1)
        bad = np.flatnonzero(n_fields != arity)
        if len(bad):
            r = int(bad[0])
            raise MalformedRecord(f"expected {arity} fields, got {n_fields[r]}", line_no + r)
        n = len(record_ends)
        if not self.needed:
            return n, {}
        ends = delims.reshape(n, arity)
        starts = np.concatenate(([0], delims[:-1] + 1)).reshape(n, arity)
        nul = b"\0" in block

        def bad_field(j, message):
            return MalformedRecord(message, line_no + j)

        cols = {}
        for i in self.needed:
            ctype = self.schema.columns[i].ctype
            s, lengths = starts[:, i], ends[:, i] - starts[:, i]
            if ctype is ColumnType.STRING:
                fields = C.gather_strings(a, s, lengths, None)
            elif nul or (fields := _gather(a, s, lengths)) is None:
                fields = C.gather_strings(a, s, lengths, None).strings()
            cols[i] = decode_column(fields, ctype, bad_field)
        return n, cols


def _gather(a: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The fields ``a[starts[r]:][:lengths[r]]`` as one ``S<width>`` array, or
    None when one holds a non-ASCII byte or is wider than ``WIDE_FIELD``."""
    width = max(int(lengths.max()), 1)
    if width > WIDE_FIELD:
        return None
    g = C.padded(a, starts, lengths, width)
    if g.max() >= 0x80:
        return None
    return g.view(f"S{width}").ravel()


def _record_blocks(f, batch_rows: int):
    """Blocks of ``batch_rows`` whole records, the last one possibly fewer,
    each ending in ``\\n``, read ``READ_BLOCK_BYTES`` at a time."""
    parts, have = [], 0  # the pending block's pieces, and the records they end
    while chunk := f.read(READ_BLOCK_BYTES):
        newlines = np.flatnonzero(np.frombuffer(chunk, np.uint8) == 0x0A)
        start = 0
        for k in range(batch_rows - have - 1, len(newlines), batch_rows):
            cut = int(newlines[k]) + 1
            parts.append(chunk[start:cut])
            yield b"".join(parts)
            parts, start = [], cut
        have = (have + len(newlines)) % batch_rows
        parts.append(chunk[start:])
    tail = b"".join(parts)
    if tail:
        yield tail if tail.endswith(b"\n") else tail + b"\n"
