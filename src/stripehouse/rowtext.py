"""Row-oriented delimited block files (``.rtx``): the no-index baseline.

Layout: UTF-8, ``|`` between fields, ``\\n`` between records, NULL as the
empty field, no header. Counting or filtering always scans the whole file,
so ``rows_read`` equals the file's row count no matter the predicate.

Note the format cannot distinguish an empty string from NULL; both encode
as an empty field and read back as NULL. A string holding ``|``, ``\\n`` or
``\\r`` cannot be written. ``encode_column`` and ``decode_column`` are the
only code that knows this encoding.

``decode_column`` parses INT64 and FLOAT64 fields that are plain decimals
(an optional ``-``, ASCII digits, for FLOAT64 at most one ``.``) in one
vectorized digit pass, exactly as ``int()`` / ``float()`` parse them: the
mantissa is built in uint64, and the division by a power of ten rounds
once, in float64 below 2**53 and above that in long double where it has
a 64-bit mantissa, leaving out the rare quotient that long double rounds
onto a float64 midpoint. Every other field, and every DATE field, is
parsed by numpy's ``astype``, or field by field when that refuses one,
with the same values and errors as without the pass.
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
    field's whole text, which numpy parses as it parses the ``str``).

    INT64 and FLOAT64 fields first go through one vectorized digit pass
    (``_digit_pass``), which gives ``int()`` / ``float()``'s value bit for bit
    for the plain decimals it takes. Every other field, and every DATE field,
    is parsed by numpy's ``astype``, or field by field when ``astype``
    refuses one, as it would be without the pass: same values, same errors.
    A list with a field wider than ``WIDE_FIELD`` skips both array passes and
    is parsed field by field, to the same values.
    For the first unparsable field, or INT64 outside int64 or DATE outside
    years 1-9999, raises the exception ``bad_field(index_in_fields, message)``
    returns, so each caller reports the position its own way.
    """
    if ctype is ColumnType.STRING:
        if not isinstance(fields, C.StrColumn):
            fields = C.strings_column(fields, None)
        valid = np.diff(fields.offsets) != 0
        return C.StrColumn(fields.offsets, fields.buf, None if valid.all() else valid)
    dtype = _PARSERS[ctype][1]
    data = np.zeros(len(fields), dtype)
    if not len(fields):
        return C.NumColumn(data, None)
    if isinstance(fields, list) and (max(map(len, fields)) > WIDE_FIELD
                                     or "\x00" in "".join(fields)):
        # astype would widen every cell, or drop a trailing NUL
        valid = np.fromiter(map(bool, fields), bool, len(fields))
        rest = np.flatnonzero(valid)
        texts = [fields[j] for j in rest]
    else:
        u = np.asarray(fields)
        valid = u != u.dtype.type()
        todo = valid if ctype is ColumnType.DATE else valid & ~_digit_pass(u, ctype, data)
        rest = np.flatnonzero(todo)
        texts = u if len(rest) == len(u) else u[rest]
    if len(rest):
        data[rest] = _parse(texts, ctype, lambda j, message: bad_field(int(rest[j]), message))
    if ctype is ColumnType.DATE:
        outside = np.flatnonzero((data < DAYS_MIN) | (data > DAYS_MAX))
        if len(outside):
            j = int(outside[0])
            raise bad_field(j, f"DATE value {_text(fields[j])!r} outside years 1-9999")
    return C.NumColumn(data, None if valid.all() else valid)


def _parse(texts, ctype: ColumnType, bad_field) -> np.ndarray:
    """Values of non-empty field texts, an ``S`` or ``U`` array parsed by one
    ``astype``, or, when that refuses a field or ``texts`` is a list, field
    by field in memory linear in the text."""
    parsed, dtype, parse = _PARSERS[ctype]
    if not isinstance(texts, list):
        try:
            return texts.astype(parsed).view(dtype)
        except (ValueError, OverflowError):
            pass
    data = np.zeros(len(texts), dtype)
    for j, text in enumerate(map(_text, texts)):
        try:
            value = parse(text)
        except (ValueError, OverflowError):
            raise bad_field(j, f"unparsable {ctype.value} value {text!r}") from None
        if ctype is ColumnType.INT64 and not INT64_MIN <= value <= INT64_MAX:
            raise bad_field(j, f"INT64 value {text!r} out of range")
        data[j] = value
    return data


# 10**k for the k <= 19 digits after a point, exact as float64 up to 10**22
# and as long double wherever it has a 64-bit mantissa (5**19 < 2**64)
_POW10 = np.array([float(10**k) for k in range(20)])
_POW10_LONG = np.multiply.accumulate(np.array([1] + [10] * 19, np.longdouble))
_EXTENDED = np.finfo(np.longdouble).nmant >= 63


def _digit_pass(u: np.ndarray, ctype: ColumnType, out: np.ndarray) -> np.ndarray:
    """Parse the plain decimal fields of the ``S`` or ``U`` array ``u`` into
    ``out``; returns the mask of the fields parsed.

    A field is taken when it is an optional ``-`` then ASCII digits: for
    INT64 1-18 of them, which always fit; for FLOAT64 at most 19, with at
    most one ``.`` among them. The mantissa ``m`` of a FLOAT64 field with
    ``k`` digits after the point is exact in uint64, and ``k <= 19``. With
    ``m < 2**53``, ``m / 10.0**k`` divides two exact doubles and rounds once,
    so it is ``float()``'s value (Clinger). Otherwise, where long double has
    a 64-bit mantissa (``_EXTENDED``), the quotient of the two exact long
    doubles is rounded once to 64 bits, then to float64; a quotient lying
    exactly on a float64 midpoint could be rounded the wrong way the second
    time, so that field is not taken, and without ``_EXTENDED`` neither is
    any field with ``m >= 2**53``. The sign is applied last, so ``-0`` is
    -0.0. Code units are read as they are, bytes or UCS-4, and none at or
    above 0x80 is a digit. The pass works on ``DEFAULT_BATCH_ROWS`` rows at
    a time, so its temporaries stay bounded. Its character counts are uint8,
    so an array wider than ``WIDE_FIELD`` is left whole to ``astype``.
    """
    n = len(u)
    codes = np.ascontiguousarray(u).view(np.uint8 if u.dtype.kind == "S" else np.uint32)
    codes = codes.reshape(n, -1)
    taken = np.zeros(n, bool)
    if codes.shape[1] > WIDE_FIELD:
        return taken
    for lo in range(0, n, DEFAULT_BATCH_ROWS):
        rows = slice(lo, lo + DEFAULT_BATCH_ROWS)
        taken[rows] = _digit_chunk(codes[rows], ctype, out[rows])
    return taken


def _digit_chunk(codes: np.ndarray, ctype: ColumnType, out: np.ndarray) -> np.ndarray:
    """``_digit_pass`` over ``codes``, one field's code units a row."""
    rows, width = codes.shape
    if codes.dtype != np.uint8:  # so that no code unit past ASCII wraps onto one
        codes = np.minimum(codes, 0x80)
    c = np.zeros((-(-width // 4) * 4, rows), np.uint8)
    c[:width] = codes.T  # one field a column, NUL-padded to whole groups of 4
    length = (c != 0).sum(0, dtype=np.uint8)
    neg = c[0] == 45
    dot = c == 46
    c -= np.uint8(48)
    digit = c < 10
    n_digits = digit.sum(0, dtype=np.uint8)
    n_dots = dot.sum(0, dtype=np.uint8)
    is_float = ctype is ColumnType.FLOAT64
    ok = ((n_digits + n_dots + neg == length) & (n_digits >= 1)
          & (n_digits <= (19 if is_float else 18)) & (n_dots <= is_float))
    if not ok.any():
        return ok
    # Horner's rule, exact in uint64 for 19 digits. Per character the pair
    # (10, digit), or (1, 0) off a digit; neighbours join as (s, v), (s', v')
    # -> (s s', v s' + v'): in pairs, in groups of 4 characters (uint16
    # holds 10**4), then group after group
    scale = digit.view(np.uint8) * np.uint8(9) + np.uint8(1)
    c *= digit
    scale, v = scale[0::2] * scale[1::2], c[0::2] * scale[1::2] + c[1::2]
    scale, v = (scale[0::2].astype(np.uint16) * scale[1::2],
                v[0::2].astype(np.uint16) * scale[1::2] + v[1::2])
    m = v[0].astype(np.uint64)
    for s, g in zip(scale[1:], v[1:]):
        m *= s
        m += g
    if is_float:
        dot_at = (dot.view(np.uint8) * np.arange(len(c), dtype=np.uint8)[:, None]).sum(
            0, dtype=np.uint8)
        k = np.where(ok & (n_dots > 0), length - 1 - dot_at, 0)
        exact = m < 2**53
        value = m.astype(np.float64) / _POW10[k]
        if _EXTENDED:
            wide = np.flatnonzero(ok & ~exact)
            long = m[wide].astype(np.longdouble) / _POW10_LONG[k[wide]]
            near = long.astype(np.float64)
            # |long - near| has a few bits, exact in float64; on a midpoint it
            # is half the gap to the neighbour (a quarter, below a power of 2)
            err, gap = np.abs((long - near).astype(np.float64)), np.spacing(near)
            value[wide] = near
            exact[wide[(2 * err != gap) & (4 * err != gap)]] = True
        ok &= exact
    else:
        value = m.view(np.int64)
    np.negative(value, out=value, where=neg)
    out[ok] = value[ok]
    return ok


def _text(field) -> str:
    return field.decode() if isinstance(field, bytes) else str(field)


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
