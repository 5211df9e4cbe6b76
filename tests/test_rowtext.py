import math
import random
import tracemalloc
from datetime import date
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from stripehouse import rowtext
from stripehouse.errors import IllegalCharacter, MalformedRecord, TypeMismatch
from stripehouse.predicate import Conjunct
from stripehouse.rowtext import decode_column, encode_column, scan_rowtext_columnar
from stripehouse.schema import ColumnType, TableSchema
from stripehouse.values import iso_to_days

from oracle import row_passes
from rows import column_from_values, column_to_values, scan_file, write_file


SCHEMA = TableSchema.create("t", [
    ("a", ColumnType.INT64, True),
    ("b", ColumnType.STRING, True),
    ("c", ColumnType.FLOAT64, True),
])


def test_empty_file(tmp_path):
    desc = write_file([], SCHEMA, tmp_path / "p.rtx")
    assert desc.row_count == 0
    assert (tmp_path / "p.rtx").read_bytes() == b""
    got, _, stats = scan_file(tmp_path / "p.rtx", SCHEMA)
    assert got == []
    assert stats.rows_read == 0


def test_direct_encoding_rule(tmp_path):
    # one row with a NULL float encodes to `1|a|\n`
    write_file([(1, "a", None)], SCHEMA, tmp_path / "p.rtx")
    assert (tmp_path / "p.rtx").read_bytes() == b"1|a|\n"


def test_illegal_character(tmp_path):
    with pytest.raises(IllegalCharacter):
        write_file([(1, "x|y", 0.5)], SCHEMA, tmp_path / "p.rtx")
    with pytest.raises(IllegalCharacter):
        write_file([(1, "x\ny", 0.5)], SCHEMA, tmp_path / "p.rtx")
    with pytest.raises(IllegalCharacter):
        write_file([(1, "ok", 0.5), (2, "x\ry", 0.5)], SCHEMA, tmp_path / "p.rtx")
    assert not (tmp_path / "p.rtx").exists()


def test_type_mismatch(tmp_path):
    with pytest.raises(TypeMismatch):
        write_file([("notint", "a", 0.5)], SCHEMA, tmp_path / "p.rtx")
    with pytest.raises(TypeMismatch):
        write_file([(1, 2, 0.5)], SCHEMA, tmp_path / "p.rtx")
    with pytest.raises(TypeMismatch):
        write_file([(1, "short")], SCHEMA, tmp_path / "p.rtx")


DATED = TableSchema.create("d", [("a", ColumnType.INT64, True), ("d", ColumnType.DATE, True)])


@pytest.mark.parametrize("name", [pytest.param("p.rtx", id="write_rowtext-p.rtx"),
                                  pytest.param("p.stp", id="write_stripes-p.stp")])
@pytest.mark.parametrize("row", [(2**63, 0), (-(2**63) - 1, 0),
                                 (0, iso_to_days("9999-12-31") + 1),
                                 (0, iso_to_days("0001-01-01") - 1)])
def test_writers_reject_out_of_range(tmp_path, name, row):
    with pytest.raises(TypeMismatch):
        write_file([(2**63 - 1, iso_to_days("0001-01-01")), row], DATED, tmp_path / name)


@pytest.mark.parametrize("line", ["9223372036854775808|2001-01-01",
                                  "-9223372036854775809|",
                                  "1|12345-01-01", "1|-0001-01-01", "1|0000-12-31"])
def test_malformed_record_out_of_range(tmp_path, line):
    (tmp_path / "p.rtx").write_text(f"1|9999-12-31\n{line}\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as ei:
        scan_file(tmp_path / "p.rtx", DATED)
    assert ei.value.line_no == 2


@pytest.mark.parametrize("ctype, text", [(ColumnType.INT64, "2\x00"),
                                         (ColumnType.FLOAT64, "1.5\x00"),
                                         (ColumnType.DATE, "2001-01-01\x00")])
def test_decode_column_rejects_trailing_nul(ctype, text):
    # numpy's astype alone would drop the NUL and read the field as a number
    with pytest.raises(LookupError) as ei:
        decode_column([text], ctype, lambda j, message: LookupError(j, message))
    assert ei.value.args == (0, f"unparsable {ctype.value} value {text!r}")


def test_predicate_filters_rows(tmp_path):
    rows = [(5, "a", 1.0), (15, "b", 2.0)]
    write_file(rows, SCHEMA, tmp_path / "p.rtx")
    got = scan_file(tmp_path / "p.rtx", SCHEMA, predicate=[Conjunct(0, ">", 10)])[0]
    assert got == [(15, "b", 2.0)]


def test_rows_read_invariant_to_selectivity(tmp_path):
    rows = [(i, f"s{i}", float(i)) for i in range(1000)]
    write_file(rows, SCHEMA, tmp_path / "p.rtx")
    for pred in ([], [Conjunct(0, ">", 999_999)], [Conjunct(0, ">=", 0)]):
        _, _, stats = scan_file(tmp_path / "p.rtx", SCHEMA, predicate=pred)
        assert stats.rows_read == 1000


def test_round_trip_order_and_values(tmp_path):
    rows = [
        (1, "x", 1.5),
        (None, None, None),
        (-7, "hello world", -0.125),
        (2**62, "z", float("nan")),
        (3, "unicodé ☃", 1e-300),
    ]
    write_file(rows, SCHEMA, tmp_path / "p.rtx")
    got = scan_file(tmp_path / "p.rtx", SCHEMA)[0]
    assert len(got) == len(rows)
    for g, e in zip(got, rows):
        for gv, ev in zip(g, e):
            if isinstance(ev, float) and math.isnan(ev):
                assert isinstance(gv, float) and math.isnan(gv)
            else:
                assert gv == ev


def test_projection(tmp_path):
    rows = [(1, "a", 0.5), (2, "b", 1.5)]
    write_file(rows, SCHEMA, tmp_path / "p.rtx")
    got = scan_file(tmp_path / "p.rtx", SCHEMA, projection=[2, 0])[0]
    assert got == [(0.5, 1), (1.5, 2)]


def test_malformed_record_arity(tmp_path):
    (tmp_path / "p.rtx").write_text("1|a|2.0\n1|a\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as ei:
        scan_file(tmp_path / "p.rtx", SCHEMA)
    assert ei.value.line_no == 2


def test_malformed_record_bad_value(tmp_path):
    (tmp_path / "p.rtx").write_text("1|a|2.0\nzap|b|1.0\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as ei:
        scan_file(tmp_path / "p.rtx", SCHEMA)
    assert ei.value.line_no == 2


def test_byte_deterministic(tmp_path):
    rows = [(i, f"v{i}", i / 7.0) for i in range(500)]
    write_file(rows, SCHEMA, tmp_path / "a.rtx")
    write_file(rows, SCHEMA, tmp_path / "b.rtx")
    assert (tmp_path / "a.rtx").read_bytes() == (tmp_path / "b.rtx").read_bytes()


def test_scan_against_brute_force_oracle(tmp_path):
    # 1e5 generated rows filtered by the scan equal an in-memory filter
    rng = random.Random(7)
    rows = []
    for i in range(100_000):
        rows.append((
            rng.randrange(-1000, 1000),
            rng.choice(["aa", "bb", "cc", "dd"]),
            None if rng.random() < 0.05 else rng.uniform(-10, 10),
        ))
    write_file(rows, SCHEMA, tmp_path / "big.rtx")
    pred = [Conjunct(0, ">", 250), Conjunct(2, "<=", 3.5)]
    got, _, stats = scan_file(tmp_path / "big.rtx", SCHEMA, predicate=pred)
    expected = [r for r in rows if row_passes(pred, r)]
    assert got == expected
    assert stats.rows_read == 100_000


VALUES = {
    ColumnType.INT64: st.integers(-(2**63), 2**63 - 1),
    ColumnType.FLOAT64: st.floats() | st.sampled_from(
        [math.nan, 0.0, -0.0, math.inf, -math.inf]),
    ColumnType.DATE: st.integers(iso_to_days(date.min.isoformat()),
                                 iso_to_days(date.max.isoformat())),
    ColumnType.STRING: st.text(st.characters(blacklist_characters="|\n\r",
                                             blacklist_categories=("Cs",))),
}


def _not_expected(j, message):
    return AssertionError(f"field {j}: {message}")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(ColumnType)).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(st.none() | VALUES[t], min_size=1, max_size=40))))
def test_codec_round_trip(case):
    # repr tells NaN, -0.0 and None apart; the empty string reads back as NULL
    ctype, values = case
    texts = encode_column(column_from_values(values, ctype), ctype)
    back = column_to_values(decode_column(texts, ctype, _not_expected))
    expected = [None if v == "" else v for v in values]
    assert [repr(v) for v in back] == [repr(v) for v in expected]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DATE]).flatmap(
    lambda t: st.tuples(st.just(t), st.lists(st.none() | VALUES[t], min_size=1, max_size=40))))
def test_field_by_field_parse_is_bit_identical(case):
    # the path a wide field takes gives the values astype gives
    ctype, values = case
    texts = encode_column(column_from_values(values, ctype), ctype)
    vectorized = decode_column(texts, ctype, _not_expected)
    with mock.patch.object(rowtext, "WIDE_FIELD", 0):
        each = decode_column(texts, ctype, _not_expected)
    assert vectorized.data.tobytes() == each.data.tobytes()
    assert (vectorized.valid is None) == (each.valid is None)
    if each.valid is not None:
        assert (vectorized.valid == each.valid).all()


WIDE_FLOAT = "0." + "0" * 8000 + "1"  # 8003 characters, a valid FLOAT64 field


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wide_field_decodes_in_bounded_memory():
    # as a fixed-width array, 2000 rows of the widest field take 64 MB
    fields = ["1.5"] * 2000
    fields[7] = WIDE_FLOAT
    col, peak = _peak_bytes(lambda: decode_column(fields, ColumnType.FLOAT64, _not_expected))
    assert col.data[7] == float(WIDE_FLOAT) and col.data[0] == 1.5
    assert peak < 2 << 20


def test_wide_field_scans_in_bounded_memory(tmp_path):
    schema = TableSchema.create("t", [("c", ColumnType.FLOAT64, True)])
    path = tmp_path / "p.rtx"
    path.write_text("1.5\n" * 7 + WIDE_FLOAT + "\n" + "2.5\n" * 4000)
    batches, peak = _peak_bytes(lambda: [
        column_to_values(cols[0]) for _, cols in scan_rowtext_columnar(path, schema, [0])])
    values = [v for batch in batches for v in batch]
    assert values == [1.5] * 7 + [float(WIDE_FLOAT)] + [2.5] * 4000
    assert peak < 4 << 20


@pytest.mark.parametrize("needed", [[], [0], [1], [0, 1, 2]])
def test_malformed_record_invalid_utf8(tmp_path, needed):
    (tmp_path / "p.rtx").write_bytes(b"1|a|2.0\n2|c\xff|1.0\n3|b|\n")
    with pytest.raises(MalformedRecord, match="invalid UTF-8") as ei:
        list(scan_rowtext_columnar(tmp_path / "p.rtx", SCHEMA, needed))
    assert ei.value.line_no == 2


# --- the block scanner against a per-line reference ---

MIXED = TableSchema.create("m", [
    ("i", ColumnType.INT64, True),
    ("f", ColumnType.FLOAT64, True),
    ("d", ColumnType.DATE, True),
    ("s", ColumnType.STRING, True),
])
# other spellings numpy parses, some non-ASCII or NUL-bearing
SPELLINGS = {
    ColumnType.INT64: [" 2\r", "+2", "1_000", "\t-3 ", "007", "2\x00", "\xa02", "\uff11\uff12"],
    ColumnType.FLOAT64: [" 2\r", "+.5", "1_0.5", "Infinity", "-nan", "1e500", "5.",
                         "\u0661.\u0665"],
    ColumnType.DATE: [" 2001-01-01", "2001-01", "2001"],
}
BAD_FIELDS = {
    ColumnType.INT64: ["zap", "1.5", "9223372036854775808", "-9223372036854775809"],
    ColumnType.FLOAT64: ["zap", "1..5", "0x10"],
    ColumnType.DATE: ["12345-01-01", "0000-12-31", "2001-13-01", "x"],
}
EXTREMES = {
    ColumnType.INT64: [-(2**63), 2**63 - 1, 0],
    ColumnType.FLOAT64: [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 1.7976931348623157e308],
    ColumnType.DATE: [iso_to_days("0001-01-01"), iso_to_days("9999-12-31")],
}


def _number_field(ctype):
    values = st.none() | VALUES[ctype] | st.sampled_from(EXTREMES[ctype])
    texts = values.map(lambda v: encode_column(column_from_values([v], ctype), ctype)[0])
    return texts | st.sampled_from(SPELLINGS[ctype])


MIXED_ROW = st.tuples(
    _number_field(ColumnType.INT64),
    _number_field(ColumnType.FLOAT64),
    _number_field(ColumnType.DATE),
    st.text(st.characters(blacklist_characters="|\n", blacklist_categories=("Cs",))),
)
DEFECT = st.none() | st.tuples(st.integers(0, 10**6), st.sampled_from(["short", "long", "utf8"])) \
    | st.tuples(st.integers(0, 10**6), st.integers(0, 2), st.integers(0, 3))


def _file_bytes(rows, defect, final_newline):
    lines = [[t.encode() for t in row] for row in rows]
    if defect is not None and lines:
        line = lines[defect[0] % len(lines)]
        if defect[1] == "short":
            line.pop()
        elif defect[1] == "long":
            line.append(b"")
        elif defect[1] == "utf8":
            line[3] += b"\xc3"
        else:
            ctype = MIXED.columns[defect[1]].ctype
            bad = BAD_FIELDS[ctype]
            line[defect[1]] = bad[defect[2] % len(bad)].encode()
    data = b"\n".join(b"|".join(line) for line in lines)
    return data + b"\n" if lines and final_newline else data


def _reference_scan(data, schema, needed, batch_rows):
    """Per batch, as the scan reads it: decode each line, ``split("|")``
    and check arity, then each needed column through ``decode_column``."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    out = []
    for base in range(0, len(lines), batch_rows):
        texts = []
        for no, line in enumerate(lines[base:base + batch_rows], base + 1):
            try:
                texts.append((line + b"\n").decode("utf-8")[:-1])
            except UnicodeDecodeError as e:
                raise MalformedRecord(f"invalid UTF-8: {e.reason}", no) from None
        parts = [t.split("|") for t in texts]
        for j, fields in enumerate(parts):
            if len(fields) != schema.arity:
                raise MalformedRecord(f"expected {schema.arity} fields, got {len(fields)}",
                                      base + j + 1)
        cols = {}
        for i in needed:
            ctype = schema.columns[i].ctype
            col = decode_column([p[i] for p in parts], ctype,
                                lambda j, m: MalformedRecord(m, base + j + 1))
            cols[i] = column_to_values(col)
        out.append((len(parts), cols))
    return out


def _outcome(fn):
    try:
        return repr(fn())
    except MalformedRecord as e:
        return ("MalformedRecord", e.line_no, str(e))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(MIXED_ROW, max_size=25), defect=DEFECT, final_newline=st.booleans(),
       needed=st.sets(st.integers(0, 3)), batch_rows=st.integers(1, 8) | st.just(4096),
       block=st.integers(1, 64) | st.just(1 << 20))
# "2\x00" is unparsable in every batch, so line 1 is reported before line 2's bad field
@example(rows=[("2\x00", "", "", ""), ("1", "", "", "")], defect=(1, 0, 0),
         final_newline=True, needed={0}, batch_rows=4096, block=1 << 20)
# a bad field in batch 2 is reported before batch 3's invalid UTF-8, not yet read
@example(rows=[("", "", "", ""), ("2\x00", "", "", ""), ("", "", "", "")], defect=(2, "utf8"),
         final_newline=False, needed={0}, batch_rows=1, block=1 << 20)
def test_scan_matches_per_line_reference(tmp_path_factory, rows, defect, final_newline,
                                         needed, batch_rows, block):
    data = _file_bytes(rows, defect, final_newline)
    path = tmp_path_factory.mktemp("scan") / "p.rtx"
    path.write_bytes(data)
    needed = sorted(needed)

    def scan():
        out = []
        with mock.patch.object(rowtext, "READ_BLOCK_BYTES", block):
            parts = scan_rowtext_columnar(path, MIXED, needed, batch_rows)
            for n, cols in parts:
                out.append((n, {i: column_to_values(c) for i, c in cols.items()}))
        assert parts.stats.bytes_read == len(data)
        assert parts.stats.rows_read == sum(n for n, _ in out)
        return out

    expected = _outcome(lambda: _reference_scan(data, MIXED, needed, batch_rows))
    assert _outcome(scan) == expected
