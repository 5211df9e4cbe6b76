import math
import random
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from stripehouse import columns as C
from stripehouse.errors import IllegalCharacter, MalformedRecord, TypeMismatch
from stripehouse.predicate import Conjunct, row_passes
from stripehouse.rowtext import decode_column, encode_column, scan_rowtext, write_rowtext
from stripehouse.schema import ColumnType, TableSchema
from stripehouse.values import iso_to_days


SCHEMA = TableSchema.create("t", [
    ("a", ColumnType.INT64, True),
    ("b", ColumnType.STRING, True),
    ("c", ColumnType.FLOAT64, True),
])


def collect(scan):
    return [row for batch in scan for row in batch]


def test_empty_file(tmp_path):
    desc = write_rowtext([], SCHEMA, tmp_path / "p.rtx")
    assert desc.row_count == 0
    assert (tmp_path / "p.rtx").read_bytes() == b""
    scan = scan_rowtext(tmp_path / "p.rtx", SCHEMA)
    assert collect(scan) == []
    assert scan.stats.rows_read == 0


def test_direct_encoding_rule(tmp_path):
    # one row with a NULL float encodes to `1|a|\n`
    write_rowtext([(1, "a", None)], SCHEMA, tmp_path / "p.rtx")
    assert (tmp_path / "p.rtx").read_bytes() == b"1|a|\n"


def test_illegal_character(tmp_path):
    with pytest.raises(IllegalCharacter):
        write_rowtext([(1, "x|y", 0.5)], SCHEMA, tmp_path / "p.rtx")
    with pytest.raises(IllegalCharacter):
        write_rowtext([(1, "x\ny", 0.5)], SCHEMA, tmp_path / "p.rtx")
    with pytest.raises(IllegalCharacter):
        write_rowtext([(1, "ok", 0.5), (2, "x\ry", 0.5)], SCHEMA, tmp_path / "p.rtx")
    assert not (tmp_path / "p.rtx").exists()


def test_type_mismatch(tmp_path):
    with pytest.raises(TypeMismatch):
        write_rowtext([("notint", "a", 0.5)], SCHEMA, tmp_path / "p.rtx")
    with pytest.raises(TypeMismatch):
        write_rowtext([(1, 2, 0.5)], SCHEMA, tmp_path / "p.rtx")
    with pytest.raises(TypeMismatch):
        write_rowtext([(1, "short")], SCHEMA, tmp_path / "p.rtx")


def test_predicate_filters_rows(tmp_path):
    rows = [(5, "a", 1.0), (15, "b", 2.0)]
    write_rowtext(rows, SCHEMA, tmp_path / "p.rtx")
    scan = scan_rowtext(tmp_path / "p.rtx", SCHEMA, predicate=[Conjunct(0, ">", 10)])
    assert collect(scan) == [(15, "b", 2.0)]


def test_rows_read_invariant_to_selectivity(tmp_path):
    rows = [(i, f"s{i}", float(i)) for i in range(1000)]
    write_rowtext(rows, SCHEMA, tmp_path / "p.rtx")
    for pred in ([], [Conjunct(0, ">", 999_999)], [Conjunct(0, ">=", 0)]):
        scan = scan_rowtext(tmp_path / "p.rtx", SCHEMA, predicate=pred)
        collect(scan)
        assert scan.stats.rows_read == 1000


def test_round_trip_order_and_values(tmp_path):
    rows = [
        (1, "x", 1.5),
        (None, None, None),
        (-7, "hello world", -0.125),
        (2**62, "z", float("nan")),
        (3, "unicodé ☃", 1e-300),
    ]
    write_rowtext(rows, SCHEMA, tmp_path / "p.rtx")
    got = collect(scan_rowtext(tmp_path / "p.rtx", SCHEMA))
    assert len(got) == len(rows)
    for g, e in zip(got, rows):
        for gv, ev in zip(g, e):
            if isinstance(ev, float) and math.isnan(ev):
                assert isinstance(gv, float) and math.isnan(gv)
            else:
                assert gv == ev


def test_projection(tmp_path):
    rows = [(1, "a", 0.5), (2, "b", 1.5)]
    write_rowtext(rows, SCHEMA, tmp_path / "p.rtx")
    got = collect(scan_rowtext(tmp_path / "p.rtx", SCHEMA, projection=[2, 0]))
    assert got == [(0.5, 1), (1.5, 2)]


def test_malformed_record_arity(tmp_path):
    (tmp_path / "p.rtx").write_text("1|a|2.0\n1|a\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as ei:
        collect(scan_rowtext(tmp_path / "p.rtx", SCHEMA))
    assert ei.value.line_no == 2


def test_malformed_record_bad_value(tmp_path):
    (tmp_path / "p.rtx").write_text("1|a|2.0\nzap|b|1.0\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as ei:
        collect(scan_rowtext(tmp_path / "p.rtx", SCHEMA))
    assert ei.value.line_no == 2


def test_byte_deterministic(tmp_path):
    rows = [(i, f"v{i}", i / 7.0) for i in range(500)]
    write_rowtext(rows, SCHEMA, tmp_path / "a.rtx")
    write_rowtext(rows, SCHEMA, tmp_path / "b.rtx")
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
    write_rowtext(rows, SCHEMA, tmp_path / "big.rtx")
    pred = [Conjunct(0, ">", 250), Conjunct(2, "<=", 3.5)]
    scan = scan_rowtext(tmp_path / "big.rtx", SCHEMA, predicate=pred)
    got = collect(scan)
    expected = [r for r in rows if row_passes(pred, r)]
    assert got == expected
    assert scan.stats.rows_read == 100_000


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
    texts = encode_column(C.column_from_values(values, ctype), ctype)
    back = C.column_to_values(decode_column(texts, ctype, _not_expected), ctype)
    expected = [None if v == "" else v for v in values]
    assert [repr(v) for v in back] == [repr(v) for v in expected]
