"""The one string column against the same operations on Python lists."""

import numpy as np
from hypothesis import given, settings, strategies as st

from stripehouse import columns as C, stripefile
from stripehouse.rowtext import scan_rowtext_columnar
from stripehouse.schema import ColumnType, TableSchema

from rows import column_from_values, column_to_values, write_file

STRING = ColumnType.STRING

# NUL inside and at the end, the empty string, non-ASCII, and past 32 bytes
TEXT = st.sampled_from(["", "a", "a\0", "\0", "a\0b", "ab", "é", "日本", "\U0001F600",
                        "x" * 33, "é" * 20, "x" * 32 + "\0"]) \
    | st.text(st.sampled_from("a\0é"), max_size=3) \
    | st.text(st.sampled_from("ab\0é日\U0001F600|\n"), max_size=40) \
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
VALUES = st.lists(st.none() | TEXT, max_size=30)


def stripe_part(values):
    """``values`` packed to a stripe chunk and read back."""
    col = column_from_values(values, STRING)
    raw = stripefile._pack_chunk(col, STRING, len(values))
    return stripefile._parse_chunk(raw, STRING, len(values), "chunk")


def rowtext_part(values, directory):
    """``values`` written to and scanned from a row-text file, which reads
    the empty string as NULL and cannot hold ``|``, ``\\n`` or ``\\r``."""
    values = [None if v is None else v.translate({ord(c): None for c in "|\n\r"}) or None
              for v in values]
    schema = TableSchema.create("t", [("s", STRING, True)])
    path = directory / "p.rtx"
    write_file([(v,) for v in values], schema, path)
    cols = [c[0] for _, c in scan_rowtext_columnar(path, schema, [0], batch_rows=7)]
    return values, cols


@settings(max_examples=200, deadline=None)
@given(VALUES, st.data())
def test_column_ops_match_lists(values, data):
    n = len(values)
    for col in (column_from_values(values, STRING), stripe_part(values)):
        assert column_to_values(col) == values
        assert col.strings() == ["" if v is None else v for v in values]
        assert col.data.tolist() == [b"" if v is None else v.encode() for v in values]
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=40)) if n else [],
                       dtype=np.int64)
        assert column_to_values(C.take(col, idx)) == [values[i] for i in idx]
        for lit in {data.draw(TEXT), *(v for v in values if v is not None)}:
            assert C.conjunct_mask(col, "=", lit).tolist() == \
                [v is not None and v == lit for v in values]
            assert C.conjunct_mask(col, "!=", lit).tolist() == \
                [v is not None and v != lit for v in values]


@settings(max_examples=200, deadline=None)
@given(st.lists(TEXT, max_size=30))
def test_sort_key_orders_by_code_point(values):
    col = column_from_values(values, STRING)
    order = np.argsort(C.sort_key(col), kind="stable")
    assert [values[i] for i in order] == sorted(values)
    # the footer bounds, from the key cut to STR_BOUND_BYTES, are the true
    # minimum and maximum cut to STR_BOUND_BYTES
    stats = stripefile._column_stats(col, STRING, len(values))
    for name, v in (("min", min(values, default=None)), ("max", max(values, default=None))):
        if v is None:
            assert name not in stats
            continue
        raw = v.encode()
        cut = raw[:stripefile.STR_BOUND_BYTES]
        assert stats[name] == cut.decode("utf-8", "ignore")
        assert stats.get(f"{name}_truncated", False) == (len(raw) > len(cut))


@settings(max_examples=100, deadline=None)
@given(st.lists(VALUES, min_size=1, max_size=4),
       st.lists(st.sampled_from("svr"), min_size=4, max_size=4))
def test_concat_mixes_stripe_rowtext_and_value_parts(tmp_path_factory, parts, kinds):
    expected, cols = [], []
    for values, kind in zip(parts, kinds):
        if kind == "s":
            cols.append(stripe_part(values))
        elif kind == "v":
            cols.append(column_from_values(values, STRING))
        else:
            values, scanned = rowtext_part(values, tmp_path_factory.mktemp("rtx"))
            cols.extend(scanned)
        expected.extend(values)
    if cols:
        assert column_to_values(C.concat(cols)) == expected
