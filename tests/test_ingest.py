import csv
import hashlib
import math
import random
from pathlib import Path

import pytest

from stripehouse.engine import execute
from stripehouse.errors import (
    ArityError,
    HeaderMismatch,
    IllegalCharacter,
    ParseError,
    UnknownTable,
)
from stripehouse.ingest import ingest_csv
from stripehouse.planner import ExecConfig, plan
from stripehouse.predicate import Conjunct
from stripehouse.schema import Catalog, ColumnType, StorageFormat, TableSchema
from stripehouse.sql import compile_text
from stripehouse.stripefile import prune_stripes, read_footer
from stripehouse.values import days_to_iso

from rows import scan_file, write_file


SCHEMA_COLS = [
    ("id", ColumnType.INT64, False),
    ("name", ColumnType.STRING, True),
    ("score", ColumnType.FLOAT64, True),
    ("day", ColumnType.DATE, True),
]


def make_catalog(tmp_path, fmt=StorageFormat.STRIPE, name="t"):
    cat = Catalog(tmp_path)
    cat.create_table(TableSchema.create(name, SCHEMA_COLS), fmt)
    return cat


def test_small_csv_single_partition(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(
        "id,name,score,day\n1,a,1.5,2001-02-03\n2,b,,2002-03-04\n3,,0.25,\n",
        encoding="utf-8",
    )
    cat = make_catalog(tmp_path / "root")
    entry = ingest_csv(cat, "t", csv_path, partitions=8, stripe_size=10_000)
    # 3 rows = one batch -> exactly one non-empty partition
    assert len(entry.partitions) == 1
    assert entry.row_count == 3
    got = scan_file(entry.partitions[0].path, entry.schema)[0]
    assert got == [
        (1, "a", 1.5, 11356),
        (2, "b", None, 11750),
        (3, None, 0.25, None),
    ]


def test_rfc4180_unescaping(tmp_path):
    csv_path = tmp_path / "in.csv"
    # field `"a,""b"""` decodes to `a,"b"`; a quoted field may hold | and \n
    csv_path.write_text('id,name,score,day\n1,"a,""b""",,\n2,"p|\nq",,\n',
                        encoding="utf-8")
    cat = make_catalog(tmp_path / "root")
    entry = ingest_csv(cat, "t", csv_path)
    got = scan_file(entry.partitions[0].path, entry.schema)[0]
    assert [r[1] for r in got] == ['a,"b"', "p|\nq"]


def test_header_any_order_case_insensitive(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("SCORE,Day,ID,name\n2.5,2010-01-01,7,x\n", encoding="utf-8")
    cat = make_catalog(tmp_path / "root")
    entry = ingest_csv(cat, "t", csv_path)
    got = scan_file(entry.partitions[0].path, entry.schema)[0]
    assert got == [(7, "x", 2.5, 14610)]


def test_header_mismatch(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("id,name,score\n1,a,1.0\n", encoding="utf-8")
    cat = make_catalog(tmp_path / "root")
    with pytest.raises(HeaderMismatch):
        ingest_csv(cat, "t", csv_path)


def test_parse_error_position(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(
        "id,name,score,day\n1,a,1.0,2001-01-01\n2,b,notafloat,2001-01-01\n",
        encoding="utf-8",
    )
    cat = make_catalog(tmp_path / "root")
    with pytest.raises(ParseError) as ei:
        ingest_csv(cat, "t", csv_path)
    assert ei.value.row == 3  # 1-based line number, header is line 1
    assert ei.value.column == 3


@pytest.mark.parametrize("fmt", list(StorageFormat))
@pytest.mark.parametrize("text, column", [
    ("9223372036854775808,a,1.0,2001-01-01", 1),
    ("-9223372036854775809,a,1.0,2001-01-01", 1),
    ("2,a,1.0,12345-01-01", 4),
    ("2,a,1.0,-0001-01-01", 4),
    ("2,a,1.0,0000-12-31", 4),
    ("2\x00,a,1.0,2001-01-01", 1),
])
def test_ingest_rejects_out_of_range_values(tmp_path, fmt, text, column):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(f"id,name,score,day\n1,a,1.0,9999-12-31\n{text}\n", encoding="utf-8")
    cat = make_catalog(tmp_path / "root", fmt)
    with pytest.raises(ParseError) as ei:
        ingest_csv(cat, "t", csv_path)
    assert (ei.value.row, ei.value.column) == (3, column)
    assert cat.get_table("t").row_count == 0


def test_arity_error(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("id,name,score,day\n1,a,1.0\n", encoding="utf-8")
    cat = make_catalog(tmp_path / "root")
    with pytest.raises(ArityError):
        ingest_csv(cat, "t", csv_path)


def test_unknown_table(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("id,name,score,day\n", encoding="utf-8")
    cat = Catalog(tmp_path / "root")
    with pytest.raises(UnknownTable):
        ingest_csv(cat, "nope", csv_path)


def test_round_robin_batch_distribution(tmp_path):
    csv_path = tmp_path / "in.csv"
    lines = ["id,name,score,day"]
    for i in range(2_500):
        lines.append(f"{i},n{i},{i / 2},2005-06-07")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cat = make_catalog(tmp_path / "root")
    entry = ingest_csv(cat, "t", csv_path, partitions=3, stripe_size=500)
    # 5 batches of 500 over 3 partitions -> 2/2/1 batches
    assert [p.row_count for p in entry.partitions] == [1000, 1000, 500]
    # batch b goes to partition b % 3: partition 1 holds batches 1 and 4
    got = scan_file(entry.partitions[1].path, entry.schema)[0]
    ids = [r[0] for r in got]
    assert ids == list(range(500, 1000)) + list(range(2000, 2500))


def test_end_to_end_round_trip_both_formats(seed_data, both_catalogs):
    raw = seed_data["raw"]["lab_procedure"]
    for cat in both_catalogs.values():
        entry = cat.get_table("lab_procedure")
        assert entry.row_count == len(raw)
        got = []
        for p in entry.partitions:
            got.extend(scan_file(p.path, entry.schema)[0])
        # ingest clustered on lab_code; compare as multisets via unique lab_id
        got.sort(key=lambda r: r[0])
        assert got == raw


def test_sorted_ingest_clusters_for_pruning(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    entry = cat.get_table("lab_procedure")
    total = pruned = 0
    code_idx = entry.schema.column_index("lab_code")
    for p in entry.partitions:
        footer = read_footer(p.path)
        mask = prune_stripes(footer, [Conjunct(code_idx, "=", "LC03")])
        total += len(mask)
        pruned += mask.count(False)
    assert pruned / total >= 0.5


def test_empty_csv_zero_partitions(tmp_path):
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("id,name,score,day\n", encoding="utf-8")
    cat = make_catalog(tmp_path / "root")
    entry = ingest_csv(cat, "t", csv_path)
    assert entry.partitions == ()
    assert entry.row_count == 0


KS_COLS = [("k", ColumnType.INT64, False), ("s", ColumnType.STRING, False)]


def count_rows(cat, table):
    q = compile_text(f"SELECT COUNT(*) FROM {table}", cat)
    cfg = ExecConfig(executors=1, cores_per_executor=1)
    res, _ = execute(plan(q, cat, cfg), cfg, cat.data_root)
    return res.rows[0][0]


def test_rowtext_ingest_rejects_delimiters(tmp_path):
    root = tmp_path / "root"
    cat = Catalog(root)
    cat.create_table(TableSchema.create("d", KS_COLS), StorageFormat.ROWTEXT)
    good = tmp_path / "good.csv"
    good.write_text("k,s\n1,a\n", encoding="utf-8")
    ingest_csv(cat, "d", good)
    bad = tmp_path / "bad.csv"
    bad.write_text('k,s\n1,"x|y"\n2,"p\nq"\n3,ok\n', encoding="utf-8")
    with pytest.raises(IllegalCharacter):
        ingest_csv(cat, "d", bad)
    cat = Catalog(root)
    assert cat.get_table("d").row_count == 1
    assert count_rows(cat, "d") == 1
    assert [p.name for p in (root / "tables" / "d").iterdir()] == ["part-00000.rtx"]


@pytest.mark.parametrize("fmt", list(StorageFormat))
@pytest.mark.parametrize("text, row, column", [
    ("k,s\n,x\n2,\n", 2, 1),
    ("s,k\nx,1\n,2\n", 3, 1),
])
def test_ingest_enforces_not_null(tmp_path, fmt, text, row, column):
    cat = Catalog(tmp_path / "root")
    cat.create_table(TableSchema.create("n", KS_COLS), fmt)
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as ei:
        ingest_csv(cat, "n", csv_path)
    assert (ei.value.row, ei.value.column) == (row, column)
    assert Catalog(tmp_path / "root").get_table("n").row_count == 0


def test_ingest_and_write_rowtext_same_bytes(tmp_path):
    rows = [
        (1, "a", 1.5, 11356),
        (-2, "unicodé ☃", -0.0, 0),
        (2**62, None, math.nan, -719162),
        (3, "z", math.inf, None),
        (4, "y", None, 2932896),
        (-(2**63), "x", 1e-300, 17000),
    ]
    fields = [
        ["" if v is None else days_to_iso(v) if i == 3 else repr(v) if i == 2 else str(v)
         for i, v in enumerate(r)]
        for r in rows
    ]
    csv_path = tmp_path / "in.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f).writerows([["id", "name", "score", "day"], *fields])
    cat = make_catalog(tmp_path / "root", StorageFormat.ROWTEXT)
    entry = ingest_csv(cat, "t", csv_path, partitions=1)
    write_file(rows, entry.schema, tmp_path / "w.rtx")
    assert Path(entry.partitions[0].path).read_bytes() == (tmp_path / "w.rtx").read_bytes()


@pytest.mark.parametrize("fmt", list(StorageFormat))
def test_sort_by_string_orders_by_code_point(tmp_path, fmt):
    # "a" < "a\0" < "a\0\0" < "ab" by code point, where numpy `U` values
    # drop the trailing NULs and tie; NULLs first, ties in input order
    pool = ["a", "a\0", "a\0\0", "ab", "\0", "é", "日本", "x" * 40, ""]
    rng = random.Random(12)
    rows = [(i, rng.choice(pool)) for i in range(5_000)]
    csv_path = tmp_path / "in.csv"
    csv_path.write_text("k,s\n" + "".join(f"{k},{s}\n" for k, s in rows), encoding="utf-8")
    cat = Catalog(tmp_path / "root")
    schema = TableSchema.create("t", [("k", ColumnType.INT64, False),
                                      ("s", ColumnType.STRING, True)])
    cat.create_table(schema, fmt)
    entry = ingest_csv(cat, "t", csv_path, partitions=1, stripe_size=700, sort_by="s")
    got = scan_file(entry.partitions[0].path, entry.schema)[0]
    expected = sorted(((k, s or None) for k, s in rows),
                      key=lambda r: (r[1] is not None, r[1] or ""))
    assert got == expected


# 23 rows, so 3 partitions of 4-row stripes get 2 stripes each, the last 3 rows
PINNED_SCHEMA = [
    ("id", ColumnType.INT64, False),
    ("n", ColumnType.INT64, True),
    ("name", ColumnType.STRING, True),
    ("score", ColumnType.FLOAT64, True),
    ("day", ColumnType.DATE, True),
]
PINNED_CSV = "id,n,name,score,day\n" + "".join(f"{i},{n},{s},{x},{d}\n" for i, n, s, x, d in [
    (-9223372036854775808, "", "Zürich", "nan", "0001-01-01"),
    (9223372036854775807, -9223372036854775808, "東京", "inf", "9999-12-31"),
    (0, 9223372036854775807, "", "-inf", ""),
    (1, 0, "€" * 12, "-0.0", "1970-01-01"),
    (2, "", "a" * 40, "", "1969-12-31"),
    *[(3 + k, k * 7 - 40, f"s{k % 5}" if k % 4 else "", f"{k / 8}" if k % 3 else "nan",
       f"2020-01-{k + 1:02d}" if k % 6 else "") for k in range(18)],
])
PINNED_SHA256 = {
    (StorageFormat.STRIPE, None): {
        "part-00000.stp": "50899458cebb231bb221198d1b70a1c5a704211e101c9bdf92e380316c59d20c",
        "part-00001.stp": "4603467258b2f5121e9edfb52e7e40953d3178792b6d7f955ba101fe341fcef7",
        "part-00002.stp": "388ac37a34b11d468437e43c6a436d19ba85736e376e0ab4bb8d2c1e9ddd12f4",
    },
    (StorageFormat.ROWTEXT, None): {
        "part-00000.rtx": "1392308a468883e198dfcdc1adc953d3c7f5923c8afdba45ac39aa304074db9d",
        "part-00001.rtx": "2d8dc0d936f3469cf8185e1edf6abc6c5f2561eda0b23b34b895e534da83e982",
        "part-00002.rtx": "a72f0a49916abf58dc0d1c4ad615807d1a9bbbad0a360c59c2ea22c9f9b2766e",
    },
    (StorageFormat.STRIPE, "name"): {
        "part-00000.stp": "da02293f2586b8e93b09fc9abf40758fa85041b7ca0cf1f3015e102ebb328a1d",
        "part-00001.stp": "8426505f47fc281707137f260469690c4513c0d2e7a0af073925948c253d989d",
        "part-00002.stp": "717214e9b25a28ccecc8c901097a8ca72892e786d0707bf0227e96ba7d242426",
    },
}


@pytest.mark.parametrize("fmt, sort_by", list(PINNED_SHA256))
def test_partition_bytes_pinned(tmp_path, fmt, sort_by):
    # the storage byte formats and ingest's partition/stripe layout are fixed
    # across versions: each file's sha256 is a constant
    csv_path = tmp_path / "in.csv"
    csv_path.write_text(PINNED_CSV, encoding="utf-8")
    cat = Catalog(tmp_path / "root")
    cat.create_table(TableSchema.create("t", PINNED_SCHEMA), fmt)
    entry = ingest_csv(cat, "t", csv_path, partitions=3, stripe_size=4, sort_by=sort_by)
    got = {Path(p.path).name: hashlib.sha256(Path(p.path).read_bytes()).hexdigest()
           for p in entry.partitions}
    assert got == PINNED_SHA256[fmt, sort_by]
