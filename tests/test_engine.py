import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stripehouse.datagen import lab_schema
from stripehouse.engine import (
    Engine,
    brute_force,
    execute,
    fnv1a64,
    fnv1a64_int,
    _fnv_int64_vector,
    _sorted_unique,
)
from stripehouse.errors import MemoryBudgetExceeded
from stripehouse.ingest import ingest_csv
from stripehouse.planner import ExecConfig, plan
from stripehouse.schema import Catalog, ColumnType, StorageFormat, TableSchema
from stripehouse.sql import compile_text

from query_gen import random_query

COMPLEX = (
    "SELECT BUCKET(l.result_value,0,50,100,200) AS cat, "
    "COUNT(DISTINCT e.patient_id) FROM lab_procedure l "
    "JOIN encounter e ON l.encounter_id = e.encounter_id "
    "WHERE l.lab_code = 'LC03' GROUP BY cat"
)


def results_equal(a, b, rel=1e-9):
    assert a.columns == b.columns
    assert len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        for va, vb in zip(ra, rb):
            if isinstance(va, float) and isinstance(vb, float):
                if math.isnan(va) or math.isnan(vb):
                    assert math.isnan(va) and math.isnan(vb)
                else:
                    assert va == pytest.approx(vb, rel=rel, abs=1e-12)
            else:
                assert va == vb, (ra, rb)
    return True


def run(cat, sql, executors=2, cores=2, mem_rows=1_000_000, prune=True):
    q = compile_text(sql, cat)
    cfg = ExecConfig(executors=executors, executor_mem_rows=mem_rows,
                     cores_per_executor=cores)
    p = plan(q, cat, cfg, prune=prune)
    return execute(p, cfg, cat.data_root)


def test_fnv_reference_values():
    # FNV-1a 64-bit published test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv_vector_matches_scalar():
    keys = np.array([0, 1, -1, 2**62, -(2**62), 123456789], dtype=np.int64)
    vec = _fnv_int64_vector(keys)
    for k, h in zip(keys, vec):
        assert int(h) == fnv1a64_int(int(k))
    floats = _fnv_int64_vector(np.array([-0.0, 0.0, 1.5]))
    assert floats[0] == floats[1] != floats[2]


# a quiet NaN with a payload other than math.nan's
OTHER_NAN = float(np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(
    [math.nan, -math.nan, OTHER_NAN, 0.0, -0.0, math.inf, -math.inf]), max_size=60))
def test_sorted_unique_floats_like_np_unique(values):
    a = np.array(values, dtype=np.float64)
    got = _sorted_unique(a)
    assert len(got) == len(np.unique(a))
    assert np.array_equal(got, np.unique(a), equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=3), max_size=60))
def test_sorted_unique_strings_like_np_unique(values):
    a = np.array(values, dtype=object)
    got = _sorted_unique(a)
    assert len(got) == len(np.unique(a))
    assert got.tolist() == np.unique(a).tolist()


@pytest.mark.parametrize("fmt", list(StorageFormat))
def test_float_join_keys_nan_and_signed_zero(tmp_path, fmt):
    # NaN matches no key, as NULL; -0.0 = 0.0
    cat = Catalog(tmp_path / "root")
    cat.create_table(TableSchema.create("a", [("k", ColumnType.FLOAT64, True),
                                              ("v", ColumnType.INT64, True)]), fmt)
    cat.create_table(TableSchema.create("b", [("k", ColumnType.FLOAT64, True)]), fmt)
    (tmp_path / "a.csv").write_text("k,v\nnan,10\n1.5,20\n-0.0,30\n,40\n")
    (tmp_path / "b.csv").write_text("k\nnan\n1.5\n0.0\n\"\"\n1.7\n")
    for t in ("a", "b"):
        ingest_csv(cat, t, tmp_path / f"{t}.csv")
    sql = "SELECT COUNT(*), SUM(x.v) FROM a x JOIN b y ON x.k = y.k"
    raw = {
        "a": [(math.nan, 10), (1.5, 20), (-0.0, 30), (None, 40)],
        "b": [(math.nan,), (1.5,), (0.0,), (None,), (1.7,)],
    }
    assert brute_force(compile_text(sql, cat), raw).rows == [(2, 50.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res, _ = run(cat, sql)
    assert res.rows == [(2, 50.0)]
    # one NaN, and -0.0 = 0.0, in COUNT DISTINCT; NaN makes AVG NaN
    for sql, expected in (("SELECT COUNT(DISTINCT k), AVG(v) FROM a", (3, 25.0)),
                          ("SELECT COUNT(DISTINCT k), AVG(k) FROM b", (4, math.nan))):
        q = compile_text(sql, cat)
        res, _ = run(cat, sql)
        assert repr(res.rows) == repr(brute_force(q, raw).rows) == repr([expected])


def load_tables(root, fmt, tables, **ingest_opts):
    """Catalog at ``root`` with {name: (columns, csv text)} created and ingested."""
    cat = Catalog(root)
    for name, (cols, text) in tables.items():
        cat.create_table(TableSchema.create(name, cols), fmt)
        path = root / f"{name}.csv"
        path.write_text(text, encoding="utf-8")
        ingest_csv(cat, name, path, **ingest_opts)
    return cat


def csv_text(header, rows):
    return header + "\n" + "".join(
        ",".join("" if v is None else str(v) for v in r) + "\n" for r in rows)


@pytest.mark.parametrize("fmt", list(StorageFormat))
def test_string_join_keys_match_oracle(tmp_path, fmt):
    # duplicate keys on both sides, NULL keys, non-ASCII keys, unmatched keys
    rng = random.Random(5)
    a_keys = ["k1", "k2", "é", "日本", None, "only_a", "K1"]
    b_keys = ["k1", "k2", "é", "日本", None, "only_b"]
    raw = {
        "a": [(rng.choice(a_keys), rng.randrange(100)) for _ in range(300)],
        "b": [(rng.choice(b_keys), rng.choice([0.5, 1.5, 2.5, None])) for _ in range(40)],
    }
    cat = load_tables(tmp_path, fmt, {
        "a": ([("k", ColumnType.STRING, True), ("v", ColumnType.INT64, True)],
              csv_text("k,v", raw["a"])),
        "b": ([("k", ColumnType.STRING, True), ("w", ColumnType.FLOAT64, True)],
              csv_text("k,w", raw["b"])),
    }, partitions=3, stripe_size=16)
    queries = [
        "SELECT COUNT(*), SUM(x.v), COUNT(DISTINCT y.w), COUNT(DISTINCT y.k) "
        "FROM a x JOIN b y ON x.k = y.k",
        "SELECT BUCKET(x.v, 0, 25, 50, 100) AS c, COUNT(DISTINCT x.k), COUNT(*), "
        "AVG(y.w) FROM a x JOIN b y ON x.k = y.k GROUP BY c",
        "SELECT COUNT(*) FROM a x JOIN b y ON x.k = y.k WHERE x.k = 'only_a'",
    ]
    for sql in queries:
        oracle = brute_force(compile_text(sql, cat), raw)
        assert oracle.rows and oracle.rows[0][0] is not None
        for e, c in ((1, 1), (4, 3)):
            res, _ = run(cat, sql, executors=e, cores=c)
            assert res.rows == oracle.rows, (sql, e, c)


@pytest.mark.parametrize("fmt", list(StorageFormat))
def test_float_distinct_and_avg_nan_signed_zero(tmp_path, fmt):
    # NaN of both signs, ±0.0 and NULL spread over many stripes and partitions
    rng = random.Random(9)
    raw_rows, texts = [], []
    for i in range(400):
        g = i % 6
        pool = ["nan", "-nan", "0.0", "-0.0", "", "1.5"] if g < 2 else \
            ["0.0", "-0.0", "", "1.5", "2.25", repr(i / 8)]
        text = rng.choice(pool)
        raw_rows.append((g, None if text == "" else float(text)))
        texts.append(f"{g},{text}\n")
    cat = load_tables(tmp_path, fmt, {
        "t": ([("g", ColumnType.INT64, False), ("x", ColumnType.FLOAT64, True)],
              "g,x\n" + "".join(texts)),
    }, partitions=4, stripe_size=8)
    raw = {"t": raw_rows}
    queries = [
        "SELECT COUNT(DISTINCT x), AVG(x), SUM(x), COUNT(*) FROM t",
        "SELECT BUCKET(g, 0, 2, 4, 6) AS c, COUNT(DISTINCT x), AVG(x), SUM(x), COUNT(*) "
        "FROM t GROUP BY c",
        "SELECT COUNT(DISTINCT x), AVG(x) FROM t WHERE g >= 2",
    ]
    for sql in queries:
        oracle = brute_force(compile_text(sql, cat), raw)
        outs = []
        for e, c in ((1, 1), (4, 3)):
            res, _ = run(cat, sql, executors=e, cores=c)
            assert results_equal(res, oracle), sql
            outs.append(repr(res.rows))
        assert outs[0] == outs[1], sql


@pytest.mark.parametrize("fmt", list(StorageFormat))
@pytest.mark.parametrize("values, expected", [
    (["inf", "-inf", "1.0"], (math.nan, math.nan)),
    (["nan", "inf", "-inf"], (math.nan, math.nan)),
    (["1e308", "1e308"], (math.inf, 1e308)),
    (["-1e308", "", "-1e308"], (-math.inf, -1e308)),
    (["1e308", "1e308", "-1e308"], (1e308, 1e308 / 3)),  # only a partial sum overflows
    (["inf", "1e308", "1e308"], (math.inf, math.inf)),
])
def test_sum_avg_special_values(tmp_path, fmt, values, expected):
    # IEEE results where math.fsum raises, spread over partitions and stripes
    cat = load_tables(tmp_path, fmt, {
        "t": ([("x", ColumnType.FLOAT64, True)],
              "x\n" + "".join((v or '""') + "\n" for v in values)),
    }, partitions=2, stripe_size=1)
    raw = {"t": [(None if v == "" else float(v),) for v in values]}
    sql = "SELECT SUM(x), AVG(x) FROM t"
    assert repr(brute_force(compile_text(sql, cat), raw).rows) == repr([expected])
    for e, c in ((1, 1), (4, 3)):
        res, _ = run(cat, sql, executors=e, cores=c)
        assert repr(res.rows) == repr([expected])


def test_count_on_empty_table(tmp_path):
    cat = Catalog(tmp_path)
    cat.create_table(lab_schema(), StorageFormat.STRIPE)
    res, metrics = run(cat, "SELECT COUNT(*) FROM lab_procedure")
    assert res.rows == [(0,)]
    res, _ = run(cat, "SELECT SUM(result_value), MIN(lab_id) FROM lab_procedure")
    assert res.rows == [(None, None)]


def test_complex_query_equals_oracle_seed42(seed_data, both_catalogs):
    oracle = brute_force(
        compile_text(COMPLEX, both_catalogs[StorageFormat.STRIPE]),
        seed_data["raw"],
    )
    # frozen from the seed-42 generator stream
    assert oracle.rows == [(0, 683), (1, 705), (2, 889)]
    for fmt, cat in both_catalogs.items():
        res, _ = run(cat, COMPLEX)
        assert res.rows == oracle.rows, fmt
    # more groups (29) than reducers: one final task merges and orders them all
    edges = ", ".join(str(7 * i) for i in range(30))
    sql = (f"SELECT BUCKET(l.result_value, {edges}) AS cat, COUNT(*), "
           "COUNT(DISTINCT e.patient_id), AVG(l.result_value) FROM lab_procedure l "
           "JOIN encounter e ON l.encounter_id = e.encounter_id GROUP BY cat")
    oracle = brute_force(compile_text(sql, both_catalogs[StorageFormat.STRIPE]),
                         seed_data["raw"])
    assert [r[0] for r in oracle.rows] == list(range(29))
    for fmt, cat in both_catalogs.items():
        for e, c in ((1, 1), (2, 2)):
            res, _ = run(cat, sql, executors=e, cores=c)
            assert repr(res.rows) == repr(oracle.rows), (fmt, e, c)


def test_identical_results_across_executors(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    reference, _ = run(cat, COMPLEX, executors=1, cores=1)
    for e in (2, 4, 8):
        res, _ = run(cat, COMPLEX, executors=e, cores=3)
        assert res.rows == reference.rows


def test_identical_across_prune_and_format(both_catalogs):
    sql = ("SELECT SUM(l.result_value), COUNT(*) FROM lab_procedure l "
           "WHERE l.lab_code != 'LC07' AND l.result_value >= 2.5")
    outs = []
    for fmt, cat in both_catalogs.items():
        for prune in (True, False):
            res, _ = run(cat, sql, prune=prune)
            outs.append(res.rows)
    first = outs[0]
    assert all(o == first for o in outs)  # bit-identical, including the SUM


def test_metadata_count_metrics(both_catalogs, seed_data):
    cat = both_catalogs[StorageFormat.STRIPE]
    res, metrics = run(cat, "SELECT COUNT(*) FROM lab_procedure")
    assert res.rows == [(len(seed_data["raw"]["lab_procedure"]),)]
    assert metrics.rows_read == 0
    assert metrics.bytes_read > 0


def test_rowtext_full_scan_metrics(both_catalogs, seed_data):
    cat = both_catalogs[StorageFormat.ROWTEXT]
    res, metrics = run(cat, "SELECT COUNT(*) FROM lab_procedure")
    n = len(seed_data["raw"]["lab_procedure"])
    assert res.rows == [(n,)]
    assert metrics.rows_read == n


def test_pruning_reduces_reads_result_unchanged(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    sql = "SELECT COUNT(*) FROM lab_procedure WHERE lab_code = 'LC03'"
    on, m_on = run(cat, sql, prune=True)
    off, m_off = run(cat, sql, prune=False)
    assert on.rows == off.rows
    assert m_on.stripes_pruned > 0
    assert m_on.rows_read < m_off.rows_read
    assert m_on.bytes_read < m_off.bytes_read


def test_join_no_matching_keys(tmp_path, seed_data):
    # oracle on a join with disjoint key spaces returns an empty table
    cat = Catalog(tmp_path)
    from stripehouse.datagen import encounter_schema
    cat.create_table(lab_schema(), StorageFormat.STRIPE)
    cat.create_table(encounter_schema(), StorageFormat.STRIPE)
    q = compile_text(
        "SELECT BUCKET(l.result_value,0,100,200) AS cat, COUNT(*) "
        "FROM lab_procedure l JOIN encounter e "
        "ON l.encounter_id = e.encounter_id GROUP BY cat", cat)
    raw = {
        "lab_procedure": [(0, 99_999_991, "LC00", 5.0)],
        "encounter": [(1, 1, 1, 1, 1)],
    }
    res = brute_force(q, raw)
    assert res.rows == []


def test_oracle_count_star_equals_row_count(both_catalogs, seed_data):
    cat = both_catalogs[StorageFormat.STRIPE]
    q = compile_text("SELECT COUNT(*) FROM lab_procedure", cat)
    res = brute_force(q, seed_data["raw"])
    assert res.rows == [(len(seed_data["raw"]["lab_procedure"]),)]


def test_memory_budget_join_build(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    with pytest.raises(MemoryBudgetExceeded):
        run(cat, COMPLEX, executors=1, cores=1, mem_rows=100)


def test_memory_budget_distinct_set(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    with pytest.raises(MemoryBudgetExceeded):
        run(cat, "SELECT COUNT(DISTINCT lab_id) FROM lab_procedure",
            executors=2, cores=2, mem_rows=1_000)


def test_shuffle_spill_path(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    sql = ("SELECT COUNT(*) FROM lab_procedure l JOIN encounter e "
           "ON l.encounter_id = e.encounter_id")
    q = compile_text(sql, cat)
    big = ExecConfig(executors=2, cores_per_executor=2)
    ref, _ = Engine(cat.data_root).execute(plan(q, cat, big), big)
    # small budget: probe-side buckets spill to disk; build side still fits
    small = ExecConfig(executors=2, cores_per_executor=2,
                       executor_mem_rows=4_000)
    res, metrics = Engine(cat.data_root).execute(plan(q, cat, small), small)
    assert metrics.spill_events > 0
    assert res.rows == ref.rows
    assert not (cat.data_root / "shuffle").exists() or \
        not any((cat.data_root / "shuffle").iterdir())


def test_engine_busy_guard(both_catalogs):
    # the lock releases after each query; sequential reuse is fine
    cat = both_catalogs[StorageFormat.STRIPE]
    eng = Engine(cat.data_root)
    q = compile_text("SELECT COUNT(*) FROM lab_procedure", cat)
    cfg = ExecConfig(executors=1, cores_per_executor=1)
    p = plan(q, cat, cfg)
    for _ in range(3):
        res, _ = eng.execute(p, cfg)
        assert res.rows


def test_result_sorted_by_category(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    res, _ = run(cat, COMPLEX, executors=4, cores=3)
    cats = [r[0] for r in res.rows]
    assert cats == sorted(cats)


def test_date_aggregates(both_catalogs, seed_data):
    sql = "SELECT MIN(admit_date), MAX(admit_date) FROM encounter"
    cat = both_catalogs[StorageFormat.STRIPE]
    q = compile_text(sql, cat)
    oracle = brute_force(q, seed_data["raw"])
    res, _ = run(cat, sql)
    assert res.rows == oracle.rows
    from stripehouse.values import days_to_iso
    lo, hi = res.rows[0]
    assert "2000-01-01" <= days_to_iso(lo) <= days_to_iso(hi) <= "2018-12-31"


def test_randomized_queries_match_oracle(both_catalogs, seed_data):
    rng = random.Random(2024)
    cat_s = both_catalogs[StorageFormat.STRIPE]
    cat_r = both_catalogs[StorageFormat.ROWTEXT]
    checked = 0
    for _ in range(30):
        sql = random_query(rng)
        q = compile_text(sql, cat_s)
        oracle = brute_force(q, seed_data["raw"])
        res, _ = run(cat_s, sql, executors=2, cores=2)
        assert results_equal(res, oracle), sql
        res_r, _ = run(cat_r, sql, executors=2, cores=2)
        assert res_r.rows == res.rows, sql  # bit-identical across formats
        checked += 1
    assert checked == 30
