import math
import os
import random
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stripehouse import columns as C, engine as engine_mod, stripefile
from stripehouse.datagen import lab_schema
from stripehouse.engine import (
    Engine,
    _ExactSum,
    execute,
    fnv1a64,
    _fnv_int64_vector,
    _group_indices,
    _prepare_build,
    _probe,
    _sorted_unique,
)
from stripehouse.errors import MemoryBudgetExceeded, StripehouseError
from stripehouse.ingest import ingest_csv
from stripehouse.planner import ExecConfig, JoinOp, plan
from stripehouse.schema import Catalog, ColumnType, StorageFormat, TableSchema
from stripehouse.sql import compile_text

from oracle import brute_force
from query_gen import random_query
from rows import write_file

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


def run_join_shapes(cat, sql, executors=2, cores=2):
    """Result of a join query run broadcast (the default budget) and, with
    the budget one row below the build side, shuffled; asserts the plan
    shapes and that both runs give the same rows."""
    q = compile_text(sql, cat)
    cfg = ExecConfig(executors=executors, cores_per_executor=cores)
    p = plan(q, cat, cfg)
    kinds = [tuple(type(op).__name__ for op in stage) for stage in p.stages]
    assert kinds[:2] == [("ScanOp", "ScanOp"), ("JoinOp",)] and len(kinds) == 4, kinds
    join = p.stages[1][0]
    assert join.broadcast
    res, metrics = execute(p, cfg, cat.data_root)
    assert metrics.shuffle_rows == 0
    small = ExecConfig(executors=executors, cores_per_executor=cores,
                       executor_mem_rows=join.build_rows - 1)
    p = plan(q, cat, small)
    kinds = [tuple(type(op).__name__ for op in stage) for stage in p.stages]
    assert kinds[:3] == [("ScanOp", "ScanOp"), ("ShuffleOp", "ShuffleOp"), ("JoinOp",)], kinds
    assert not p.stages[2][0].broadcast
    shuffled, _ = execute(p, small, cat.data_root)
    assert repr(shuffled.rows) == repr(res.rows), sql
    return res


def test_fnv_reference_values():
    # FNV-1a 64-bit published test vectors
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_fnv_vector_matches_scalar():
    keys = np.array([0, 1, -1, 2**62, -(2**62), 123456789], dtype=np.int64)
    vec = _fnv_int64_vector(keys)
    for k, h in zip(keys, vec):
        assert int(h) == fnv1a64(int(k).to_bytes(8, "little", signed=True))
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


# --- the join kernel and the row splitter ---

I64_MIN, I64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
I64_EDGES = st.sampled_from([I64_MIN, I64_MIN + 1, -1, 0, I64_MAX - 1, I64_MAX])
FLOAT_KEYS = st.floats() | st.sampled_from([math.nan, OTHER_NAN, 0.0, -0.0, math.inf])
# kind: (build keys, probe keys, column type, whether the build gets a table)
JOIN_KEYS = {
    "int64_narrow": (st.integers(-40, 40), st.integers(-60, 60) | I64_EDGES, "int", True),
    "int64_near_min": (st.integers(I64_MIN, I64_MIN + 40),
                       st.integers(I64_MIN, I64_MIN + 60) | I64_EDGES, "int", True),
    "int64_near_max": (st.integers(I64_MAX - 40, I64_MAX),
                       st.integers(I64_MAX - 60, I64_MAX) | I64_EDGES, "int", True),
    "date": (st.integers(10_950, 11_000), st.integers(10_900, 11_050), "int", True),
    "int64_wide": (st.integers(I64_MIN, I64_MAX) | I64_EDGES | st.integers(-3, 3),
                   st.integers(I64_MIN, I64_MAX) | I64_EDGES | st.integers(-3, 3), "int", False),
    "float64": (FLOAT_KEYS, FLOAT_KEYS, "float", False),
    "string": (st.text("ab\u03a9", max_size=3), st.text("ab\u03a9", max_size=3), "str", False),
}


def _key_column(kind: str, values: list):
    """A join key column of ``values``, None as NULL."""
    valid = np.array([v is not None for v in values], dtype=bool)
    if kind == "str":
        return C.strings_column(["" if v is None else v for v in values], valid)
    dtype = np.float64 if kind == "float" else np.int64
    return C.NumColumn(np.array([0 if v is None else v for v in values], dtype=dtype), valid)


@pytest.mark.parametrize("kind", sorted(JOIN_KEYS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_probe_matches_nested_loop(kind, data):
    build_keys, probe_keys, ctype, table = JOIN_KEYS[kind]
    build = data.draw(st.lists(st.none() | build_keys, max_size=30), "build")
    if kind == "int64_wide":
        build += [I64_MIN, I64_MAX]  # a range no table can cover
    probe = data.draw(st.lists(st.none() | probe_keys, max_size=30), "probe")
    side = _prepare_build(_key_column(ctype, build), [])
    assert (side.table is not None) == (table and any(v is not None for v in build))
    pairs = _probe(side, _key_column(ctype, probe))
    got = [] if pairs is None else list(zip(pairs[0].tolist(), pairs[1].tolist()))
    # probe order, then build order within a key; NULL and NaN match nothing
    assert got == [(i, j) for i, p in enumerate(probe) for j, b in enumerate(build)
                   if p is not None and b is not None and p == b]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12) | st.sampled_from([-5, 2**15 - 1, 2**15, 2**40]),
                          st.booleans()), max_size=60), st.booleans())
# spans of 2**15 - 1, the widest the 16-bit sort takes, and of 2**15
@example([(0, True), (2**15 - 1, True), (0, False), (7, True)], False)
@example([(0, True), (2**15, True), (0, False), (7, True)], True)
def test_group_indices_equal_stable_argsort(rows, masked):
    gid = np.array([g for g, _ in rows], dtype=np.int64)
    in_range = np.array([m for _, m in rows], dtype=bool) if masked else None
    got = _group_indices(gid, in_range)
    base = np.arange(len(gid)) if in_range is None else np.flatnonzero(in_range)
    expected: dict[int, list] = {}
    for i in base[np.argsort(gid[base], kind="stable")]:
        expected.setdefault(int(gid[i]), []).append(int(i))
    assert [(g, idx.tolist()) for g, idx in got.items()] == list(expected.items())


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
        res = run_join_shapes(cat, sql)
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
            res = run_join_shapes(cat, sql, executors=e, cores=c)
            assert res.rows == oracle.rows, (sql, e, c)


def test_string_join_keys_nul_and_empty_stripe_only(tmp_path):
    # only stripe files hold "" apart from NULL; "a" and "a\0" are two keys
    rng = random.Random(6)
    keys = ["a", "a\0", "", "\0", "a\0\0", "b", None]
    raw = {
        "a": [(rng.choice(keys), rng.randrange(100)) for _ in range(300)],
        "b": [(rng.choice(keys), rng.choice([0.5, 1.5, None])) for _ in range(40)],
    }
    cat = Catalog(tmp_path / "root")
    for name, cols in (("a", [("k", ColumnType.STRING, True), ("v", ColumnType.INT64, True)]),
                       ("b", [("k", ColumnType.STRING, True), ("w", ColumnType.FLOAT64, True)])):
        schema = TableSchema.create(name, cols)
        cat.create_table(schema, StorageFormat.STRIPE)
        rows = raw[name]
        for pid, start in enumerate(range(0, len(rows), 120)):
            cat.register_partition(name, write_file(
                rows[start:start + 120], schema, tmp_path / f"{name}{pid}.stp",
                stripe_size=16, partition_id=pid))
    queries = [
        "SELECT COUNT(*), SUM(x.v), COUNT(DISTINCT y.w), COUNT(DISTINCT y.k) "
        "FROM a x JOIN b y ON x.k = y.k",
        "SELECT BUCKET(x.v, 0, 25, 50, 100) AS c, COUNT(DISTINCT x.k), COUNT(*) "
        "FROM a x JOIN b y ON x.k = y.k GROUP BY c",
        "SELECT COUNT(*) FROM a x JOIN b y ON x.k = y.k WHERE x.k = 'a'",
    ]
    for sql in queries:
        oracle = brute_force(compile_text(sql, cat), raw)
        for e, c in ((1, 1), (4, 3)):
            assert run_join_shapes(cat, sql, executors=e, cores=c).rows == oracle.rows, sql
    for sql, expected in (("SELECT COUNT(DISTINCT k) FROM a", 6),
                          ("SELECT COUNT(*) FROM a WHERE k = ''",
                           sum(k == "" for k, _ in raw["a"]))):
        oracle = brute_force(compile_text(sql, cat), raw)
        assert oracle.rows == [(expected,)]
        assert run(cat, sql)[0].rows == oracle.rows, sql


def test_distinct_budget_charges_sets_not_batches(tmp_path):
    # one row-text partition of 200 000 rows, 1 000 distinct keys, read as
    # 4 batches: the batches' sets overlap, and the task holds 1 000 values
    assert -(-200_000 // engine_mod.ENGINE_BATCH_ROWS) == 4
    text = "k\n" + "".join(f"{i % 1000}\n" for i in range(200_000))
    cat = load_tables(tmp_path, StorageFormat.ROWTEXT,
                      {"t": ([("k", ColumnType.INT64, False)], text)},
                      partitions=1, stripe_size=200_000)
    res, _ = run(cat, "SELECT COUNT(DISTINCT k) FROM t", mem_rows=2_000)
    assert res.rows == [(1000,)]
    with pytest.raises(MemoryBudgetExceeded, match="1000 rows exceeds budget 999"):
        run(cat, "SELECT COUNT(DISTINCT k) FROM t", mem_rows=999)


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
        res = run_join_shapes(cat, COMPLEX)
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
        # shuffled with a budget below the 10^4 build rows, a task needs more
        # reducers to keep its 29 groups' distinct sets inside that budget
        res = run_join_shapes(cat, sql, executors=4, cores=3)
        assert repr(res.rows) == repr(oracle.rows), fmt


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


def test_metadata_count_metrics_same_on_cache_hit(both_catalogs, footer_parses):
    cat = both_catalogs[StorageFormat.STRIPE]
    time.sleep(stripefile.RACY_NS / 1e9 + 0.02)  # the files are past the racy window
    sql = "SELECT COUNT(*) FROM lab_procedure"
    res1, miss = run(cat, sql)
    assert len(footer_parses) == len(cat.get_table("lab_procedure").partitions)
    res2, hit = run(cat, sql)
    assert len(footer_parses) == len(cat.get_table("lab_procedure").partitions)
    assert res1.rows == res2.rows
    a, b = miss.to_dict(), hit.to_dict()
    del a["response_time_s"], b["response_time_s"]
    assert a == b
    assert a["bytes_read"] > 0


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


SPILL_BUDGET = 60


def spill_tables(tmp_path):
    """Stripe tables ``a`` (1500 rows) and ``b`` (120 rows) whose INT64,
    DATE, FLOAT64 and STRING columns hold NULLs and edge values; joined on
    any of them at ``SPILL_BUDGET`` rows, the build side is shuffled and the
    probe buckets spill."""
    rng = random.Random(16)
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.5, -2.25, 1e300, None]
    days = [-719162, -1, 0, 17532, 2932896, None]  # 0001-01-01 .. 9999-12-31
    texts = ["", "é", "日本", "k\0", "plain", "K", None]
    ints = [-(2**63), 2**63 - 1, None] + list(range(20))

    def row():
        return (rng.choice(ints), rng.choice(days), rng.choice(floats), rng.choice(texts))

    raw = {"a": [row() for _ in range(1500)], "b": [row() for _ in range(120)]}
    cat = Catalog(tmp_path / "root")
    for name, cols in (("a", "kdxs"), ("b", "kewt")):
        schema = TableSchema.create(name, [
            (c, t, True) for c, t in zip(cols, (ColumnType.INT64, ColumnType.DATE,
                                                ColumnType.FLOAT64, ColumnType.STRING))])
        cat.create_table(schema, StorageFormat.STRIPE)
        rows = raw[name]
        for pid, start in enumerate(range(0, len(rows), 300)):
            cat.register_partition(name, write_file(
                rows[start:start + 300], schema, tmp_path / f"{name}{pid}.stp",
                stripe_size=50, partition_id=pid))
    return cat, raw


SPILL_KEYS = ["l.k = r.k", "l.d = r.e", "l.x = r.w", "l.s = r.t"]
SPILL_QUERIES = [
    "SELECT COUNT(*), COUNT(DISTINCT l.x), COUNT(DISTINCT l.s), COUNT(DISTINCT r.t), "
    "MIN(l.d), MAX(r.e), AVG(l.k), MIN(r.k) FROM a l JOIN b r ON {}",
    "SELECT BUCKET(l.x, -3, 0, 1, 2, 10) AS c, COUNT(*), SUM(l.x), AVG(r.w), "
    "COUNT(DISTINCT r.e), COUNT(DISTINCT l.s) FROM a l JOIN b r ON {} GROUP BY c",
]


def test_shuffle_spill_round_trips_every_type(tmp_path):
    cat, raw = spill_tables(tmp_path)
    small = ExecConfig(executors=4, cores_per_executor=3, executor_mem_rows=SPILL_BUDGET)
    for key in SPILL_KEYS:
        for template in SPILL_QUERIES:
            sql = template.format(key)
            q = compile_text(sql, cat)
            broadcast, _ = run(cat, sql)
            p = plan(q, cat, small)
            assert not any(isinstance(op, JoinOp) and op.broadcast
                           for stage in p.stages for op in stage), sql
            res, metrics = execute(p, small, cat.data_root)
            assert metrics.spill_events > 0, sql
            assert repr(res.rows) == repr(broadcast.rows) == repr(brute_force(q, raw).rows), sql
            assert not any((cat.data_root / "shuffle").iterdir())


def test_truncated_spill_file_is_typed_error(tmp_path, monkeypatch):
    cat, _ = spill_tables(tmp_path)
    stage = engine_mod._QueryState._stage_bucket

    def stage_then_truncate(self, *args):
        stage(self, *args)
        for path in self.spill_dir.glob("*"):
            path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])

    monkeypatch.setattr(engine_mod._QueryState, "_stage_bucket", stage_then_truncate)
    sql = SPILL_QUERIES[0].format(SPILL_KEYS[0])
    with pytest.raises(StripehouseError):
        run(cat, sql, executors=4, cores=3, mem_rows=SPILL_BUDGET)
    assert not any((cat.data_root / "shuffle").iterdir())


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
        if q.join_cols is not None:
            # broadcast and shuffled; 12 reducers keep a shuffled task's
            # distinct sets inside the smaller budget
            for cat in (cat_s, cat_r):
                assert run_join_shapes(cat, sql, executors=4, cores=3).rows == res.rows, sql
        checked += 1
    assert checked == 30


# --- exact SUM / AVG state ---

def test_exact_sum_equals_fsum():
    # random batches merged in shuffled order; exponents +-300, cancellation,
    # subnormals and signed zeros
    rng = np.random.default_rng(11)
    tiny = [5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310, 0.0, -0.0]
    for trial in range(400):
        n = int(rng.integers(1, 300))
        x = np.ldexp(rng.uniform(-1, 1, n), rng.integers(-300, 301, n))
        if trial % 3 == 0:
            x = np.concatenate([x, -x[: n // 2] * rng.choice([1.0, 1 + 2**-52], n // 2)])
        if trial % 4 == 0:
            x = np.concatenate([x, rng.choice(tiny, int(rng.integers(1, 20)))])
        if trial % 10 == 0:
            x = rng.choice(tiny, n)
        rng.shuffle(x)
        cuts = np.sort(rng.integers(0, len(x) + 1, int(rng.integers(0, 8))))
        states = [_ExactSum.of(part) for part in np.split(x, cuts)]
        rng.shuffle(states)
        total = states[0]
        for st in states[1:]:
            total = total + st
        exact = math.fsum(x.tolist())
        assert repr(total.value(False)) == repr(exact)
        assert repr(total.value(True)) == repr(exact / len(x))
        assert total.count == len(x)


@pytest.mark.parametrize("fmt", list(StorageFormat))
def test_randomized_float_sums_match_oracle(tmp_path, fmt):
    # NULL, NaN, +-inf, -0.0 and subnormals over partitions and 1-row stripes
    rng = random.Random(17)
    special = ["nan", "inf", "-inf", "-0.0", "0.0", "5e-324", "-2.5e-310", "1e308", ""]
    texts = []
    for i in range(160):
        if rng.random() < 0.12:
            text = rng.choice(special)
        else:
            text = repr(rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30))
        texts.append((i % 5, text))
    # groups 0 and 1 hold no NaN or infinity, so their sums are finite
    texts = [(g, t) for g, t in texts if g > 1 or t not in ("nan", "inf", "-inf", "1e308")]
    raw = {"t": [(g, None if t == "" else float(t)) for g, t in texts]}
    null = '""'
    cat = load_tables(tmp_path, fmt, {
        "t": ([("g", ColumnType.INT64, False), ("x", ColumnType.FLOAT64, True)],
              "g,x\n" + "".join(f"{g},{t or null}\n" for g, t in texts)),
    }, partitions=3, stripe_size=1)
    queries = [
        "SELECT SUM(x), AVG(x), COUNT(*) FROM t",
        "SELECT BUCKET(g, 0, 1, 2, 3, 4, 5) AS c, SUM(x), AVG(x) FROM t GROUP BY c",
        "SELECT SUM(x), AVG(x) FROM t WHERE g < 2",
        # repeated aggregates of one column share a partial state
        "SELECT AVG(x), SUM(x), COUNT(DISTINCT x), SUM(x), COUNT(DISTINCT x), MIN(x) FROM t",
    ]
    for sql in queries:
        oracle = brute_force(compile_text(sql, cat), raw)
        for e, c in ((1, 1), (4, 3)):
            res, _ = run(cat, sql, executors=e, cores=c)
            assert repr(res.rows) == repr(oracle.rows), (sql, e, c)


# --- the shared worker pool ---

def _engine_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("stripehouse-engine")]


def test_pool_threads_bounded_by_cores(both_catalogs, monkeypatch):
    cat = both_catalogs[StorageFormat.STRIPE]
    reference, _ = run(cat, COMPLEX, executors=1, cores=1)
    lock = threading.Lock()
    workers: set[int] = set()
    running = [0, 0]  # now, most at once
    scan = engine_mod._QueryState._scan_task

    def counted_scan(self, op, task_idx):
        with lock:
            workers.add(threading.get_ident())
            running[0] += 1
            running[1] = max(running)
        try:
            time.sleep(0.005)
            return scan(self, op, task_idx)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(engine_mod._QueryState, "_scan_task", counted_scan)
    cores = os.cpu_count() or 1
    for _ in range(3):  # 24 scan tasks without pruning
        res, _ = run(cat, COMPLEX, executors=8, cores=3, prune=False)
        assert res.rows == reference.rows
    assert len(workers) <= cores
    assert running[1] <= min(24, cores)
    assert len(_engine_threads()) <= cores


def test_serial_query_starts_no_pool_thread(both_catalogs, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a 1x1 query made the worker pool")

    monkeypatch.setattr(engine_mod, "_pool", None)
    monkeypatch.setattr(engine_mod, "ThreadPoolExecutor", no_pool)
    before = set(_engine_threads())
    for fmt, cat in both_catalogs.items():
        res, _ = run(cat, COMPLEX, executors=1, cores=1)
        assert res.rows == [(0, 683), (1, 705), (2, 889)], fmt
    assert engine_mod._pool is None
    assert set(_engine_threads()) <= before


def test_two_engines_at_once(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    sqls = [COMPLEX, "SELECT SUM(result_value), AVG(result_value) FROM lab_procedure"]
    expected = [run(cat, sql, executors=1, cores=1)[0].rows for sql in sqls]
    start = threading.Barrier(2)
    got: dict[int, list] = {}

    def client(i):
        eng = Engine(cat.data_root)
        q = compile_text(sqls[i], cat)
        cfg = ExecConfig(executors=8, cores_per_executor=3)
        start.wait()
        got[i] = [eng.execute(plan(q, cat, cfg), cfg)[0].rows for _ in range(5)]

    threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for i in range(2):
        assert got[i] == [expected[i]] * 5, sqls[i]


def test_run_tasks_runs_each_task_once_under_contention():
    # more lanes than cores, from several callers at once, with frequent
    # thread switches: every task runs exactly once
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [[0] * 2000 for _ in range(4)]

        def caller(c):
            def task(i):
                runs[c][i] += 1
            engine_mod._run_tasks([lambda i=i: task(i) for i in range(2000)], 8)

        threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert all(r == [1] * 2000 for r in runs)


def test_failed_query_leaves_no_running_task(both_catalogs, monkeypatch):
    # unpruned, only the first partial task's distinct set (the rows of LC00,
    # all in the first stripe) passes the 1 000-row budget; it fails soon,
    # while the other tasks take longer
    cat = both_catalogs[StorageFormat.STRIPE]
    sql = "SELECT COUNT(DISTINCT lab_id) FROM lab_procedure WHERE lab_code = 'LC00'"
    reference, _ = run(cat, sql, executors=1, cores=1)
    lock = threading.Lock()
    running = [0]
    ended: list[float] = []
    partial = engine_mod._QueryState._agg_partial_task

    def slow_partial(self, op, task_id):
        with lock:
            running[0] += 1
        try:
            time.sleep(0.05 if task_id else 0.01)
            return partial(self, op, task_id)
        finally:
            with lock:
                running[0] -= 1
                ended.append(time.perf_counter())

    monkeypatch.setattr(engine_mod._QueryState, "_agg_partial_task", slow_partial)
    q = compile_text(sql, cat)
    cfg = ExecConfig(executors=4, cores_per_executor=3, executor_mem_rows=1_000)
    p = plan(q, cat, cfg, prune=False)
    with pytest.raises(MemoryBudgetExceeded):
        Engine(cat.data_root).execute(p, cfg)
    raised = time.perf_counter()
    assert running[0] == 0
    assert ended and max(ended) <= raised
    n_tasks = len(ended)
    time.sleep(0.1)
    assert len(ended) == n_tasks  # no task of the failed query started later
    # the tasks not started when the first one failed were skipped
    assert n_tasks <= min(cfg.slots, os.cpu_count() or 1) < len(p.stages[0][0].tasks)
    res, _ = run(cat, sql, executors=4, cores=3, prune=False)
    assert res.rows == reference.rows
    assert reference.rows[0][0] > 1_000
