import math
import os
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from stripehouse import stripefile
from stripehouse.errors import BadMagic, CorruptFooter, IoFailure, TypeMismatch
from stripehouse.predicate import Conjunct
from stripehouse.schema import ColumnType, TableSchema
from stripehouse.stripefile import cached_footer, dump_footer, prune_stripes, read_footer

from oracle import row_passes
from rows import scan_file, write_file

SCHEMA = TableSchema.create("t", [
    ("a", ColumnType.INT64, True),
    ("b", ColumnType.STRING, True),
    ("c", ColumnType.FLOAT64, True),
    ("d", ColumnType.DATE, True),
])


def rows_equal(got, expected):
    if len(got) != len(expected):
        return False
    for g, e in zip(got, expected):
        for gv, ev in zip(g, e):
            if isinstance(ev, float) and math.isnan(ev):
                if not (isinstance(gv, float) and math.isnan(gv)):
                    return False
            elif gv != ev:
                return False
    return True


def make_rows(n, seed=0, with_nan=False):
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append((
            rng.randrange(-500, 500) if rng.random() > 0.1 else None,
            rng.choice(["alpha", "beta", "gamma", "delta"]) if rng.random() > 0.1 else None,
            (float("nan") if with_nan and rng.random() < 0.02
             else rng.uniform(0, 200)) if rng.random() > 0.1 else None,
            rng.randrange(10_000, 18_000) if rng.random() > 0.1 else None,
        ))
    return rows


def test_stripe_ceiling_arithmetic(tmp_path):
    rows = [(i, "x", 1.0, 0) for i in range(25_000)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=10_000)
    footer = read_footer(tmp_path / "p.stp")
    assert [s.row_count for s in footer.stripes] == [10_000, 10_000, 5_000]
    assert footer.row_count == 25_000


def test_all_null_column_stats(tmp_path):
    rows = [(None, "x", 1.0, 0) for _ in range(100)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=50)
    footer = read_footer(tmp_path / "p.stp")
    for s in footer.stripes:
        st0 = s.columns[0]
        assert st0.null_count == s.row_count
        assert st0.min is None and st0.max is None


def test_stats_match_brute_force(tmp_path):
    rows = make_rows(5_000, seed=3, with_nan=True)
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=1_000)
    footer = read_footer(tmp_path / "p.stp")
    start = 0
    for s in footer.stripes:
        chunk = rows[start:start + s.row_count]
        start += s.row_count
        for ci in range(4):
            vals = [r[ci] for r in chunk]
            non_null = [v for v in vals if v is not None]
            st_col = s.columns[ci]
            assert st_col.null_count == len(vals) - len(non_null)
            if ci == 2:
                finite = [v for v in non_null if not math.isnan(v)]
                assert st_col.has_nan == any(math.isnan(v) for v in non_null)
            else:
                finite = non_null
            if finite:
                assert st_col.min == min(finite)
                assert st_col.max == max(finite)
            else:
                assert st_col.min is None


def test_footer_read_is_small(tmp_path):
    rows = [(i, "value", float(i), 10) for i in range(25_000)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=10_000)
    footer = read_footer(tmp_path / "p.stp")
    file_size = os.path.getsize(tmp_path / "p.stp")
    assert footer.bytes_read < 0.01 * file_size
    assert footer.row_count == 25_000


def test_truncated_file_bad_magic(tmp_path):
    rows = [(i, "x", 1.0, 0) for i in range(1000)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=100)
    data = (tmp_path / "p.stp").read_bytes()
    (tmp_path / "cut.stp").write_bytes(data[:-7])
    with pytest.raises(BadMagic):
        read_footer(tmp_path / "cut.stp")
    (tmp_path / "junk.stp").write_bytes(b"JUNKJUNKJUNKJUNK")
    with pytest.raises(BadMagic):
        read_footer(tmp_path / "junk.stp")


def test_corrupt_footer_detected(tmp_path):
    rows = [(i, "x", 1.0, 0) for i in range(100)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=50)
    data = bytearray((tmp_path / "p.stp").read_bytes())
    # corrupt the first stripe's declared offset inside the footer JSON
    footer_len = int.from_bytes(data[-8:-4], "little")
    footer = bytes(data[-8 - footer_len:-8]).decode()
    bad = footer.replace('"offset":4,"rows"', '"offset":400,"rows"', 1)
    assert bad != footer
    blob = bad.encode()
    new = data[: -8 - footer_len] + blob + len(blob).to_bytes(4, "little") + b"STRP"
    (tmp_path / "bad.stp").write_bytes(bytes(new))
    with pytest.raises(CorruptFooter):
        read_footer(tmp_path / "bad.stp")


def test_empty_table_footer(tmp_path):
    write_file([], SCHEMA, tmp_path / "p.stp")
    footer = read_footer(tmp_path / "p.stp")
    assert footer.stripes == ()
    assert footer.row_count == 0
    assert scan_file(tmp_path / "p.stp", SCHEMA)[0] == []


def test_round_trip_preserves_rows(tmp_path):
    rows = make_rows(3_333, seed=11, with_nan=True)
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=500)
    got = scan_file(tmp_path / "p.stp", SCHEMA)[0]
    assert rows_equal(got, rows)


@pytest.mark.parametrize("columns", [
    [("a", ColumnType.INT64, True), ("b", ColumnType.STRING, True),
     ("c", ColumnType.INT64, True), ("d", ColumnType.DATE, True)],
    [("a", ColumnType.INT64, True), ("b", ColumnType.STRING, True),
     ("c", ColumnType.FLOAT64, True)],
])
def test_scan_rejects_other_column_types(tmp_path, columns):
    write_file(make_rows(10, seed=1), SCHEMA, tmp_path / "p.stp")
    with pytest.raises(TypeMismatch):
        scan_file(tmp_path / "p.stp", TableSchema.create("t", columns))


def test_byte_deterministic(tmp_path):
    rows = make_rows(2_000, seed=5)
    write_file(rows, SCHEMA, tmp_path / "a.stp", stripe_size=300)
    write_file(rows, SCHEMA, tmp_path / "b.stp", stripe_size=300)
    assert (tmp_path / "a.stp").read_bytes() == (tmp_path / "b.stp").read_bytes()


def test_prune_interval_logic(tmp_path):
    # every stripe max(v) <= 200 -> v > 300 prunes everything
    rows = [(i, "x", float(i % 200), 0) for i in range(5_000)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=1_000)
    got, op, stats = scan_file(tmp_path / "p.stp", SCHEMA, predicate=[Conjunct(2, ">", 300.0)])
    assert got == []
    assert op.stripes_pruned == op.stripes_total == 5
    assert stats.rows_read == 0


def test_contradictory_conjuncts_prune_all(tmp_path):
    rows = [(i, "x", float(i), 0) for i in range(3_000)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=1_000)
    footer = read_footer(tmp_path / "p.stp")
    mask = prune_stripes(footer, [Conjunct(0, ">", 10), Conjunct(0, "<", 5)])
    assert mask == [False, False, False]


def _stats(lo=None, hi=None, nulls=0, **flags):
    return stripefile.ColumnStats(0, 0, nulls, lo, hi, **flags)


A_GT5, A_GE5, A_LE5 = Conjunct(0, ">", 5), Conjunct(0, ">=", 5), Conjunct(0, "<=", 5)
LONG = "x" * stripefile.STR_BOUND_BYTES


@pytest.mark.parametrize("col,pred,stripes,want", [
    # of two bounds at one value the open one holds, in either order
    (0, [A_GT5, A_GE5], [_stats(5, 5), _stats(5, 6), _stats(4, 4)], [False, True, False]),
    (0, [A_GE5, A_GT5], [_stats(5, 5), _stats(5, 6), _stats(4, 4)], [False, True, False]),
    (0, [A_GE5, A_LE5], [_stats(5, 5), _stats(6, 7), _stats(3, 4)], [True, False, False]),
    # contradictions prune every stripe
    (0, [A_GT5, A_LE5], [_stats(5, 5), _stats(0, 10)], [False, False]),
    (0, [Conjunct(0, "=", 5), Conjunct(0, "=", 6)], [_stats(5, 6), _stats(0, 10)],
     [False, False]),
    (0, [Conjunct(0, "<", 5)], [_stats(5, 9), _stats(4, 9)], [False, True]),
    (0, [Conjunct(0, "<=", 5)], [_stats(5, 9), _stats(6, 9)], [True, False]),
    # != prunes a single-valued stripe whose bounds are exact
    (0, [Conjunct(0, "!=", 5)], [_stats(5, 5), _stats(5, 6)], [False, True]),
    (1, [Conjunct(1, "!=", "x")], [_stats("x", "x"), _stats("x", "y")], [False, True]),
    (1, [Conjunct(1, "!=", LONG)],
     [_stats(LONG, LONG), _stats(LONG, LONG, min_truncated=True),
      _stats(LONG, LONG, max_truncated=True)],
     [False, True, True]),
    # a NaN column is not tested; an all-NULL column prunes
    (2, [Conjunct(2, ">", 10.0)], [_stats(1.0, 2.0, has_nan=True), _stats(1.0, 2.0)],
     [True, False]),
    (2, [Conjunct(2, "!=", 5.0)], [_stats(5.0, 5.0, has_nan=True), _stats(5.0, 5.0)],
     [True, False]),
    (0, [Conjunct(0, "!=", 5)], [_stats(nulls=10), _stats(1, 1, nulls=9)], [False, True]),
    (1, [Conjunct(1, ">=", "a")], [_stats(nulls=10), _stats("b", "c", nulls=9)],
     [False, True]),
])
def test_prune_decision_table(col, pred, stripes, want):
    blank = _stats()
    footer = stripefile.StripeFooter(SCHEMA, 10 * len(stripes), tuple(
        stripefile.StripeInfo(0, 0, 10, tuple(st if i == col else blank for i in range(4)))
        for st in stripes), 0)
    assert prune_stripes(footer, pred) == want


def test_prune_on_off_equivalence_randomized(tmp_path):
    rng = random.Random(99)
    rows = sorted(make_rows(8_000, seed=21, with_nan=True),
                  key=lambda r: (r[0] is not None, r[0] or 0))
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=500)
    ops = ["=", "!=", "<", "<=", ">", ">="]
    for trial in range(40):
        col = rng.randrange(4)
        if col == 1:
            pred = [Conjunct(1, rng.choice(["=", "!="]),
                             rng.choice(["alpha", "beta", "zeta"]))]
        elif col == 2:
            pred = [Conjunct(2, rng.choice(ops), rng.uniform(-10, 210))]
        else:
            pred = [Conjunct(col, rng.choice(ops), rng.randrange(-600, 600))]
        if rng.random() < 0.4:
            pred.append(Conjunct(0, rng.choice(ops), rng.randrange(-600, 600)))
        on = scan_file(tmp_path / "p.stp", SCHEMA, predicate=pred, prune=True)[0]
        off = scan_file(tmp_path / "p.stp", SCHEMA, predicate=pred, prune=False)[0]
        assert rows_equal(on, off), pred
        expected = [r for r in rows if row_passes(pred, r)]
        assert rows_equal(on, expected), pred


def test_pruning_soundness_every_matching_row_retained(tmp_path):
    rows = sorted(make_rows(4_000, seed=8), key=lambda r: (r[3] is not None, r[3] or 0))
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=250)
    pred = [Conjunct(3, ">=", 14_000), Conjunct(3, "<", 15_000)]
    got, op, _ = scan_file(tmp_path / "p.stp", SCHEMA, predicate=pred)
    expected = [r for r in rows if row_passes(pred, r)]
    assert rows_equal(got, expected)
    assert op.stripes_pruned > 0  # clustered data actually prunes


def test_projection_reads_fraction_of_bytes(tmp_path):
    schema6 = TableSchema.create("w", [(f"c{i}", ColumnType.INT64, False) for i in range(6)])
    rows = [tuple(i * 6 + j for j in range(6)) for i in range(20_000)]
    write_file(rows, schema6, tmp_path / "w.stp", stripe_size=5_000)
    _, _, full = scan_file(tmp_path / "w.stp", schema6)
    got, _, one = scan_file(tmp_path / "w.stp", schema6, projection=[2])
    assert got == [(r[2],) for r in rows]
    assert one.bytes_read < full.bytes_read / 3


def test_metadata_count_equals_brute_force(tmp_path):
    rows = make_rows(7_777, seed=2)
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=900)
    footer = read_footer(tmp_path / "p.stp")
    assert sum(s.row_count for s in footer.stripes) == len(rows)


def test_string_bound_truncation_sound(tmp_path):
    long_lo = "a" * 100
    long_hi = "z" * 100
    rows = [(1, long_lo, 1.0, 0), (2, long_hi, 1.0, 0)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=10)
    footer = read_footer(tmp_path / "p.stp")
    st_col = footer.stripes[0].columns[1]
    assert st_col.min == "a" * 32 and st_col.min_truncated
    assert st_col.max == "z" * 32 and st_col.max_truncated
    # a literal above the truncated max must NOT prune (max acts as +inf)
    mask = prune_stripes(footer, [Conjunct(1, "=", "z" * 100)])
    assert mask == [True]
    got = scan_file(tmp_path / "p.stp", SCHEMA,
                    predicate=[Conjunct(1, "=", long_hi)])[0]
    assert got == [(2, long_hi, 1.0, 0)]
    # below the (exact-prefix) min still prunes
    mask = prune_stripes(footer, [Conjunct(1, "=", "a" * 10)])
    assert mask == [False]


def test_nan_never_pruned(tmp_path):
    rows = [(1, "x", float("nan"), 0), (2, "x", 5.0, 0)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=10)
    # NaN satisfies != ; pruning must keep the stripe even though min==max==5
    got = scan_file(tmp_path / "p.stp", SCHEMA,
                    predicate=[Conjunct(2, "!=", 5.0)])[0]
    assert len(got) == 1 and math.isnan(got[0][2])


def test_inspect_dump_contains_stats(tmp_path):
    rows = [(i, "x", float(i), 0) for i in range(100)]
    write_file(rows, SCHEMA, tmp_path / "p.stp", stripe_size=50)
    text = dump_footer(tmp_path / "p.stp")
    assert "stripes: 2" in text
    assert "min=0" in text and "max=49" in text


# --- property tests ---

_val = st.one_of(
    st.none(),
    st.integers(min_value=-(2**62), max_value=2**62),
)
_str_val = st.one_of(st.none(), st.text(min_size=0, max_size=40))
_float_val = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)
_date_val = st.one_of(st.none(), st.integers(min_value=-100_000, max_value=100_000))

_row = st.tuples(_val, _str_val, _float_val, _date_val)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_row, min_size=0, max_size=300),
       stripe_size=st.integers(min_value=1, max_value=97))
def test_property_round_trip(tmp_path_factory, rows, stripe_size):
    path = tmp_path_factory.mktemp("prop") / "p.stp"
    write_file(rows, SCHEMA, path, stripe_size=stripe_size)
    footer = read_footer(path)
    expected_stripes = -(-len(rows) // stripe_size) if rows else 0
    assert len(footer.stripes) == expected_stripes
    got = scan_file(path, SCHEMA)[0]
    assert rows_equal(got, rows)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=200),
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    lit=st.integers(min_value=-60, max_value=60),
    stripe_size=st.integers(min_value=1, max_value=50),
)
def test_property_prune_soundness(tmp_path_factory, keys, op, lit, stripe_size):
    rows = [(k, "s", float(k), k) for k in sorted(keys)]
    path = tmp_path_factory.mktemp("prop2") / "p.stp"
    write_file(rows, SCHEMA, path, stripe_size=stripe_size)
    pred = [Conjunct(0, op, lit)]
    got = scan_file(path, SCHEMA, predicate=pred, prune=True)[0]
    expected = [r for r in rows if row_passes(pred, r)]
    assert rows_equal(got, expected)


# --- footer cache ---

def settle():
    """Wait until files written so far are older than the racy window."""
    time.sleep(stripefile.RACY_NS / 1e9 + 0.02)


def write_const(path, value, n=100):
    """A stripe file whose INT64 column holds ``value`` in every row."""
    write_file([(value, "x", 1.0, 0)] * n, SCHEMA, path, stripe_size=50)


def min_a(footer):
    return footer.stripes[0].columns[0].min


def test_footer_cache_hit_parses_nothing(tmp_path, footer_parses):
    write_const(tmp_path / "p.stp", 1)
    settle()
    first = cached_footer(tmp_path / "p.stp")
    assert cached_footer(str(tmp_path / "p.stp")) is first
    assert len(footer_parses) == 1
    assert first == read_footer(tmp_path / "p.stp")


def test_footer_cache_same_size_rewrite_seen_by_ctime(tmp_path, footer_parses):
    path = tmp_path / "p.stp"
    write_const(path, 1)
    write_const(tmp_path / "q.stp", 2)
    settle()
    assert min_a(cached_footer(path)) == 1
    before = os.stat(path)
    # rewrite in place, same size, old mtime restored: only ctime differs
    with open(path, "r+b") as f:
        f.write((tmp_path / "q.stp").read_bytes())
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino, before.st_size, before.st_mtime_ns)
    settle()
    assert min_a(cached_footer(path)) == 2
    assert len(footer_parses) == 2


def test_footer_cache_size_change_and_replace_seen(tmp_path, footer_parses):
    path = tmp_path / "p.stp"
    write_const(path, 1)
    settle()
    assert min_a(cached_footer(path)) == 1
    write_const(path, 3, n=150)  # same inode, another size
    settle()
    assert cached_footer(path).row_count == 150
    write_const(tmp_path / "other.stp", 4)
    settle()
    os.replace(tmp_path / "other.stp", path)  # another inode
    assert min_a(cached_footer(path)) == 4
    assert len(footer_parses) == 3


def test_footer_cache_deleted_file_raises(tmp_path, footer_parses):
    path = tmp_path / "p.stp"
    write_const(path, 1)
    settle()
    cached_footer(path)
    path.unlink()
    for _ in range(2):
        with pytest.raises(IoFailure):
            cached_footer(path)


def test_footer_cache_never_caches_errors(tmp_path, footer_parses):
    path = tmp_path / "p.stp"
    write_const(path, 1)
    good = path.read_bytes()
    settle()
    cached_footer(path)
    path.write_bytes(good[:-7])  # truncated
    settle()
    for _ in range(3):
        with pytest.raises(BadMagic):
            cached_footer(path)
    footer_len = int.from_bytes(good[-8:-4], "little")
    blob = good[-8 - footer_len:-8].replace(b'"rows":100', b'"rows":99', 1)
    assert len(blob) == footer_len - 1
    path.write_bytes(good[:-8 - footer_len] + blob + len(blob).to_bytes(4, "little") + b"STRP")
    settle()
    for _ in range(3):
        with pytest.raises(CorruptFooter):
            cached_footer(path)
    assert len(footer_parses) == 7
    path.write_bytes(good)
    settle()
    assert min_a(cached_footer(path)) == 1
    assert len(footer_parses) == 8


def test_footer_cache_skips_racy_files(tmp_path, footer_parses, monkeypatch):
    # a file changed within the racy window may change again unseen, so it
    # is parsed on every call until it is older
    monkeypatch.setattr(stripefile, "RACY_NS", 3600 * 10**9)
    write_const(tmp_path / "p.stp", 1)
    cached_footer(tmp_path / "p.stp")
    cached_footer(tmp_path / "p.stp")
    assert len(footer_parses) == 2


def test_footer_cache_evicts_least_recently_used(tmp_path, footer_parses, monkeypatch):
    paths = [tmp_path / f"{name}.stp" for name in "abc"]
    for p in paths:
        write_const(p, 1)
    size = read_footer(paths[0]).bytes_read
    monkeypatch.setattr(stripefile, "FOOTER_CACHE_BYTES", 2 * size)
    settle()
    a, b, c = paths
    cached_footer(a)
    cached_footer(b)
    cached_footer(a)  # b is now the least recently used
    cached_footer(c)
    assert footer_parses == [str(a), str(b), str(c)]
    cached_footer(a)
    cached_footer(c)
    assert len(footer_parses) == 3
    cached_footer(b)
    assert footer_parses[3:] == [str(b)]
    assert stripefile._footer_cache_bytes == 2 * size
    assert list(stripefile._footer_cache) == [str(c), str(b)]


def test_footer_cache_cold_threads_agree(tmp_path, footer_parses):
    paths = [tmp_path / f"p{i}.stp" for i in range(4)]
    for i, p in enumerate(paths):
        write_const(p, i)
    settle()
    start = threading.Barrier(2)
    got = [None, None]

    def worker(k):
        start.wait()
        got[k] = [cached_footer(p) for p in paths]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert got[0] == got[1] == [read_footer(p) for p in paths]
    assert [min_a(f) for f in got[0]] == [0, 1, 2, 3]
    assert stripefile._footer_cache_bytes == sum(f.bytes_read for f in got[0])


def test_footer_cache_consistent_under_contention(tmp_path, footer_parses, monkeypatch):
    # 8 threads over 6 files and room for 3 footers: every call evicts or
    # hits, and a lost update would leave the byte count off its entries
    paths = [tmp_path / f"p{i}.stp" for i in range(6)]
    for i, p in enumerate(paths):
        write_const(p, i)
    expected = [read_footer(p) for p in paths]
    monkeypatch.setattr(stripefile, "FOOTER_CACHE_BYTES", 3 * expected[0].bytes_read)
    settle()
    wrong = []

    def worker(k):
        rng = random.Random(k)
        for _ in range(3000):
            i = rng.randrange(len(paths))
            if cached_footer(paths[i]) != expected[i]:
                wrong.append(i)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    entries = list(stripefile._footer_cache.values())
    assert len(entries) == 3
    assert stripefile._footer_cache_bytes == sum(f.bytes_read for _, f in entries)
