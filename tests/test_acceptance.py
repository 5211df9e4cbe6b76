"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy fixtures build the full size ladder (10^5 .. 10^7 lab rows) once
and are shared by the first three criteria. Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
import math
import os
import random
import statistics
import time

import pytest

from stripehouse.bench import (
    COMPLEX_QUERY,
    SIMPLE_QUERY,
    BenchPlan,
    prepare_size,
    run_bench,
    run_cell,
    spec_for_size,
)
from stripehouse.engine import Engine, execute
from stripehouse.planner import ExecConfig, ScanOp, estimate_cost, plan
from stripehouse.predicate import Conjunct
from stripehouse.schema import Catalog, ColumnType, StorageFormat, TableSchema
from stripehouse.service import (
    ALLOWED,
    DENIED,
    AccessRule,
    Client,
    ServiceConfig,
    StripehouseServer,
    authorize,
    encode_frame,
)
from stripehouse.sql import compile_text
from stripehouse.stripefile import STR_BOUND_BYTES, prune_stripes, read_footer

from oracle import brute_force, row_passes
from query_gen import random_query
from rows import scan_file, write_file

LADDER_SIZES = (100_000, 300_000, 1_000_000, 3_000_000, 10_000_000)
SWEEP_E = (1, 2, 4, 8, 16, 32)


def report(num: int, detail: str) -> None:
    print(f"\n[acceptance] criterion {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    """Build the full ladder, run the scenario-one cells, keep every size."""
    data_dir = tmp_path_factory.mktemp("ladder")
    bench = BenchPlan(scenario="simple", sizes=LADDER_SIZES, repeats=3, seed=42)
    cfg = ExecConfig(executors=8, cores_per_executor=3)
    cells = {}
    catalogs_by_size = {}
    t0 = time.perf_counter()
    for size in LADDER_SIZES:
        catalogs = prepare_size(data_dir, size, bench)
        catalogs_by_size[size] = catalogs
        for fmt, cat in catalogs.items():
            med, metrics, result = run_cell(cat, SIMPLE_QUERY, cfg, bench.repeats)
            assert result.rows == [(size,)]
            cells[(size, fmt)] = (med, metrics)
    elapsed = time.perf_counter() - t0
    return {
        "cells": cells,
        "elapsed_s": elapsed,
        "catalogs_by_size": catalogs_by_size,
        "data_dir": data_dir,
    }


def test_criterion_1_format_trend(ladder):
    big = LADDER_SIZES[-1]
    stripe_t, stripe_m = ladder["cells"][(big, StorageFormat.STRIPE)]
    rowtext_t, rowtext_m = ladder["cells"][(big, StorageFormat.ROWTEXT)]
    assert stripe_t <= 0.2 * rowtext_t, (stripe_t, rowtext_t)
    assert stripe_m.bytes_read <= 0.01 * rowtext_m.bytes_read
    assert ladder["elapsed_s"] < 15 * 60
    report(1, (
        f"at 1e7 rows stripe={stripe_t:.3f}s rowtext={rowtext_t:.3f}s "
        f"(ratio {stripe_t / rowtext_t:.4f} <= 0.2), bytes ratio "
        f"{stripe_m.bytes_read / rowtext_m.bytes_read:.6f} <= 0.01, "
        f"ladder took {ladder['elapsed_s']:.0f}s < 900s"
    ))


def test_criterion_2_complex_trend(ladder):
    big = LADDER_SIZES[-1]
    catalogs = ladder["catalogs_by_size"][big]
    cfg = ExecConfig(executors=8, cores_per_executor=3)
    times = {}
    rows = {}
    for fmt, cat in catalogs.items():
        med, metrics, result = run_cell(cat, COMPLEX_QUERY, cfg, 3)
        times[fmt] = med
        rows[fmt] = result.rows
    assert rows[StorageFormat.STRIPE] == rows[StorageFormat.ROWTEXT]
    ratio = times[StorageFormat.STRIPE] / times[StorageFormat.ROWTEXT]
    assert ratio <= 0.8, times

    cat = catalogs[StorageFormat.STRIPE]
    p = plan(compile_text(COMPLEX_QUERY, cat), cat, cfg)
    lab_scan = next(op for op in p.ops()
                    if isinstance(op, ScanOp) and op.table == "lab_procedure")
    frac = lab_scan.stripes_pruned / lab_scan.stripes_total
    assert frac >= 0.5, frac
    report(2, (
        f"stripe={times[StorageFormat.STRIPE]:.3f}s "
        f"rowtext={times[StorageFormat.ROWTEXT]:.3f}s (ratio {ratio:.3f} <= 0.8), "
        f"lab stripes pruned {lab_scan.stripes_pruned}/{lab_scan.stripes_total} "
        f"= {frac:.2f} >= 0.5"
    ))


def test_criterion_3a_cost_argmin_interior(ladder):
    # cost model sweep at one core per executor isolates the E trade-off;
    # the unpruned plan carries the full 10^7-row scan work
    big = LADDER_SIZES[-1]
    cat = ladder["catalogs_by_size"][big][StorageFormat.STRIPE]
    query = compile_text(COMPLEX_QUERY, cat)
    totals = {}
    for e in SWEEP_E:
        cfg = ExecConfig(executors=e, cores_per_executor=1)
        p = plan(query, cat, cfg, prune=False)
        totals[e] = estimate_cost(p, cfg).total
    best = min(totals, key=totals.get)
    assert best not in (SWEEP_E[0], SWEEP_E[-1]), totals
    # deterministic and exact: a second evaluation is bit-identical
    cfg = ExecConfig(executors=best, cores_per_executor=1)
    again = estimate_cost(plan(query, cat, cfg, prune=False), cfg).total
    assert again == totals[best]
    report(3, (
        "(a) cost argmin interior: "
        + " ".join(f"E={e}:{totals[e]:.1f}" for e in SWEEP_E)
        + f" -> argmin E={best}"
    ))


def _median_time(cat, sql, executors, cores=3, repeats=3):
    cfg = ExecConfig(executors=executors, cores_per_executor=cores)
    med, _, _ = run_cell(cat, sql, cfg, repeats)
    return med


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="wall-clock speedup clause applies on >=4-core machines")
def test_criterion_3b_wall_clock_speedup(ladder):
    big = LADDER_SIZES[-1]
    cat = ladder["catalogs_by_size"][big][StorageFormat.STRIPE]
    wins = 0
    ratios = []
    for _ in range(3):
        t1 = _median_time(cat, COMPLEX_QUERY, executors=1)
        t4 = _median_time(cat, COMPLEX_QUERY, executors=4)
        ratios.append(t4 / t1)
        if t4 <= 0.7 * t1:
            wins += 1
    assert wins >= 2, ratios
    report(3, f"(b) speedup: E=4/E=1 ratios {['%.2f' % r for r in ratios]}, "
              f"{wins}/3 attempts <= 0.7")


def test_criterion_3b_small_data_no_improvement(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("small")
    bench = BenchPlan(scenario="simple", sizes=(10_000,), seed=42, stripe_size=1_000)
    cat = prepare_size(data_dir, 10_000, bench,
                       formats=(StorageFormat.STRIPE,))[StorageFormat.STRIPE]
    wins = 0
    ratios = []
    for _ in range(3):
        t1 = _median_time(cat, COMPLEX_QUERY, executors=1)
        t8 = _median_time(cat, COMPLEX_QUERY, executors=8)
        ratios.append(t8 / t1)
        if t8 >= 0.8 * t1:
            wins += 1
    assert wins >= 2, ratios
    report(3, f"(b) small data: E=8/E=1 ratios {['%.2f' % r for r in ratios]}, "
              f"{wins}/3 attempts >= 0.8 (no improvement)")


def _results_match(engine_rows, oracle_rows, types):
    if len(engine_rows) != len(oracle_rows):
        return False
    for re_, ro in zip(engine_rows, oracle_rows):
        for ve, vo, t in zip(re_, ro, types):
            if isinstance(ve, float) and isinstance(vo, float):
                if math.isnan(ve) or math.isnan(vo):
                    if not (math.isnan(ve) and math.isnan(vo)):
                        return False
                elif vo == 0:
                    if ve != 0:
                        return False
                elif abs(ve - vo) > 1e-9 * abs(vo):
                    return False
            elif ve != vo:
                return False
    return True


def test_criterion_4_oracle_equivalence(seed_data, both_catalogs):
    t0 = time.perf_counter()
    rng = random.Random(424242)
    cat_s = both_catalogs[StorageFormat.STRIPE]
    cat_r = both_catalogs[StorageFormat.ROWTEXT]
    matrix_checked = 0
    for i in range(200):
        sql = random_query(rng)
        query = compile_text(sql, cat_s)
        oracle = brute_force(query, seed_data["raw"])
        cfg = ExecConfig(executors=2, cores_per_executor=2)
        p = plan(query, cat_s, cfg)
        result, _ = execute(p, cfg, cat_s.data_root)
        assert _results_match(result.rows, oracle.rows, result.types), sql
        if i % 8 == 0:
            reference = result.rows
            for fmt_cat in (cat_s, cat_r):
                q2 = compile_text(sql, fmt_cat)
                for e in (1, 2, 4, 8):
                    for prune in (True, False):
                        cfg2 = ExecConfig(executors=e, cores_per_executor=2)
                        p2 = plan(q2, fmt_cat, cfg2, prune=prune)
                        r2, _ = execute(p2, cfg2, fmt_cat.data_root)
                        assert r2.rows == reference, (sql, e, prune)
            matrix_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, elapsed
    report(4, (
        f"200 randomized queries == oracle; {matrix_checked} of them "
        f"bit-identical across E in (1,2,4,8) x prune on/off x both formats; "
        f"{elapsed:.0f}s < 300s"
    ))


ACC_SCHEMA = TableSchema.create("prop", [
    ("k", ColumnType.INT64, True),
    ("s", ColumnType.STRING, True),
    ("v", ColumnType.FLOAT64, True),
    ("d", ColumnType.DATE, True),
])


def _random_rows(rng, n):
    rows = []
    words = ["a", "bb", "ccc", "Ω≈ç", "zz", "m" * 40, "n" * 33 + "tail", ""]
    for _ in range(n):
        rows.append((
            rng.randrange(-100, 100) if rng.random() > 0.15 else None,
            rng.choice(words) if rng.random() > 0.15 else None,
            (float("nan") if rng.random() < 0.05 else rng.uniform(-50, 250))
            if rng.random() > 0.15 else None,
            rng.randrange(0, 20_000) if rng.random() > 0.15 else None,
        ))
    if rng.random() < 0.5:  # clustered files actually exercise pruning
        rows.sort(key=lambda r: (r[0] is not None, r[0] if r[0] is not None else 0))
    return rows


def _recompute_stats(rows, col, ctype):
    vals = [r[col] for r in rows]
    non_null = [v for v in vals if v is not None]
    nulls = len(vals) - len(non_null)
    has_nan = False
    if ctype is ColumnType.FLOAT64:
        has_nan = any(math.isnan(v) for v in non_null)
        non_null = [v for v in non_null if not math.isnan(v)]
    if not non_null:
        return nulls, None, None, False, False, has_nan
    mn, mx = min(non_null), max(non_null)
    mn_t = mx_t = False
    if ctype is ColumnType.STRING:
        def trunc(s):
            b = s.encode("utf-8")
            if len(b) <= STR_BOUND_BYTES:
                return s, False
            return b[:STR_BOUND_BYTES].decode("utf-8", "ignore"), True
        mn, mn_t = trunc(mn)
        mx, mx_t = trunc(mx)
    return nulls, mn, mx, mn_t, mx_t, has_nan


def test_criterion_5_storage_conformance(tmp_path):
    rng = random.Random(5150)
    path = tmp_path / "prop.stp"
    types = [c.ctype for c in ACC_SCHEMA.columns]
    n_files = 1000
    for trial in range(n_files):
        n = rng.randrange(0, 800) if trial % 50 else rng.randrange(5_000, 10_001)
        rows = _random_rows(rng, n)
        stripe_size = rng.randrange(1, 400)
        write_file(rows, ACC_SCHEMA, path, stripe_size=stripe_size)

        footer = read_footer(path)
        assert footer.row_count == n
        assert len(footer.stripes) == (-(-n // stripe_size) if n else 0)

        # footer stats equal brute-force recomputation
        start = 0
        for s in footer.stripes:
            chunk = rows[start:start + s.row_count]
            start += s.row_count
            for ci, ctype in enumerate(types):
                nulls, mn, mx, mn_t, mx_t, has_nan = _recompute_stats(chunk, ci, ctype)
                st = s.columns[ci]
                assert st.null_count == nulls
                assert st.min == mn and st.max == mx
                assert st.min_truncated == mn_t and st.max_truncated == mx_t
                assert st.has_nan == has_nan

        # round trip
        got = scan_file(path, ACC_SCHEMA)[0]
        assert len(got) == n
        for g, e in zip(got, rows):
            for gv, ev in zip(g, e):
                if isinstance(ev, float) and math.isnan(ev):
                    assert isinstance(gv, float) and math.isnan(gv)
                else:
                    assert gv == ev

        # pruning soundness on a random predicate
        col = rng.randrange(4)
        if col == 1:
            pred = [Conjunct(1, rng.choice(["=", "!="]),
                             rng.choice(["a", "bb", "m" * 40, "zz", "xx"]))]
        elif col == 2:
            pred = [Conjunct(2, rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                             rng.uniform(-60, 260))]
        else:
            pred = [Conjunct(col, rng.choice(["=", "!=", "<", "<=", ">", ">="]),
                             rng.randrange(-120, 21_000))]
        got = scan_file(path, ACC_SCHEMA, predicate=pred)[0]
        expected = [r for r in rows if row_passes(pred, r)]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            for gv, ev in zip(g, e):
                if isinstance(ev, float) and math.isnan(ev):
                    assert isinstance(gv, float) and math.isnan(gv)
                else:
                    assert gv == ev
    report(5, f"{n_files} randomized stripe files: round-trip, footer stats, "
              f"and pruning soundness all hold")


def test_criterion_6_service_semantics(tmp_path, both_catalogs):
    # golden frame bytes
    frame = encode_frame({"type": "ping"})
    assert frame == bytes.fromhex("0000000F") + b'{"type":"ping"}'

    # default-deny
    assert authorize("u", ["encounter"], []) == DENIED

    # deny-overrides under 100 rule permutations
    rules = [
        AccessRule("u", "*", effect="ALLOW"),
        AccessRule("u", "lab_procedure", effect="DENY"),
        AccessRule("u", "encounter", effect="ALLOW"),
        AccessRule("v", "lab_procedure", effect="ALLOW"),
    ]
    cases = [("u", ["encounter", "lab_procedure"]), ("u", ["encounter"]),
             ("u", ["lab_procedure"]), ("v", ["lab_procedure"]), ("v", ["encounter"])]
    expected = [authorize(u, t, rules) for u, t in cases]
    assert expected == [DENIED, ALLOWED, DENIED, ALLOWED, DENIED]
    rng = random.Random(66)
    for _ in range(100):
        shuffled = rules[:]
        rng.shuffle(shuffled)
        assert [authorize(u, t, shuffled) for u, t in cases] == expected

    # audit bijection over a live server
    data_root = both_catalogs[StorageFormat.STRIPE].data_root
    (tmp_path / "users.json").write_text(json.dumps(
        [{"user": "alice", "token": "t", "role": "ADMIN"}]))
    (tmp_path / "rules.json").write_text(json.dumps(
        [{"user": "alice", "table": "*", "action": "SELECT", "effect": "ALLOW"}]))
    config = ServiceConfig(
        data_root=data_root, port=0,
        users_file=tmp_path / "users.json",
        rules_file=tmp_path / "rules.json",
        audit_file=tmp_path / "audit.log",
    )
    server = StripehouseServer(config)
    server.start()
    try:
        c = Client(*server.address)
        n_requests = 0
        c.ping(); n_requests += 1
        c.hello("alice", "t"); n_requests += 1
        for _ in range(5):
            c.query(SIMPLE_QUERY, executors=2, cores=2); n_requests += 1
        c.query("SELECT COUNT(*) FROM missing"); n_requests += 1
        c.grant("bob", "encounter"); n_requests += 1
        c.deny("bob", "lab_procedure"); n_requests += 1
        c.close()
        c2 = Client(*server.address)
        r = c2.query(SIMPLE_QUERY)  # before hello
        assert r["code"] == "AUTH"
        n_requests += 1
        c2.close()
    finally:
        server.shutdown()
    lines = (tmp_path / "audit.log").read_text().splitlines()
    assert len(lines) == n_requests
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"ts", "user", "action", "detail", "decision",
                            "duration_s"}
    report(6, f"golden frame, default-deny, deny-overrides x100 shuffles, "
              f"audit bijection ({n_requests} requests -> {len(lines)} records)")


def test_criterion_7_bench_determinism(tmp_path_factory):
    bench = BenchPlan(scenario="all", sizes=(20_000, 50_000), executors=(1, 2, 4),
                      repeats=1, seed=42, stripe_size=2_000)
    runs = []
    for name in ("a", "b"):
        out = tmp_path_factory.mktemp(f"bench7_{name}")
        rows = run_bench(bench, out)
        manifest = json.loads((out / "bench_manifest.json").read_text())
        non_timing = [
            (r.scenario, r.format, r.n_rows, r.executors, r.rows_read,
             r.bytes_read, r.stripes_pruned, round(r.cost_estimate, 9))
            for r in rows
        ]
        runs.append((manifest["sizes"], non_timing))
    assert runs[0][0] == runs[1][0]  # generated CSVs byte-identical (sha256)
    assert runs[0][1] == runs[1][1]  # all non-timing columns identical
    report(7, f"two seeded bench runs: identical CSV hashes for "
              f"{len(runs[0][0])} sizes and identical non-timing columns "
              f"({len(runs[0][1])} cells)")
