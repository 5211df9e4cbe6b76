import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stripehouse.bench import (
    BenchPlan,
    CSV_HEADER,
    DEFAULT_EXECUTORS,
    DEFAULT_SIZES,
    line_chart_svg,
    run_bench,
)
from stripehouse.cli import main as cli_main
from stripehouse.schema import StorageFormat

SMALL = BenchPlan(
    scenario="all",
    sizes=(2_000, 5_000),
    executors=(1, 2, 4),
    repeats=1,
    seed=42,
    stripe_size=500,
)


@pytest.fixture(scope="module")
def bench_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_out")
    rows = run_bench(SMALL, out, cleanup=True)
    return out, rows


def test_defaults_match_contract():
    assert DEFAULT_SIZES == (100_000, 300_000, 1_000_000, 3_000_000, 10_000_000)
    assert DEFAULT_EXECUTORS == (1, 2, 4, 8, 16, 32)
    plan = BenchPlan(scenario="all")
    assert plan.repeats == 3
    assert plan.cores == 3


def test_sizes_must_ascend():
    with pytest.raises(ValueError):
        BenchPlan(scenario="simple", sizes=(100, 10))


def test_csv_header_exact(bench_out):
    out, _ = bench_out
    first = (out / "bench.csv").read_text().splitlines()[0]
    assert first == ("scenario,format,n_rows,executors,median_response_s,"
                     "rows_read,bytes_read,stripes_pruned,cost_estimate")
    assert first == CSV_HEADER


def test_cell_coverage(bench_out):
    _, rows = bench_out
    simple = [(r.format, r.n_rows) for r in rows if r.scenario == "simple"]
    assert sorted(simple) == sorted(
        (f.value, n) for f in (StorageFormat.ROWTEXT, StorageFormat.STRIPE)
        for n in SMALL.sizes
    )
    sweep = [r for r in rows if r.scenario.startswith("executors_")]
    assert sorted({r.executors for r in sweep}) == [1, 2, 4]
    assert {r.n_rows for r in sweep} == {5_000}
    assert {r.format for r in sweep} == {"stripe"}


def test_scenario_one_stripe_is_metadata_count(bench_out):
    _, rows = bench_out
    for r in rows:
        if r.scenario == "simple" and r.format == "stripe":
            assert r.rows_read == 0
        if r.scenario == "simple" and r.format == "rowtext":
            assert r.rows_read == r.n_rows


def test_non_timing_columns_deterministic(tmp_path_factory):
    plan = BenchPlan(scenario="all", sizes=(3_000,), executors=(1, 2),
                     repeats=1, seed=7, stripe_size=500)
    outs = []
    manifests = []
    for name in ("one", "two"):
        out = tmp_path_factory.mktemp(f"det_{name}")
        rows = run_bench(plan, out)
        outs.append([
            (r.scenario, r.format, r.n_rows, r.executors, r.rows_read,
             r.bytes_read, r.stripes_pruned, round(r.cost_estimate, 9))
            for r in rows
        ])
        manifests.append(json.loads((out / "bench_manifest.json").read_text()))
    assert outs[0] == outs[1]
    assert manifests[0]["sizes"] == manifests[1]["sizes"]  # byte-identical CSVs


def test_svg_outputs(bench_out):
    out, _ = bench_out
    s1 = (out / "scenario1.svg").read_text()
    assert s1.count("<polyline") == 2  # one line per format
    assert "Number of records" in s1 and "Response time (s)" in s1
    s2 = (out / "scenario2.svg").read_text()
    assert s2.count("<polyline") == 2
    s3 = (out / "scenario3.svg").read_text()
    assert s3.count("<polyline") == 2  # one line per query
    assert "Number of executors" in s3


def test_line_chart_svg_standalone():
    svg = line_chart_svg("t", "x", "y", [("a", [(1, 1.0), (10, 2.0)])])
    assert svg.startswith("<svg")
    assert svg.count("<polyline") == 1


def test_complex_cells_prune_on_stripe(bench_out):
    _, rows = bench_out
    for r in rows:
        if r.scenario == "complex" and r.format == "stripe":
            assert r.stripes_pruned > 0


def test_perfbench_tracer_finds_every_wrapped_name(tmp_path):
    # a renamed storage or engine name, one the engine imports by name so that
    # the wrapper is bypassed, or a worker pool made without the tracer's pool
    # class (task spans lose their parent), must fail here, not only show as a
    # zero in traced runs
    csv_file = tmp_path / "t.csv"
    csv_file.write_text("a,b\n" + "".join(f"{i},s{i % 3}\n" for i in range(50)))
    roots = [str(tmp_path / fmt) for fmt in ("stripe", "rowtext")]
    for fmt, root in zip(("stripe", "rowtext"), roots):
        assert cli_main(["create", "--table", "t", "--columns", "a:int64,b:string",
                         "--format", fmt, "--root", root]) == 0
        assert cli_main(["ingest", "--table", "t", "--format", fmt, "--csv", str(csv_file),
                         "--partitions", "4", "--stripe-size", "10", "--root", root]) == 0
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(repo / "perfbench"), str(repo / "src")]))
    code = ("import sys, time, spans, workload\n"
            "from stripehouse import engine, planner, schema, sql\n"
            "tracer = spans.Tracer()\n"
            "spans.install(tracer, classify=workload.classify)\n"
            "scan = engine._QueryState._scan_task\n"
            "# every stage on lanes, even on this small data, and slower scan\n"
            "# tasks, so that the pool's lanes take some of them\n"
            "engine.STAGE_LANE_ROWS = 1\n"
            "engine._QueryState._scan_task = lambda *a: (time.sleep(0.01), scan(*a))[1]\n"
            "for root in sys.argv[1:]:\n"
            "    cat = schema.Catalog(root)\n"
            "    query = sql.compile_text(\"SELECT SUM(a) FROM t WHERE b = 's1'\", cat)\n"
            "    for e in (1, 2):\n"
            "        config = planner.ExecConfig(executors=e, cores_per_executor=1)\n"
            "        engine.Engine(root).execute(planner.plan(query, cat, config), config)\n"
            "execs = {s.id for s in tracer.spans if s.name == 'engine.execute'}\n"
            "tasks = [s for s in tracer.spans if s.name in\n"
            "         ('stripefile.read', 'rowtext.scan', 'columns.predicate')]\n"
            "print(' '.join(sorted({s.name for s in tracer.spans})))\n"
            "print(len(tasks), sum(s.parent not in execs for s in tasks))\n")
    done = subprocess.run([sys.executable, "-c", code, *roots], env=env, cwd=repo,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    names, counts = done.stdout.splitlines()
    expected = {"stripefile.read", "stripefile.footer_read", "rowtext.scan",
                "columns.predicate", "columns.take", "planner.plan", "engine.execute"}
    assert expected - set(names.split()) == set()
    # task spans, also those run on the shared pool's threads, keep their query's span
    n_tasks, orphans = map(int, counts.split())
    assert n_tasks > 0 and orphans == 0
