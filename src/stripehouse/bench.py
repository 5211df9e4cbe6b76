"""Benchmark harness: three evaluation scenarios, CSV results, SVG charts.

Scenario one runs the simple count over both storage formats across a
ladder of table sizes; scenario two does the same for the join/categorize/
distribution query; scenario three fixes the largest size and sweeps the
executor count over both queries on stripe storage.

Every cell reports the median of ``repeats`` timed runs after one
discarded warm-up. All non-timing columns are fully determined by
(seed, plan). The lab table is ingested clustered on ``lab_code`` so the
selective predicate can actually skip stripes; with the generator's
uniform code distribution an unclustered layout never prunes.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

from .datagen import GenSpec, encounter_schema, generate, lab_schema
from .engine import Engine
from .ingest import DEFAULT_STRIPE_SIZE, ingest_csv
from .planner import ExecConfig, estimate_cost, plan
from .schema import DEFAULT_PARTITIONS, Catalog, StorageFormat
from .sql import compile_text

SIMPLE_QUERY = "SELECT COUNT(*) FROM lab_procedure"
COMPLEX_QUERY = (
    "SELECT BUCKET(l.result_value, 0, 50, 100, 200) AS cat, "
    "COUNT(DISTINCT e.patient_id) "
    "FROM lab_procedure l JOIN encounter e ON l.encounter_id = e.encounter_id "
    "WHERE l.lab_code = 'LC03' GROUP BY cat"
)

CSV_HEADER = (
    "scenario,format,n_rows,executors,median_response_s,"
    "rows_read,bytes_read,stripes_pruned,cost_estimate"
)

DEFAULT_SIZES = (100_000, 300_000, 1_000_000, 3_000_000, 10_000_000)
DEFAULT_EXECUTORS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class BenchPlan:
    scenario: str  # simple | complex | executors | all
    sizes: tuple[int, ...] = DEFAULT_SIZES
    formats: tuple[StorageFormat, ...] = (StorageFormat.ROWTEXT, StorageFormat.STRIPE)
    executors: tuple[int, ...] = DEFAULT_EXECUTORS
    repeats: int = 3
    seed: int = 42
    partitions: int = DEFAULT_PARTITIONS
    stripe_size: int = DEFAULT_STRIPE_SIZE
    bench_executors: int = 8  # E for scenario one/two cells
    cores: int = 3

    def __post_init__(self):
        if list(self.sizes) != sorted(self.sizes):
            raise ValueError("sizes must be ascending")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass
class BenchRow:
    scenario: str
    format: str
    n_rows: int
    executors: int
    median_response_s: float
    rows_read: int
    bytes_read: int
    stripes_pruned: int
    cost_estimate: float

    def csv(self) -> str:
        return (
            f"{self.scenario},{self.format},{self.n_rows},{self.executors},"
            f"{self.median_response_s:.6f},{self.rows_read},{self.bytes_read},"
            f"{self.stripes_pruned},{self.cost_estimate:.6f}"
        )


def spec_for_size(n_labs: int, seed: int) -> GenSpec:
    return GenSpec(
        seed=seed,
        n_patients=max(n_labs // 100, 1),
        n_encounters=max(n_labs // 10, 1),
        n_labs=n_labs,
    )


def prepare_size(data_dir: Path, size: int, bench: BenchPlan,
                 formats=None) -> dict[StorageFormat, Catalog]:
    """Generate one ladder size and ingest it in the requested formats.

    Returns per-format catalogs rooted at ``data_dir/n<size>/<format>``.
    The lab table is clustered on lab_code; the encounter table keeps
    generation order.
    """
    formats = bench.formats if formats is None else formats
    base = data_dir / f"n{size}"
    gen_dir = base / "gen"
    enc_csv, lab_csv = generate(spec_for_size(size, bench.seed), gen_dir)
    catalogs = {}
    for fmt in formats:
        root = base / fmt.value
        if (root / "catalog.json").exists():
            shutil.rmtree(root)
        cat = Catalog(root)
        cat.create_table(lab_schema(), fmt)
        cat.create_table(encounter_schema(), fmt)
        ingest_csv(cat, "lab_procedure", lab_csv, partitions=bench.partitions,
                   stripe_size=bench.stripe_size, sort_by="lab_code")
        ingest_csv(cat, "encounter", enc_csv, partitions=bench.partitions,
                   stripe_size=bench.stripe_size)
        catalogs[fmt] = cat
    return catalogs


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def run_cell(catalog: Catalog, sql: str, config: ExecConfig,
             repeats: int) -> tuple[float, object, object]:
    """Warm-up once, then median of ``repeats`` runs.

    Returns (median_seconds, metrics_of_last_run, result).
    """
    engine = Engine(catalog.data_root)
    query = compile_text(sql, catalog)
    p = plan(query, catalog, config)
    times = []
    result = metrics = None
    for i in range(repeats + 1):
        result, metrics = engine.execute(p, config)
        if i > 0:
            times.append(metrics.response_time_s)
    return statistics.median(times), metrics, result


def run_bench(bench: BenchPlan, out_dir, data_dir=None,
              cleanup: bool = True) -> list[BenchRow]:
    """Run the requested scenarios; write bench.csv, SVGs, and a manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_dir = Path(data_dir) if data_dir else out_dir / "data"
    scenarios = (
        ["simple", "complex", "executors"] if bench.scenario == "all"
        else [bench.scenario]
    )
    rows: list[BenchRow] = []
    manifest: dict = {"seed": bench.seed, "sizes": {}, "queries": {
        "simple": SIMPLE_QUERY, "complex": COMPLEX_QUERY}}

    def record_csvs(size):
        gen_dir = data_dir / f"n{size}" / "gen"
        manifest["sizes"][str(size)] = {
            "encounter_sha256": file_sha256(gen_dir / "encounter.csv"),
            "lab_sha256": file_sha256(gen_dir / "lab_procedure.csv"),
        }

    ladder_sizes = bench.sizes if ({"simple", "complex"} & set(scenarios)) else ()
    sweep_size = bench.sizes[-1] if "executors" in scenarios else None

    cfg = ExecConfig(executors=bench.bench_executors, cores_per_executor=bench.cores)
    for size in ladder_sizes:
        catalogs = prepare_size(data_dir, size, bench)
        record_csvs(size)
        for scenario, sql in (("simple", SIMPLE_QUERY), ("complex", COMPLEX_QUERY)):
            if scenario not in scenarios:
                continue
            for fmt in bench.formats:
                rows.append(_bench_row(scenario, fmt, size, catalogs[fmt], sql, cfg,
                                       bench.repeats))
        if cleanup and size != sweep_size:
            shutil.rmtree(data_dir / f"n{size}", ignore_errors=True)
        _flush(out_dir, rows, manifest)

    if "executors" in scenarios:
        need = (data_dir / f"n{sweep_size}" / StorageFormat.STRIPE.value / "catalog.json")
        if need.exists():
            cat = Catalog(need.parent)
        else:
            cat = prepare_size(data_dir, sweep_size, bench,
                               formats=(StorageFormat.STRIPE,))[StorageFormat.STRIPE]
            if str(sweep_size) not in manifest["sizes"]:
                record_csvs(sweep_size)
        for label, sql in (("executors_simple", SIMPLE_QUERY),
                           ("executors_complex", COMPLEX_QUERY)):
            for e in bench.executors:
                ecfg = ExecConfig(executors=e, cores_per_executor=bench.cores)
                rows.append(_bench_row(label, StorageFormat.STRIPE, sweep_size, cat, sql,
                                       ecfg, bench.repeats))
                _flush(out_dir, rows, manifest)
        if cleanup:
            shutil.rmtree(data_dir / f"n{sweep_size}", ignore_errors=True)

    _flush(out_dir, rows, manifest)
    _write_charts(out_dir, rows)
    return rows


def _bench_row(scenario: str, fmt: StorageFormat, n_rows: int, catalog: Catalog,
               sql: str, config: ExecConfig, repeats: int) -> BenchRow:
    """One cell: ``sql`` timed by ``run_cell``, with its plan's cost estimate."""
    med, metrics, _ = run_cell(catalog, sql, config, repeats)
    p = plan(compile_text(sql, catalog), catalog, config)
    return BenchRow(
        scenario=scenario,
        format=fmt.value,
        n_rows=n_rows,
        executors=config.executors,
        median_response_s=med,
        rows_read=metrics.rows_read,
        bytes_read=metrics.bytes_read,
        stripes_pruned=metrics.stripes_pruned,
        cost_estimate=estimate_cost(p, config).total,
    )


def _flush(out_dir: Path, rows: list[BenchRow], manifest: dict) -> None:
    # partial results are flushed before any abort
    with open(out_dir / "bench.csv", "w", encoding="utf-8", newline="") as f:
        f.write(CSV_HEADER + "\n")
        for r in rows:
            f.write(r.csv() + "\n")
    with open(out_dir / "bench_manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


# --- SVG emission (hand-rolled polylines; no charting dependency) ---

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def line_chart_svg(title: str, xlabel: str, ylabel: str,
                   series: list[tuple[str, list[tuple[float, float]]]]) -> str:
    """Log-x line chart as a standalone SVG document."""
    import math

    w, h = 800, 500
    ml, mr, mt, mb = 90, 30, 50, 70
    pw, ph = w - ml - mr, h - mt - mb
    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    if not xs:
        xs, ys = [1.0], [1.0]
    lo_x, hi_x = math.log10(min(xs)), math.log10(max(xs))
    if hi_x == lo_x:
        hi_x = lo_x + 1.0
    hi_y = max(ys) * 1.08 or 1.0

    def sx(x):
        return ml + (math.log10(x) - lo_x) / (hi_x - lo_x) * pw

    def sy(y):
        return mt + ph - (y / hi_y) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="13">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w/2:.0f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw/2:.0f}" y="{h - 16}" text-anchor="middle">{xlabel}</text>',
        f'<text x="22" y="{mt + ph/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 22 {mt + ph/2:.0f})">{ylabel}</text>',
    ]
    for x in sorted(set(xs)):
        px = sx(x)
        label = f"{x:g}" if x < 1e6 else f"{x:.0e}".replace("e+0", "e")
        parts.append(
            f'<line x1="{px:.1f}" y1="{mt + ph}" x2="{px:.1f}" y2="{mt + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.1f}" y="{mt + ph + 22}" text-anchor="middle">{label}</text>'
        )
    for i in range(6):
        yv = hi_y * i / 5
        py = sy(yv)
        parts.append(
            f'<line x1="{ml - 5}" y1="{py:.1f}" x2="{ml}" y2="{py:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 10}" y="{py + 4:.1f}" text-anchor="end">{yv:.3g}</text>'
        )
        if i:
            parts.append(
                f'<line x1="{ml}" y1="{py:.1f}" x2="{ml + pw}" y2="{py:.1f}" '
                f'stroke="#dddddd"/>'
            )
    for k, (name, pts) in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in sorted(pts))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" fill="{color}"/>'
            )
        ly = mt + 18 + 18 * k
        parts.append(
            f'<line x1="{ml + pw - 150}" y1="{ly - 4}" x2="{ml + pw - 120}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{ml + pw - 112}" y="{ly}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


# per chart: file, title, x label, the x field, and (name, scenario, format) per series
_CHARTS = (
    ("scenario1.svg", "Simple query response time by table format", "Number of records",
     "n_rows", (("rowtext", "simple", "rowtext"), ("stripe", "simple", "stripe"))),
    ("scenario2.svg", "Complex query response time by table format", "Number of records",
     "n_rows", (("rowtext", "complex", "rowtext"), ("stripe", "complex", "stripe"))),
    ("scenario3.svg", "Response time vs executor count (stripe format)", "Number of executors",
     "executors", (("simple query", "executors_simple", "stripe"),
                   ("complex query", "executors_complex", "stripe"))),
)


def _write_charts(out_dir: Path, rows: list[BenchRow]) -> None:
    for name, title, xlabel, x, wanted in _CHARTS:
        series = []
        for label, scenario, fmt in wanted:
            pts = [(getattr(r, x), r.median_response_s) for r in rows
                   if r.scenario == scenario and r.format == fmt]
            if pts:
                series.append((label, pts))
        if series:
            (out_dir / name).write_text(line_chart_svg(
                title, xlabel, "Response time (s)", series), encoding="utf-8")
