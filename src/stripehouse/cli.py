"""Command-line interface.

Subcommands: gen, create, ingest, query, explain, inspect, serve, client,
bench. Data root comes from --root, the STRIPEHOUSE_ROOT environment
variable, or the working directory. ``--format rowtext|stripe`` on query
and explain selects the ``<root>/<format>`` sub-root when one exists, so
the same SQL can run against both storage layouts of one dataset.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import bench as benchmod
from .datagen import GenSpec, encounter_schema, generate, lab_schema
from .engine import Engine, ResultTable
from .errors import InvalidConfig, StripehouseError, UnknownTable
from .ingest import DEFAULT_STRIPE_SIZE, ingest_csv
from .planner import (
    DEFAULT_COSTS,
    ExecConfig,
    JoinOp,
    MetadataCountOp,
    ScanOp,
    estimate_cost,
    plan,
)
from .schema import (
    DEFAULT_PARTITIONS,
    Catalog,
    ColumnType,
    StorageFormat,
    TableSchema,
    resolve_data_root,
)
from .sql import compile_text
from .stripefile import dump_footer
from .values import days_to_iso


def _root(args) -> Path:
    root = resolve_data_root(getattr(args, "root", None))
    fmt = getattr(args, "format", None)
    if fmt and (root / fmt / "catalog.json").exists():
        return root / fmt
    return root


def _layout(table: list[list[str]]) -> str:
    """Right-aligned columns of cell texts; the first row is the header."""
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    lines = ["  ".join(s.rjust(w) for s, w in zip(row, widths)) for row in table]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _format_result(result: ResultTable) -> str:
    def cell(v, t):
        if v is None:
            return "NULL"
        if t is ColumnType.DATE:
            return days_to_iso(v)
        if isinstance(v, float):
            return f"{v:.6g}"
        return str(v)

    return _layout([list(result.columns)] + [
        [cell(v, t) for v, t in zip(row, result.types)] for row in result.rows
    ])


def _add_exec_options(p: argparse.ArgumentParser) -> None:
    default = ExecConfig()
    p.add_argument("--executors", type=int, default=default.executors)
    p.add_argument("--cores", type=int, default=default.cores_per_executor)
    p.add_argument("--mem-rows", type=int, default=default.executor_mem_rows)
    p.add_argument("--no-prune", action="store_true")


def _exec_config(args) -> ExecConfig:
    return ExecConfig(executors=args.executors, executor_mem_rows=args.mem_rows,
                      cores_per_executor=args.cores)


def cmd_gen(args) -> int:
    spec = GenSpec(
        seed=args.seed,
        n_patients=args.patients,
        n_encounters=args.encounters,
        n_labs=args.labs,
        n_hospitals=args.hospitals,
        n_lab_codes=args.lab_codes,
    )
    enc, lab = generate(spec, args.out)
    print(f"wrote {enc}")
    print(f"wrote {lab}")
    return 0


def _parse_columns(spec: str) -> list:
    cols = []
    for part in spec.split(","):
        pieces = part.strip().split(":")
        if len(pieces) < 2:
            raise StripehouseError(f"bad column spec {part!r}; want name:type[:null]")
        name, ctype = pieces[0], ColumnType(pieces[1].lower())
        nullable = len(pieces) > 2 and pieces[2].lower() in ("null", "nullable", "true")
        cols.append((name, ctype, nullable))
    return cols


def cmd_create(args) -> int:
    cat = Catalog(_root(args))
    schema = TableSchema.create(args.table, _parse_columns(args.columns))
    cat.create_table(schema, StorageFormat(args.table_format))
    print(f"created table {schema.table_name} ({args.table_format})")
    return 0


_BUILTIN_SCHEMAS = {
    "encounter": encounter_schema,
    "lab_procedure": lab_schema,
}


def cmd_ingest(args) -> int:
    cat = Catalog(_root(args))
    fmt = StorageFormat(args.table_format)
    try:
        entry = cat.get_table(args.table)
        if entry.format != fmt:
            raise StripehouseError(
                f"table {args.table} already exists as {entry.format.value}"
            )
    except UnknownTable:
        builtin = _BUILTIN_SCHEMAS.get(args.table.lower())
        if builtin is None:
            raise
        entry = cat.create_table(builtin(), fmt)
    before = len(entry.partitions)
    entry = ingest_csv(
        cat, args.table, args.csv,
        partitions=args.partitions,
        stripe_size=args.stripe_size,
        sort_by=args.sort_by,
    )
    print(
        f"ingested {entry.row_count} rows into {entry.schema.table_name} "
        f"({len(entry.partitions)} partitions, {entry.format.value})"
    )
    print(
        f"wrote {len(entry.partitions) - before} of --partitions {args.partitions} "
        f"partitions; each holds whole batches of --stripe-size {args.stripe_size} rows"
    )
    return 0


def cmd_query(args) -> int:
    root = _root(args)
    cat = Catalog(root)
    config = _exec_config(args)
    query = compile_text(args.sql, cat)
    p = plan(query, cat, config, prune=not args.no_prune)
    result, metrics = Engine(root).execute(p, config)
    if args.json:
        print(json.dumps({
            "columns": list(result.columns),
            "rows": result.json_rows(),
            "metrics": metrics.to_dict(),
        }))
    else:
        print(_format_result(result))
        m = metrics
        print(
            f"-- {m.response_time_s:.3f}s  rows_read={m.rows_read} "
            f"bytes_read={m.bytes_read} stripes={m.stripes_total} "
            f"pruned={m.stripes_pruned} shuffle_rows={m.shuffle_rows}"
        )
    return 0


def cmd_explain(args) -> int:
    root = _root(args)
    cat = Catalog(root)
    query = compile_text(args.sql, cat)
    config = _exec_config(args)
    p = plan(query, cat, config, prune=not args.no_prune)
    print(f"query: {query.text}")
    print(f"stages ({len(p.stages)}):")
    for i, stage in enumerate(p.stages):
        for op in stage:
            if isinstance(op, ScanOp):
                desc = (
                    f"Scan[{op.table} {op.fmt.value}] tasks={len(op.tasks)} "
                    f"rows={op.rows_total} pushed={len(op.conjuncts)} "
                    f"projection={list(op.projection)}"
                )
                if op.fmt is StorageFormat.STRIPE:
                    desc += f" stripes_pruned={op.stripes_pruned}/{op.stripes_total}"
            elif isinstance(op, MetadataCountOp):
                desc = f"MetadataCount[{op.table}] footers={len(op.paths)}"
            elif isinstance(op, JoinOp):
                shape = "broadcast" if op.broadcast else f"shuffle R={p.reducers}"
                desc = f"Join[{shape} build={op.build_table} rows={op.build_rows}]"
            else:
                desc = type(op).__name__.replace("Op", "")
            print(f"  {i}: {desc}")
    print(f"pruning: {p.stripes_pruned}/{p.stripes_total} stripes pruned")
    print("cost (dimensionless, defaults s=5 c_row=1e-6 c_net=5e-6 x=1):")
    print(f"  {'E':>3} {'total':>12} {'startup':>10} {'compute':>10} "
          f"{'shuffle':>10} {'coord':>10}")
    for e in benchmod.DEFAULT_EXECUTORS:
        cfg = replace(config, executors=e)
        pe = plan(query, cat, cfg, prune=not args.no_prune)
        c = estimate_cost(pe, cfg, DEFAULT_COSTS)
        print(
            f"  {e:>3} {c.total:>12.3f} {c.startup:>10.3f} {c.compute:>10.3f} "
            f"{c.shuffle:>10.3f} {c.coordination:>10.3f}"
        )
    return 0


def cmd_inspect(args) -> int:
    print(dump_footer(args.file))
    return 0


def cmd_serve(args) -> int:
    from .service import ServiceConfig, StripehouseServer

    if args.config:
        config = ServiceConfig.from_file(args.config)
    else:
        config = ServiceConfig(data_root=_root(args))
    if args.port is not None:  # --port 0 asks for any free port
        try:
            config = replace(config, port=args.port)
        except ValueError as e:
            raise InvalidConfig(f"cannot load service config from --port: {e}") from None
    server = StripehouseServer(config)
    host, port = server.address
    print(f"stripehouse serving on {host}:{port} (data root {config.data_root})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
    return 0


def cmd_client(args) -> int:
    from .service import Client

    client = Client(args.host, args.port)
    try:
        resp = client.hello(args.user, args.token)
        if resp.get("type") != "ok":
            print(f"auth failed: {resp.get('message')}", file=sys.stderr)
            return 1
        resp = client.query(
            args.sql,
            executors=args.executors,
            cores=args.cores,
            mem_rows=args.mem_rows,
            prune=not args.no_prune,
        )
    finally:
        client.close()
    if args.json:
        print(json.dumps(resp))
        return 0 if resp.get("type") == "result" else 1
    if resp.get("type") != "result":
        print(f"{resp.get('code')}: {resp.get('message')}", file=sys.stderr)
        return 1
    print(_layout([resp["columns"]] + [[str(v) if v is not None else "NULL" for v in r]
                                       for r in resp["rows"]]))
    m = resp["metrics"]
    print(f"-- {m['response_time_s']:.3f}s rows_read={m['rows_read']}")
    return 0


def cmd_bench(args) -> int:
    bp = benchmod.BenchPlan(
        scenario=args.scenario,
        sizes=tuple(args.sizes) if args.sizes else benchmod.DEFAULT_SIZES,
        executors=tuple(args.executors) if args.executors else benchmod.DEFAULT_EXECUTORS,
        repeats=args.repeats,
        seed=args.seed,
    )
    rows = benchmod.run_bench(
        bp, args.out,
        data_dir=args.data_dir,
        cleanup=not args.keep_data,
    )
    print(benchmod.CSV_HEADER)
    for r in rows:
        print(r.csv())
    print(f"wrote {Path(args.out) / 'bench.csv'} and scenario SVGs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="stripehouse",
                                 description="desk-scale partitioned analytics engine")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic encounter/lab CSVs")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--patients", type=int, required=True)
    p.add_argument("--encounters", type=int, required=True)
    p.add_argument("--labs", type=int, required=True)
    p.add_argument("--hospitals", type=int, default=750)
    p.add_argument("--lab-codes", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("create", help="create a table")
    p.add_argument("--table", required=True)
    p.add_argument("--columns", required=True,
                   help="comma list of name:type[:null], types int64|float64|string|date")
    p.add_argument("--format", dest="table_format", required=True,
                   choices=["rowtext", "stripe"])
    p.add_argument("--root", default=None)
    p.set_defaults(fn=cmd_create)

    p = sub.add_parser("ingest", help="load a CSV into a table")
    p.add_argument("--table", required=True)
    p.add_argument("--format", dest="table_format", required=True,
                   choices=["rowtext", "stripe"])
    p.add_argument("--partitions", type=int, default=DEFAULT_PARTITIONS)
    p.add_argument("--csv", required=True)
    p.add_argument("--stripe-size", type=int, default=DEFAULT_STRIPE_SIZE)
    p.add_argument("--sort-by", default=None)
    p.add_argument("--root", default=None)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("query", help="run a SQL query")
    p.add_argument("-e", dest="sql", required=True)
    _add_exec_options(p)
    p.add_argument("--format", choices=["rowtext", "stripe"], default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--root", default=None)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("explain", help="show plan stages, pruning, and cost table")
    p.add_argument("-e", dest="sql", required=True)
    _add_exec_options(p)
    p.add_argument("--format", choices=["rowtext", "stripe"], default=None)
    p.add_argument("--root", default=None)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("inspect", help="dump a stripe file footer")
    p.add_argument("file")
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("serve", help="run the query service")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--root", default=None)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("client", help="send a query to a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878)
    p.add_argument("--user", required=True)
    p.add_argument("--token", required=True)
    p.add_argument("-e", dest="sql", required=True)
    _add_exec_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_client)

    p = sub.add_parser("bench", help="run the evaluation scenarios")
    p.add_argument("--scenario", required=True,
                   choices=["simple", "complex", "executors", "all"])
    p.add_argument("--out", required=True)
    p.add_argument("--sizes", type=int, nargs="*", default=None)
    p.add_argument("--executors", type=int, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--keep-data", action="store_true")
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except StripehouseError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
