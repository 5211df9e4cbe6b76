"""Lowers a resolved query to a staged physical plan and costs it.

Stage shapes (a stage is one barrier group; ops inside it run together):

* simple aggregation:  [Scan] -> [AggPartial] -> [AggFinal]        (3 stages)
* broadcast join:      [Scan, Scan] -> [Join] -> [AggPartial]
                       -> [AggFinal]                               (4 stages)
* shuffle join:        [Scan, Scan] -> [Shuffle, Shuffle] -> [Join]
                       -> [AggPartial] -> [AggFinal]               (5 stages)
* COUNT(*) with no predicate on a STRIPE table touches only footers
  (MetadataCount, 1 stage).

A join builds on the smaller table by catalog row count. When the build
scan's rows (after stripe pruning) fit ``executor_mem_rows``, the join is a
broadcast: the whole build side meets every probe-scan task, one join task
per probe-scan task, and nothing is shuffled (Spark's broadcast hash join;
Blanas et al., SIGMOD 2010). Otherwise both sides are hash-shuffled to
R buckets and each bucket is joined on its own. Both shapes run the same
sort-based join kernel in the engine.

Stripe pruning is decided here, once: ``_footers`` takes each partition's
footer from the process-wide footer cache (``stripefile.cached_footer``,
which parses a footer again only when its file changed) and raises
``TypeMismatch`` unless the file's column types are the table's;
``_scan_op`` keeps the stripes ``stripefile.prune_stripes`` keeps. The plan
carries those footers: the engine reads stripes by them, and MetadataCount
sums their row counts. A scan has one task per kept stripe (STRIPE) or per
partition file (ROWTEXT). Reducer count R = executors * cores.

The plan holds only what the engine runs; ``PhysicalPlan`` is built once,
in ``plan()``, and its stripe counts are sums over its scans.
``estimate_cost`` derives every row and task figure it needs from the
plan's ops, its query and its reducer count.

The cost model is advisory and never gates execution::

    startup      = s * E
    compute      = sum over ops  ceil(tasks / (E*C)) * max_task_rows * c_row
    shuffle      = shuffle_rows * c_net
    coordination = x * E * n_stages

A broadcast join's compute is its build rows, sorted once, plus
ceil(probe tasks / (E*C)) * max probe-task rows; it adds no shuffle rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import TypeMismatch
from .predicate import Conjunct
from .schema import Catalog, StorageFormat, TableEntry, TableSchema
from .sql import ResolvedQuery
from . import stripefile


@dataclass(frozen=True)
class ExecConfig:
    executors: int = 8
    executor_mem_rows: int = 1_000_000
    cores_per_executor: int = 3

    def __post_init__(self):
        if self.executors < 1 or self.executor_mem_rows < 1 or self.cores_per_executor < 1:
            raise ValueError("executors, memory budget, and cores must be >= 1")

    @property
    def slots(self) -> int:
        return self.executors * self.cores_per_executor


@dataclass(frozen=True)
class CostConstants:
    startup_per_executor: float = 5.0   # s
    per_row: float = 1e-6               # c_row
    per_shuffle_row: float = 5e-6       # c_net
    coordination: float = 1.0           # x


DEFAULT_COSTS = CostConstants()


@dataclass(frozen=True)
class ScanTask:
    path: str
    stripe_index: int | None  # None for a whole row-text partition
    rows: int


@dataclass(frozen=True)
class ScanOp:
    op_id: int
    fmt: StorageFormat
    schema: TableSchema
    tasks: tuple[ScanTask, ...]
    conjuncts: tuple[Conjunct, ...]
    projection: tuple[int, ...]  # schema column indices, output order
    stripes_total: int
    stripes_pruned: int

    @property
    def table(self) -> str:
        return self.schema.table_name

    @property
    def rows_total(self) -> int:
        return sum(t.rows for t in self.tasks)

    @property
    def rows_max(self) -> int:
        return max((t.rows for t in self.tasks), default=0)


@dataclass(frozen=True)
class ShuffleOp:
    op_id: int
    input_op: int
    key_pos: int


@dataclass(frozen=True)
class JoinOp:
    op_id: int
    broadcast: bool  # inputs are the two scans, else the two shuffles
    build_table: str
    build_input: int
    probe_input: int
    build_key_pos: int
    probe_key_pos: int
    build_out: tuple[int, ...]  # positions in build batches copied to output
    probe_out: tuple[int, ...]
    build_rows: int
    probe_rows: int


@dataclass(frozen=True)
class AggSpec:
    kind: str  # count_star | count_distinct | sum | avg | min | max
    input_pos: int | None


@dataclass(frozen=True)
class AggPartialOp:
    op_id: int
    input_op: int
    bucket_pos: int | None
    bucket_edges: tuple | None
    specs: tuple[AggSpec, ...]


@dataclass(frozen=True)
class AggFinalOp:
    op_id: int
    input_op: int
    specs: tuple[AggSpec, ...]
    grouped: bool


@dataclass(frozen=True)
class MetadataCountOp:
    op_id: int
    table: str
    paths: tuple[str, ...]


PlanOp = ScanOp | ShuffleOp | JoinOp | AggPartialOp | AggFinalOp | MetadataCountOp


@dataclass(frozen=True)
class PhysicalPlan:
    stages: tuple[tuple[PlanOp, ...], ...]
    query: ResolvedQuery
    reducers: int
    footers: dict = field(compare=False, default_factory=dict, repr=False)

    @property
    def is_metadata_count(self) -> bool:
        return isinstance(self.stages[0][0], MetadataCountOp)

    @property
    def stripes_total(self) -> int:
        return sum(op.stripes_total for op in self.ops() if isinstance(op, ScanOp))

    @property
    def stripes_pruned(self) -> int:
        return sum(op.stripes_pruned for op in self.ops() if isinstance(op, ScanOp))

    def ops(self):
        for stage in self.stages:
            yield from stage


@dataclass(frozen=True)
class CostEstimate:
    startup: float
    compute: float
    shuffle: float
    coordination: float

    @property
    def total(self) -> float:
        return self.startup + self.compute + self.shuffle + self.coordination


def _needed_columns(query: ResolvedQuery, side: int) -> list[int]:
    """Schema column indices this side must produce for downstream operators."""
    need: set[int] = set()
    if query.bucket and query.bucket.column.table_pos == side:
        need.add(query.bucket.column.index)
    for agg in query.aggregates:
        if agg.column is not None and agg.column.table_pos == side:
            need.add(agg.column.index)
    return sorted(need)


def _footers(entry: TableEntry, footers: dict) -> list:
    """The footers of a STRIPE table's partitions, kept in ``footers`` by
    path; the engine reads each chunk as the catalog's type says."""
    types = [c.ctype for c in entry.schema.columns]
    for part in entry.partitions:
        if part.path not in footers:
            footers[part.path] = stripefile.cached_footer(part.path)
        if [c.ctype for c in footers[part.path].schema.columns] != types:
            raise TypeMismatch(f"{part.path}: file schema does not match the table's")
    return [footers[part.path] for part in entry.partitions]


def _scan_op(op_id: int, entry: TableEntry, conjuncts, projection,
             prune: bool, footers: dict) -> ScanOp:
    tasks: list[ScanTask] = []
    stripes_total = stripes_pruned = 0
    if entry.format is StorageFormat.ROWTEXT:
        tasks = [ScanTask(part.path, None, part.row_count) for part in entry.partitions]
    else:
        for part, footer in zip(entry.partitions, _footers(entry, footers)):
            kept = stripefile.prune_stripes(footer, conjuncts if prune else ())
            stripes_total += len(kept)
            stripes_pruned += kept.count(False)
            tasks.extend(ScanTask(part.path, si, stripe.row_count)
                         for si, (stripe, keep) in enumerate(zip(footer.stripes, kept)) if keep)
    return ScanOp(
        op_id=op_id,
        fmt=entry.format,
        schema=entry.schema,
        tasks=tuple(tasks),
        conjuncts=tuple(conjuncts),
        projection=tuple(projection),
        stripes_total=stripes_total,
        stripes_pruned=stripes_pruned,
    )


def plan(query: ResolvedQuery, catalog: Catalog, config: ExecConfig,
         prune: bool = True) -> PhysicalPlan:
    """Produce the staged physical plan for a validated query."""
    footers: dict = {}
    entry0 = query.entries[0]
    if query.join_cols is not None:
        stages = _join_stages(query, config, prune, footers)
    elif (
        not query.conjuncts[0]
        and query.bucket is None
        and len(query.aggregates) == 1
        and query.aggregates[0].kind == "count_star"
        and entry0.format is StorageFormat.STRIPE
    ):  # metadata shortcut: bare COUNT(*) over a STRIPE table
        _footers(entry0, footers)
        stages = ((MetadataCountOp(0, entry0.schema.table_name,
                                   tuple(p.path for p in entry0.partitions)),),)
    else:
        projection = _needed_columns(query, 0)
        scan = _scan_op(0, entry0, query.conjuncts[0], projection, prune, footers)
        pos_of = {col: i for i, col in enumerate(projection)}
        stages = ((scan,), *_agg_ops(query, 1, 0, lambda col: pos_of[col.index]))
    return PhysicalPlan(stages=stages, query=query, reducers=config.slots, footers=footers)


def _join_stages(query: ResolvedQuery, config: ExecConfig, prune: bool, footers: dict):
    left_key, right_key = query.join_cols
    needed = [_needed_columns(query, 0), _needed_columns(query, 1)]
    proj = [
        sorted(set(needed[0]) | {left_key.index}),
        sorted(set(needed[1]) | {right_key.index}),
    ]
    scans = [
        _scan_op(0, query.entries[0], query.conjuncts[0], proj[0], prune, footers),
        _scan_op(1, query.entries[1], query.conjuncts[1], proj[1], prune, footers),
    ]
    key_pos = [proj[0].index(left_key.index), proj[1].index(right_key.index)]

    # the join builds on the smaller side by catalog row counts
    catalog_rows = [query.entries[0].row_count, query.entries[1].row_count]
    build_side = 0 if catalog_rows[0] < catalog_rows[1] else 1
    probe_side = 1 - build_side
    broadcast = scans[build_side].rows_total <= config.executor_mem_rows
    if broadcast:
        inputs, shuffle_stage = [0, 1], ()
    else:
        inputs = [2, 3]
        shuffle_stage = ((ShuffleOp(2, 0, key_pos[0]), ShuffleOp(3, 1, key_pos[1])),)
    join_id = inputs[1] + 1
    out_positions = {}  # (side, schema col idx) -> position in join output
    probe_out = [proj[probe_side].index(i) for i in needed[probe_side]]
    build_out = [proj[build_side].index(i) for i in needed[build_side]]
    for k, i in enumerate(needed[probe_side]):
        out_positions[(probe_side, i)] = k
    for k, i in enumerate(needed[build_side]):
        out_positions[(build_side, i)] = len(probe_out) + k
    join_op = JoinOp(
        op_id=join_id,
        broadcast=broadcast,
        build_table=scans[build_side].table,
        build_input=inputs[build_side],
        probe_input=inputs[probe_side],
        build_key_pos=key_pos[build_side],
        probe_key_pos=key_pos[probe_side],
        build_out=tuple(build_out),
        probe_out=tuple(probe_out),
        build_rows=scans[build_side].rows_total,
        probe_rows=scans[probe_side].rows_total,
    )
    aggs = _agg_ops(query, join_id + 1, join_id,
                    lambda col: out_positions[(col.table_pos, col.index)])
    return (tuple(scans), *shuffle_stage, (join_op,), *aggs)


def _agg_ops(query: ResolvedQuery, op_id: int, input_op: int, pos_of):
    """The ``[AggPartial] -> [AggFinal]`` tail every plan ends with;
    ``pos_of`` maps a query column to its position in the input batches."""
    specs = tuple(AggSpec(a.kind, None if a.column is None else pos_of(a.column))
                  for a in query.aggregates)
    agg_p = AggPartialOp(
        op_id=op_id,
        input_op=input_op,
        bucket_pos=pos_of(query.bucket.column) if query.bucket else None,
        bucket_edges=query.bucket.edges if query.bucket else None,
        specs=specs,
    )
    agg_f = AggFinalOp(op_id + 1, op_id, specs, grouped=query.bucket is not None)
    return (agg_p,), (agg_f,)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b) if b else 0


def estimate_cost(plan: PhysicalPlan, config: ExecConfig,
                  constants: CostConstants = DEFAULT_COSTS) -> CostEstimate:
    """Deterministic cost of running this plan shape at the given config.

    Shuffle and AggPartial rows and tasks follow from the op's input op and
    the plan's own reducer count, which is what the engine runs."""
    E = config.executors
    slots = config.slots
    r = max(config.slots, 1)
    n_stages = len(plan.stages)

    compute = 0.0
    shuffle_rows = 0
    by_id = {op.op_id: op for op in plan.ops()}
    for op in plan.ops():
        if isinstance(op, MetadataCountOp):
            tasks, rows = len(op.paths), 0
        elif isinstance(op, ScanOp):
            tasks, rows = len(op.tasks), op.rows_max
        elif isinstance(op, ShuffleOp):  # one task per scan task, every scan row moved
            scan = by_id[op.input_op]
            tasks = max(len(scan.tasks), 1)
            rows = _ceil_div(scan.rows_total, tasks)
            shuffle_rows += scan.rows_total
        elif isinstance(op, JoinOp) and op.broadcast:
            probe = by_id[op.probe_input]
            compute += op.build_rows * constants.per_row  # the build, sorted once
            tasks, rows = len(probe.tasks), probe.rows_max
        elif isinstance(op, JoinOp):
            tasks, rows = r, _ceil_div(op.build_rows + op.probe_rows, r)
        elif isinstance(op, AggPartialOp):
            source = by_id[op.input_op]
            if isinstance(source, JoinOp) and source.broadcast:
                source = by_id[source.probe_input]  # one join task per probe-scan task
            if isinstance(source, JoinOp):  # one task per shuffle bucket
                tasks, rows = plan.reducers, _ceil_div(source.probe_rows, plan.reducers)
            else:  # one task per scan task
                tasks, rows = max(len(source.tasks), 1), source.rows_max
        else:  # AggFinalOp: every reducer may hold every group
            groups = len(plan.query.bucket.edges) - 1 if plan.query.bucket else 1
            tasks, rows = 1, groups * r
        if tasks:
            compute += math.ceil(tasks / slots) * rows * constants.per_row

    return CostEstimate(
        startup=constants.startup_per_executor * E,
        compute=compute,
        shuffle=shuffle_rows * constants.per_shuffle_row,
        coordination=constants.coordination * E * n_stages,
    )
