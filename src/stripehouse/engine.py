"""Plan execution on one process-wide worker pool.

Stages run in plan order with a barrier between stages; tasks inside a
stage are independent. Each op's output goes to one map keyed by op and
task (or bucket). Every plan ends in one task whose output is the result
rows: the AggFinal task, which merges the partial groups in task order, or
MetadataCount's, which sums the footers' row counts.

Every query and every ``Engine`` share one pool of ``os.cpu_count() - 1``
worker threads (at least one), made on the first query that needs it
(morsel-driven scheduling, Leis et al., SIGMOD 2014). A query runs at most
``min(config.slots, os.cpu_count())`` tasks at once: the calling thread
and that many less one pool lanes pull a stage's tasks from one shared
iterator, so a bound of 1 runs the query inline. ``config.slots`` still
sets the R = E*C reducers. When a task fails, the tasks not yet started
are skipped, the ones running are waited for, and then the error is raised.

A join runs in one of two shapes (the planner picks):

* broadcast: the build scan's output is concatenated, cleaned of NULL/NaN
  keys and sorted once per query, and each probe-scan task joins its own
  output against it. Nothing is shuffled.
* shuffle: both sides are hash-shuffled on the key into R buckets, staged
  in one map keyed by (op, bucket, producer-task) so producers never
  contend; buckets past the per-executor row budget spill to
  ``<root>/shuffle/``. Each bucket prepares its own build side.

One batch per task: a scan, join or shuffle bucket hands its consumer one
``Batch``, or None when no row survives. A scan task concatenates what its
reader yields once (one batch per stripe, one per ``ENGINE_BATCH_ROWS``
rows of row text), so an AggPartial task bucketizes and makes each state
once, and its distinct charge is exact when it is made.

A spilled shuffle piece is a one-stripe ``.stp`` file, written by
``stripefile.StripeWriter`` and read back by ``read_footer`` and
``read_stripe_columns``, so a damaged one raises ``BadMagic`` or
``CorruptFooter``. Its column types come from the data: ``StrColumn`` is
STRING, float64 FLOAT64 and int64 INT64, which carries DATE's days as they
are. Spill files live for one query and are not cached; a plan with no
``ShuffleOp`` gets no spill directory.

One path per job: both join shapes run one kernel for every key type,
``_prepare_build`` (stable argsort, then the distinct keys with their run
starts and lengths, plus a direct-address table when the keys are int64
and dense) and ``_probe`` (each probe key's run from that table, or else
from one searchsorted of the sorted probe keys into the distinct keys);
shuffle buckets and aggregation groups are split by one row splitter
(``_group_indices``, a radix sort for narrow group ids); every aggregate state
but MIN/MAX merges by ``+``, and distinct values come from one sort-based
``_sorted_unique``.

Determinism: task sets depend only on the plan; every merge walks inputs
in producer-task order; SUM/AVG keep the exact sum of the finite values as
one integer (``_ExactSum``) and round once at the end, which equals
``math.fsum`` over the group's values; so results are bit-identical across
executor counts, prune on/off, and storage formats.

Timing uses a monotonic clock.
"""

from __future__ import annotations

import math
import os
import shutil
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import columns as C
from . import stripefile
from .errors import EngineBusy, MemoryBudgetExceeded
from .planner import (
    AggFinalOp,
    AggPartialOp,
    AggSpec,
    ExecConfig,
    JoinOp,
    MetadataCountOp,
    PhysicalPlan,
    ScanOp,
    ShuffleOp,
)
from .rowtext import scan_rowtext_columnar
from .schema import ColumnType, StorageFormat, TableSchema, resolve_data_root
from .sql import ResolvedQuery
from .values import days_to_iso

ENGINE_BATCH_ROWS = 65536

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


def _fnv_int64_vector(keys: np.ndarray) -> np.ndarray:
    """FNV-1a over each key's 8 little-endian bytes, vectorized.

    Float keys hash their IEEE-754 bits, with -0.0 folded into 0.0.
    """
    if keys.dtype == np.float64:
        keys = (keys + 0.0).view(np.int64)
    b = keys.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    h = np.full(len(keys), FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(FNV_PRIME)
    for j in range(8):
        h = (h ^ b[:, j].astype(np.uint64)) * prime
    return h


@dataclass
class Batch:
    n_rows: int
    cols: list  # C.Column per output position


def _concat_batches(batches: list[Batch]) -> Batch | None:
    """One batch of ``batches``' rows in order; None when there are none."""
    if not batches:
        return None
    return Batch(sum(b.n_rows for b in batches),
                 [C.concat(list(cols)) for cols in zip(*(b.cols for b in batches))])


def _write_spill(path: Path, batch: Batch) -> None:
    """``batch`` as a one-stripe stripe file, typed by its columns' data."""
    schema = TableSchema.create("spill", [
        (f"c{i}", ColumnType.STRING if isinstance(c, C.StrColumn)
         else ColumnType.FLOAT64 if c.data.dtype == np.float64 else ColumnType.INT64)
        for i, c in enumerate(batch.cols)])
    writer = stripefile.StripeWriter(schema, path)
    try:
        writer.append_columns(batch.cols)
        writer.close()
    except BaseException:
        writer.abort()
        raise


def _read_spill(path: Path) -> Batch:
    footer = stripefile.read_footer(path)  # not cached: the file lives for one query
    needed = list(range(footer.schema.arity))
    cols, _ = stripefile.read_stripe_columns(path, footer, 0, needed)
    return Batch(footer.row_count, [cols[i] for i in needed])


@dataclass
class QueryMetrics:
    response_time_s: float = 0.0
    rows_read: int = 0
    bytes_read: int = 0
    stripes_total: int = 0
    stripes_pruned: int = 0
    shuffle_rows: int = 0
    peak_group_count: int = 0
    spill_events: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    types: tuple[ColumnType, ...]
    rows: list[tuple]

    def json_rows(self) -> list[list]:
        """Rows as JSON values: DATE as ISO ``YYYY-MM-DD``, NULL as None."""
        return [[days_to_iso(v) if v is not None and t is ColumnType.DATE else v
                 for v, t in zip(r, self.types)] for r in self.rows]


_OUT_TYPE = {
    "count_star": ColumnType.INT64,
    "count_distinct": ColumnType.INT64,
    "sum": ColumnType.FLOAT64,
    "avg": ColumnType.FLOAT64,
}


def result_types(query: ResolvedQuery) -> tuple[ColumnType, ...]:
    types = []
    agg_iter = iter(query.aggregates)
    for is_bucket in query.select_is_bucket:
        if is_bucket:
            types.append(ColumnType.INT64)
        else:
            agg = next(agg_iter)
            types.append(_OUT_TYPE.get(agg.kind) or agg.column.ctype)
    return tuple(types)


# --- aggregation state ---
# Partial state per group: one slot per AggSpec, None until a row lands.
#   count_star      -> int
#   count_distinct  -> list[np.ndarray], one sorted-unique array per task
#   sum / avg       -> _ExactSum of the non-NULL values
#   min / max       -> scalar, None while every value seen is NULL or NaN
# Every state but min / max merges by ``+``; finalize takes the distinct
# count of the concatenation, or the exact sum rounded once.

_SUM_SHIFT = 1126   # every finite float times 2**1126 is an integer
_SUM_SCALE = 2**_SUM_SHIFT
_SUM_CHUNK = 1 << 26  # a bin sum of this many half mantissas stays within 2**53


@dataclass(slots=True)
class _ExactSum:
    """SUM / AVG state in O(1) space (Neal's superaccumulator, arXiv
    1505.05571): the exact sum of the finite values times 2**1126 as one
    int, the number of values, and the counts of NaN, +inf and -inf."""

    acc: int = 0
    count: int = 0
    nan: int = 0
    pinf: int = 0
    ninf: int = 0

    @classmethod
    def of(cls, values: np.ndarray) -> "_ExactSum":
        state = cls(count=len(values))
        finite = np.isfinite(values)
        if not finite.all():
            state.nan = int(np.count_nonzero(np.isnan(values)))
            state.pinf = int(np.count_nonzero(values == math.inf))
            state.ninf = int(np.count_nonzero(values == -math.inf))
            values = values[finite]
        for lo in range(0, len(values), _SUM_CHUNK):
            state.acc += _exact_int(values[lo:lo + _SUM_CHUNK])
        return state

    def __add__(self, other: "_ExactSum") -> "_ExactSum":
        return _ExactSum(self.acc + other.acc, self.count + other.count,
                         self.nan + other.nan, self.pinf + other.pinf,
                         self.ninf + other.ninf)

    def value(self, avg: bool) -> float | None:
        """The IEEE result: NaN when a NaN or both infinities are present,
        else the infinity present; else the exact sum rounded once (+-inf
        past the range). AVG is that sum over the count, or, for a sum past
        the range, the exact sum over the count rounded once."""
        if self.count == 0:
            return None
        if self.nan or (self.pinf and self.ninf):
            return math.nan
        if self.pinf or self.ninf:
            return math.inf if self.pinf else -math.inf
        try:
            total = self.acc / _SUM_SCALE  # int true division rounds correctly
        except OverflowError:
            if avg:
                return self.acc / (_SUM_SCALE * self.count)
            return math.inf if self.acc > 0 else -math.inf
        return total / self.count if avg else total


def _exact_int(values: np.ndarray) -> int:
    """Sum of finite ``values`` times 2**1126, exactly, for at most 2**26
    values: each 53-bit integer mantissa is cut into a 27-bit and a 26-bit
    half, and each half is summed per binary exponent by ``np.bincount``."""
    if len(values) == 0:
        return 0
    frac, exp = np.frexp(values)
    mant = (frac * 2.0**53).astype(np.int64)  # value = mant * 2**(exp - 53)
    shift = exp + (_SUM_SHIFT - 53)            # >= 0: the least exponent is -1073
    acc = 0
    for half, low_bits in ((mant >> 26, 26), (mant & ((1 << 26) - 1), 0)):
        sums = np.bincount(shift, weights=half)
        nz = np.flatnonzero(sums)
        for s, v in zip(nz.tolist(), sums[nz].astype(np.int64).tolist()):
            acc += v << (s + low_bits)
    return acc


def _sorted_unique(arr: np.ndarray) -> np.ndarray:
    """Distinct values of ``arr``, sorted; all NaNs count as one value."""
    s = np.sort(arr)
    if len(s) < 2:
        return s
    new = s[1:] != s[:-1]
    if s.dtype == np.float64:
        nan = np.isnan(s)  # NaNs sort last, whatever their payload
        new &= ~(nan[1:] & nan[:-1])
    return s[np.concatenate(([True], new))]


def _spec_partial(spec: AggSpec, batch_cols: list, idx_groups):
    """Given per-group row index arrays, make per-group partial slots."""
    out = {}
    if spec.kind == "count_star":
        for g, idx in idx_groups.items():
            out[g] = len(idx)
        return out
    col = batch_cols[spec.input_pos]
    data, valid = col.data, col.valid
    for g, idx in idx_groups.items():
        d = data[idx]
        v = None if valid is None else valid[idx]
        if v is not None:
            d = d[v]
        if spec.kind == "count_distinct":
            out[g] = [_sorted_unique(d)]
        elif spec.kind in ("sum", "avg"):
            out[g] = _ExactSum.of(d.astype(np.float64, copy=False))
        else:  # min / max
            if d.dtype == np.float64:
                d = d[~np.isnan(d)]
            if len(d) == 0:
                out[g] = None
            elif spec.kind == "min":
                out[g] = d.min()
            else:
                out[g] = d.max()
    return out


def _merge_spec(spec: AggSpec, a, b):
    if spec.kind == "min":
        return min(a, b)
    if spec.kind == "max":
        return max(a, b)
    return a + b


def _merge_slots(specs, merged: dict[int, list], groups: dict[int, list]) -> None:
    """Fold ``{group: [state per spec]}`` into ``merged``, slot by slot."""
    for g, states in groups.items():
        slot = merged.setdefault(g, [None] * len(specs))
        for si, st in enumerate(states):
            if slot[si] is None:
                slot[si] = st
            elif st is not None:
                slot[si] = _merge_spec(specs[si], slot[si], st)


def _finalize_spec(spec: AggSpec, state):
    if state is None:
        return 0 if spec.kind in ("count_star", "count_distinct") else None
    if spec.kind == "count_star":
        return int(state)
    if spec.kind == "count_distinct":
        return len(_sorted_unique(np.concatenate(state)))
    if spec.kind in ("sum", "avg"):
        return state.value(spec.kind == "avg")
    return state.item() if isinstance(state, np.generic) else state


def _group_indices(gid: np.ndarray, in_range: np.ndarray | None) -> dict[int, np.ndarray]:
    """Map group id -> ascending row indices, vectorized groupby."""
    if in_range is not None:
        base = np.flatnonzero(in_range)
        g = gid[base]
    else:
        base = None
        g = gid
    if len(g) == 0:
        return {}
    lo = g.min()
    if int(g.max()) - int(lo) < 2**15:
        # numpy's stable sort of 16-bit ints is a radix sort, same permutation
        order = np.argsort((g - lo).astype(np.int16), kind="stable")
    else:
        order = np.argsort(g, kind="stable")
    gs = g[order]
    bounds = np.flatnonzero(np.diff(gs)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(gs)]))
    out = {}
    for s, e in zip(starts, ends):
        rows = order[s:e]
        if base is not None:
            rows = base[rows]
        out[int(gs[s])] = rows
    return out


@dataclass
class _BuildSide:
    """A join build side, prepared once for any number of probes."""
    keys: np.ndarray    # distinct non-NULL, non-NaN build keys, ascending
    starts: np.ndarray  # where each key's run starts in ``order``
    counts: np.ndarray  # the run's length
    order: np.ndarray   # build rows with a key, stably sorted by key
    cols: list          # build output columns, all rows
    table: np.ndarray | None = None  # key - keys[0] -> run index, or -1


# int64 build keys whose range spans at most 4 slots a distinct key, plus
# 1024, get a direct-address table; the build's row budget bounds its size
TABLE_SLOTS_PER_KEY, TABLE_SLOTS_SPARE = 4, 1024


def _key_rows(col) -> np.ndarray | None:
    """Rows whose join key can match (not NULL, not NaN); None for all."""
    valid = col.valid
    if col.data.dtype == np.float64:
        not_nan = ~np.isnan(col.data)
        valid = not_nan if valid is None else valid & not_nan
    if valid is None or valid.all():
        return None
    return np.flatnonzero(valid)


def _prepare_build(key_col, cols: list) -> _BuildSide:
    keys = key_col.data
    rows = _key_rows(key_col)
    if rows is not None:
        keys = keys[rows]
    order = np.argsort(keys, kind="stable")
    skeys = keys[order]
    if rows is not None:
        order = rows[order]
    new = np.ones(len(skeys), dtype=bool)
    new[1:] = skeys[1:] != skeys[:-1]
    starts = np.flatnonzero(new)
    counts = np.diff(np.append(starts, len(skeys)))
    dkeys, table = skeys[starts], None
    span = int(dkeys[-1]) - int(dkeys[0]) + 1 if dkeys.dtype == np.int64 and len(dkeys) else 0
    if 0 < span <= TABLE_SLOTS_PER_KEY * len(dkeys) + TABLE_SLOTS_SPARE:
        table = np.full(span, -1, dtype=np.intp)
        table[dkeys - dkeys[0]] = np.arange(len(dkeys))
    return _BuildSide(dkeys, starts, counts, order, cols, table)


def _probe(build: _BuildSide, key_col) -> tuple[np.ndarray, np.ndarray] | None:
    """``(probe rows, build rows)`` of every matching pair, in probe order,
    then build order within equal keys; None when nothing matches. String
    keys compare as their UTF-8 ``bytes`` (``StrColumn.data``), float keys
    as IEEE values (-0.0 = 0.0)."""
    keys = key_col.data
    rows = _key_rows(key_col)
    if rows is not None:
        keys = keys[rows]
    if len(keys) == 0 or len(build.keys) == 0:
        return None
    # each key's candidate run; a key it does not match is no hit
    if build.table is not None:
        # clipped before the subtraction, so no key wraps; an absent key's
        # -1 slot, or a clipped key, meets a run key it does not equal
        lo, hi = build.keys[0], build.keys[-1]
        pos = build.table[np.clip(keys, lo, hi) - lo]
    else:
        # one search, of the sorted probe keys; the scatter restores probe order
        perm = np.argsort(keys)
        pos = np.empty(len(keys), dtype=np.intp)
        pos[perm] = np.searchsorted(build.keys, keys[perm], side="left")
        np.minimum(pos, len(build.keys) - 1, out=pos)
    hit = np.flatnonzero(build.keys[pos] == keys)
    if len(hit) == 0:
        return None
    pos = pos[hit]
    probe_rows = hit if rows is None else rows[hit]
    if len(build.keys) == len(build.order):  # every build key once
        return probe_rows, build.order[pos]
    counts = build.counts[pos]
    ends = np.cumsum(counts)
    # pair j of a run is build row order[start + j]
    shift = np.repeat(build.starts[pos] - (ends - counts), counts)
    build_rows = build.order[np.arange(int(ends[-1])) + shift]
    return np.repeat(probe_rows, counts), build_rows


# the pool every query shares; made on first use through the module attribute
# ``ThreadPoolExecutor``, so a subclass put there before then is the one used
_WORKERS = os.cpu_count() or 1
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            # the calling thread is always one lane, so the pool is one fewer
            _pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1),
                                       thread_name_prefix="stripehouse-engine")
        return _pool


def _run_tasks(tasks: list, lanes: int) -> None:
    """Run ``tasks``, at most ``lanes`` at once: the calling thread and
    ``lanes - 1`` lanes on the shared pool each take the next task until
    none is left. After the first failure no task is taken; the running
    ones finish, then the failure is raised."""
    it = iter(tasks)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def lane():
        while True:
            with lock:
                fn = None if errors else next(it, None)
            if fn is None:
                return
            try:
                fn()
            except BaseException as e:
                with lock:
                    errors.append(e)
                return

    helpers = [_shared_pool().submit(lane) for _ in range(min(lanes, len(tasks)) - 1)]
    lane()
    if helpers:
        for f in helpers:
            f.cancel()  # a lane still queued would find nothing left to take
        wait(helpers)
    if errors:
        raise errors[0]


class Engine:
    """Executes physical plans; one query at a time per engine object."""

    def __init__(self, data_root=None):
        self.data_root = resolve_data_root(data_root)
        self._busy = threading.Lock()

    # --- public API ---

    def execute(self, plan: PhysicalPlan, config: ExecConfig) -> tuple[ResultTable, QueryMetrics]:
        if not self._busy.acquire(blocking=False):
            raise EngineBusy("engine already running a query")
        try:
            t0 = time.perf_counter()
            result, metrics = self._run(plan, config)
            metrics.response_time_s = time.perf_counter() - t0
            return result, metrics
        finally:
            self._busy.release()

    # --- internals ---

    def _run(self, plan: PhysicalPlan, config: ExecConfig):
        metrics = QueryMetrics(
            stripes_total=plan.stripes_total,
            stripes_pruned=plan.stripes_pruned,
        )
        query = plan.query
        spill_dir = None  # only a ShuffleOp can spill
        if any(isinstance(op, ShuffleOp) for stage in plan.stages for op in stage):
            spill_dir = self.data_root / "shuffle" / uuid.uuid4().hex
        state = _QueryState(plan, config, metrics, spill_dir)
        lanes = min(config.slots, _WORKERS)
        try:
            for stage in plan.stages:
                tasks = []
                for op in stage:
                    tasks.extend(state.tasks_for(op))
                _run_tasks(tasks, lanes)
            rows = state.outputs[plan.stages[-1][0].op_id][0]  # the last stage's one task
        finally:
            if spill_dir is not None and spill_dir.exists():
                shutil.rmtree(spill_dir, ignore_errors=True)
        result = ResultTable(
            columns=query.select_labels,
            types=result_types(query),
            rows=rows,
        )
        return result, metrics


class _QueryState:
    """Mutable run state: op outputs, shuffle staging, metrics."""

    def __init__(self, plan: PhysicalPlan, config: ExecConfig, metrics: QueryMetrics,
                 spill_dir: Path | None):
        self.plan = plan
        self.metrics = metrics
        self.spill_dir = spill_dir  # None for a plan with no ShuffleOp
        self.reducers = config.slots
        self.budget = config.executor_mem_rows
        # op_id -> {task or bucket: Batch | None | {group: [spec states]} | [row tuple]}
        self.outputs: dict[int, dict[int, object]] = {}
        # (shuffle op_id, bucket) -> {producer: Batch | spill file Path}
        self.staging: dict[tuple[int, int], dict[int, Batch | Path]] = {}
        self.bucket_rows: dict[tuple[int, int], int] = {}
        self._lock = threading.Lock()

    # --- task generation per op ---

    def tasks_for(self, op):
        self.outputs[op.op_id] = {}
        if isinstance(op, ScanOp):
            return [
                (lambda o=op, t=i: self._scan_task(o, t))
                for i in range(len(op.tasks))
            ]
        if isinstance(op, ShuffleOp):
            producers = sorted(self.outputs[op.input_op])
            return [
                (lambda o=op, p=pid: self._shuffle_task(o, p))
                for pid in producers
            ]
        if isinstance(op, JoinOp) and op.broadcast:
            built = self.outputs[op.build_input]
            build = self._build_side(op, _concat_batches(
                [built[t] for t in sorted(built) if built[t] is not None]))
            return [
                (lambda o=op, t=tid, b=build: self._join_task(o, t, b))
                for tid in sorted(self.outputs[op.probe_input])
            ]
        if isinstance(op, JoinOp):
            return [
                (lambda o=op, b=i: self._join_task(o, b))
                for i in range(self.reducers)
            ]
        if isinstance(op, AggPartialOp):
            task_ids = sorted(self.outputs[op.input_op])
            return [
                (lambda o=op, t=tid: self._agg_partial_task(o, t))
                for tid in task_ids
            ]
        if isinstance(op, AggFinalOp):
            return [lambda o=op: self._finalize(o)]
        if isinstance(op, MetadataCountOp):
            return [lambda o=op: self._metadata_count(o)]
        raise AssertionError(f"unexpected op {op}")

    # --- scan ---

    def _metadata_count(self, op: MetadataCountOp):
        """COUNT(*) from the footers' row counts; no stripe is read."""
        footers = [self.plan.footers[path] for path in op.paths]
        with self._lock:
            self.metrics.bytes_read += sum(f.bytes_read for f in footers)
            self.metrics.stripes_total += sum(len(f.stripes) for f in footers)
        self.outputs[op.op_id][0] = [(sum(f.row_count for f in footers),)]

    def _scan_task(self, op: ScanOp, task_idx: int):
        task = op.tasks[task_idx]
        pred_cols = {c.col for c in op.conjuncts}
        needed = sorted(set(op.projection) | pred_cols)
        if op.fmt is StorageFormat.STRIPE:
            footer = self.plan.footers[task.path]
            cols, nbytes = stripefile.read_stripe_columns(
                task.path, footer, task.stripe_index, needed
            )
            stats = C.ScanStats(rows_read=task.rows, bytes_read=nbytes)
            parts = [(task.rows, cols)]
        else:
            parts = scan_rowtext_columnar(task.path, op.schema, needed, ENGINE_BATCH_ROWS)
            stats = parts.stats
        kept = [C.filter_project(cols, op.conjuncts, op.projection, n_rows)
                for n_rows, cols in parts]
        with self._lock:
            self.metrics.rows_read += stats.rows_read
            self.metrics.bytes_read += stats.bytes_read
        self.outputs[op.op_id][task_idx] = _concat_batches(
            [Batch(*k) for k in kept if k is not None])

    # --- shuffle ---

    def _shuffle_task(self, op: ShuffleOp, producer: int):
        batch = self.outputs[op.input_op][producer]
        if batch is None:
            return
        key_col = batch.cols[op.key_pos]
        rows = _key_rows(key_col)  # NULL and NaN keys match nothing: not shuffled
        keys = key_col.data if rows is None else key_col.data[rows]
        if isinstance(key_col, C.StrColumn):  # the UTF-8 bytes
            h = np.fromiter(map(fnv1a64, keys), dtype=np.uint64, count=len(keys))
        else:
            h = _fnv_int64_vector(keys)
        buckets = (h % np.uint64(self.reducers)).astype(np.int64)
        rows_moved = 0
        for b, idx in _group_indices(buckets, None).items():
            if rows is not None:
                idx = rows[idx]
            self._stage_bucket(op.op_id, b, producer,
                               Batch(len(idx), [C.take(c, idx) for c in batch.cols]))
            rows_moved += len(idx)
        with self._lock:
            self.metrics.shuffle_rows += rows_moved

    def _stage_bucket(self, op_id: int, bucket: int, producer: int, batch: Batch) -> None:
        key = (op_id, bucket)
        with self._lock:
            total = self.bucket_rows.get(key, 0) + batch.n_rows
            self.bucket_rows[key] = total
            slot = self.staging.setdefault(key, {})
        if total > self.budget:
            path = self.spill_dir / f"{op_id}-{bucket}-{producer}{stripefile.EXTENSION}"
            _write_spill(path, batch)
            with self._lock:
                self.metrics.spill_events += 1
            slot[producer] = path
        else:
            slot[producer] = batch

    def _load_bucket(self, op_id: int, bucket: int) -> Batch | None:
        slot = self.staging.get((op_id, bucket), {})
        return _concat_batches([_read_spill(e) if isinstance(e, Path) else e
                                for _, e in sorted(slot.items())])

    # --- join ---

    def _join_task(self, op: JoinOp, task: int, build: _BuildSide | None = None):
        """Join one probe-scan task's output (broadcast) or one bucket (shuffle)."""
        if op.broadcast:
            probe = self.outputs[op.probe_input][task]
        else:
            probe = self._load_bucket(op.probe_input, task)
            build = self._build_side(op, self._load_bucket(op.build_input, task))
        out = None
        if build is not None and probe is not None:
            pairs = _probe(build, probe.cols[op.probe_key_pos])
            if pairs is not None:
                probe_idx, build_idx = pairs
                out = Batch(len(probe_idx),
                            [C.take(probe.cols[p], probe_idx) for p in op.probe_out]
                            + [C.take(c, build_idx) for c in build.cols])
        self.outputs[op.op_id][task] = out

    def _build_side(self, op: JoinOp, batch: Batch | None) -> _BuildSide | None:
        if batch is None:
            return None
        if batch.n_rows > self.budget:
            raise MemoryBudgetExceeded(
                f"join build side of {batch.n_rows} rows exceeds budget {self.budget}"
            )
        return _prepare_build(batch.cols[op.build_key_pos],
                              [batch.cols[p] for p in op.build_out])

    # --- aggregation ---

    def _agg_partial_task(self, op: AggPartialOp, task_id: int):
        batch = self.outputs[op.input_op][task_id]
        merged: dict[int, list] = {}
        if batch is not None:
            idx_groups = self._bucketize(op, batch)
            # SUM and AVG of one column, or a repeated aggregate, share one state
            made: dict[tuple, dict] = {}
            parts = []
            held = 0  # distinct values charged to the row budget
            for spec in op.specs:
                key = ("sum" if spec.kind == "avg" else spec.kind, spec.input_pos)
                if key not in made:
                    made[key] = _spec_partial(spec, batch.cols, idx_groups)
                    if spec.kind == "count_distinct":
                        held += sum(len(st[0]) for st in made[key].values())
                parts.append(made[key])
            if held > self.budget:
                raise MemoryBudgetExceeded(
                    f"distinct set of {held} rows exceeds budget {self.budget}")
            merged = {g: [p[g] for p in parts] for g in idx_groups}
        with self._lock:
            if len(merged) > self.metrics.peak_group_count:
                self.metrics.peak_group_count = len(merged)
        self.outputs[op.op_id][task_id] = merged

    def _bucketize(self, op: AggPartialOp, batch: Batch) -> dict[int, np.ndarray]:
        if op.bucket_pos is None:
            return {0: np.arange(batch.n_rows)}
        col = batch.cols[op.bucket_pos]
        edges = np.asarray(op.bucket_edges, dtype=np.float64)
        data = col.data.astype(np.float64, copy=False)
        gid = np.searchsorted(edges, data, side="right") - 1
        in_range = (gid >= 0) & (gid < len(edges) - 1)
        # NULL never enters a bucket; NaN falls out via searchsorted -> k
        if col.valid is not None:
            in_range &= col.valid
        return _group_indices(gid, in_range)

    def _finalize(self, op: AggFinalOp):
        """Merge the partial tasks' ``{group: [spec states]}`` in task order
        and emit the result rows in ascending group order."""
        shards = self.outputs[op.input_op]
        merged: dict[int, list] = {}
        for t in sorted(shards):
            _merge_slots(op.specs, merged, shards[t])
        with self._lock:
            if len(merged) > self.metrics.peak_group_count:
                self.metrics.peak_group_count = len(merged)
        if not op.grouped and not merged:
            merged[0] = [None] * len(op.specs)
        rows = []
        query = self.plan.query
        for g in sorted(merged):
            finals = [_finalize_spec(spec, st) for spec, st in zip(op.specs, merged[g])]
            row = []
            agg_i = 0
            for is_bucket in query.select_is_bucket:
                if is_bucket:
                    row.append(int(g))
                else:
                    row.append(finals[agg_i])
                    agg_i += 1
            rows.append(tuple(row))
        self.outputs[op.op_id][0] = rows


def execute(plan: PhysicalPlan, config: ExecConfig, data_root=None):
    """One-shot convenience wrapper around Engine.execute."""
    return Engine(data_root).execute(plan, config)

