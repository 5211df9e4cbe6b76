"""Plan execution on a pool of executors * cores worker slots.

Stages run in plan order with a barrier between stages; tasks inside a
stage are independent. Each op's output goes to one map keyed by op and
task (or bucket). The one shuffle, of join rows, stages into one map keyed
by (op, bucket, producer-task), so producers never contend; buckets past
the per-executor row budget spill to ``<root>/shuffle/``. Every plan ends
in one AggFinal task that merges the partial groups in task order.

One path per job: every join key type goes through one stable-argsort +
searchsorted join; shuffle buckets and aggregation groups are split by
one row splitter (``_group_indices``); every collecting aggregate keeps a
list of arrays merged by ``+``, and distinct values come from one
sort-based ``_sorted_unique``.

Determinism: task sets depend only on the plan; every merge walks inputs
in producer-task order; SUM/AVG accumulate with exact summation
(math.fsum over the group's full value multiset), so results are
bit-identical across executor counts, prune on/off, and storage formats.

Timing uses a monotonic clock.
"""

from __future__ import annotations

import itertools
import math
import pickle
import shutil
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import columns as C
from . import stripefile
from .errors import EngineBusy, IoFailure, MemoryBudgetExceeded
from .planner import (
    AggFinalOp,
    AggPartialOp,
    AggSpec,
    ExecConfig,
    JoinOp,
    PhysicalPlan,
    ScanOp,
    ShuffleOp,
)
from .predicate import row_passes
from .rowtext import scan_rowtext_columnar
from .schema import ColumnType, StorageFormat, resolve_data_root
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


def fnv1a64_int(value: int) -> int:
    return fnv1a64(int(value).to_bytes(8, "little", signed=True))


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
        return {
            "response_time_s": self.response_time_s,
            "rows_read": self.rows_read,
            "bytes_read": self.bytes_read,
            "stripes_total": self.stripes_total,
            "stripes_pruned": self.stripes_pruned,
            "shuffle_rows": self.shuffle_rows,
            "peak_group_count": self.peak_group_count,
            "spill_events": self.spill_events,
        }


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
#   count_distinct  -> list[np.ndarray], one sorted-unique array per batch
#   sum / avg       -> list[np.ndarray] of non-NULL values
#   min / max       -> scalar, None while every value seen is NULL or NaN
# Every state but min / max merges by ``+``; finalize takes the distinct
# count of the concatenation, or the exact (math.fsum) sum of the values.


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


def _spec_partial(spec: AggSpec, batch_cols: list, idx_groups, budget_tracker):
    """Given per-group row index arrays, make per-group partial slots."""
    out = {}
    if spec.kind == "count_star":
        for g, idx in idx_groups.items():
            out[g] = len(idx)
        return out
    col = batch_cols[spec.input_pos]
    if isinstance(col, C.LazyStrColumn):
        col = col.decode()
        batch_cols[spec.input_pos] = col
    data, valid = col.data, col.valid
    for g, idx in idx_groups.items():
        d = data[idx]
        v = None if valid is None else valid[idx]
        if v is not None:
            d = d[v]
        if spec.kind == "count_distinct":
            uniq = _sorted_unique(d)
            budget_tracker.add(len(uniq))
            out[g] = [uniq]
        elif spec.kind in ("sum", "avg"):
            out[g] = [d.astype(np.float64, copy=False)]
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
        count = sum(len(a) for a in state)
        if count == 0:
            return None
        try:
            # per-array tolist keeps the transient list one batch long
            total = math.fsum(itertools.chain.from_iterable(a.tolist() for a in state))
        except (ValueError, OverflowError):  # inf with -inf, or a partial sum past the range
            return _special_sum(np.concatenate(state), spec.kind == "avg")
        if spec.kind == "sum":
            return total
        return total / count
    return state.item() if isinstance(state, np.generic) else state


_ULP_SCALE = 2**1074  # every finite float times this is an integer


def _special_sum(values: np.ndarray, avg: bool) -> float:
    """SUM / AVG where ``math.fsum`` raised. NaN, or both infinities, give
    NaN and one infinity gives itself; otherwise the exact sum (over the
    count, for AVG) is rounded once, and a SUM past the range is +-inf."""
    special = values[~np.isfinite(values)]
    if len(special):
        # all equal only when every special value is the same infinity
        return float(special[0]) if (special == special[0]).all() else math.nan
    exact = sum(n * (_ULP_SCALE // d) for n, d in map(float.as_integer_ratio, values.tolist()))
    try:
        return exact / (_ULP_SCALE * (len(values) if avg else 1))
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


class _BudgetTracker:
    """Per-task distinct-set budget; raises past the configured row budget."""

    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0

    def add(self, n: int) -> None:
        self.used += n
        if self.used > self.budget:
            raise MemoryBudgetExceeded(
                f"distinct set of {self.used} rows exceeds budget {self.budget}"
            )


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
        if plan.is_metadata_count:
            op = plan.stages[0][0]
            total = 0
            for path in op.paths:
                footer = stripefile.read_footer(path)
                total += footer.row_count
                metrics.bytes_read += footer.bytes_read
                metrics.stripes_total += len(footer.stripes)
            result = ResultTable(
                columns=query.select_labels,
                types=result_types(query),
                rows=[(total,)],
            )
            return result, metrics

        spill_dir = self.data_root / "shuffle" / uuid.uuid4().hex
        state = _QueryState(plan, config, metrics, spill_dir)
        pool = ThreadPoolExecutor(max_workers=config.slots)
        try:
            for stage in plan.stages:
                tasks = []
                for op in stage:
                    tasks.extend(state.tasks_for(op))
                if not tasks:
                    continue
                # propagate the first failure, keep the process alive
                for _ in pool.map(lambda fn: fn(), tasks):
                    pass
            rows = state.outputs[plan.stages[-1][0].op_id][0]  # the one AggFinal task
        finally:
            pool.shutdown(wait=True)
            if spill_dir.exists():
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
                 spill_dir):
        self.plan = plan
        self.metrics = metrics
        self.spill_dir = spill_dir
        self.reducers = config.slots
        self.budget = config.executor_mem_rows
        # op_id -> {task or bucket: [Batch] | {group: [spec states]} | [row tuple]}
        self.outputs: dict[int, dict[int, object]] = {}
        # (shuffle op_id, bucket) -> {producer: [Batch] | ('spill', path)}
        self.staging: dict[tuple[int, int], dict[int, object]] = {}
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
        raise AssertionError(f"unexpected op {op}")

    # --- scan ---

    def _scan_task(self, op: ScanOp, task_idx: int):
        task = op.tasks[task_idx]
        pred_cols = {c.col for c in op.conjuncts}
        needed = sorted(set(op.projection) | pred_cols)
        batches: list[Batch] = []
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
        for n_rows, cols in parts:
            kept = C.filter_project(cols, op.conjuncts, op.projection, n_rows)
            if kept is not None:
                batches.append(Batch(*kept))
        with self._lock:
            self.metrics.rows_read += stats.rows_read
            self.metrics.bytes_read += stats.bytes_read
        self.outputs[op.op_id][task_idx] = batches

    # --- shuffle ---

    def _shuffle_task(self, op: ShuffleOp, producer: int):
        batches = self.outputs[op.input_op][producer]
        r = self.reducers
        parts: dict[int, list[Batch]] = {}
        rows_moved = 0
        for batch in batches:
            key_col = batch.cols[op.key_pos]
            if isinstance(key_col, C.LazyStrColumn):
                key_col = key_col.decode()
                batch.cols[op.key_pos] = key_col
            if isinstance(key_col, C.StrColumn):
                h = np.fromiter(
                    (
                        fnv1a64(v.encode("utf-8")) if v is not None else 0
                        for v in key_col.data
                    ),
                    dtype=np.uint64,
                    count=batch.n_rows,
                )
            else:
                h = _fnv_int64_vector(key_col.data)
            buckets = (h % np.uint64(r)).astype(np.int64)
            valid = key_col.valid
            if key_col.data.dtype == np.float64:
                # NaN equals nothing, so NaN keys go with NULL keys
                not_nan = ~np.isnan(key_col.data)
                valid = not_nan if valid is None else valid & not_nan
            # NULL keys are dropped before the shuffle
            for b, idx in _group_indices(buckets, valid).items():
                sub = Batch(len(idx), [C.take(c, idx) for c in batch.cols])
                parts.setdefault(b, []).append(sub)
                rows_moved += len(idx)
        for b, sub_batches in parts.items():
            self._stage_bucket(op.op_id, b, producer, sub_batches)
        with self._lock:
            self.metrics.shuffle_rows += rows_moved

    def _stage_bucket(self, op_id: int, bucket: int, producer: int,
                      batches: list[Batch]) -> None:
        n = sum(b.n_rows for b in batches)
        key = (op_id, bucket)
        with self._lock:
            total = self.bucket_rows.get(key, 0) + n
            self.bucket_rows[key] = total
            slot = self.staging.setdefault(key, {})
        if total > self.budget:
            path = self.spill_dir / f"{op_id}-{bucket}-{producer}.pkl"
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                with open(path, "wb") as f:
                    pickle.dump(batches, f, protocol=pickle.HIGHEST_PROTOCOL)
            except OSError as e:
                raise IoFailure(f"cannot spill shuffle bucket: {e}") from e
            with self._lock:
                self.metrics.spill_events += 1
            slot[producer] = ("spill", str(path))
        else:
            slot[producer] = batches

    def _load_bucket(self, op_id: int, bucket: int) -> list[Batch]:
        slot = self.staging.get((op_id, bucket), {})
        out: list[Batch] = []
        for producer in sorted(slot):
            entry = slot[producer]
            if isinstance(entry, tuple) and entry and entry[0] == "spill":
                try:
                    with open(entry[1], "rb") as f:
                        out.extend(pickle.load(f))
                except OSError as e:
                    raise IoFailure(f"cannot read spilled bucket: {e}") from e
            else:
                out.extend(entry)
        return out

    # --- join ---

    def _join_task(self, op: JoinOp, bucket: int):
        build = self._load_bucket(op.build_input, bucket)
        probe = self._load_bucket(op.probe_input, bucket)
        out: list[Batch] = []
        build_rows = sum(b.n_rows for b in build)
        if build_rows > self.budget:
            raise MemoryBudgetExceeded(
                f"join build side of {build_rows} rows exceeds budget {self.budget}"
            )
        if build and probe:
            out_batch = self._hash_join(op, build, probe)
            if out_batch is not None:
                out.append(out_batch)
        self.outputs[op.op_id][bucket] = out

    def _hash_join(self, op: JoinOp, build: list[Batch], probe: list[Batch]) -> Batch | None:
        """Equi-join of one bucket, for every key type (str keys compare as
        Python objects): stable argsort of the build keys, then searchsorted
        of the probe keys. Rows come out in probe order, then in build order
        within equal keys."""
        bkey_col = C.concat([b.cols[op.build_key_pos] for b in build])
        build_cols = [
            C.concat([b.cols[p] for b in build]) for p in op.build_out
        ]
        bkeys = bkey_col.data
        order = np.argsort(bkeys, kind="stable")
        skeys = bkeys[order]
        pkey_col = C.concat([b.cols[op.probe_key_pos] for b in probe])
        pkeys = pkey_col.data
        lo = np.searchsorted(skeys, pkeys, side="left")
        hi = np.searchsorted(skeys, pkeys, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return None
        probe_idx = np.repeat(np.arange(len(pkeys)), counts)
        starts = np.repeat(lo, counts)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(total) - np.repeat(offsets, counts)
        build_idx = order[starts + within]
        probe_cols = [
            C.take(C.concat([b.cols[p] for b in probe]), probe_idx)
            for p in op.probe_out
        ]
        out_cols = probe_cols + [C.take(bc, build_idx) for bc in build_cols]
        return Batch(total, out_cols)

    # --- aggregation ---

    def _agg_partial_task(self, op: AggPartialOp, task_id: int):
        batches = self.outputs[op.input_op][task_id]
        tracker = _BudgetTracker(self.budget)
        merged: dict[int, list] = {}
        for batch in batches:
            idx_groups = self._bucketize(op, batch)
            parts = [_spec_partial(spec, batch.cols, idx_groups, tracker)
                     for spec in op.specs]
            _merge_slots(op.specs, merged, {g: [p[g] for p in parts] for g in idx_groups})
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


# --- brute-force oracle ---

def brute_force(query: ResolvedQuery, tables: dict[str, list[tuple]]) -> ResultTable:
    """Single-threaded reference evaluator over raw row tuples.

    ``tables`` maps table name -> full row list. Filter, nested hash join,
    bucket, aggregate; same output ordering contract as execute().
    """
    names = query.table_names
    filtered = []
    for pos, name in enumerate(names):
        rows = tables[name]
        cs = query.conjuncts[pos]
        filtered.append([r for r in rows if row_passes(cs, r)] if cs else list(rows))

    if query.join_cols is not None:
        left_key, right_key = query.join_cols
        # NULL and NaN keys equal nothing (a dict would match one NaN object)
        build: dict = {}
        for r in filtered[1]:
            k = r[right_key.index]
            if k is None or k != k:
                continue
            build.setdefault(k, []).append(r)
        joined = []
        for r in filtered[0]:
            k = r[left_key.index]
            if k is None or k != k:
                continue
            for rr in build.get(k, ()):
                joined.append((r, rr))

        def get(col):
            def g(pair):
                return pair[col.table_pos][col.index]
            return g
    else:
        joined = filtered[0]

        def get(col):
            def g(row):
                return row[col.index]
            return g

    k_groups = None
    edges = None
    if query.bucket:
        edges = [float(e) for e in query.bucket.edges]
        k_groups = len(edges) - 1
        bucket_get = get(query.bucket.column)

    import bisect

    def group_of(item):
        if query.bucket is None:
            return 0
        v = bucket_get(item)
        if v is None:
            return None
        v = float(v)
        if math.isnan(v) or v < edges[0] or v >= edges[-1]:
            return None
        return bisect.bisect_right(edges, v) - 1

    groups: dict[int, list] = {}
    for item in joined:
        g = group_of(item)
        if g is None:
            continue
        groups.setdefault(g, []).append(item)
    if query.bucket is None and not groups:
        groups[0] = []

    getters = [None if a.column is None else get(a.column) for a in query.aggregates]
    out_rows = []
    for g in sorted(groups):
        items = groups[g]
        finals = []
        for agg, getter in zip(query.aggregates, getters):
            if agg.kind == "count_star":
                finals.append(len(items))
                continue
            vals = [getter(it) for it in items]
            vals = [v for v in vals if v is not None]
            if agg.kind == "count_distinct":
                seen = set()
                for v in vals:
                    if isinstance(v, float) and math.isnan(v):
                        seen.add("__nan__")
                    else:
                        seen.add(v)
                finals.append(len(seen))
            elif agg.kind in ("sum", "avg"):
                if not vals:
                    finals.append(None)
                else:
                    finals.append(_oracle_sum([float(v) for v in vals], agg.kind == "avg"))
            else:
                nn = [v for v in vals if not (isinstance(v, float) and math.isnan(v))]
                if not nn:
                    finals.append(None)
                else:
                    finals.append(min(nn) if agg.kind == "min" else max(nn))
        row = []
        agg_i = 0
        for is_bucket in query.select_is_bucket:
            if is_bucket:
                row.append(g)
            else:
                row.append(finals[agg_i])
                agg_i += 1
        out_rows.append(tuple(row))
    return ResultTable(
        columns=query.select_labels,
        types=result_types(query),
        rows=out_rows,
    )


def _oracle_sum(vals: list[float], avg: bool) -> float:
    """IEEE special values first, then the finite values summed exactly."""
    if any(math.isnan(v) for v in vals) or (math.inf in vals and -math.inf in vals):
        return math.nan
    for inf in (math.inf, -math.inf):
        if inf in vals:
            return inf
    try:
        total = math.fsum(vals)
        return total / len(vals) if avg else total
    except OverflowError:
        from fractions import Fraction

        exact = sum(map(Fraction, vals), Fraction(0))
    if avg:
        return float(exact / len(vals))
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf
