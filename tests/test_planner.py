import pytest

from stripehouse import stripefile
from stripehouse.datagen import encounter_schema, lab_schema
from stripehouse.planner import (
    AggFinalOp,
    AggPartialOp,
    CostConstants,
    ExecConfig,
    JoinOp,
    MetadataCountOp,
    ScanOp,
    ShuffleOp,
    estimate_cost,
    plan,
)
from stripehouse.schema import (
    Catalog,
    ColumnType,
    PartitionDescriptor,
    StorageFormat,
    TableSchema,
)
from stripehouse.sql import compile_text

COMPLEX = (
    "SELECT BUCKET(l.result_value,0,50,100,200) AS cat, "
    "COUNT(DISTINCT e.patient_id) FROM lab_procedure l "
    "JOIN encounter e ON l.encounter_id = e.encounter_id "
    "WHERE l.lab_code = 'LC03' GROUP BY cat"
)


def fake_rowtext_catalog(tmp_path, tables):
    """Catalog with row-text tables whose partitions never touch disk.

    tables: {name: (schema, [row_count per partition])}
    """
    cat = Catalog(tmp_path)
    for name, (schema, part_rows) in tables.items():
        cat.create_table(schema, StorageFormat.ROWTEXT)
        for i, rows in enumerate(part_rows):
            cat.register_partition(name, PartitionDescriptor(
                partition_id=i, worker_id=i % 8, path=f"/fake/{name}-{i}.rtx",
                format=StorageFormat.ROWTEXT, row_count=rows,
            ))
    return cat


def one_table_catalog(tmp_path, n_parts=64, rows_per_part=1_000_000):
    schema = TableSchema.create("t", [("v", ColumnType.FLOAT64, True)])
    return fake_rowtext_catalog(tmp_path, {"t": (schema, [rows_per_part] * n_parts)})


def test_metadata_count_plan(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    q = compile_text("SELECT COUNT(*) FROM lab_procedure", cat)
    p = plan(q, cat, ExecConfig())
    assert p.is_metadata_count
    assert len(p.stages) == 1
    assert not any(isinstance(op, ScanOp) for op in p.ops())


def test_metadata_shortcut_not_taken_with_predicate(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    q = compile_text("SELECT COUNT(*) FROM lab_procedure WHERE lab_id > 10", cat)
    p = plan(q, cat, ExecConfig())
    assert not p.is_metadata_count


def test_rowtext_count_plan_shape(tmp_path):
    cat = one_table_catalog(tmp_path, n_parts=8, rows_per_part=100)
    q = compile_text("SELECT COUNT(*) FROM t", cat)
    p = plan(q, cat, ExecConfig())
    assert len(p.stages) == 3
    scan = p.stages[0][0]
    assert isinstance(scan, ScanOp) and len(scan.tasks) == 8
    assert isinstance(p.stages[1][0], AggPartialOp)
    assert isinstance(p.stages[2][0], AggFinalOp)


def test_join_plan_five_stages(tmp_path):
    lab = lab_schema()
    enc = encounter_schema()
    cat = fake_rowtext_catalog(tmp_path, {
        "lab_procedure": (lab, [10_000] * 8),
        "encounter": (enc, [1_000] * 8),
    })
    q = compile_text(COMPLEX, cat)
    p = plan(q, cat, ExecConfig(executors=4, cores_per_executor=3))
    assert len(p.stages) == 5
    kinds = [tuple(type(op).__name__ for op in stage) for stage in p.stages]
    assert kinds == [
        ("ScanOp", "ScanOp"),
        ("ShuffleOp", "ShuffleOp"),
        ("JoinOp",),
        ("AggPartialOp",),
        ("AggFinalOp",),
    ]
    assert p.reducers == 12  # R = E * C


def test_predicate_pushed_to_owning_scan(tmp_path):
    cat = fake_rowtext_catalog(tmp_path, {
        "lab_procedure": (lab_schema(), [100]),
        "encounter": (encounter_schema(), [100]),
    })
    q = compile_text(COMPLEX, cat)
    p = plan(q, cat, ExecConfig())
    scans = {op.table: op for op in p.stages[0]}
    assert len(scans["lab_procedure"].conjuncts) == 1
    assert scans["encounter"].conjuncts == ()


def test_join_builds_on_smaller_side(tmp_path):
    cat = fake_rowtext_catalog(tmp_path, {
        "lab_procedure": (lab_schema(), [10_000] * 8),
        "encounter": (encounter_schema(), [1_000] * 8),
    })
    q = compile_text(COMPLEX, cat)
    p = plan(q, cat, ExecConfig())
    join = p.stages[2][0]
    assert isinstance(join, JoinOp)
    assert join.build_rows == 8_000  # encounter side
    assert join.probe_rows == 80_000


def test_prune_tasks_no_predicate_no_pruning(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    q = compile_text("SELECT SUM(result_value) FROM lab_procedure", cat)
    p = plan(q, cat, ExecConfig())
    scan = p.stages[0][0]
    assert scan.stripes_pruned == 0
    assert len(scan.tasks) == scan.stripes_total


def test_prune_tasks_selective_string_predicate(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    q = compile_text(
        "SELECT COUNT(*) FROM lab_procedure WHERE lab_code = 'LC03'", cat)
    p = plan(q, cat, ExecConfig())
    scan = p.stages[0][0]
    assert scan.stripes_pruned > 0
    assert len(scan.tasks) == scan.stripes_total - scan.stripes_pruned
    # the kept tasks are, in order, the stripes the storage rule keeps
    kept = [(path, si) for path, footer in p.footers.items()
            for si, keep in enumerate(stripefile.prune_stripes(footer, scan.conjuncts))
            if keep]
    assert [(t.path, t.stripe_index) for t in scan.tasks] == kept


def test_prune_tasks_contradictory_conjuncts(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    q = compile_text(
        "SELECT COUNT(*) FROM lab_procedure WHERE result_value > 10 "
        "AND result_value < 5", cat)
    p = plan(q, cat, ExecConfig())
    scan = p.stages[0][0]
    assert scan.tasks == ()
    assert scan.stripes_pruned == scan.stripes_total


def test_plan_determinism(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    q = compile_text(COMPLEX, cat)
    cfg = ExecConfig(executors=4, cores_per_executor=2)
    assert plan(q, cat, cfg) == plan(q, cat, cfg)


# --- cost model ---

def test_compute_term_shrinks_4x(tmp_path):
    cat = one_table_catalog(tmp_path)  # 64 tasks of 1e6 rows
    q = compile_text("SELECT COUNT(*) FROM t", cat)
    c1 = ExecConfig(executors=1, cores_per_executor=1)
    c4 = ExecConfig(executors=4, cores_per_executor=1)
    e1 = estimate_cost(plan(q, cat, c1), c1)
    e4 = estimate_cost(plan(q, cat, c4), c4)
    assert e1.compute / e4.compute == pytest.approx(4.0, rel=1e-4)


def test_tiny_plan_overhead_dominates(tmp_path):
    cat = one_table_catalog(tmp_path, n_parts=1, rows_per_part=1_000)
    q = compile_text("SELECT COUNT(*) FROM t", cat)
    c1 = ExecConfig(executors=1, cores_per_executor=1)
    c8 = ExecConfig(executors=8, cores_per_executor=1)
    t1 = estimate_cost(plan(q, cat, c1), c1).total
    t8 = estimate_cost(plan(q, cat, c8), c8).total
    assert t8 > t1


def test_interior_argmin_over_1_to_64(tmp_path):
    cat = one_table_catalog(tmp_path)  # 64 tasks x 1e6 rows
    q = compile_text("SELECT COUNT(*) FROM t", cat)
    totals = {}
    for e in range(1, 65):
        cfg = ExecConfig(executors=e, cores_per_executor=1)
        totals[e] = estimate_cost(plan(q, cat, cfg), cfg).total
    best = min(totals, key=totals.get)
    assert 1 < best < 64


def test_cost_curve_unimodal_for_big_plans(tmp_path):
    # tasks >= 8 * E_max * C and rows/task >= 1e5
    cat = one_table_catalog(tmp_path, n_parts=768, rows_per_part=100_000)
    q = compile_text("SELECT COUNT(*) FROM t", cat)
    es = [1, 2, 4, 8, 16, 32]
    totals = []
    for e in es:
        cfg = ExecConfig(executors=e, cores_per_executor=1)
        totals.append(estimate_cost(plan(q, cat, cfg), cfg).total)
    best = totals.index(min(totals))
    for i in range(best):
        assert totals[i] > totals[i + 1]
    for i in range(best, len(totals) - 1):
        assert totals[i] < totals[i + 1]
    assert 0 < best < len(es) - 1


def test_argmin_invariant_under_uniform_constant_scaling(tmp_path):
    cat = one_table_catalog(tmp_path, n_parts=768, rows_per_part=100_000)
    q = compile_text("SELECT COUNT(*) FROM t", cat)
    es = [1, 2, 4, 8, 16, 32]

    def argmin(constants):
        totals = []
        for e in es:
            cfg = ExecConfig(executors=e, cores_per_executor=1)
            totals.append(estimate_cost(plan(q, cat, cfg), cfg, constants).total)
        return es[totals.index(min(totals))]

    base = CostConstants()
    scaled = CostConstants(
        startup_per_executor=base.startup_per_executor * 7,
        per_row=base.per_row * 7,
        per_shuffle_row=base.per_shuffle_row * 7,
        coordination=base.coordination * 7,
    )
    assert argmin(base) == argmin(scaled)


def test_cost_deterministic(both_catalogs):
    cat = both_catalogs[StorageFormat.STRIPE]
    q = compile_text(COMPLEX, cat)
    cfg = ExecConfig(executors=8, cores_per_executor=3)
    p = plan(q, cat, cfg)
    assert estimate_cost(p, cfg) == estimate_cost(p, cfg)
