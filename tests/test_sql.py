import pytest
from hypothesis import given, settings, strategies as st

from stripehouse.errors import (
    LexError,
    NonIncreasingEdges,
    QuerySyntaxError,
    QueryTypeError,
    UnknownColumn,
    UnknownTable,
)
from stripehouse.datagen import encounter_schema, lab_schema
from stripehouse.schema import Catalog, ColumnType, StorageFormat
from stripehouse.sql import (
    Aggregate,
    BucketExpr,
    compile_text,
    parse_text,
    tokenize,
    unparse,
    validate,
)

COMPLEX = (
    "SELECT BUCKET(l.result_value,0,50,100,200) AS cat, "
    "COUNT(DISTINCT e.patient_id) FROM lab_procedure l "
    "JOIN encounter e ON l.encounter_id = e.encounter_id "
    "WHERE l.lab_code = 'LC03' GROUP BY cat"
)


@pytest.fixture()
def catalog(tmp_path):
    cat = Catalog(tmp_path)
    cat.create_table(lab_schema(), StorageFormat.STRIPE)
    cat.create_table(encounter_schema(), StorageFormat.STRIPE)
    return cat


def test_simple_count_token_count():
    toks = tokenize("SELECT COUNT(*) FROM lab_procedure")
    assert len(toks) == 8  # includes the EOF token
    assert toks[-1].kind == "eof"


def test_string_escape():
    toks = tokenize("'it''s'")
    assert toks[0].kind == "str"
    assert toks[0].value == "it's"


def test_lex_error_offset():
    with pytest.raises(LexError) as ei:
        tokenize("WHERE x @ 3")
    assert ei.value.offset == 8


@pytest.mark.parametrize("text, offset", [
    ("SELECT COUNT(*) FROM t WHERE a = \u00b2", 33),  # superscript two: a digit, not decimal
    ("WHERE a = 1.\u00b2", 12),
    ("WHERE a = " + "1" * 5000, 10),  # more digits than int() converts
], ids=["superscript", "superscript-fraction", "5000-digits"])
def test_lex_bad_number(text, offset):
    with pytest.raises(LexError) as ei:
        tokenize(text)
    assert ei.value.offset == offset


def test_unterminated_string():
    with pytest.raises(LexError) as ei:
        tokenize("SELECT 'oops")
    assert ei.value.offset == 7


def test_keywords_case_insensitive():
    ast = parse_text("select count(*) from Lab_Procedure")
    assert isinstance(ast.select_items[0], Aggregate)
    assert ast.from_ref.name == "lab_procedure"


def test_parse_simple_count():
    ast = parse_text("SELECT COUNT(*) FROM lab_procedure")
    assert ast.select_items[0].kind == "count_star"
    assert ast.join is None and ast.where == () and ast.group_by is None


def test_parse_complex_query():
    ast = parse_text(COMPLEX)
    bucket, agg = ast.select_items
    assert isinstance(bucket, BucketExpr)
    assert bucket.edges == (0, 50, 100, 200)
    assert bucket.alias == "cat"
    assert agg.kind == "count_distinct"
    assert ast.join.table.name == "encounter"
    assert ast.where[0].literal == "LC03"
    assert ast.group_by == "cat"


def test_syntax_error_offset_and_expected():
    with pytest.raises(QuerySyntaxError) as ei:
        parse_text("SELECT FROM t")
    assert 0 <= ei.value.offset <= len("SELECT FROM t")
    assert ei.value.expected  # non-empty expected set


def test_syntax_error_trailing_garbage():
    with pytest.raises(QuerySyntaxError):
        parse_text("SELECT COUNT(*) FROM t extra nonsense or")


def test_negative_literals():
    ast = parse_text("SELECT COUNT(*) FROM t WHERE x > -5")
    assert ast.where[0].literal == -5
    ast = parse_text("SELECT BUCKET(v, -10, 0, 10.5) AS b, COUNT(*) FROM t GROUP BY b")
    assert ast.select_items[0].edges == (-10, 0, 10.5)


def test_validate_complex_resolves_five_references(catalog):
    rq = compile_text(COMPLEX, catalog)
    resolved = [rq.bucket.column, rq.aggregates[0].column, *rq.join_cols]
    resolved.append(rq.conjuncts[0][0])  # the WHERE column resolved to an index
    assert len(resolved) == 5
    assert rq.bucket.column.ctype is ColumnType.FLOAT64
    assert rq.conjuncts[0][0].col == 2


def test_validate_non_increasing_edges(catalog):
    with pytest.raises(NonIncreasingEdges):
        compile_text(
            "SELECT BUCKET(l.result_value,0,50,50) AS c, COUNT(*) "
            "FROM lab_procedure l GROUP BY c", catalog)


def test_validate_join_type_mismatch(catalog):
    with pytest.raises(QueryTypeError):
        compile_text(
            "SELECT COUNT(*) FROM lab_procedure l JOIN encounter e "
            "ON l.lab_code = e.encounter_id", catalog)


def test_validate_unknown_table(catalog):
    with pytest.raises(UnknownTable):
        compile_text("SELECT COUNT(*) FROM missing", catalog)


def test_validate_unknown_column(catalog):
    with pytest.raises(UnknownColumn):
        compile_text("SELECT SUM(nope) FROM lab_procedure", catalog)


def test_validate_ambiguous_column(catalog):
    with pytest.raises(UnknownColumn):
        compile_text(
            "SELECT COUNT(DISTINCT encounter_id) FROM lab_procedure l "
            "JOIN encounter e ON l.encounter_id = e.encounter_id", catalog)


def test_validate_string_ordering_rejected(catalog):
    with pytest.raises(QueryTypeError):
        compile_text("SELECT COUNT(*) FROM lab_procedure WHERE lab_code < 'LC05'",
                     catalog)


def test_validate_sum_on_string_rejected(catalog):
    with pytest.raises(QueryTypeError):
        compile_text("SELECT SUM(lab_code) FROM lab_procedure", catalog)


def test_validate_group_by_rules(catalog):
    with pytest.raises(QueryTypeError):  # bucket without GROUP BY
        compile_text("SELECT BUCKET(result_value,0,1) AS c, COUNT(*) "
                     "FROM lab_procedure", catalog)
    with pytest.raises(QueryTypeError):  # GROUP BY wrong name
        compile_text("SELECT BUCKET(result_value,0,1) AS c, COUNT(*) "
                     "FROM lab_procedure GROUP BY other", catalog)
    with pytest.raises(QueryTypeError):  # GROUP BY without bucket
        compile_text("SELECT COUNT(*) FROM lab_procedure GROUP BY x", catalog)


def test_validate_date_literal(catalog):
    rq = compile_text(
        "SELECT MIN(admit_date) FROM encounter WHERE admit_date >= '2005-06-15'",
        catalog)
    assert rq.conjuncts[0][0].value == 12949
    with pytest.raises(QueryTypeError):
        compile_text("SELECT COUNT(*) FROM encounter WHERE admit_date = 'yesterday'",
                     catalog)


def test_validate_int_float_coercion(catalog):
    rq = compile_text("SELECT COUNT(*) FROM lab_procedure WHERE result_value > 50",
                      catalog)
    lit = rq.conjuncts[0][0].value
    assert isinstance(lit, float) and lit == 50.0
    with pytest.raises(QueryTypeError):
        compile_text("SELECT COUNT(*) FROM lab_procedure WHERE lab_id = 1.5", catalog)


def test_unparse_parse_fixpoint_examples():
    for text in (
        "SELECT COUNT(*) FROM lab_procedure",
        COMPLEX,
        "SELECT SUM(v), AVG(v), MIN(v), MAX(v) FROM t WHERE a != 'x' AND b <= -2.5",
        "SELECT COUNT(DISTINCT a) FROM t x JOIN u y ON x.a = y.b WHERE x.c = 3",
    ):
        ast = parse_text(text)
        assert parse_text(unparse(ast)) == ast


_ident = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True).filter(
    lambda s: s not in {"select", "from", "join", "on", "where", "and", "group",
                        "by", "as", "count", "distinct", "sum", "avg", "min",
                        "max", "bucket"})


@settings(max_examples=100, deadline=None)
@given(
    table=_ident, col=_ident, agg=st.sampled_from(["sum", "avg", "min", "max"]),
    op=st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
    lit=st.one_of(st.integers(-10**6, 10**6),
                  st.floats(allow_nan=False, allow_infinity=False, width=64),
                  st.text(alphabet=st.characters(blacklist_characters="'\x00",
                                                 codec="utf-8"), max_size=12)),
)
def test_property_unparse_fixpoint(table, col, agg, op, lit):
    from stripehouse.sql import PredicateAst, ColumnRef, QueryAst, TableRef

    ast = QueryAst(
        select_items=(Aggregate(agg, ColumnRef(None, col)),),
        from_ref=TableRef(table, None),
        join=None,
        where=(PredicateAst(ColumnRef(None, col), op, lit),),
        group_by=None,
    )
    assert parse_text(unparse(ast)) == ast


def test_bucket_categorization_is_total_on_range():
    # every in-range value maps to exactly one category via binary search
    import bisect

    edges = [0.0, 50.0, 100.0, 200.0]
    for v in (0.0, 49.999, 50.0, 99.5, 100.0, 199.999):
        idx = bisect.bisect_right(edges, v) - 1
        assert 0 <= idx < 3
        assert edges[idx] <= v < edges[idx + 1]
    for v in (-0.001, 200.0, 1e9):
        idx = bisect.bisect_right(edges, v) - 1
        assert idx < 0 or idx >= 3
