"""Minimal HiveQL-like SQL subset.

Grammar::

    query  := SELECT item {"," item} FROM tref
              [JOIN tref ON col "=" col]
              [WHERE pred {AND pred}]
              [GROUP BY ident]
    item   := agg | bucket [AS ident]
    agg    := COUNT "(" "*" ")" | COUNT "(" DISTINCT col ")"
            | (SUM|AVG|MIN|MAX) "(" col ")"
    bucket := BUCKET "(" col "," num {"," num} ")"
    pred   := col ("="|"!="|"<"|"<="|">"|">=") literal

Keywords are case-insensitive; identifiers fold to lowercase. String
literals are single-quoted with ``''`` as the escape. BUCKET maps a numeric
column onto k categories [e_i, e_{i+1}) given k+1 strictly increasing
edges; out-of-range and NULL values fall out of the result.

NULL semantics: NULL fails every predicate, never enters a bucket, is
counted by COUNT(*) and ignored by COUNT(DISTINCT col).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    LexError,
    NonIncreasingEdges,
    QuerySyntaxError,
    QueryTypeError,
    UnknownColumn,
)
from .predicate import Conjunct
from .schema import Catalog, ColumnType, TableEntry
from .values import iso_to_days

KEYWORDS = {
    "select", "from", "join", "on", "where", "and", "group", "by", "as",
    "count", "distinct", "sum", "avg", "min", "max", "bucket",
}

SYMBOLS = ("<=", ">=", "!=", "(", ")", ",", ".", "*", "=", "<", ">", "-")


@dataclass(frozen=True)
class Token:
    kind: str  # 'kw', 'ident', 'int', 'float', 'str', 'sym', 'eof'
    text: str
    value: object
    offset: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "'":
            j = i + 1
            parts = []
            while True:
                if j >= n:
                    raise LexError("unterminated string literal", i)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(text[j])
                j += 1
            tokens.append(Token("str", text[i:j + 1], "".join(parts), i))
            i = j + 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            is_float = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal():
                is_float = True
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdecimal():
                    is_float = True
                    j = k
                    while j < n and text[j].isdecimal():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit) if is_float else int(lit)
            except ValueError:  # past int()'s limit on the digits it converts
                raise LexError(f"integer literal of {len(lit)} digits", i) from None
            tokens.append(Token("float" if is_float else "int", lit, value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            low = word.lower()
            if low in KEYWORDS:
                tokens.append(Token("kw", low, low, i))
            else:
                tokens.append(Token("ident", low, low, i))
            i = j
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, sym, i))
                i += len(sym)
                break
        else:
            raise LexError(f"illegal character {ch!r}", i)
    tokens.append(Token("eof", "", None, n))
    return tokens


# --- AST ---

@dataclass(frozen=True)
class ColumnRef:
    table: str | None
    column: str

    def text(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Aggregate:
    kind: str  # count_star | count_distinct | sum | avg | min | max
    column: ColumnRef | None


@dataclass(frozen=True)
class BucketExpr:
    column: ColumnRef
    edges: tuple
    alias: str | None


@dataclass(frozen=True)
class PredicateAst:
    column: ColumnRef
    op: str
    literal: object


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: str | None


@dataclass(frozen=True)
class JoinAst:
    table: TableRef
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class QueryAst:
    select_items: tuple
    from_ref: TableRef
    join: JoinAst | None
    where: tuple[PredicateAst, ...]
    group_by: str | None


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, expected: tuple[str, ...]):
        t = self.peek()
        raise QuerySyntaxError(
            f"expected {' or '.join(expected)}, found {t.text or 'end of input'!r}",
            t.offset,
            expected,
        )

    def expect_kw(self, word: str) -> Token:
        t = self.peek()
        if t.kind == "kw" and t.value == word:
            return self.advance()
        self.fail((word.upper(),))

    def expect_sym(self, sym: str) -> Token:
        t = self.peek()
        if t.kind == "sym" and t.value == sym:
            return self.advance()
        self.fail((repr(sym),))

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind == "ident":
            return self.advance()
        self.fail(("identifier",))

    def at_kw(self, word: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.value == word

    def column_ref(self) -> ColumnRef:
        first = self.expect_ident()
        t = self.peek()
        if t.kind == "sym" and t.value == ".":
            self.advance()
            second = self.expect_ident()
            return ColumnRef(first.value, second.value)
        return ColumnRef(None, first.value)

    def number(self):
        t = self.peek()
        neg = False
        if t.kind == "sym" and t.value == "-":
            self.advance()
            neg = True
            t = self.peek()
        if t.kind in ("int", "float"):
            self.advance()
            return -t.value if neg else t.value
        self.fail(("number",))

    def literal(self):
        t = self.peek()
        if t.kind == "str":
            self.advance()
            return t.value
        return self.number()

    def select_item(self):
        t = self.peek()
        if t.kind == "kw" and t.value == "count":
            self.advance()
            self.expect_sym("(")
            if self.peek().kind == "sym" and self.peek().value == "*":
                self.advance()
                self.expect_sym(")")
                return Aggregate("count_star", None)
            self.expect_kw("distinct")
            col = self.column_ref()
            self.expect_sym(")")
            return Aggregate("count_distinct", col)
        if t.kind == "kw" and t.value in ("sum", "avg", "min", "max"):
            self.advance()
            self.expect_sym("(")
            col = self.column_ref()
            self.expect_sym(")")
            return Aggregate(t.value, col)
        if t.kind == "kw" and t.value == "bucket":
            self.advance()
            self.expect_sym("(")
            col = self.column_ref()
            edges = []
            while self.peek().kind == "sym" and self.peek().value == ",":
                self.advance()
                edges.append(self.number())
            self.expect_sym(")")
            if not edges:
                self.fail(("','",))
            alias = None
            if self.at_kw("as"):
                self.advance()
                alias = self.expect_ident().value
            return BucketExpr(col, tuple(edges), alias)
        self.fail(("COUNT", "SUM", "AVG", "MIN", "MAX", "BUCKET"))

    def table_ref(self) -> TableRef:
        name = self.expect_ident().value
        t = self.peek()
        alias = None
        if t.kind == "ident":
            alias = self.advance().value
        return TableRef(name, alias)

    def predicate(self) -> PredicateAst:
        col = self.column_ref()
        t = self.peek()
        if t.kind == "sym" and t.value in ("=", "!=", "<", "<=", ">", ">="):
            op = self.advance().value
        else:
            self.fail(("comparison operator",))
        lit = self.literal()
        return PredicateAst(col, op, lit)

    def query(self) -> QueryAst:
        self.expect_kw("select")
        items = [self.select_item()]
        while self.peek().kind == "sym" and self.peek().value == ",":
            self.advance()
            items.append(self.select_item())
        self.expect_kw("from")
        from_ref = self.table_ref()
        join = None
        if self.at_kw("join"):
            self.advance()
            jt = self.table_ref()
            self.expect_kw("on")
            left = self.column_ref()
            self.expect_sym("=")
            right = self.column_ref()
            join = JoinAst(jt, left, right)
        where: list[PredicateAst] = []
        if self.at_kw("where"):
            self.advance()
            where.append(self.predicate())
            while self.at_kw("and"):
                self.advance()
                where.append(self.predicate())
        group_by = None
        if self.at_kw("group"):
            self.advance()
            self.expect_kw("by")
            group_by = self.expect_ident().value
        t = self.peek()
        if t.kind != "eof":
            self.fail(("end of query",))
        return QueryAst(tuple(items), from_ref, join, tuple(where), group_by)


def parse(tokens: list[Token]) -> QueryAst:
    return _Parser(tokens).query()


def parse_text(text: str) -> QueryAst:
    return parse(tokenize(text))


def _fmt_literal(v) -> str:
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def unparse(ast: QueryAst) -> str:
    """Canonical text; reparsing yields a structurally equal AST."""
    items = []
    for it in ast.select_items:
        if isinstance(it, Aggregate):
            if it.kind == "count_star":
                items.append("COUNT(*)")
            elif it.kind == "count_distinct":
                items.append(f"COUNT(DISTINCT {it.column.text()})")
            else:
                items.append(f"{it.kind.upper()}({it.column.text()})")
        else:
            edges = ", ".join(_fmt_literal(e) for e in it.edges)
            s = f"BUCKET({it.column.text()}, {edges})"
            if it.alias:
                s += f" AS {it.alias}"
            items.append(s)
    out = "SELECT " + ", ".join(items)
    out += f" FROM {ast.from_ref.name}"
    if ast.from_ref.alias:
        out += f" {ast.from_ref.alias}"
    if ast.join:
        out += f" JOIN {ast.join.table.name}"
        if ast.join.table.alias:
            out += f" {ast.join.table.alias}"
        out += f" ON {ast.join.left.text()} = {ast.join.right.text()}"
    if ast.where:
        out += " WHERE " + " AND ".join(
            f"{p.column.text()} {p.op} {_fmt_literal(p.literal)}" for p in ast.where
        )
    if ast.group_by:
        out += f" GROUP BY {ast.group_by}"
    return out


# --- validation ---

@dataclass(frozen=True)
class ResolvedColumn:
    table_pos: int  # 0 = FROM table, 1 = JOIN table
    index: int
    ctype: ColumnType
    name: str


@dataclass(frozen=True)
class ResolvedAggregate:
    kind: str
    column: ResolvedColumn | None
    label: str


@dataclass(frozen=True)
class ResolvedBucket:
    column: ResolvedColumn
    edges: tuple
    alias: str


@dataclass(frozen=True)
class ResolvedQuery:
    entries: tuple[TableEntry, ...]
    join_cols: tuple[ResolvedColumn, ResolvedColumn] | None
    conjuncts: tuple[tuple[Conjunct, ...], ...]  # per table position
    bucket: ResolvedBucket | None
    aggregates: tuple[ResolvedAggregate, ...]
    select_labels: tuple[str, ...]
    select_is_bucket: tuple[bool, ...]
    text: str

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(e.schema.table_name for e in self.entries)


class _Scope:
    def __init__(self, entries: list[TableEntry], aliases: list[str]):
        self.entries = entries
        self.aliases = aliases

    def resolve(self, ref: ColumnRef) -> ResolvedColumn:
        if ref.table is not None:
            for pos, alias in enumerate(self.aliases):
                if ref.table == alias:
                    return self._lookup(pos, ref)
            raise UnknownColumn(f"unknown table or alias {ref.table!r}")
        hits = []
        for pos, entry in enumerate(self.entries):
            names = [c.name for c in entry.schema.columns]
            if ref.column in names:
                hits.append(pos)
        if not hits:
            raise UnknownColumn(ref.column)
        if len(hits) > 1:
            raise UnknownColumn(f"ambiguous column {ref.column!r}; qualify it")
        return self._lookup(hits[0], ref)

    def _lookup(self, pos: int, ref: ColumnRef) -> ResolvedColumn:
        schema = self.entries[pos].schema
        try:
            idx = schema.column_index(ref.column)
        except KeyError:
            raise UnknownColumn(
                f"no column {ref.column!r} in table {schema.table_name}"
            ) from None
        return ResolvedColumn(pos, idx, schema.columns[idx].ctype, ref.column)


_NUMERIC = (ColumnType.INT64, ColumnType.FLOAT64)
_ORDERED = (ColumnType.INT64, ColumnType.FLOAT64, ColumnType.DATE)


def _coerce_literal(lit, ctype: ColumnType, op: str):
    if ctype is ColumnType.STRING:
        if not isinstance(lit, str):
            raise QueryTypeError(f"STRING column compared with {type(lit).__name__}")
        if op not in ("=", "!="):
            raise QueryTypeError("STRING columns support only = and !=")
        return lit
    if ctype is ColumnType.DATE:
        if isinstance(lit, str):
            try:
                return iso_to_days(lit)
            except ValueError:
                raise QueryTypeError(f"bad DATE literal {lit!r}; want YYYY-MM-DD") from None
        if isinstance(lit, int):
            return lit
        raise QueryTypeError("DATE column compared with a float literal")
    if isinstance(lit, str):
        raise QueryTypeError(f"{ctype.value} column compared with a string literal")
    if ctype is ColumnType.FLOAT64:
        return float(lit)
    if isinstance(lit, float):
        if lit != int(lit):
            raise QueryTypeError("INT64 column compared with a fractional literal")
        return int(lit)
    return lit


def validate(ast: QueryAst, catalog: Catalog) -> ResolvedQuery:
    """Resolve names against the catalog and type-check the query."""
    entries = [catalog.get_table(ast.from_ref.name)]
    aliases = [ast.from_ref.alias or entries[0].schema.table_name]
    if ast.join:
        entries.append(catalog.get_table(ast.join.table.name))
        aliases.append(ast.join.table.alias or entries[1].schema.table_name)
        if len(set(aliases)) != len(aliases):
            raise QueryTypeError(f"duplicate table alias {aliases[1]!r}")
    scope = _Scope(entries, aliases)

    join_cols = None
    if ast.join:
        left = scope.resolve(ast.join.left)
        right = scope.resolve(ast.join.right)
        if left.table_pos == right.table_pos:
            raise QueryTypeError("join condition must reference both tables")
        if left.ctype != right.ctype:
            raise QueryTypeError(
                f"join column types differ: {left.ctype.value} vs {right.ctype.value}"
            )
        if left.table_pos == 1:
            left, right = right, left
        join_cols = (left, right)

    conjuncts: list[list[Conjunct]] = [[] for _ in entries]
    for p in ast.where:
        col = scope.resolve(p.column)
        lit = _coerce_literal(p.literal, col.ctype, p.op)
        conjuncts[col.table_pos].append(Conjunct(col.index, p.op, lit))

    bucket = None
    aggregates: list[ResolvedAggregate] = []
    labels: list[str] = []
    is_bucket: list[bool] = []
    for item in ast.select_items:
        if isinstance(item, BucketExpr):
            if bucket is not None:
                raise QueryTypeError("at most one BUCKET per query")
            col = scope.resolve(item.column)
            if col.ctype not in _NUMERIC:
                raise QueryTypeError("BUCKET requires a numeric column")
            edges = tuple(float(e) if isinstance(e, float) else e for e in item.edges)
            if len(edges) < 2:
                raise NonIncreasingEdges("BUCKET needs at least 2 edges")
            for a, b in zip(edges, edges[1:]):
                if not (a < b):
                    raise NonIncreasingEdges(f"edges not strictly increasing at {b}")
            alias = item.alias or "bucket"
            bucket = ResolvedBucket(col, edges, alias)
            labels.append(alias)
            is_bucket.append(True)
        else:
            col = None
            if item.kind == "count_star":
                label = "count(*)"
            else:
                col = scope.resolve(item.column)
                if item.kind == "count_distinct":
                    label = f"count(distinct {col.name})"
                else:
                    if col.ctype not in _ORDERED:
                        raise QueryTypeError(
                            f"{item.kind.upper()} requires a numeric or DATE column"
                        )
                    label = f"{item.kind}({col.name})"
            aggregates.append(ResolvedAggregate(item.kind, col, label))
            labels.append(label)
            is_bucket.append(False)

    if bucket is not None:
        if ast.group_by is None:
            raise QueryTypeError("BUCKET requires GROUP BY on its alias")
        if ast.group_by != bucket.alias:
            raise QueryTypeError(
                f"GROUP BY {ast.group_by!r} does not name the bucket alias {bucket.alias!r}"
            )
    elif ast.group_by is not None:
        raise QueryTypeError("GROUP BY requires a BUCKET select item")

    if not aggregates:
        raise QueryTypeError("query must select at least one aggregate")

    return ResolvedQuery(
        entries=tuple(entries),
        join_cols=join_cols,
        conjuncts=tuple(tuple(cs) for cs in conjuncts),
        bucket=bucket,
        aggregates=tuple(aggregates),
        select_labels=tuple(labels),
        select_is_bucket=tuple(is_bucket),
        text=unparse(ast),
    )


def compile_text(text: str, catalog: Catalog) -> ResolvedQuery:
    return validate(parse_text(text), catalog)
