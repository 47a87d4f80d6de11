"""Recursive-descent SQL parser.

Parameters (``?``) are bound at parse time: the caller passes the Python
values and each placeholder becomes a :class:`Literal` in the AST, so the
planner never sees an unbound parameter.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Any, Sequence

from repro.engine.expressions import (
    Between,
    BinaryOp,
    CaseExpr,
    CastExpr,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    LikeExpr,
    Literal,
    Star,
    UnaryOp,
)
from repro.engine.sql.ast import (
    ColumnSpec,
    ConnectClause,
    CreateGraphViewStatement,
    CreateTableAsStatement,
    CreateTableStatement,
    DeleteStatement,
    DerivedTable,
    DropGraphViewStatement,
    DropTableStatement,
    EdgeClause,
    InsertStatement,
    Join,
    NamedTable,
    NodeClause,
    OrderItem,
    RefreshGraphViewStatement,
    SelectItem,
    SelectLike,
    SelectStatement,
    SetOperation,
    Statement,
    TableRef,
    TruncateStatement,
    UpdateStatement,
)
from repro.engine.sql.lexer import Token, TokenKind, tokenize
from repro.errors import SqlSyntaxError

__all__ = ["Parser", "parse_statement", "parse_statements"]

_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


class Parser:
    """Parses one token stream into statements."""

    def __init__(self, tokens: list[Token], params: Sequence[Any] | None = None) -> None:
        self.tokens = tokens
        self.index = 0
        self.params = list(params) if params is not None else None
        self.param_cursor = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def error(self, message: str) -> SqlSyntaxError:
        token = self.current
        shown = token.text or "<end of input>"
        return SqlSyntaxError(
            f"{message} (near {shown!r})", position=token.position, line=token.line
        )

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.index += 1
        return token

    def check_keyword(self, *words: str) -> bool:
        return self.current.kind is TokenKind.KEYWORD and self.current.text in words

    def accept_keyword(self, *words: str) -> bool:
        if self.check_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> None:
        if not self.accept_keyword(word):
            raise self.error(f"expected {word}")

    def check_operator(self, *ops: str) -> bool:
        return self.current.kind is TokenKind.OPERATOR and self.current.text in ops

    def accept_operator(self, *ops: str) -> bool:
        if self.check_operator(*ops):
            self.advance()
            return True
        return False

    def expect_operator(self, op: str) -> None:
        if not self.accept_operator(op):
            raise self.error(f"expected {op!r}")

    def expect_identifier(self) -> str:
        if self.current.kind is not TokenKind.IDENT:
            raise self.error("expected identifier")
        return self.advance().text

    # Contextual words: identifiers with grammatical meaning only inside
    # graph-view clauses (SRC, DST, WEIGHT, ... stay usable as ordinary
    # column/table names everywhere else).
    def check_word(self, *words: str) -> bool:
        return self.current.kind is TokenKind.IDENT and self.current.text in words

    def accept_word(self, *words: str) -> bool:
        if self.check_word(*words):
            self.advance()
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.accept_word(word):
            raise self.error(f"expected {word.upper()}")

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def parse_script(self) -> list[Statement]:
        """Parse zero or more ';'-separated statements until EOF."""
        statements: list[Statement] = []
        while True:
            while self.accept_operator(";"):
                pass
            if self.current.kind is TokenKind.EOF:
                return statements
            statements.append(self.parse_one())

    def parse_one(self) -> Statement:
        """Parse exactly one statement (trailing ';' consumed)."""
        if self.check_keyword("SELECT"):
            stmt: Statement = self.parse_select_like()
        elif self.check_keyword("INSERT"):
            stmt = self._parse_insert()
        elif self.check_keyword("UPDATE"):
            stmt = self._parse_update()
        elif self.check_keyword("DELETE"):
            stmt = self._parse_delete()
        elif self.check_keyword("CREATE"):
            stmt = self._parse_create()
        elif self.check_keyword("DROP"):
            stmt = self._parse_drop()
        elif self.check_keyword("TRUNCATE"):
            stmt = self._parse_truncate()
        elif self._starts_refresh_graph_view():
            stmt = self._parse_refresh_graph_view()
        else:
            raise self.error("expected a statement")
        self.accept_operator(";")
        return stmt

    # ------------------------------------------------------------------
    # SELECT and set operations
    # ------------------------------------------------------------------
    def parse_select_like(self) -> SelectLike:
        """A SELECT block possibly chained with UNION [ALL]; trailing
        ORDER BY / LIMIT bind to the whole set operation (standard SQL)."""
        left: SelectLike = self._parse_select_block()
        while self.check_keyword("UNION"):
            self.advance()
            op = "union_all" if self.accept_keyword("ALL") else "union"
            right = self._parse_select_block()
            left = SetOperation(op=op, left=left, right=right)
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit_offset()
        if order_by or limit is not None or offset:
            left = dataclasses.replace(
                left, order_by=order_by, limit=limit, offset=offset
            )
        return left

    def _parse_select_block(self) -> SelectStatement:
        """One SELECT ... HAVING block, *without* ORDER BY/LIMIT (those are
        parsed by the caller so they bind to whole union chains)."""
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")
        items = [self._parse_select_item()]
        while self.accept_operator(","):
            items.append(self._parse_select_item())
        from_clause: TableRef | None = None
        if self.accept_keyword("FROM"):
            from_clause = self._parse_table_ref()
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        group_by: tuple[Expression, ...] = ()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            keys = [self.parse_expression()]
            while self.accept_operator(","):
                keys.append(self.parse_expression())
            group_by = tuple(keys)
        having = self.parse_expression() if self.accept_keyword("HAVING") else None
        return SelectStatement(
            items=tuple(items),
            from_clause=from_clause,
            where=where,
            group_by=group_by,
            having=having,
            distinct=distinct,
        )

    def _parse_order_by(self) -> tuple[OrderItem, ...]:
        if not self.check_keyword("ORDER"):
            return ()
        self.advance()
        self.expect_keyword("BY")
        items = [self._parse_order_item()]
        while self.accept_operator(","):
            items.append(self._parse_order_item())
        return tuple(items)

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        ascending = True
        if self.accept_keyword("DESC"):
            ascending = False
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr, ascending)

    def _parse_limit_offset(self) -> tuple[int | None, int]:
        limit: int | None = None
        offset = 0
        if self.accept_keyword("LIMIT"):
            limit = self._parse_nonnegative_int("LIMIT")
        if self.accept_keyword("OFFSET"):
            offset = self._parse_nonnegative_int("OFFSET")
        return limit, offset

    def _parse_nonnegative_int(self, clause: str) -> int:
        if self.current.kind is not TokenKind.INTEGER:
            raise self.error(f"{clause} expects an integer literal")
        return int(self.advance().text)

    def _parse_select_item(self) -> SelectItem:
        if self.check_operator("*"):
            self.advance()
            return SelectItem(Star())
        # alias.* needs two-token lookahead
        if (
            self.current.kind is TokenKind.IDENT
            and self.tokens[self.index + 1].matches(TokenKind.OPERATOR, ".")
            and self.tokens[self.index + 2].matches(TokenKind.OPERATOR, "*")
        ):
            qualifier = self.advance().text
            self.advance()
            self.advance()
            return SelectItem(Star(qualifier=qualifier))
        expr = self.parse_expression()
        alias: str | None = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.current.kind is TokenKind.IDENT:
            alias = self.advance().text
        return SelectItem(expr, alias)

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _parse_table_ref(self) -> TableRef:
        left = self._parse_table_primary()
        while True:
            if self.accept_keyword("CROSS"):
                self.expect_keyword("JOIN")
                right = self._parse_table_primary()
                left = Join(left, right, "cross", None)
                continue
            kind: str | None = None
            if self.accept_keyword("INNER"):
                kind = "inner"
            elif self.accept_keyword("LEFT"):
                self.accept_keyword("OUTER")
                kind = "left"
            if kind is None and self.check_keyword("JOIN"):
                kind = "inner"
            if kind is None:
                if self.check_operator(","):
                    # Comma join == CROSS JOIN; WHERE supplies the predicate.
                    self.advance()
                    right = self._parse_table_primary()
                    left = Join(left, right, "cross", None)
                    continue
                return left
            self.expect_keyword("JOIN")
            right = self._parse_table_primary()
            self.expect_keyword("ON")
            condition = self.parse_expression()
            left = Join(left, right, kind, condition)

    def _parse_table_primary(self) -> TableRef:
        if self.accept_operator("("):
            select = self.parse_select_like()
            self.expect_operator(")")
            self.accept_keyword("AS")
            alias = self.expect_identifier()
            return DerivedTable(select, alias)
        name = self.expect_identifier()
        alias: str | None = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.current.kind is TokenKind.IDENT:
            alias = self.advance().text
        return NamedTable(name, alias)

    # ------------------------------------------------------------------
    # Other statements
    # ------------------------------------------------------------------
    def _parse_insert(self) -> InsertStatement:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: tuple[str, ...] | None = None
        if self.check_operator("("):
            # Distinguish a column list from INSERT INTO t (SELECT ...)
            if not self.tokens[self.index + 1].matches(TokenKind.KEYWORD, "SELECT"):
                self.advance()
                names = [self.expect_identifier()]
                while self.accept_operator(","):
                    names.append(self.expect_identifier())
                self.expect_operator(")")
                columns = tuple(names)
        if self.accept_keyword("VALUES"):
            rows = [self._parse_values_row()]
            while self.accept_operator(","):
                rows.append(self._parse_values_row())
            return InsertStatement(table=table, columns=columns, rows=tuple(rows))
        wrapped = self.accept_operator("(")
        select = self.parse_select_like()
        if wrapped:
            self.expect_operator(")")
        return InsertStatement(table=table, columns=columns, select=select)

    def _parse_values_row(self) -> tuple[Expression, ...]:
        self.expect_operator("(")
        values = [self.parse_expression()]
        while self.accept_operator(","):
            values.append(self.parse_expression())
        self.expect_operator(")")
        return tuple(values)

    def _parse_update(self) -> UpdateStatement:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier()
        self.expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self.accept_operator(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        return UpdateStatement(table=table, assignments=tuple(assignments), where=where)

    def _parse_assignment(self) -> tuple[str, Expression]:
        name = self.expect_identifier()
        self.expect_operator("=")
        return name, self.parse_expression()

    def _parse_delete(self) -> DeleteStatement:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier()
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        return DeleteStatement(table=table, where=where)

    def _parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        # GRAPH/VIEW/MATERIALIZED are contextual: only the token right
        # after CREATE/DROP decides, so they stay valid table names.
        if self._starts_graph_view():
            return self._parse_create_graph_view()
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_identifier()
        if self.accept_keyword("AS"):
            select = self.parse_select_like()
            return CreateTableAsStatement(name=name, select=select, if_not_exists=if_not_exists)
        self.expect_operator("(")
        columns = [self._parse_column_spec()]
        while self.accept_operator(","):
            columns.append(self._parse_column_spec())
        self.expect_operator(")")
        return CreateTableStatement(name=name, columns=tuple(columns), if_not_exists=if_not_exists)

    def _parse_column_spec(self) -> ColumnSpec:
        name = self.expect_identifier()
        if self.current.kind is not TokenKind.IDENT:
            raise self.error("expected a type name")
        type_name = self.advance().text
        not_null = False
        primary_key = False
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                not_null = True
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
                not_null = True
            else:
                break
        return ColumnSpec(name=name, type_name=type_name, not_null=not_null, primary_key=primary_key)

    def _parse_drop(self) -> Statement:
        self.expect_keyword("DROP")
        if self._starts_graph_view():
            self.expect_word("graph")
            self.expect_word("view")
            if_exists = False
            if self.accept_keyword("IF"):
                self.expect_keyword("EXISTS")
                if_exists = True
            return DropGraphViewStatement(name=self.expect_identifier(), if_exists=if_exists)
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        return DropTableStatement(name=self.expect_identifier(), if_exists=if_exists)

    # ------------------------------------------------------------------
    # Graph views
    # ------------------------------------------------------------------
    def _starts_graph_view(self) -> bool:
        """Two-token lookahead after CREATE/DROP: ``GRAPH VIEW`` (or
        ``MATERIALIZED`` after CREATE, which only graph views accept)."""
        if self.check_word("materialized"):
            return True
        return (
            self.check_word("graph")
            and self.tokens[self.index + 1].matches(TokenKind.IDENT, "view")
        )

    def _parse_create_graph_view(self) -> CreateGraphViewStatement:
        """``CREATE [MATERIALIZED] GRAPH VIEW [IF NOT EXISTS] name AS
        NODES (node_clause, ...) EDGES (edge_clause, ...)``.

        Clause grammars (SRC/DST/WEIGHT/... are contextual words, so they
        remain legal column names in ordinary statements):

        * node clause: ``table KEY id_col [WHERE expr]``
        * edge clause: ``table SRC col DST col [WEIGHT expr] [WHERE expr]
          [UNDIRECTED]``
        * connect clause (join-derived co-occurrence edges):
          ``table CONNECT member_col VIA via_col [WEIGHT expr] [WHERE expr]``
        """
        materialized = self.accept_word("materialized")
        self.expect_word("graph")
        self.expect_word("view")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_identifier()
        self.expect_keyword("AS")
        self.expect_word("nodes")
        nodes = self._parse_clause_list(self._parse_node_clause)
        self.expect_word("edges")
        edges = self._parse_clause_list(self._parse_edge_clause)
        return CreateGraphViewStatement(
            name=name,
            nodes=nodes,
            edges=edges,
            materialized=materialized,
            if_not_exists=if_not_exists,
        )

    def _starts_refresh_graph_view(self) -> bool:
        """Three-token lookahead: ``REFRESH GRAPH VIEW`` — all contextual
        words, so REFRESH stays a legal identifier everywhere else."""
        return (
            self.check_word("refresh")
            and self.tokens[self.index + 1].matches(TokenKind.IDENT, "graph")
            and self.tokens[self.index + 2].matches(TokenKind.IDENT, "view")
        )

    def _parse_refresh_graph_view(self) -> RefreshGraphViewStatement:
        """``REFRESH GRAPH VIEW name [FULL | INCREMENTAL]``."""
        self.expect_word("refresh")
        self.expect_word("graph")
        self.expect_word("view")
        name = self.expect_identifier()
        mode: str | None = None
        if self.accept_word("full"):
            mode = "full"
        elif self.accept_word("incremental"):
            mode = "incremental"
        return RefreshGraphViewStatement(name=name, mode=mode)

    def _parse_clause_list(self, parse_clause) -> tuple:
        self.expect_operator("(")
        clauses = [parse_clause()]
        while self.accept_operator(","):
            clauses.append(parse_clause())
        self.expect_operator(")")
        return tuple(clauses)

    def _parse_node_clause(self) -> NodeClause:
        table = self.expect_identifier()
        self.expect_keyword("KEY")
        key = self.expect_identifier()
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        return NodeClause(table=table, key=key, where=where)

    def _parse_edge_clause(self) -> "EdgeClause | ConnectClause":
        table = self.expect_identifier()
        if self.accept_word("connect"):
            member = self.expect_identifier()
            self.expect_word("via")
            via = self.expect_identifier()
            weight, where = self._parse_weight_where()
            return ConnectClause(
                table=table, member=member, via=via, weight=weight, where=where
            )
        self.expect_word("src")
        src = self.expect_identifier()
        self.expect_word("dst")
        dst = self.expect_identifier()
        weight, where = self._parse_weight_where()
        directed = not self.accept_word("undirected")
        return EdgeClause(
            table=table, src=src, dst=dst, weight=weight, where=where, directed=directed
        )

    def _parse_weight_where(self) -> tuple[Expression | None, Expression | None]:
        weight = self.parse_expression() if self.accept_word("weight") else None
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        return weight, where

    def _parse_truncate(self) -> TruncateStatement:
        self.expect_keyword("TRUNCATE")
        self.accept_keyword("TABLE")
        return TruncateStatement(name=self.expect_identifier())

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expression(self) -> Expression:
        """Entry point: lowest precedence is OR."""
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        if self.check_operator(*_COMPARISONS):
            op = self.advance().text
            return BinaryOp(op, left, self._parse_additive())
        negated = False
        if self.check_keyword("NOT"):
            nxt = self.tokens[self.index + 1]
            if nxt.kind is TokenKind.KEYWORD and nxt.text in ("IN", "BETWEEN", "LIKE"):
                self.advance()
                negated = True
        if self.accept_keyword("IS"):
            is_not = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return IsNull(left, negated=is_not)
        if self.accept_keyword("IN"):
            self.expect_operator("(")
            items = [self.parse_expression()]
            while self.accept_operator(","):
                items.append(self.parse_expression())
            self.expect_operator(")")
            return InList(left, tuple(items), negated=negated)
        if self.accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self.expect_keyword("AND")
            high = self._parse_additive()
            return Between(left, low, high, negated=negated)
        if self.accept_keyword("LIKE"):
            return LikeExpr(left, self._parse_additive(), negated=negated)
        if negated:  # pragma: no cover - lookahead guarantees a match
            raise self.error("dangling NOT")
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while self.check_operator("+", "-", "||"):
            op = self.advance().text
            left = BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while self.check_operator("*", "/", "%"):
            op = self.advance().text
            left = BinaryOp(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> Expression:
        if self.accept_operator("-"):
            operand = self._parse_unary()
            if isinstance(operand, Literal) and isinstance(operand.value, (int, float)):
                return Literal(-operand.value)
            return UnaryOp("-", operand)
        if self.accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self.current
        if token.kind is TokenKind.INTEGER:
            self.advance()
            return Literal(int(token.text))
        if token.kind is TokenKind.FLOAT:
            self.advance()
            return Literal(float(token.text))
        if token.kind is TokenKind.STRING:
            self.advance()
            return Literal(token.text)
        if token.kind is TokenKind.PARAM:
            self.advance()
            return self._bind_parameter()
        if token.kind is TokenKind.KEYWORD:
            if token.text == "NULL":
                self.advance()
                return Literal(None)
            if token.text == "TRUE":
                self.advance()
                return Literal(True)
            if token.text == "FALSE":
                self.advance()
                return Literal(False)
            if token.text == "CASE":
                return self._parse_case()
            if token.text == "CAST":
                return self._parse_cast()
            raise self.error("unexpected keyword in expression")
        if token.kind is TokenKind.OPERATOR and token.text == "(":
            self.advance()
            expr = self.parse_expression()
            self.expect_operator(")")
            return expr
        if token.kind is TokenKind.IDENT:
            return self._parse_name_or_call()
        raise self.error("expected an expression")

    def _bind_parameter(self) -> Literal:
        if self.params is None:
            raise self.error("statement contains ? but no parameters were supplied")
        if self.param_cursor >= len(self.params):
            raise self.error("not enough parameters for ? placeholders")
        value = self.params[self.param_cursor]
        self.param_cursor += 1
        return Literal(value)

    def _parse_name_or_call(self) -> Expression:
        name = self.expect_identifier()
        if self.check_operator("("):
            self.advance()
            distinct = self.accept_keyword("DISTINCT")
            args: list[Expression] = []
            if self.check_operator("*"):
                self.advance()
                args.append(Star())
            elif not self.check_operator(")"):
                args.append(self.parse_expression())
                while self.accept_operator(","):
                    args.append(self.parse_expression())
            self.expect_operator(")")
            return FunctionCall(name=name, args=tuple(args), distinct=distinct)
        if self.accept_operator("."):
            column = self.expect_identifier()
            return ColumnRef(column, qualifier=name)
        return ColumnRef(name)

    def _parse_case(self) -> Expression:
        self.expect_keyword("CASE")
        operand: Expression | None = None
        if not self.check_keyword("WHEN"):
            operand = self.parse_expression()
        whens: list[tuple[Expression, Expression]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expression()
            self.expect_keyword("THEN")
            whens.append((cond, self.parse_expression()))
        if not whens:
            raise self.error("CASE requires at least one WHEN branch")
        default = self.parse_expression() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        return CaseExpr(whens=tuple(whens), default=default, operand=operand)

    def _parse_cast(self) -> Expression:
        self.expect_keyword("CAST")
        self.expect_operator("(")
        operand = self.parse_expression()
        self.expect_keyword("AS")
        if self.current.kind is not TokenKind.IDENT:
            raise self.error("expected a type name in CAST")
        type_name = self.advance().text
        self.expect_operator(")")
        return CastExpr(operand, type_name)

    def finish(self) -> None:
        """Assert every supplied parameter was consumed."""
        if self.params is not None and self.param_cursor != len(self.params):
            raise SqlSyntaxError(
                f"{len(self.params)} parameters supplied but only "
                f"{self.param_cursor} ? placeholders found"
            )


@lru_cache(maxsize=512)
def _cached_tokens(sql: str) -> list[Token]:
    """Memoized lexing — parameterized statements (e.g. the per-aggregator
    ``SELECT … WHERE kind = 2 AND dst = ?`` the SQL plane issues every
    superstep) re-parse the same text with different params, and the
    Parser never mutates the token list, so sharing it is safe."""
    return tokenize(sql)


def parse_statement(sql: str, params: Sequence[Any] | None = None) -> Statement:
    """Parse exactly one statement; raises on trailing garbage."""
    parser = Parser(_cached_tokens(sql), params)
    statement = parser.parse_one()
    while parser.accept_operator(";"):
        pass
    if parser.current.kind is not TokenKind.EOF:
        raise parser.error("unexpected trailing input")
    parser.finish()
    return statement


def parse_statements(sql: str, params: Sequence[Any] | None = None) -> list[Statement]:
    """Parse a ';'-separated script into a statement list."""
    parser = Parser(tokenize(sql), params)
    statements = parser.parse_script()
    parser.finish()
    return statements
