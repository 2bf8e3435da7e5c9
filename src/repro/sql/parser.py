"""Recursive-descent SQL parser.

Parses the dialect described in DESIGN.md into the AST of
:mod:`repro.sql.ast_nodes`.  The parser is *profile aware*: when
constructed with a legacy :class:`~repro.config.HiveConf` it raises
:class:`~repro.errors.UnsupportedFeatureError` for the constructs the
paper lists as missing from Hive v1.2 (set operations, interval
notation, grouping sets...) — this is what limits the legacy profile to a
subset of the benchmark queries in the Figure 7 reproduction.
"""

from __future__ import annotations

import datetime
from typing import Optional

from ..config import HiveConf
from ..errors import ParseError, UnsupportedFeatureError
from . import ast_nodes as ast
from .lexer import Token, TokenType, tokenize

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">=", "=="}
_INTERVAL_UNITS = {"DAY", "MONTH", "YEAR", "HOUR", "MINUTE", "SECOND",
                   "QUARTER", "WEEK"}


def parse_statement(text: str, conf: Optional[HiveConf] = None) -> ast.Statement:
    """Parse one SQL statement (trailing ``;`` allowed)."""
    return Parser(text, conf).parse_statement()


def parse_query(text: str, conf: Optional[HiveConf] = None) -> ast.Query:
    """Parse a bare query expression."""
    parser = Parser(text, conf)
    query = parser.parse_query()
    parser.expect_end()
    return query


class Parser:
    def __init__(self, text: str, conf: Optional[HiveConf] = None):
        self.text = text
        self.conf = conf or HiveConf()
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------ #
    # token plumbing
    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def accept_keyword(self, *names: str) -> bool:
        if self.peek().is_keyword(*names):
            self.advance()
            return True
        return False

    def accept_op(self, *ops: str) -> bool:
        if self.peek().is_op(*ops):
            self.advance()
            return True
        return False

    def expect_keyword(self, *names: str) -> Token:
        token = self.peek()
        if not token.is_keyword(*names):
            raise self._error(f"expected {' or '.join(names)}")
        return self.advance()

    def expect_op(self, op: str) -> Token:
        token = self.peek()
        if not token.is_op(op):
            raise self._error(f"expected {op!r}")
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.type is TokenType.IDENT:
            return self.advance().value
        # many keywords double as identifiers in practice (e.g. date)
        if token.type is TokenType.KEYWORD and token.value in (
                "DATE", "TIMESTAMP", "YEAR", "MONTH", "DAY", "FIRST",
                "LAST", "KEY", "PLAN", "POOL", "RULE", "DEFAULT", "ROW"):
            return self.advance().value.lower()
        raise self._error("expected identifier")

    def expect_number(self) -> float:
        token = self.peek()
        if token.type is not TokenType.NUMBER:
            raise self._error("expected number")
        self.advance()
        return _numeric(token.value)

    def expect_string(self) -> str:
        token = self.peek()
        if token.type is not TokenType.STRING:
            raise self._error("expected string literal")
        return self.advance().value

    def expect_end(self) -> None:
        self.accept_op(";")
        if self.peek().type is not TokenType.EOF:
            raise self._error("unexpected trailing input")

    def _error(self, message: str) -> ParseError:
        token = self.peek()
        return ParseError(
            f"{message} at line {token.line} near {token.value!r}",
            token.position, token.line)

    def _unsupported(self, feature: str) -> UnsupportedFeatureError:
        token = self.peek()
        return UnsupportedFeatureError(
            f"{feature} is not supported by profile {self.conf.name}",
            token.position, token.line)

    # ------------------------------------------------------------------ #
    # statements
    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.is_keyword("EXPLAIN"):
            self.advance()
            analyze = validate = history = lineage = False
            # EXPLAIN ANALYZE <query> (but EXPLAIN ANALYZE TABLE ... is
            # an explain of the ANALYZE TABLE statement itself)
            if self.peek().is_keyword("ANALYZE") \
                    and not self.peek(1).is_keyword("TABLE"):
                self.advance()
                analyze = True
            elif self.peek().is_keyword("VALIDATE"):
                self.advance()
                validate = True
            elif (self.peek().type is TokenType.IDENT
                    and self.peek().value.lower() == "history"):
                # HISTORY is deliberately not a reserved word
                self.advance()
                history = True
            elif (self.peek().type is TokenType.IDENT
                    and self.peek().value.lower() == "lineage"):
                # LINEAGE is deliberately not a reserved word either
                self.advance()
                lineage = True
            inner = self.parse_statement()
            return ast.Explain(inner, analyze=analyze, validate=validate,
                               history=history, lineage=lineage)
        if token.is_keyword("SELECT", "WITH"):
            query = self.parse_query()
            self.expect_end()
            return ast.SelectStatement(query)
        if token.is_op("("):
            query = self.parse_query()
            self.expect_end()
            return ast.SelectStatement(query)
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("DROP"):
            return self._parse_drop()
        if token.is_keyword("ALTER"):
            return self._parse_alter()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("UPDATE"):
            return self._parse_update()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("MERGE"):
            return self._parse_merge()
        if token.is_keyword("ANALYZE"):
            return self._parse_analyze()
        if token.is_keyword("SET"):
            return self._parse_set()
        if token.is_keyword("SHOW"):
            self.advance()
            if self.accept_keyword("DATABASES"):
                self.expect_end()
                return ast.ShowDatabases()
            if self.accept_keyword("MATERIALIZED"):
                # accept SHOW MATERIALIZED VIEWS (and the VIEW spelling)
                if not self.accept_keyword("VIEW"):
                    if (self.peek().type is TokenType.IDENT
                            and self.peek().value.lower() == "views"):
                        self.advance()
                    else:
                        raise self._error("expected VIEWS")
                self.expect_end()
                return ast.ShowMaterializedViews()
            if self.accept_keyword("PARTITION") or (
                    self.peek().type is TokenType.IDENT
                    and self.peek().value.lower() == "partitions"
                    and self.advance()):
                table = self._parse_qualified_name()
                self.expect_end()
                return ast.ShowPartitions(table)
            self.expect_keyword("TABLES")
            self.expect_end()
            return ast.ShowTables()
        if token.is_keyword("DESCRIBE"):
            self.advance()
            name = self._parse_qualified_name()
            self.expect_end()
            return ast.DescribeTable(name)
        if token.is_keyword("FROM"):
            return self._parse_multi_insert()
        if token.is_keyword("START", "BEGIN"):
            self.advance()
            self.accept_keyword("TRANSACTION")
            self.expect_end()
            return ast.StartTransaction()
        if token.is_keyword("COMMIT"):
            self.advance()
            self.expect_end()
            return ast.Commit()
        if token.is_keyword("ROLLBACK"):
            self.advance()
            self.expect_end()
            return ast.Rollback()
        if token.is_keyword("KILL"):
            self.advance()
            # QUERY is deliberately not a reserved word; match the ident
            word = self.expect_ident()
            if word.lower() != "query":
                raise self._error("expected QUERY after KILL")
            query_id = self.expect_number()
            self.expect_end()
            return ast.KillQuery(int(query_id))
        if token.is_keyword("ADD"):
            self.advance()
            self.expect_keyword("RULE")
            rule = self.expect_ident()
            self.expect_keyword("TO")
            pool = self.expect_ident()
            self.expect_end()
            return ast.AddRuleToPool(rule, pool)
        raise self._error("unrecognized statement")

    # -- CREATE ... ----------------------------------------------------- #
    def _parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("DATABASE") or self.accept_keyword("SCHEMA"):
            if_not_exists = self._accept_if_not_exists()
            name = self.expect_ident()
            self.expect_end()
            return ast.CreateDatabase(name, if_not_exists)
        if self.accept_keyword("MATERIALIZED"):
            self.expect_keyword("VIEW")
            return self._parse_create_mv()
        if self.accept_keyword("RESOURCE"):
            self.expect_keyword("PLAN")
            name = self.expect_ident()
            self.expect_end()
            return ast.CreateResourcePlan(name)
        if self.accept_keyword("POOL"):
            return self._parse_create_pool()
        if self.accept_keyword("RULE"):
            return self._parse_create_rule()
        if self.accept_keyword("APPLICATION"):
            self.expect_keyword("MAPPING")
            app = self.expect_ident()
            self.expect_keyword("IN")
            plan = self.expect_ident()
            self.expect_keyword("TO")
            pool = self.expect_ident()
            self.expect_end()
            return ast.CreateApplicationMapping(app, plan, pool)
        external = self.accept_keyword("EXTERNAL")
        self.expect_keyword("TABLE")
        return self._parse_create_table(external)

    def _accept_if_not_exists(self) -> bool:
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            # EXISTS is a keyword token
            self.expect_keyword("EXISTS")
            return True
        return False

    def _parse_create_table(self, external: bool) -> ast.CreateTable:
        if_not_exists = self._accept_if_not_exists()
        name = self._parse_qualified_name()
        columns: list[ast.ColumnDef] = []
        primary_key: tuple[str, ...] = ()
        foreign_keys: list[ast.ForeignKeyDef] = []
        unique_keys: list[tuple[str, ...]] = []
        if self.accept_op("("):
            while True:
                if self.peek().is_keyword("PRIMARY"):
                    self.advance()
                    self.expect_keyword("KEY")
                    primary_key = self._parse_paren_name_list()
                    self._skip_constraint_suffix()
                elif self.peek().is_keyword("FOREIGN"):
                    self.advance()
                    self.expect_keyword("KEY")
                    cols = self._parse_paren_name_list()
                    self.expect_keyword("REFERENCES")
                    ref_table = self._parse_qualified_name()
                    ref_cols = self._parse_paren_name_list()
                    self._skip_constraint_suffix()
                    foreign_keys.append(
                        ast.ForeignKeyDef(cols, ref_table, ref_cols))
                elif self.peek().is_keyword("UNIQUE"):
                    self.advance()
                    unique_keys.append(self._parse_paren_name_list())
                    self._skip_constraint_suffix()
                elif self.peek().is_keyword("CONSTRAINT"):
                    self.advance()
                    self.expect_ident()  # constraint name, ignored
                    continue
                else:
                    columns.append(self._parse_column_def())
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        partition_columns: list[ast.ColumnDef] = []
        file_format = "orc"
        storage_handler = None
        properties: list[tuple[str, str]] = []
        as_query = None
        while True:
            if self.accept_keyword("PARTITIONED"):
                self.expect_keyword("BY")
                self.expect_op("(")
                while True:
                    partition_columns.append(self._parse_column_def())
                    if not self.accept_op(","):
                        break
                self.expect_op(")")
            elif self.accept_keyword("STORED"):
                if self.accept_keyword("BY"):
                    storage_handler = self.expect_string()
                else:
                    self.expect_keyword("AS")
                    file_format = self.expect_ident().lower()
                    if file_format == "textfile":
                        file_format = "text"
            elif self.accept_keyword("TBLPROPERTIES"):
                properties = self._parse_properties()
            elif self.accept_keyword("AS"):
                as_query = self.parse_query()
                break
            else:
                break
        self.expect_end()
        return ast.CreateTable(
            name=name, columns=tuple(columns),
            partition_columns=tuple(partition_columns), external=external,
            file_format=file_format, storage_handler=storage_handler,
            properties=tuple(properties), primary_key=primary_key,
            foreign_keys=tuple(foreign_keys),
            unique_keys=tuple(unique_keys), if_not_exists=if_not_exists,
            as_query=as_query)

    def _skip_constraint_suffix(self) -> None:
        """Hive requires DISABLE NOVALIDATE on informational constraints;

        accept and ignore such trailing words."""
        suffix_words = ("disable", "novalidate", "rely", "norely", "enable")
        while ((self.peek().type is TokenType.IDENT
                and self.peek().value.lower() in suffix_words)
               or self.peek().is_keyword("DISABLE", "ENABLE")):
            self.advance()

    def _parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_ident()
        type_token = self.peek()
        if type_token.type in (TokenType.IDENT, TokenType.KEYWORD):
            type_name = self.advance().value
        else:
            raise self._error("expected column type")
        params: list[int] = []
        if self.accept_op("("):
            while True:
                params.append(int(self.expect_number()))
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        not_null = False
        if self.accept_keyword("NOT"):
            self.expect_keyword("NULL")
            not_null = True
            self._skip_constraint_suffix()
        return ast.ColumnDef(name, type_name.upper(), tuple(params),
                             not_null)

    def _parse_paren_name_list(self) -> tuple[str, ...]:
        self.expect_op("(")
        names = [self.expect_ident()]
        while self.accept_op(","):
            names.append(self.expect_ident())
        self.expect_op(")")
        return tuple(names)

    def _parse_properties(self) -> list[tuple[str, str]]:
        self.expect_op("(")
        props = []
        while True:
            key = self.expect_string()
            self.expect_op("=")
            value = self.expect_string()
            props.append((key, value))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return props

    def _parse_create_mv(self) -> ast.CreateMaterializedView:
        name = self._parse_qualified_name()
        disable_rewrite = False
        stored_by = None
        properties: list[tuple[str, str]] = []
        while True:
            if self.accept_keyword("DISABLE"):
                self.expect_keyword("REWRITE")
                disable_rewrite = True
            elif self.accept_keyword("STORED"):
                self.expect_keyword("BY")
                stored_by = self.expect_string()
            elif self.accept_keyword("TBLPROPERTIES"):
                properties = self._parse_properties()
            else:
                break
        self.expect_keyword("AS")
        query = self.parse_query()
        self.expect_end()
        return ast.CreateMaterializedView(
            name, query, tuple(properties), stored_by, disable_rewrite)

    def _parse_create_pool(self) -> ast.CreatePool:
        plan = self.expect_ident()
        self.expect_op(".")
        pool = self.expect_ident()
        self.expect_keyword("WITH")
        alloc_fraction = 1.0
        parallelism = 1
        while True:
            key = self.expect_ident().lower()
            self.expect_op("=")
            value = self.expect_number()
            if key == "alloc_fraction":
                alloc_fraction = float(value)
            elif key == "query_parallelism":
                parallelism = int(value)
            else:
                raise self._error(f"unknown pool property {key!r}")
            if not self.accept_op(","):
                break
        self.expect_end()
        return ast.CreatePool(plan, pool, alloc_fraction, parallelism)

    def _parse_create_rule(self) -> ast.CreateTriggerRule:
        name = self.expect_ident()
        self.expect_keyword("IN")
        plan = self.expect_ident()
        self.expect_keyword("WHEN")
        metric = self.expect_ident().lower()
        if self.accept_op("("):
            # derived-metric triggers: WHEN p95(query.latency_s) > ...,
            # alert rules: WHEN rate(faults.injected) > ... OVER 60s,
            # query-store triggers: WHEN regression(query.latency_s) > F
            is_percentile = (metric[:1] == "p" and
                             metric[1:].replace(".", "", 1).isdigit())
            if metric not in ("rate", "regression") \
                    and not is_percentile:
                raise self._error(
                    "expected p<percentile>(metric), rate(metric) or "
                    "regression(metric) in WHEN condition")
            inner = [self.expect_ident()]
            while self.accept_op("."):
                inner.append(self.expect_ident())
            self.expect_op(")")
            metric = f"{metric}({'.'.join(inner).lower()})"
        self.expect_op(">")
        threshold = self.expect_number()
        over_s = 0.0
        if self.accept_keyword("OVER"):
            # trailing window: OVER 60s (the unit suffix lexes as an
            # adjacent identifier and is optional)
            over_s = float(self.expect_number())
            if (self.peek().type is TokenType.IDENT
                    and self.peek().value.lower() == "s"):
                self.advance()
        self.expect_keyword("THEN")
        if self.accept_keyword("MOVE"):
            target = self.expect_ident()
            action, arg = "MOVE", target
        elif self.accept_keyword("KILL"):
            action, arg = "KILL", None
        else:
            raise self._error("expected MOVE or KILL")
        self.expect_end()
        return ast.CreateTriggerRule(name, plan, metric, float(threshold),
                                     action, arg, over_s=over_s)

    # -- DROP / ALTER ------------------------------------------------------ #
    def _parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        is_mv = False
        if self.accept_keyword("MATERIALIZED"):
            self.expect_keyword("VIEW")
            is_mv = True
        else:
            self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        name = self._parse_qualified_name()
        self.expect_end()
        return ast.DropTable(name, if_exists, is_mv)

    def _parse_alter(self) -> ast.Statement:
        self.expect_keyword("ALTER")
        if self.accept_keyword("MATERIALIZED"):
            self.expect_keyword("VIEW")
            name = self._parse_qualified_name()
            self.expect_keyword("REBUILD")
            self.expect_end()
            return ast.AlterMaterializedViewRebuild(name)
        if self.accept_keyword("RESOURCE"):
            self.expect_keyword("PLAN")
            plan = self.expect_ident()
            self.expect_keyword("ENABLE")
            self.expect_keyword("ACTIVATE")
            self.expect_end()
            return ast.AlterPlan(plan, enable_activate=True)
        if self.accept_keyword("PLAN"):
            plan = self.expect_ident()
            self.expect_keyword("SET")
            self.expect_keyword("DEFAULT")
            self.expect_keyword("POOL")
            self.expect_op("=")
            pool = self.expect_ident()
            self.expect_end()
            return ast.AlterPlan(plan, default_pool=pool)
        if self.accept_keyword("TABLE"):
            name = self._parse_qualified_name()
            # RENAME is deliberately not a reserved word
            if not (self.peek().type is TokenType.IDENT
                    and self.peek().value.lower() == "rename"):
                raise self._error("expected RENAME TO")
            self.advance()
            self.expect_keyword("TO")
            new_name = self.expect_ident()
            self.expect_end()
            return ast.AlterTableRename(name, new_name)
        raise self._error("unsupported ALTER statement")

    # -- DML --------------------------------------------------------------- #
    def _parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        overwrite = False
        if self.peek().type is TokenType.IDENT and \
                self.peek().value.lower() == "overwrite":
            self.advance()
            overwrite = True
            self.accept_keyword("TABLE")
        else:
            self.expect_keyword("INTO")
            self.accept_keyword("TABLE")
        table = self._parse_qualified_name()
        partition_spec: list[tuple[str, object]] = []
        if self.accept_keyword("PARTITION"):
            self.expect_op("(")
            while True:
                col = self.expect_ident()
                self.expect_op("=")
                value = self._parse_literal_value()
                partition_spec.append((col, value))
                if not self.accept_op(","):
                    break
            self.expect_op(")")
        columns: tuple[str, ...] = ()
        if self.peek().is_op("(") and self._looks_like_column_list():
            columns = self._parse_paren_name_list()
        if self.accept_keyword("VALUES"):
            rows = []
            while True:
                self.expect_op("(")
                row = [self.parse_expr()]
                while self.accept_op(","):
                    row.append(self.parse_expr())
                self.expect_op(")")
                rows.append(tuple(row))
                if not self.accept_op(","):
                    break
            self.expect_end()
            return ast.Insert(table, tuple(partition_spec), columns,
                              values=tuple(rows), overwrite=overwrite)
        query = self.parse_query()
        self.expect_end()
        return ast.Insert(table, tuple(partition_spec), columns,
                          query=query, overwrite=overwrite)

    def _looks_like_column_list(self) -> bool:
        """Distinguish ``INSERT INTO t (a, b) VALUES`` from

        ``INSERT INTO t (SELECT ...)``."""
        return not self.peek(1).is_keyword("SELECT", "WITH")

    def _parse_literal_value(self):
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            return _numeric(token.value)
        if token.type is TokenType.STRING:
            self.advance()
            return token.value
        if token.is_keyword("NULL"):
            self.advance()
            return None
        if token.is_keyword("TRUE"):
            self.advance()
            return True
        if token.is_keyword("FALSE"):
            self.advance()
            return False
        if token.is_keyword("DATE"):
            self.advance()
            return datetime.date.fromisoformat(self.expect_string())
        raise self._error("expected literal value")

    def _parse_multi_insert(self) -> ast.MultiInsert:
        """FROM <source> (INSERT INTO t SELECT ... [WHERE ...])+"""
        self.expect_keyword("FROM")
        source = self._parse_table_primary()
        branches: list[ast.Insert] = []
        while self.peek().is_keyword("INSERT"):
            self.expect_keyword("INSERT")
            overwrite = False
            if self.peek().type is TokenType.IDENT and \
                    self.peek().value.lower() == "overwrite":
                self.advance()
                overwrite = True
                self.accept_keyword("TABLE")
            else:
                self.expect_keyword("INTO")
                self.accept_keyword("TABLE")
            table = self._parse_qualified_name()
            partition_spec: list[tuple[str, object]] = []
            if self.accept_keyword("PARTITION"):
                self.expect_op("(")
                while True:
                    col = self.expect_ident()
                    self.expect_op("=")
                    partition_spec.append((col,
                                           self._parse_literal_value()))
                    if not self.accept_op(","):
                        break
                self.expect_op(")")
            self.expect_keyword("SELECT")
            items = [self._parse_select_item()]
            while self.accept_op(","):
                items.append(self._parse_select_item())
            where = None
            if self.accept_keyword("WHERE"):
                where = self.parse_expr()
            spec = ast.QuerySpec(tuple(items),
                                 (ast.NamedTable("__multi_insert_src__"),),
                                 where)
            branches.append(ast.Insert(
                table, tuple(partition_spec), (),
                query=ast.Query(spec), overwrite=overwrite))
        if not branches:
            raise self._error("multi-insert needs at least one INSERT")
        self.expect_end()
        return ast.MultiInsert(source, tuple(branches))

    def _parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self._parse_qualified_name()
        self.expect_keyword("SET")
        assignments = []
        while True:
            col = self.expect_ident()
            self.expect_op("=")
            assignments.append((col, self.parse_expr()))
            if not self.accept_op(","):
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        self.expect_end()
        return ast.Update(table, tuple(assignments), where)

    def _parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self._parse_qualified_name()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        self.expect_end()
        return ast.Delete(table, where)

    def _parse_merge(self) -> ast.Merge:
        self.expect_keyword("MERGE")
        self.expect_keyword("INTO")
        target = self._parse_qualified_name()
        target_alias = None
        if self.peek().type is TokenType.IDENT:
            target_alias = self.advance().value
        self.expect_keyword("USING")
        source = self._parse_table_primary()
        self.expect_keyword("ON")
        condition = self.parse_expr()
        clauses: list[ast.MergeWhenClause] = []
        while self.accept_keyword("WHEN"):
            matched = True
            if self.accept_keyword("NOT"):
                matched = False
            self.expect_keyword("MATCHED")
            clause_cond = None
            if self.accept_keyword("AND"):
                clause_cond = self.parse_expr()
            self.expect_keyword("THEN")
            if self.accept_keyword("UPDATE"):
                self.expect_keyword("SET")
                assignments = []
                while True:
                    col = self._parse_qualified_name()
                    self.expect_op("=")
                    assignments.append((col.split(".")[-1],
                                        self.parse_expr()))
                    if not self.accept_op(","):
                        break
                clauses.append(ast.MergeWhenClause(
                    matched, "update", clause_cond, tuple(assignments)))
            elif self.accept_keyword("DELETE"):
                clauses.append(ast.MergeWhenClause(
                    matched, "delete", clause_cond))
            elif self.accept_keyword("INSERT"):
                self.expect_keyword("VALUES")
                self.expect_op("(")
                values = [self.parse_expr()]
                while self.accept_op(","):
                    values.append(self.parse_expr())
                self.expect_op(")")
                clauses.append(ast.MergeWhenClause(
                    matched, "insert", clause_cond,
                    insert_values=tuple(values)))
            else:
                raise self._error("expected UPDATE, DELETE or INSERT")
        self.expect_end()
        return ast.Merge(target, target_alias, source, condition,
                         tuple(clauses))

    def _parse_analyze(self) -> ast.AnalyzeTable:
        self.expect_keyword("ANALYZE")
        self.expect_keyword("TABLE")
        table = self._parse_qualified_name()
        self.expect_keyword("COMPUTE")
        self.expect_keyword("STATISTICS")
        for_columns = False
        if self.accept_keyword("FOR"):
            self.expect_keyword("COLUMNS")
            for_columns = True
        self.expect_end()
        return ast.AnalyzeTable(table, for_columns)

    def _parse_set(self) -> ast.SetConfig:
        self.expect_keyword("SET")
        parts = [self._set_key_part()]
        while self.accept_op("."):
            parts.append(self._set_key_part())
        self.expect_op("=")
        token = self.advance()
        if token.type is TokenType.EOF:
            raise self._error("expected value")
        self.expect_end()
        return ast.SetConfig(".".join(parts), token.value)

    def _set_key_part(self) -> str:
        """A segment of a dotted config key; unlike ordinary identifiers
        any keyword is legal here (hive.cbo.ENABLE, hive.check.PLAN)."""
        token = self.peek()
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            return self.advance().value.lower()
        raise self._error("expected configuration key")

    # ------------------------------------------------------------------ #
    # queries
    def parse_query(self) -> ast.Query:
        ctes: list[ast.CommonTableExpr] = []
        if self.accept_keyword("WITH"):
            while True:
                name = self.expect_ident()
                self.expect_keyword("AS")
                self.expect_op("(")
                inner = self.parse_query()
                self.expect_op(")")
                ctes.append(ast.CommonTableExpr(name, inner))
                if not self.accept_op(","):
                    break
        body = self._parse_set_expr()
        order_by: list[ast.OrderItem] = []
        limit = None
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self._parse_order_items()
        if self.accept_keyword("LIMIT"):
            limit = int(self.expect_number())
        return ast.Query(body, tuple(ctes), tuple(order_by), limit)

    def _parse_order_items(self) -> list[ast.OrderItem]:
        items = []
        while True:
            expr = self.parse_expr()
            ascending = True
            if self.accept_keyword("ASC"):
                ascending = True
            elif self.accept_keyword("DESC"):
                ascending = False
            if self.accept_keyword("NULLS"):
                self.expect_keyword("FIRST", "LAST")
            items.append(ast.OrderItem(expr, ascending))
            if not self.accept_op(","):
                break
        return items

    def _parse_set_expr(self):
        left = self._parse_set_term()
        while self.peek().is_keyword("UNION"):
            self.advance()
            all_flag = bool(self.accept_keyword("ALL"))
            if not self.accept_keyword("DISTINCT"):
                pass
            right = self._parse_set_term()
            left = ast.SetOperation("union", all_flag, left, right)
        return left

    def _parse_set_term(self):
        left = self._parse_set_primary()
        while self.peek().is_keyword("INTERSECT", "EXCEPT"):
            if not self.conf.support_setops:
                raise self._unsupported("INTERSECT/EXCEPT")
            op = self.advance().value.lower()
            all_flag = bool(self.accept_keyword("ALL"))
            right = self._parse_set_primary()
            left = ast.SetOperation(op, all_flag, left, right)
        return left

    def _parse_set_primary(self):
        if self.accept_op("("):
            inner = self._parse_set_expr()
            self.expect_op(")")
            return inner
        return self._parse_query_spec()

    def _parse_query_spec(self) -> ast.QuerySpec:
        self.expect_keyword("SELECT")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        elif self.accept_keyword("ALL"):
            pass
        select_items = [self._parse_select_item()]
        while self.accept_op(","):
            select_items.append(self._parse_select_item())
        from_refs: list[ast.TableRef] = []
        if self.accept_keyword("FROM"):
            from_refs.append(self._parse_table_ref())
            while self.accept_op(","):
                from_refs.append(self._parse_table_ref())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expr()
        group_by: list[ast.Expr] = []
        grouping_sets = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            if self.peek().is_keyword("GROUPING"):
                if not self.conf.support_grouping_sets:
                    raise self._unsupported("GROUPING SETS")
                self.advance()
                self.expect_keyword("SETS")
                self.expect_op("(")
                sets = []
                while True:
                    self.expect_op("(")
                    exprs = []
                    if not self.peek().is_op(")"):
                        exprs.append(self.parse_expr())
                        while self.accept_op(","):
                            exprs.append(self.parse_expr())
                    self.expect_op(")")
                    sets.append(tuple(exprs))
                    if not self.accept_op(","):
                        break
                self.expect_op(")")
                grouping_sets = tuple(sets)
                # the union of all grouping-set columns is the group-by list
                seen = []
                for gs in sets:
                    for e in gs:
                        if e not in seen:
                            seen.append(e)
                group_by = seen
            elif self.peek().is_keyword("ROLLUP"):
                if not self.conf.support_grouping_sets:
                    raise self._unsupported("ROLLUP")
                self.advance()
                self.expect_op("(")
                exprs = [self.parse_expr()]
                while self.accept_op(","):
                    exprs.append(self.parse_expr())
                self.expect_op(")")
                group_by = exprs
                grouping_sets = tuple(
                    tuple(exprs[:i]) for i in range(len(exprs), -1, -1))
            else:
                group_by.append(self.parse_expr())
                while self.accept_op(","):
                    group_by.append(self.parse_expr())
        having = None
        if self.accept_keyword("HAVING"):
            having = self.parse_expr()
        return ast.QuerySpec(tuple(select_items), tuple(from_refs), where,
                             tuple(group_by), grouping_sets, having,
                             distinct)

    def _parse_select_item(self) -> ast.SelectItem:
        if self.peek().is_op("*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        # qualified star: ident.*
        if (self.peek().type is TokenType.IDENT and self.peek(1).is_op(".")
                and self.peek(2).is_op("*")):
            qualifier = self.advance().value
            self.advance()
            self.advance()
            return ast.SelectItem(ast.Star(qualifier))
        expr = self.parse_expr()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    # -- FROM clause ---------------------------------------------------- #
    def _parse_table_ref(self) -> ast.TableRef:
        left = self._parse_table_primary()
        while True:
            kind = None
            if self.accept_keyword("CROSS"):
                self.expect_keyword("JOIN")
                kind = "cross"
            elif self.peek().is_keyword("JOIN"):
                self.advance()
                kind = "inner"
            elif self.peek().is_keyword("INNER") and self.peek(1).is_keyword("JOIN"):
                self.advance()
                self.advance()
                kind = "inner"
            elif self.peek().is_keyword("LEFT", "RIGHT", "FULL") and (
                    self.peek(1).is_keyword("JOIN")
                    or (self.peek(1).is_keyword("OUTER")
                        and self.peek(2).is_keyword("JOIN"))):
                kind = self.advance().value.lower()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
            else:
                break
            right = self._parse_table_primary()
            condition = None
            if kind != "cross":
                self.expect_keyword("ON")
                condition = self.parse_expr()
            left = ast.JoinRef(left, right, kind, condition)
        return left

    def _parse_table_primary(self) -> ast.TableRef:
        if self.accept_op("("):
            query = self.parse_query()
            self.expect_op(")")
            self.accept_keyword("AS")
            alias = self.expect_ident()
            return ast.SubqueryRef(query, alias)
        name = self._parse_qualified_name()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return ast.NamedTable(name, alias)

    def _parse_qualified_name(self) -> str:
        parts = [self.expect_ident()]
        while self.peek().is_op(".") and self.peek(1).type in (
                TokenType.IDENT, TokenType.KEYWORD):
            self.advance()
            parts.append(self.expect_ident())
        return ".".join(parts)

    # ------------------------------------------------------------------ #
    # expressions (precedence climbing)
    def parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = ast.BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = ast.BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_additive()
        while True:
            token = self.peek()
            if token.type is TokenType.OP and token.value in _COMPARISON_OPS:
                op = self.advance().value
                if op in ("!=", "=="):
                    op = "<>" if op == "!=" else "="
                right = self._parse_additive()
                left = ast.BinaryOp(op, left, right)
                continue
            negated = False
            save = self.pos
            if self.accept_keyword("NOT"):
                negated = True
            if self.accept_keyword("BETWEEN"):
                low = self._parse_additive()
                self.expect_keyword("AND")
                high = self._parse_additive()
                left = ast.Between(left, low, high, negated)
                continue
            if self.accept_keyword("LIKE"):
                pattern = self.expect_string()
                left = ast.Like(left, pattern, negated)
                continue
            if self.accept_keyword("IN"):
                self.expect_op("(")
                if self.peek().is_keyword("SELECT", "WITH"):
                    query = self.parse_query()
                    self.expect_op(")")
                    left = ast.InSubquery(left, query, negated)
                else:
                    values = [self.parse_expr()]
                    while self.accept_op(","):
                        values.append(self.parse_expr())
                    self.expect_op(")")
                    left = ast.InList(left, tuple(values), negated)
                continue
            if negated:
                self.pos = save  # NOT belonged to something else
            if self.accept_keyword("IS"):
                is_negated = bool(self.accept_keyword("NOT"))
                self.expect_keyword("NULL")
                left = ast.IsNull(left, is_negated)
                continue
            return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            if self.accept_op("+"):
                left = ast.BinaryOp("+", left, self._parse_multiplicative())
            elif self.accept_op("-"):
                left = ast.BinaryOp("-", left, self._parse_multiplicative())
            elif self.accept_op("||"):
                left = ast.BinaryOp("||", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            if self.accept_op("*"):
                left = ast.BinaryOp("*", left, self._parse_unary())
            elif self.accept_op("/"):
                left = ast.BinaryOp("/", left, self._parse_unary())
            elif self.accept_op("%"):
                left = ast.BinaryOp("%", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        if self.accept_op("-"):
            operand = self._parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(
                    operand.value, (int, float)):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self.accept_op("+"):
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            return ast.Literal(_numeric(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)
        if token.is_keyword("DATE") and self.peek(1).type is TokenType.STRING:
            self.advance()
            return ast.Literal(
                datetime.date.fromisoformat(self.expect_string()))
        if token.is_keyword("TIMESTAMP") and \
                self.peek(1).type is TokenType.STRING:
            self.advance()
            return ast.Literal(
                datetime.datetime.fromisoformat(self.expect_string()))
        if token.is_keyword("INTERVAL"):
            if not self.conf.support_interval_notation:
                raise self._unsupported("INTERVAL notation")
            self.advance()
            raw = self.expect_string()
            unit = self.expect_keyword(*_INTERVAL_UNITS).value
            return ast.IntervalLiteral(int(raw), unit)
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("CAST"):
            self.advance()
            self.expect_op("(")
            operand = self.parse_expr()
            self.expect_keyword("AS")
            type_name = self.advance().value.upper()
            params: list[int] = []
            if self.accept_op("("):
                while True:
                    params.append(int(self.expect_number()))
                    if not self.accept_op(","):
                        break
                self.expect_op(")")
            self.expect_op(")")
            return ast.Cast(operand, type_name, tuple(params))
        if token.is_keyword("EXTRACT"):
            self.advance()
            self.expect_op("(")
            unit = self.advance().value.upper()
            self.expect_keyword("FROM")
            operand = self.parse_expr()
            self.expect_op(")")
            return ast.ExtractExpr(unit, operand)
        if token.is_keyword("EXISTS"):
            self.advance()
            self.expect_op("(")
            query = self.parse_query()
            self.expect_op(")")
            return ast.Exists(query)
        if token.is_op("("):
            self.advance()
            if self.peek().is_keyword("SELECT", "WITH"):
                query = self.parse_query()
                self.expect_op(")")
                return ast.ScalarSubquery(query)
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        if token.type is TokenType.IDENT or token.is_keyword(
                "YEAR", "MONTH", "DAY", "FIRST", "LAST", "ROW"):
            return self._parse_ident_expr()
        raise self._error("expected expression")

    def _parse_case(self) -> ast.Expr:
        self.expect_keyword("CASE")
        operand = None
        if not self.peek().is_keyword("WHEN"):
            operand = self.parse_expr()
        whens = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            if operand is not None:
                cond = ast.BinaryOp("=", operand, cond)
            self.expect_keyword("THEN")
            whens.append((cond, self.parse_expr()))
        else_expr = None
        if self.accept_keyword("ELSE"):
            else_expr = self.parse_expr()
        self.expect_keyword("END")
        return ast.CaseExpr(tuple(whens), else_expr)

    def _parse_ident_expr(self) -> ast.Expr:
        name = self.advance().value
        # function call
        if self.peek().is_op("("):
            self.advance()
            distinct = bool(self.accept_keyword("DISTINCT"))
            args: list[ast.Expr] = []
            if self.peek().is_op("*"):
                self.advance()
            elif not self.peek().is_op(")"):
                args.append(self.parse_expr())
                while self.accept_op(","):
                    args.append(self.parse_expr())
            self.expect_op(")")
            window = None
            if self.accept_keyword("OVER"):
                window = self._parse_window_spec()
            return ast.FuncCall(name.lower(), tuple(args), distinct, window)
        # qualified column a.b (or db.t.c → qualifier "db.t")
        parts = [name]
        while self.peek().is_op(".") and self.peek(1).type in (
                TokenType.IDENT, TokenType.KEYWORD):
            self.advance()
            parts.append(self.expect_ident())
        if len(parts) == 1:
            return ast.ColumnRef(parts[0])
        return ast.ColumnRef(parts[-1], ".".join(parts[:-1]))

    def _parse_window_spec(self) -> ast.WindowSpec:
        self.expect_op("(")
        partition_by: list[ast.Expr] = []
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("PARTITION"):
            self.expect_keyword("BY")
            partition_by.append(self.parse_expr())
            while self.accept_op(","):
                partition_by.append(self.parse_expr())
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self._parse_order_items()
        frame = ""
        unit = self.peek().value
        if self.accept_keyword("ROWS", "RANGE"):
            if self.accept_keyword("BETWEEN"):
                start = self._parse_frame_bound()
                self.expect_keyword("AND")
                end = self._parse_frame_bound()
            else:
                start, end = self._parse_frame_bound(), "CURRENT ROW"
            frame = f"{unit} BETWEEN {start} AND {end}"
        self.expect_op(")")
        return ast.WindowSpec(tuple(partition_by), tuple(order_by), frame)

    def _parse_frame_bound(self) -> str:
        if self.accept_keyword("CURRENT"):
            self.expect_keyword("ROW")
            return "CURRENT ROW"
        offset = ("UNBOUNDED" if self.accept_keyword("UNBOUNDED")
                  else str(self.expect_number()))
        return f"{offset} {self.expect_keyword('PRECEDING', 'FOLLOWING').value}"


def _numeric(text: str):
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)
