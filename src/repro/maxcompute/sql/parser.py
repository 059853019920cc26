"""SQL tokenizer and recursive-descent parser.

The dialect is the one the T+1 backfill issues (see
:mod:`repro.features.sql_backfill`); anything else is a :class:`SQLParseError`.

Grammar (case-insensitive keywords)::

    statement   := SELECT select_item ("," select_item)* FROM identifier
                   [WHERE comparison (AND comparison)*]
                   [GROUP BY identifier ("," identifier)*]
    select_item := (aggregate | identifier) [AS identifier]
    aggregate   := COUNT "(" ("*" | [DISTINCT] identifier) ")"
                 | (SUM|MAX) "(" identifier ")"
    comparison  := identifier op number
    op          := "=" | "!=" | "<>" | "<" | "<=" | ">" | ">="
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.exceptions import SQLParseError

_KEYWORDS = {
    "select",
    "from",
    "where",
    "group",
    "by",
    "and",
    "as",
    "count",
    "sum",
    "max",
    "distinct",
}

_TOKEN_PATTERN = re.compile(
    r"\s*(?:"
    r"(?P<number>-?\d+\.\d+|-?\d+)"
    r"|(?P<identifier>[A-Za-z_][A-Za-z_0-9\.]*)"
    r"|(?P<op><>|!=|<=|>=|=|<|>|\(|\)|,|\*)"
    r")"
)


@dataclass
class Token:
    kind: str  # "number" | "identifier" | "keyword" | "op"
    value: str


def tokenize(sql: str) -> List[Token]:
    """Split a SQL string into tokens, raising on unknown characters."""
    tokens: List[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_PATTERN.match(sql, position)
        if match is None:
            remainder = sql[position:].strip()
            if not remainder:
                break
            raise SQLParseError(f"unexpected character near {remainder[:20]!r}")
        position = match.end()
        kind = match.lastgroup or "op"
        text = match.group(kind)
        if kind == "identifier" and text.lower() in _KEYWORDS:
            kind, text = "keyword", text.lower()
        tokens.append(Token(kind, text))
    return tokens


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


@dataclass
class ColumnRef:
    name: str
    alias: Optional[str] = None

    @property
    def output_name(self) -> str:
        return self.alias or self.name


@dataclass
class Aggregate:
    function: str  # count | sum | max
    column: Optional[str]  # None for COUNT(*)
    alias: Optional[str] = None
    distinct: bool = False  # COUNT(DISTINCT col) only

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        target = self.column or "*"
        if self.distinct:
            target = f"distinct {target}"
        return f"{self.function}({target})"


@dataclass
class Comparison:
    column: str
    operator: str  # "=" | "!=" | "<" | "<=" | ">" | ">="
    value: Union[int, float]


SelectItem = Union[ColumnRef, Aggregate]


@dataclass
class SelectStatement:
    table: str
    items: List[SelectItem] = field(default_factory=list)
    #: The WHERE clause's conjuncts; empty when there is no WHERE.
    where: List[Comparison] = field(default_factory=list)
    group_by: List[str] = field(default_factory=list)

    @property
    def has_aggregates(self) -> bool:
        """True when any select item is an aggregate."""
        return any(isinstance(item, Aggregate) for item in self.items)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._position = 0

    # -- token helpers --------------------------------------------------
    def _peek(self) -> Optional[Token]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise SQLParseError("unexpected end of statement")
        self._position += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        token = self._advance()
        if token.kind != "keyword" or token.value != keyword:
            raise SQLParseError(f"expected {keyword.upper()}, found {token.value!r}")

    def _match(self, kind: str, value: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == kind and token.value == value:
            self._position += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        token = self._advance()
        if token.kind != "op" or token.value != op:
            raise SQLParseError(f"expected {op!r}, found {token.value!r}")

    def _expect_identifier(self) -> str:
        token = self._advance()
        if token.kind != "identifier":
            raise SQLParseError(f"expected identifier, found {token.value!r}")
        return token.value

    # -- grammar ---------------------------------------------------------
    def parse(self) -> SelectStatement:
        self._expect_keyword("select")
        items = [self._parse_select_item()]
        while self._match("op", ","):
            items.append(self._parse_select_item())
        self._expect_keyword("from")
        statement = SelectStatement(table=self._expect_identifier(), items=items)
        if self._match("keyword", "where"):
            statement.where.append(self._parse_comparison())
            while self._match("keyword", "and"):
                statement.where.append(self._parse_comparison())
        if self._match("keyword", "group"):
            self._expect_keyword("by")
            statement.group_by.append(self._expect_identifier())
            while self._match("op", ","):
                statement.group_by.append(self._expect_identifier())
        trailing = self._peek()
        if trailing is not None:
            raise SQLParseError(f"unexpected trailing token {trailing.value!r}")
        return statement

    def _parse_select_item(self) -> SelectItem:
        item: SelectItem
        token = self._advance()
        if token.kind == "keyword" and token.value in ("count", "sum", "max"):
            self._expect_op("(")
            counting = token.value == "count"
            distinct = counting and self._match("keyword", "distinct")
            column: Optional[str] = None
            if distinct or not counting or not self._match("op", "*"):
                column = self._expect_identifier()
            self._expect_op(")")
            item = Aggregate(function=token.value, column=column, distinct=distinct)
        elif token.kind == "identifier":
            item = ColumnRef(name=token.value)
        else:
            raise SQLParseError(f"expected a column or aggregate, found {token.value!r}")
        if self._match("keyword", "as"):
            item.alias = self._expect_identifier()
        return item

    def _parse_comparison(self) -> Comparison:
        column = self._expect_identifier()
        token = self._advance()
        if token.kind != "op" or token.value not in ("=", "!=", "<>", "<", "<=", ">", ">="):
            raise SQLParseError(f"expected a comparison operator, found {token.value!r}")
        operator = "!=" if token.value == "<>" else token.value
        literal = self._advance()
        if literal.kind != "number":
            raise SQLParseError(f"expected a number, found {literal.value!r}")
        value = float(literal.value) if "." in literal.value else int(literal.value)
        return Comparison(column=column, operator=operator, value=value)


def parse_sql(sql: str) -> SelectStatement:
    """Parse a SELECT statement into an AST."""
    tokens = tokenize(sql)
    if not tokens:
        raise SQLParseError("empty SQL statement")
    return _Parser(tokens).parse()
