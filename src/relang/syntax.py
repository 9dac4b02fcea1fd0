"""Lexer, syntax tree, recursive-descent parser, and canonical renderer.

The lexer is one compiled token pattern with a named group per token kind;
a token's line and column come from its match offset and the newlines
counted before it.

The surface language is s-expressions with four bracket pairs of meaning:

    ( ... )   operator application, typecast, selection, or union
    { ... }   tuple constructor (product) or connection
    [ ... ]   projection
    name = …  assignment

Disambiguation rules applied by the parser:
  * inside parens, a leading operator makes a prefix application; an operator
    in second position is accepted and normalized to prefix form;
  * a leading name makes a selection, except a scalar type name followed by
    one expression, which is a typecast;
  * anything else is a union; `()` is the empty set;
  * a braced list of exactly two members whose first member is a bare name
    and whose second is a selection is a connection; bare names are not legal
    constructor members, so the rule is conflict-free;
  * `?` is accepted wherever `.` is, as the same wildcard;
  * a `-` immediately followed by a digit always lexes into the literal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

from .errors import DomainTypeMismatch, IllegalCharacter, ParseError, UnterminatedString
from .values import quote_text, unescape_text

KEYWORDS = frozenset(
    "relation domain function add remove update abolish output commit rollback".split()
)
OPERATORS = frozenset(["+", "-", "*", "/", "=", "!=", "<", ">", "<=", ">=", "&", "|", "!", "~"])
SCALAR_TYPE_NAMES = ("int", "real", "text", "timestamp")
DML_VERBS = frozenset(["add", "remove", "update", "abolish"])
FORMAT_NAMES = frozenset(["tabular", "csv", "sexpr"])
# Deepest bracket nesting a script may use. Parsing, type checking and
# evaluation recurse over the tree; this bound keeps them well inside
# Python's default recursion limit.
MAX_NESTING = 100

# token kinds
LPAREN, RPAREN = "lparen", "rparen"
LBRACE, RBRACE = "lbrace", "rbrace"
LBRACKET, RBRACKET = "lbracket", "rbracket"
COLON, EQUALS, DOT, QUESTION = "colon", "equals", "dot", "question"
NAME, OPERATOR, KEYWORD = "name", "operator", "keyword"
INT_LIT, REAL_LIT, TEXT_LIT = "int-literal", "real-literal", "text-literal"
EOF = "eof"

_PUNCT = {
    "(": LPAREN,
    ")": RPAREN,
    "{": LBRACE,
    "}": RBRACE,
    "[": LBRACKET,
    "]": RBRACKET,
    ":": COLON,
    ".": DOT,
    "?": QUESTION,
}


class Token(NamedTuple):
    kind: str
    lexeme: str
    line: int
    column: int


# One alternative per token kind, tried in order at each offset. The last
# takes any one character (an illegal one, or the quote of a text literal
# never closed), so the matches cover the source without a gap.
# Only `skip` (whitespace and comments) and `text` can hold a newline.
_TOKEN = re.compile(
    r"""
    (?P<skip>(?:[ \t\r\n]+|//[^\n]*)+)
    | (?P<punct>[(){}\[\]:.?])
    | (?P<text>"[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*')
    | (?:(?P<real>-?[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))
         |(?P<int>-?[0-9]+))
      (?P<stuck>\w)?
    | (?P<operator>[!<>]=|[-+*/<>&|!~])
    | (?P<equals>=)
    | (?P<word>\w+)
    | (?P<bad>.)
    """,
    re.S | re.X,
)
# the token kind of each group whose match is its lexeme as it stands
_KINDS = {"real": REAL_LIT, "int": INT_LIT, "operator": OPERATOR, "equals": EQUALS}


def tokenize(source: str):
    """Split source text into tokens. Whitespace is the only separator;
    `//` starts a comment running to end of line."""
    tokens = []
    line, newline_at = 1, -1  # the current line, and the offset of the newline opening it
    for m in _TOKEN.finditer(source):
        kind, lexeme, start = m.lastgroup, m.group(), m.start()
        if kind != "skip":
            column = start - newline_at
            if kind == "punct":
                tokens.append(Token(_PUNCT[lexeme], lexeme, line, column))
            elif kind == "text":
                tokens.append(Token(TEXT_LIT, unescape_text(lexeme[1:-1]), line, column))
            elif kind == "word":
                # `\w` also takes digits and numerals, which start no name
                if not (lexeme[0].isalpha() or lexeme[0] == "_"):
                    raise IllegalCharacter(f"illegal character {lexeme[0]!r}", line, column)
                tokens.append(Token(KEYWORD if lexeme in KEYWORDS else NAME, lexeme, line, column))
            elif kind in _KINDS:
                tokens.append(Token(_KINDS[kind], lexeme, line, column))
            elif kind == "stuck":
                # a number run into a letter or `_` is malformed; any other
                # word character here is a digit other than 0-9, and illegal
                if lexeme[-1].isalpha() or lexeme[-1] == "_":
                    raise IllegalCharacter(f"malformed number {lexeme!r}", line, column)
                raise IllegalCharacter(
                    f"illegal character {lexeme[-1]!r}", line, column + len(lexeme) - 1
                )
            elif lexeme in "\"'":
                raise UnterminatedString("text literal never closed", line, column)
            else:
                raise IllegalCharacter(f"illegal character {lexeme!r}", line, column)
        if "\n" in lexeme:
            line += lexeme.count("\n")
            newline_at = start + lexeme.rindex("\n")
    return tokens


# --- syntax tree --------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: object  # int, float, or str payload, per kind
    kind: str  # 'int' | 'real' | 'text'


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Wildcard:
    pass


@dataclass(frozen=True)
class OpApply:
    op: str
    operands: Tuple["Expr", ...]


@dataclass(frozen=True)
class Typecast:
    type_name: str
    expr: "Expr"


@dataclass(frozen=True)
class Selection:
    target: str
    args: Tuple["Expr", ...]
    filter: Optional["Expr"] = None


@dataclass(frozen=True)
class Product:
    members: Tuple["Expr", ...]


@dataclass(frozen=True)
class Union_:
    members: Tuple["Expr", ...]


@dataclass(frozen=True)
class Path:
    name: str
    subs: Optional[Tuple["Path", ...]] = None


@dataclass(frozen=True)
class Projection:
    source: "Expr"
    paths: Tuple[Path, ...]


@dataclass(frozen=True)
class Connection:
    target: str
    source: Selection


Expr = Union[
    Const, Name, Wildcard, OpApply, Typecast, Selection, Product, Union_, Projection, Connection
]


@dataclass(frozen=True)
class DomainSpec:
    attr: Optional[str]
    type_name: str


@dataclass(frozen=True)
class Definition:
    klass: str  # 'relation' | 'domain' | 'function'
    name: str
    domains: Tuple[DomainSpec, ...]
    body: Optional[Expr] = None


@dataclass(frozen=True)
class Command:
    verb: str  # 'add' | 'remove' | 'update' | 'abolish'
    relation: str
    set_arg: Expr
    assignments: Optional[Tuple[Tuple[str, Expr], ...]] = None


@dataclass(frozen=True)
class Assignment:
    name: str
    rhs: Union[Command, Expr]


@dataclass(frozen=True)
class Output:
    expr: Expr
    format_name: Optional[str] = None
    order_attrs: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Commit:
    pass


@dataclass(frozen=True)
class Rollback:
    pass


@dataclass(frozen=True)
class BareQuery:
    expr: Expr


Statement = Union[Definition, Command, Assignment, Output, Commit, Rollback, BareQuery]


# --- parser -------------------------------------------------------------------


class Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens):
        tokens = list(tokens)
        if tokens:
            last = tokens[-1]
            sentinel = Token(EOF, "", last.line, last.column + max(len(last.lexeme), 1))
        else:
            sentinel = Token(EOF, "", 1, 1)
        self._tokens = tokens + [sentinel]
        self._pos = 0
        self._depth = 0  # brackets open around the current token

    def _peek(self, ahead=0) -> Token:
        # in range: `_advance` stops at the EOF sentinel, and a look ahead follows a name
        return self._tokens[self._pos + ahead]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def _check(self, kind) -> bool:
        return self._tokens[self._pos].kind == kind

    def _match(self, kind) -> Optional[Token]:
        if self._tokens[self._pos].kind == kind:
            return self._advance()
        return None

    def _expect(self, kind, what) -> Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.lexeme or 'end of input'!r}",
                tok.line,
                tok.column,
                expected=(kind,),
            )
        return self._advance()

    def _error(self, message, expected=()):
        tok = self._peek()
        raise ParseError(message, tok.line, tok.column, expected=expected)

    def _enter(self):
        self._depth += 1
        if self._depth > MAX_NESTING:
            self._error(f"brackets nest deeper than {MAX_NESTING}")

    # -- statements

    def parse_script(self):
        statements = []
        while not self._check(EOF):
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Statement:
        tok = self._peek()
        if tok.kind == KEYWORD:
            if tok.lexeme in ("relation", "domain", "function"):
                return self._parse_definition()
            if tok.lexeme in DML_VERBS:
                return self._parse_command()
            if tok.lexeme == "output":
                return self._parse_output()
            if tok.lexeme == "commit":
                self._advance()
                return Commit()
            if tok.lexeme == "rollback":
                self._advance()
                return Rollback()
        if tok.kind == NAME and self._peek(1).kind == EQUALS:
            name = self._advance().lexeme
            self._advance()  # '='
            if self._peek().kind == KEYWORD and self._peek().lexeme in DML_VERBS:
                return Assignment(name, self._parse_command())
            return Assignment(name, self.parse_expr())
        return BareQuery(self.parse_expr())

    def _parse_definition(self) -> Definition:
        klass = self._advance().lexeme
        self._expect(LPAREN, "'('")
        name = self._expect(NAME, "relation name").lexeme
        domains = []
        while not self._check(RPAREN):
            if self._match(LPAREN):
                attr = self._expect(NAME, "attribute name").lexeme
                type_name = self._expect(NAME, "type name").lexeme
                self._expect(RPAREN, "')'")
                domains.append(DomainSpec(attr, type_name))
            elif self._check(NAME):
                domains.append(DomainSpec(None, self._advance().lexeme))
            else:
                self._error("expected a domain")
        self._expect(RPAREN, "')'")
        if not domains:
            self._error("a definition needs at least one domain")
        body = None
        if klass == "function":
            body = self.parse_expr()
        return Definition(klass, name, tuple(domains), body)

    def _parse_command(self) -> Command:
        verb = self._advance().lexeme
        relation = self._expect(NAME, "relation name").lexeme
        set_arg = self.parse_expr()
        assignments = None
        if verb == "update":
            self._expect(LPAREN, "'(' starting the assignment list")
            pairs = []
            while not self._check(RPAREN):
                attr = self._expect(NAME, "attribute name").lexeme
                pairs.append((attr, self.parse_expr()))
            self._expect(RPAREN, "')'")
            if not pairs:
                self._error("update needs at least one assignment")
            assignments = tuple(pairs)
        return Command(verb, relation, set_arg, assignments)

    def _parse_output(self) -> Output:
        self._advance()  # 'output'
        format_name = None
        order_attrs = []
        if self._check(NAME) and self._peek().lexeme in FORMAT_NAMES:
            format_name = self._advance().lexeme
            if self._check(NAME) and self._peek().lexeme == "order":
                self._advance()
                while self._check(NAME):
                    order_attrs.append(self._advance().lexeme)
                if not order_attrs:
                    self._error("expected attribute names after 'order'")
        elif self._check(NAME):
            self._error(
                f"unknown output format {self._peek().lexeme!r}"
                " (expected tabular, csv, or sexpr)"
            )
        return Output(self.parse_expr(), format_name, tuple(order_attrs))

    # -- expressions

    def parse_expr(self, allow_wildcard=False) -> Expr:
        tok = self._peek()
        if tok.kind == INT_LIT:
            self._advance()
            if len(tok.lexeme.lstrip("-0")) > 19:  # past the 64-bit range, and maybe past what int() reads
                raise DomainTypeMismatch(f"integer literal at line {tok.line}, column {tok.column} is out of 64-bit range")
            return Const(int(tok.lexeme), "int")
        if tok.kind == REAL_LIT:
            self._advance()
            return Const(float(tok.lexeme), "real")
        if tok.kind == TEXT_LIT:
            self._advance()
            return Const(tok.lexeme, "text")
        if tok.kind in (DOT, QUESTION):
            if not allow_wildcard:
                self._error("wildcard is only allowed as a selection argument")
            self._advance()
            return Wildcard()
        if tok.kind == NAME:
            self._advance()
            return Name(tok.lexeme)
        if tok.kind in (LPAREN, LBRACE, LBRACKET):
            self._enter()
            if tok.kind == LPAREN:
                expr = self._parse_paren()
            elif tok.kind == LBRACE:
                expr = self._parse_brace()
            else:
                expr = self._parse_projection()
            self._depth -= 1
            return expr
        self._error(f"expected an expression, found {tok.lexeme or 'end of input'!r}")

    def _operator_ahead(self) -> Optional[str]:
        tok = self._peek()
        if tok.kind == OPERATOR:
            return tok.lexeme
        if tok.kind == EQUALS:
            return "="
        return None

    def _parse_operands(self, first=None):
        operands = [] if first is None else [first]
        while not self._check(RPAREN):
            operands.append(self.parse_expr())
        self._expect(RPAREN, "')'")
        if not operands:
            self._error("operator needs at least one operand")
        return tuple(operands)

    def _parse_paren(self) -> Expr:
        self._advance()  # '('
        if self._match(RPAREN):
            return Union_(())
        op = self._operator_ahead()
        if op is not None:
            self._advance()
            return OpApply(op, self._parse_operands())
        if self._check(NAME):
            name = self._advance().lexeme
            if name in SCALAR_TYPE_NAMES:
                if self._match(RPAREN):
                    return Selection(name, ())  # non-captured type marker
                op = self._operator_ahead()
                if op is not None:  # an attribute named like its type
                    self._advance()
                    return OpApply(op, self._parse_operands(Name(name)))
                expr = self.parse_expr()
                self._expect(RPAREN, "')' closing the typecast")
                return Typecast(name, expr)
            return self._parse_selection_tail(name)
        # leading non-name member: union, or operator in second position
        first = self.parse_expr()
        op = self._operator_ahead()
        if op is not None:
            self._advance()
            return OpApply(op, self._parse_operands(first))
        members = [first]
        while not self._check(RPAREN):
            members.append(self._parse_constructor_member())
        self._expect(RPAREN, "')'")
        return Union_(tuple(members))

    def _parse_selection_tail(self, name: str) -> Expr:
        op = self._operator_ahead()
        if op is not None:
            self._advance()
            return OpApply(op, self._parse_operands(Name(name)))
        args = []
        filter_expr = None
        while True:
            if self._match(RPAREN):
                break
            if self._match(COLON):
                filter_expr = self.parse_expr()
                self._expect(RPAREN, "')' closing the selection")
                break
            args.append(self.parse_expr(allow_wildcard=True))
        return Selection(name, tuple(args), filter_expr)

    def _parse_constructor_member(self) -> Expr:
        tok = self._peek()
        if tok.kind == NAME:
            self._error(
                f"bare name {tok.lexeme!r} is not a constructor member"
                " (a variable is used as a selection: wrap it in parentheses)"
            )
        return self.parse_expr()

    def _parse_brace(self) -> Expr:
        brace = self._advance()  # '{'
        if self._check(NAME):
            # { NAME selection } — the connection form
            target = self._advance().lexeme
            source = self.parse_expr()
            if not isinstance(source, Selection):
                raise ParseError(
                    "a connection takes a selection after the relation name",
                    brace.line,
                    brace.column,
                )
            self._expect(RBRACE, "'}' closing the connection")
            return Connection(target, source)
        members = []
        while not self._check(RBRACE):
            members.append(self._parse_constructor_member())
        self._expect(RBRACE, "'}'")
        if not members:
            self._error("a product needs at least one member")
        return Product(tuple(members))

    def _parse_projection(self) -> Projection:
        self._advance()  # '['
        source = self.parse_expr()
        paths = []
        while not self._check(RBRACKET):
            paths.append(self._parse_path())
        self._expect(RBRACKET, "']'")
        if not paths:
            self._error("a projection needs at least one attribute path")
        return Projection(source, tuple(paths))

    def _parse_path(self) -> Path:
        if self._check(LBRACKET):
            self._enter()
            self._advance()
            name = self._expect(NAME, "attribute name").lexeme
            subs = []
            while not self._check(RBRACKET):
                subs.append(self._parse_path())
            self._expect(RBRACKET, "']'")
            if not subs:
                self._error("a nested path needs at least one attribute")
            self._depth -= 1
            return Path(name, tuple(subs))
        return Path(self._expect(NAME, "attribute name").lexeme, None)


def parse_script(source: str):
    """Parse source text into a list of statements."""
    return Parser(tokenize(source)).parse_script()


def iter_statements(source: str):
    """Yield (statement, line, column) triples in source order."""
    parser = Parser(tokenize(source))
    while not parser._check(EOF):
        tok = parser._peek()
        yield parser.parse_statement(), tok.line, tok.column


def parse_statement(source: str) -> Statement:
    """Parse exactly one statement."""
    parser = Parser(tokenize(source))
    stmt = parser.parse_statement()
    tok = parser._peek()
    if tok.kind != EOF:
        raise ParseError(
            f"unexpected {tok.lexeme!r} after statement", tok.line, tok.column
        )
    return stmt


def parse_expression(source: str) -> Expr:
    """Parse exactly one expression."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expr()
    tok = parser._peek()
    if tok.kind != EOF:
        raise ParseError(
            f"unexpected {tok.lexeme!r} after expression", tok.line, tok.column
        )
    return expr


# --- canonical renderer ---------------------------------------------------------


def render_expr(expr: Expr) -> str:
    if isinstance(expr, Const):
        if expr.kind == "text":
            return quote_text(expr.value)
        return repr(expr.value) if expr.kind == "real" else str(expr.value)
    if isinstance(expr, Name):
        return expr.ident
    if isinstance(expr, Wildcard):
        return "."
    if isinstance(expr, OpApply):
        return "(" + " ".join([expr.op] + [render_expr(x) for x in expr.operands]) + ")"
    if isinstance(expr, Typecast):
        return f"({expr.type_name} {render_expr(expr.expr)})"
    if isinstance(expr, Selection):
        parts = [expr.target] + [render_expr(a) for a in expr.args]
        if expr.filter is not None:
            parts += [":", render_expr(expr.filter)]
        return "(" + " ".join(parts) + ")"
    if isinstance(expr, Product):
        return "{" + " ".join(render_expr(m) for m in expr.members) + "}"
    if isinstance(expr, Union_):
        return "(" + " ".join(render_expr(m) for m in expr.members) + ")"
    if isinstance(expr, Projection):
        parts = [render_expr(expr.source)] + [_render_path(p) for p in expr.paths]
        return "[" + " ".join(parts) + "]"
    if isinstance(expr, Connection):
        return "{" + expr.target + " " + render_expr(expr.source) + "}"
    raise TypeError(f"unrenderable expression: {expr!r}")


def _render_path(path: Path) -> str:
    if path.subs is None:
        return path.name
    return "[" + " ".join([path.name] + [_render_path(s) for s in path.subs]) + "]"


def render_statement(stmt: Statement) -> str:
    if isinstance(stmt, Definition):
        domains = " ".join(
            d.type_name if d.attr is None else f"({d.attr} {d.type_name})"
            for d in stmt.domains
        )
        head = f"{stmt.klass} ({stmt.name} {domains})"
        if stmt.body is not None:
            return f"{head} {render_expr(stmt.body)}"
        return head
    if isinstance(stmt, Command):
        out = f"{stmt.verb} {stmt.relation} {render_expr(stmt.set_arg)}"
        if stmt.assignments is not None:
            pairs = " ".join(f"{attr} {render_expr(e)}" for attr, e in stmt.assignments)
            out += f" ({pairs})"
        return out
    if isinstance(stmt, Assignment):
        rhs = (
            render_statement(stmt.rhs)
            if isinstance(stmt.rhs, Command)
            else render_expr(stmt.rhs)
        )
        return f"{stmt.name} = {rhs}"
    if isinstance(stmt, Output):
        parts = ["output"]
        if stmt.format_name is not None:
            parts.append(stmt.format_name)
            if stmt.order_attrs:
                parts.append("order")
                parts.extend(stmt.order_attrs)
        parts.append(render_expr(stmt.expr))
        return " ".join(parts)
    if isinstance(stmt, Commit):
        return "commit"
    if isinstance(stmt, Rollback):
        return "rollback"
    if isinstance(stmt, BareQuery):
        return render_expr(stmt.expr)
    raise TypeError(f"unrenderable statement: {stmt!r}")


def render(stmt: Statement) -> str:
    """Canonical text for a statement; parsing it back yields an equal tree."""
    return render_statement(stmt)
