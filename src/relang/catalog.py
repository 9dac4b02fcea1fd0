"""The relation catalog: definitions, the recursive type system, and the
schema graph walked by the connection operator.

A relation's domains may be scalar types or previously defined relations;
because a domain must already exist when named, the reference structure is a
DAG by construction and only direct self-reference needs rejecting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from . import syntax
from .errors import (
    CallTooDeep,
    DuplicateName,
    SelfReference,
    TypeMismatch,
    UnknownName,
    UnknownRelation,
    UnknownType,
)

SCALAR_TYPES = ("int", "real", "text", "timestamp")

# built-in pure functions: name -> (parameter types, result type)
BUILTIN_FUNCTIONS = {
    "capitalize": (("text",), "text"),
    "length": (("text",), "int"),
}

# Deepest bracket nesting the evaluation of a function body may reach,
# counting at each call the nesting of the callee's body (``call_depth``).
# A body calls only functions defined before it, so the depth is known when
# the function is defined; with it bounded, a call from an expression nested
# ``syntax.MAX_NESTING`` deep stays well inside the interpreter's stack.
MAX_CALL_DEPTH = 64


@dataclass(frozen=True)
class Domain:
    attr: str
    type_name: str  # scalar type or relation name

    @property
    def is_scalar(self) -> bool:
        return self.type_name in SCALAR_TYPES


@dataclass(frozen=True)
class RelationDef:
    name: str
    klass: str  # 'simple' | 'domain' | 'function'
    domains: Tuple[Domain, ...]
    body: Optional[syntax.Expr] = None  # functions only
    result_type: Optional[str] = None  # functions only

    @property
    def arity(self) -> int:
        return len(self.domains)

    def attr_index(self, attr: str) -> Optional[int]:
        for i, d in enumerate(self.domains):
            if d.attr == attr:
                return i
        return None


@dataclass(frozen=True)
class Edge:
    """One relation-valued domain occurrence: adopter.attr points at target."""

    adopter: str
    attr: str
    position: int
    target: str

    def label(self) -> str:
        return f"{self.adopter}.{self.attr}"


class SchemaGraph:
    """Undirected labeled graph over all relations, one edge per adoption."""

    def __init__(self, nodes, edges):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self._adj: Dict[str, list] = {name: [] for name in self.nodes}
        for edge in self.edges:
            self._adj[edge.adopter].append((edge, edge.target))
            self._adj[edge.target].append((edge, edge.adopter))

    def neighbors(self, node: str):
        """(edge, other-endpoint) pairs, in deterministic order."""
        return tuple(self._adj.get(node, ()))


_DEF_CLASS = {"relation": "simple", "domain": "domain", "function": "function"}


class Catalog:
    """Immutable-by-convention collection of relation definitions.

    ``define`` returns a new catalog; holders of older versions are never
    affected. Definition order is preserved and is dependency order, since a
    relation-valued domain must name an already defined relation.
    """

    def __init__(self, relations=None):
        self.relations: Dict[str, RelationDef] = dict(relations or {})
        self._graph: Optional[SchemaGraph] = None

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def lookup(self, name: str) -> RelationDef:
        rel = self.relations.get(name)
        if rel is None:
            raise UnknownRelation(f"unknown relation {name!r}")
        return rel

    def names(self):
        return tuple(self.relations)

    def define(self, stmt: syntax.Definition) -> "Catalog":
        name = stmt.name
        if name in SCALAR_TYPES or name in BUILTIN_FUNCTIONS:
            raise DuplicateName(f"{name!r} is a reserved name")
        if name in self.relations:
            raise DuplicateName(f"relation {name!r} is already defined")
        domains = self._resolve_domains(stmt)
        klass = _DEF_CLASS[stmt.klass]
        body = None
        result_type = None
        if klass == "function":
            body = stmt.body
            attr_types = {d.attr: d.type_name for d in domains}
            result_type = typecheck_expr(body, attr_types, self)
            if result_type == "bool":
                raise TypeMismatch(
                    f"function {name!r} must produce a scalar, not a condition"
                )
            depth = call_depth(body, self, {})
            if depth > MAX_CALL_DEPTH:
                raise CallTooDeep(
                    f"function {name!r} nests {depth} brackets deep through the"
                    f" functions it calls; the limit is {MAX_CALL_DEPTH}"
                )
        rel = RelationDef(name, klass, domains, body, result_type)
        updated = dict(self.relations)
        updated[name] = rel
        return Catalog(updated)

    def _resolve_domains(self, stmt: syntax.Definition) -> Tuple[Domain, ...]:
        used = set()
        domains = []
        for spec in stmt.domains:
            type_name = spec.type_name
            if type_name == stmt.name:
                raise SelfReference(
                    f"relation {stmt.name!r} cannot adopt itself as a domain"
                )
            if type_name not in SCALAR_TYPES:
                target = self.relations.get(type_name)
                if target is None:
                    raise UnknownType(
                        f"{type_name!r} is neither a scalar type nor a defined relation"
                    )
                if target.klass == "function":
                    raise UnknownType(
                        f"function {type_name!r} cannot serve as a domain"
                    )
            if spec.attr is not None:
                attr = spec.attr
                if attr in used:
                    raise DuplicateName(
                        f"duplicate attribute {attr!r} in {stmt.name!r}"
                    )
            else:
                # unnamed domains default to their type name; repeats get a
                # numeric suffix so definitions like (point2d real real) hold
                attr = type_name
                n = 2
                while attr in used:
                    attr = f"{type_name}_{n}"
                    n += 1
            used.add(attr)
            domains.append(Domain(attr, type_name))
        return tuple(domains)

    def schema_graph(self) -> SchemaGraph:
        if self._graph is None:
            edges = []
            for rel in self.relations.values():
                for pos, dom in enumerate(rel.domains):
                    if not dom.is_scalar:
                        edges.append(Edge(rel.name, dom.attr, pos, dom.type_name))
            self._graph = SchemaGraph(self.relations.keys(), edges)
        return self._graph


# --- static typing of expressions ---------------------------------------------
#
# Used at definition time for function bodies. Types are the scalar names,
# 'bool' for conditions, or a relation name for relation-valued terms.

_NUMERIC = ("int", "real")
_COMPARISONS = ("=", "!=", "<", ">", "<=", ">=")


def _coercible(from_type: str, to_type: str) -> bool:
    if from_type == to_type:
        return True
    if to_type == "real" and from_type == "int":
        return True
    if to_type == "timestamp" and from_type == "text":
        return True
    return False


def typecheck_expr(expr, attr_types: Dict[str, str], catalog: Catalog) -> str:
    """Infer the type of a function body; raise on anything ill-typed.

    Bodies may reference the function's own attributes, constants, operators,
    typecasts, and previously defined functions (so recursion is impossible).
    """
    if isinstance(expr, syntax.Const):
        return expr.kind
    if isinstance(expr, syntax.Name):
        t = attr_types.get(expr.ident)
        if t is None:
            raise UnknownName(f"unknown name {expr.ident!r} in function body")
        return t
    if isinstance(expr, syntax.Typecast):
        typecheck_expr(expr.expr, attr_types, catalog)
        return expr.type_name
    if isinstance(expr, syntax.OpApply):
        return _typecheck_op(expr, attr_types, catalog)
    if isinstance(expr, syntax.Selection):
        return _typecheck_call(expr, attr_types, catalog)
    raise TypeMismatch(
        "a function body may use only constants, attributes, operators,"
        " typecasts, and previously defined functions"
    )


def call_depth(expr, catalog: Catalog, memo: Dict[str, int]) -> int:
    """Bracket nesting reached while evaluating a well-typed function body.

    Each bracket counts one level, and a call to a defined function counts
    the depth of that function's body below the call. ``memo`` maps function
    names to their bodies' depths, so a body that calls one function many
    times is measured once.
    """
    if isinstance(expr, syntax.Typecast):
        return 1 + call_depth(expr.expr, catalog, memo)
    if isinstance(expr, syntax.OpApply):
        return 1 + max(call_depth(x, catalog, memo) for x in expr.operands)
    if isinstance(expr, syntax.Selection):
        inner = max((call_depth(x, catalog, memo) for x in expr.args), default=0)
        fn = catalog.relations.get(expr.target)
        if fn is not None:  # a built-in function has no body
            if fn.name not in memo:
                memo[fn.name] = call_depth(fn.body, catalog, memo)
            inner = max(inner, memo[fn.name])
        return 1 + inner
    return 0  # constants and attributes


def _typecheck_op(expr: syntax.OpApply, attr_types, catalog) -> str:
    op = expr.op
    types = [typecheck_expr(x, attr_types, catalog) for x in expr.operands]
    first = types[0]
    if op in ("+", "-", "*", "/"):
        if first not in _NUMERIC:
            raise TypeMismatch(f"operator {op!r} needs a numeric first operand")
        for t in types[1:]:
            if not _coercible(t, first):
                raise TypeMismatch(f"operator {op!r} got mixed operand types")
        return "real" if op == "/" else first
    if op in _COMPARISONS:
        if len(types) != 2:
            raise TypeMismatch(f"comparison {op!r} takes exactly two operands")
        second = types[1]
        numeric_pair = first in _NUMERIC and second in _NUMERIC
        if not numeric_pair and not _coercible(second, first):
            raise TypeMismatch(f"cannot compare {first} with {second}")
        return "bool"
    if op == "~":
        if len(types) != 2 or types[0] != "text" or types[1] != "text":
            raise TypeMismatch("'~' matches a text against a text pattern")
        return "bool"
    if op in ("&", "|"):
        if any(t != "bool" for t in types):
            raise TypeMismatch(f"operator {op!r} combines conditions")
        return "bool"
    if op == "!":
        if len(types) != 1 or types[0] != "bool":
            raise TypeMismatch("'!' negates a single condition")
        return "bool"
    raise TypeMismatch(f"unknown operator {op!r}")


def _typecheck_call(expr: syntax.Selection, attr_types, catalog) -> str:
    name = expr.target
    if expr.filter is not None:
        raise TypeMismatch("selections with filters are not allowed in function bodies")
    if name in BUILTIN_FUNCTIONS:
        params, result = BUILTIN_FUNCTIONS[name]
    else:
        rel = catalog.relations.get(name)
        if rel is None or rel.klass != "function":
            raise TypeMismatch(
                f"{name!r} is not a function; function bodies may not select"
                " from relations"
            )
        params, result = tuple(d.type_name for d in rel.domains), rel.result_type
    if len(expr.args) != len(params):
        raise TypeMismatch(
            f"function {name!r} takes {len(params)} arguments, got {len(expr.args)}"
        )
    for arg, param in zip(expr.args, params):
        if isinstance(arg, syntax.Wildcard):
            raise TypeMismatch("function arguments must be fully bound")
        got = typecheck_expr(arg, attr_types, catalog)
        if not _coercible(got, param):
            raise TypeMismatch(
                f"argument of type {got} does not fit parameter of type {param}"
            )
    return result
