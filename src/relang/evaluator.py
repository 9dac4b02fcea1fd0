"""Expression and query evaluation against a catalog, a store state, and a
set of immutable variable bindings.

Evaluation never changes the tuples a state holds. Its one write is to
build a value map (below), and it makes it only in an unsealed state, such
as a transaction's own. Results are scalars, conditions (booleans, which
can never be stored), or tuple sets.

A selection from a stored relation reads it through its multitable index.
Each bound position whose allowed values are known offers an access path:

- the leading position: one key range per value the argument allows (a
  value, a set of scalars, or a set's rows at a reference position), read
  in key order;
- a reference position: the buckets of its reverse map, one per row the
  argument allows;
- a scalar position: the buckets of its value map, one per value. The map
  is built the first time a selection binds the position, unless the state
  is sealed; a sealed state without one reads another path.

The selection reads the smallest of these by row count, and the whole
relation when there is none. Every positional constraint and the filter are
then checked on each row read, since a path honours one position only.

A selection's result is a ``RowSet``: each tuple with the id of the row it
was read from. Every consumer that wants rows takes these ids rather than
finding the rows again by bisecting: a reference position's allowed rows,
a connection's start rows, and a remove or update target. An id is taken
only while its row still holds the very tuple read (an ``is`` test);
otherwise, and in a relation where an update collision may be pending, the
row is found by key, as is every reference a tuple spells out. Every set,
read or constructed, is keyed by its tuples themselves, whose equality,
hash and order run in C (``values``), as is every index: a tuple is its
own key, and nothing is encoded. Answers are values only: no row id
reaches one.

A tuple may name another by spelling out its values. One function,
``conform``, reads such a spelling against a sequence of domains wherever it
appears: a written tuple, an update assignment, a remove or update target, a
domain constructor's position, and a selection's reference or inline-tuple
position. It coerces each value to its domain, builds an inline tuple from
spelled-out values, and finds a referenced row by key. A read reserves no
row: a tuple naming a missing row matches nothing in a selection and is an
error in a constructor, and while an update collision is pending a
selection reads a spelled-out reference as naming its key's whole run. A
fault found conforming a written tuple raises ``DomainTypeMismatch`` or
``ArityMismatch``; found evaluating an expression, it raises ``TypeMismatch``.

The connection operator replaces joins: it finds the shortest path between
two relations in the schema graph and chain-joins along it, returning the
connected (target, source) pairs. The walk starts from the source set's rows
and goes back along the path to the target through the references rows hold
and reverse maps, so it touches only connected rows. Two equally short
paths are an error that names both, never a silent choice.
"""

from __future__ import annotations

import copy
import functools
import itertools
import re as _re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from . import store, syntax
from .catalog import BUILTIN_FUNCTIONS, SCALAR_TYPES, Catalog, Domain, RelationDef, SchemaGraph
from .errors import (
    AmbiguousPath,
    ArityMismatch,
    BadCast,
    BadRegex,
    DomainTypeMismatch,
    NoConnection,
    NotARelation,
    NotEnumerable,
    SchemaMismatch,
    TypeMismatch,
    UnknownAttr,
    UnknownName,
    UnknownRelation,
    echo,
)
from .store import DbState
from .values import (
    IntVal,
    RealVal,
    RefVal,
    TextVal,
    TimestampVal,
    TupleVal,
    Value,
    parse_timestamp,
    render_timestamp,
)


# A column of a set's schema is a domain: an attribute and its type, a
# scalar type or a relation.
SchemaCol = Domain


class TupleSet:
    """A duplicate-free set of same-shaped tuples.

    ``relation`` names the relation the tuples are a subset of, when there is
    one; constructed sets carry None. The completely empty constructor ``()``
    has no schema at all and unifies with any shape.

    A tuple is its own identity in the set: ``_rows`` maps each tuple to
    None. A set read from a stored relation is a ``RowSet``.
    Value order is key order: a reference orders by its target's row id.
    The shell prints tuples with each reference ordered by its target's
    values instead.
    """

    def __init__(self, schema, relation=None, rows=None):
        self.schema: Optional[Tuple[SchemaCol, ...]] = (
            tuple(schema) if schema is not None else None
        )
        self.relation = relation
        self._rows: Dict[tuple, None] = rows if rows is not None else {}

    def add(self, values: tuple):
        self._rows[tuple(values)] = None

    def __len__(self):
        return len(self.members())

    def members(self):
        """The tuples, in no particular order."""
        return self._rows.keys()

    def tuples(self):
        """The tuples in value order, which is key order."""
        return sorted(self._rows)

    def having(self, keep) -> "TupleSet":
        """The subset of the tuples that pass ``keep``."""
        return TupleSet(self.schema, self.relation, dict.fromkeys(filter(keep, self._rows)))

    def stored(self, state: DbState, relation: str):
        """Where this set's tuples are stored in ``relation``: the row id ->
        tuple of each tuple a ``RowSet`` read from a row that still holds
        it, and every other tuple, which a consumer finds by key."""
        return {}, self._rows.keys()

    def width(self) -> int:
        return len(self.schema) if self.schema is not None else 0

    def attr_index(self, attr: str) -> Optional[int]:
        if self.schema is None:
            return None
        for i, col in enumerate(self.schema):
            if col.attr == attr:
                return i
        return None


class RowSet(TupleSet):
    """A set read from a stored relation: each tuple with the id of the row
    it was read from.

    ``ids`` maps row id -> tuple, and ``ordered`` says that it runs in key
    order, as a key range reads it.
    """

    def __init__(self, schema, relation: str, ids: Dict[int, tuple], ordered: bool):
        self.schema = schema
        self.relation = relation
        self.ids = ids
        self.ordered = ordered

    def members(self):
        return self.ids.values()

    def tuples(self):
        return list(self.ids.values()) if self.ordered else sorted(self.ids.values())

    def having(self, keep) -> "RowSet":
        return RowSet(self.schema, self.relation, {r: v for r, v in self.ids.items() if keep(v)}, self.ordered)

    def stored(self, state: DbState, relation: str):
        # a key names the whole run of a deferred update collision
        if relation != self.relation or relation in state.runs:
            return {}, self.ids.values()
        held, rest = {}, []
        rows = state.indexes[relation].rows
        for rowid, values in self.ids.items():
            if rows.get(rowid) is values:
                held[rowid] = values
            else:
                rest.append(values)
        return held, rest


EvalValue = object  # Value | bool | TupleSet


@dataclass
class Env:
    """Evaluation context: catalog + readable state + immutable bindings,
    plus the current tuple's attributes inside a filter or the parameters
    inside a function body."""

    catalog: Catalog
    state: DbState
    bindings: Mapping[str, TupleSet] = field(default_factory=dict)
    locals: Optional[Mapping[str, Value]] = None

    def with_locals(self, frame: Mapping[str, Value]) -> "Env":
        return Env(self.catalog, self.state, self.bindings, frame)


def relation_schema(rel: RelationDef) -> Tuple[SchemaCol, ...]:
    return rel.domains


# --- scalar machinery ---------------------------------------------------------

_TYPE_OF = {
    IntVal: "int",
    RealVal: "real",
    TextVal: "text",
    TimestampVal: "timestamp",
}


def scalar_type_name(v: Value) -> str:
    t = _TYPE_OF.get(type(v))
    if t is not None:
        return t
    if isinstance(v, (RefVal, TupleVal)):
        return v.relation
    raise TypeMismatch(f"not a value: {v!r}")


def coerce_scalar(v: Value, type_name: str) -> Value:
    """Coerce a scalar to a named scalar type; raises TypeMismatch."""
    if type_name == "int" and isinstance(v, IntVal):
        return v
    if type_name == "real":
        if isinstance(v, RealVal):
            return v
        if isinstance(v, IntVal):
            return RealVal(float(v.value))
    if type_name == "text" and isinstance(v, TextVal):
        return v
    if type_name == "timestamp":
        if isinstance(v, TimestampVal):
            return v
        if isinstance(v, TextVal):
            try:
                return parse_timestamp(v.value)
            except BadCast as exc:
                raise TypeMismatch(str(exc)) from exc
    raise TypeMismatch(f"cannot treat {scalar_type_name(v)} as {type_name}")


def scalar_context(result: EvalValue, what="a value") -> Value:
    """Collapse an evaluation result to one scalar; singleton width-1 sets
    (function results, one-element unions) collapse to their element."""
    if isinstance(result, bool):
        raise TypeMismatch(f"expected {what}, got a condition")
    if isinstance(result, TupleSet):
        if result.width() == 1 and len(result) == 1:
            return result.tuples()[0][0]
        raise TypeMismatch(f"expected {what}, got a set of {len(result)} tuples")
    return result


# --- regular expressions --------------------------------------------------------

_ALLOWED_ESCAPES = set(".*+?[]\\^$-'\"/(){}|")


@functools.lru_cache(maxsize=1024)
def _compile_pattern(pattern: str):
    """Validate the minimal dialect (literals, ., *, +, ?, character classes;
    the whole string must match) and delegate to the stdlib engine."""
    i, n = 0, len(pattern)
    in_class = False
    while i < n:
        ch = pattern[i]
        if ch == "\\":
            if i + 1 >= n or pattern[i + 1] not in _ALLOWED_ESCAPES:
                raise BadRegex(f"unsupported escape in pattern {pattern!r}")
            i += 2
            continue
        if in_class:
            if ch == "]":
                in_class = False
        elif ch == "[":
            in_class = True
        elif ch in "(){}|$":
            raise BadRegex(
                f"pattern {pattern!r} uses {ch!r}; only literals, '.', '*',"
                " '+', '?', and character classes are supported"
            )
        elif ch == "^":
            raise BadRegex("patterns are anchored implicitly; '^' is not allowed")
        i += 1
    if in_class:
        raise BadRegex(f"unterminated character class in pattern {pattern!r}")
    try:
        return _re.compile(pattern)
    except _re.error as exc:
        raise BadRegex(f"bad pattern {pattern!r}: {exc}") from exc


# --- built-in functions -----------------------------------------------------------


def _builtin_capitalize(args):
    text = args[0].value
    return TextVal(text[:1].upper() + text[1:])


def _builtin_length(args):
    return IntVal(len(args[0].value))


_BUILTIN_IMPL = {"capitalize": _builtin_capitalize, "length": _builtin_length}


# --- expression evaluation ---------------------------------------------------------


def eval_expr(expr: syntax.Expr, env: Env) -> EvalValue:
    if isinstance(expr, syntax.Const):
        if expr.kind == "int":
            return IntVal(expr.value)
        if expr.kind == "real":
            return RealVal(expr.value)
        return TextVal(expr.value)
    if isinstance(expr, syntax.Name):
        return _resolve_name(expr.ident, env)
    if isinstance(expr, syntax.OpApply):
        return _eval_op(expr, env)
    if isinstance(expr, syntax.Typecast):
        return _eval_cast(expr, env)
    if isinstance(expr, syntax.Selection):
        return eval_selection(expr, env)
    if isinstance(expr, syntax.Product):
        return eval_product(expr.members, env)
    if isinstance(expr, syntax.Union_):
        return eval_union(expr.members, env)
    if isinstance(expr, syntax.Projection):
        return eval_projection(expr, env)
    if isinstance(expr, syntax.Connection):
        return eval_connection(expr, env)
    if isinstance(expr, syntax.Wildcard):
        raise TypeMismatch("a wildcard is only meaningful as a selection argument")
    raise TypeMismatch(f"unevaluable expression: {expr!r}")


def _resolve_name(ident: str, env: Env) -> EvalValue:
    if env.locals is not None and ident in env.locals:
        return env.locals[ident]
    if ident in env.bindings:
        return env.bindings[ident]
    raise UnknownName(f"unknown name {ident!r}")


def _numeric(v: Value, op: str) -> Value:
    if isinstance(v, (IntVal, RealVal)):
        return v
    raise TypeMismatch(f"operator {op!r} needs numeric operands, got {scalar_type_name(v)}")


def _eval_op(expr: syntax.OpApply, env: Env) -> EvalValue:
    op = expr.op
    if op in ("&", "|"):
        result = None
        for operand in expr.operands:
            v = eval_expr(operand, env)
            if not isinstance(v, bool):
                raise TypeMismatch(f"operator {op!r} combines conditions")
            result = v if result is None else (result and v if op == "&" else result or v)
        return result
    if op == "!":
        if len(expr.operands) != 1:
            raise TypeMismatch("'!' negates a single condition")
        v = eval_expr(expr.operands[0], env)
        if not isinstance(v, bool):
            raise TypeMismatch("'!' negates a condition")
        return not v
    operands = [scalar_context(eval_expr(x, env), "an operand") for x in expr.operands]
    first = operands[0]
    if op in ("+", "-", "*", "/"):
        return _fold_arithmetic(op, operands)
    if op in ("=", "!=", "<", ">", "<=", ">="):
        if len(operands) != 2:
            raise TypeMismatch(f"comparison {op!r} takes exactly two operands")
        return _compare(op, operands[0], operands[1])
    if op == "~":
        if len(operands) != 2:
            raise TypeMismatch("'~' takes a text and a pattern")
        if not isinstance(first, TextVal):
            raise TypeMismatch("'~' matches a text first operand")
        pattern = operands[1]
        if not isinstance(pattern, TextVal):
            raise TypeMismatch("'~' takes a text pattern")
        return _compile_pattern(pattern.value).fullmatch(first.value) is not None
    raise TypeMismatch(f"unknown operator {op!r}")


def _fold_arithmetic(op: str, operands) -> Value:
    first = _numeric(operands[0], op)
    as_real = isinstance(first, RealVal) or op == "/"
    acc = first.value
    for v in operands[1:]:
        v = _numeric(v, op)
        if isinstance(v, RealVal) and not as_real:
            raise TypeMismatch(
                f"operator {op!r} is typed by its first operand (int);"
                " cast to real explicitly"
            )
        x = v.value
        if op == "+":
            acc = acc + x
        elif op == "-":
            acc = acc - x
        elif op == "*":
            acc = acc * x
        else:
            if x == 0:
                raise TypeMismatch("division by zero")
            acc = acc / x
    if as_real:
        try:
            return RealVal(float(acc))
        except DomainTypeMismatch as exc:
            raise TypeMismatch(str(exc)) from exc
    return IntVal(acc)


def _compare(op: str, a: Value, b: Value) -> bool:
    numeric = isinstance(a, (IntVal, RealVal)) and isinstance(b, (IntVal, RealVal))
    if numeric:
        # int and real compare numerically; Python compares them exactly
        ka, kb = a.value, b.value
    elif isinstance(a, TextVal):
        if not isinstance(b, TextVal):
            raise TypeMismatch(f"cannot compare text with {scalar_type_name(b)}")
        ka, kb = a.value, b.value
    elif isinstance(a, TimestampVal):
        ka, kb = a, coerce_scalar(b, "timestamp")
    elif isinstance(a, (RefVal, TupleVal)):
        if op not in ("=", "!="):
            raise TypeMismatch("relation-valued operands support only = and !=")
        if type(a) is not type(b) or scalar_type_name(a) != scalar_type_name(b):
            raise TypeMismatch("relation-valued operands must share a relation")
        return (a == b) if op == "=" else (a != b)
    elif isinstance(a, bool) or isinstance(b, bool):
        raise TypeMismatch("conditions are combined with '&', '|', and '!'")
    else:
        raise TypeMismatch(f"cannot compare {scalar_type_name(a)}")
    if op == "=":
        return ka == kb
    if op == "!=":
        return ka != kb
    if op == "<":
        return ka < kb
    if op == ">":
        return ka > kb
    if op == "<=":
        return ka <= kb
    return ka >= kb


def _eval_cast(expr: syntax.Typecast, env: Env) -> Value:
    v = scalar_context(eval_expr(expr.expr, env), "a castable value")
    t = expr.type_name
    if t == "int":
        if isinstance(v, IntVal):
            return v
        if isinstance(v, RealVal):
            return IntVal(int(v.value))
        if isinstance(v, TextVal):
            try:
                return IntVal(int(v.value.strip()))
            except ValueError:
                raise BadCast(f"cannot read {echo(v.value)} as int") from None
    elif t == "real":
        if isinstance(v, RealVal):
            return v
        if isinstance(v, IntVal):
            return RealVal(float(v.value))
        if isinstance(v, TextVal):
            try:
                return RealVal(float(v.value.strip()))
            except (ValueError, DomainTypeMismatch):
                raise BadCast(f"cannot read {echo(v.value)} as real") from None
    elif t == "text":
        if isinstance(v, TextVal):
            return v
        if isinstance(v, IntVal):
            return TextVal(str(v.value))
        if isinstance(v, RealVal):
            return TextVal(repr(v.value))
        if isinstance(v, TimestampVal):
            return TextVal(render_timestamp(v))
    elif t == "timestamp":
        if isinstance(v, TimestampVal):
            return v
        if isinstance(v, TextVal):
            return parse_timestamp(v.value)
    raise BadCast(f"cannot cast {scalar_type_name(v)} to {t}")


# --- constructors -------------------------------------------------------------------


def _as_tuple_set(value: EvalValue, what="a constructor member") -> TupleSet:
    """Scalars act as singleton one-column sets; conditions are rejected."""
    if isinstance(value, TupleSet):
        return value
    if isinstance(value, bool):
        raise TypeMismatch(f"{what} cannot be a condition")
    return TupleSet(_column(scalar_type_name(value)), rows={(value,): None})


@functools.lru_cache(maxsize=1024)
def _column(type_name: str) -> Tuple[SchemaCol]:
    """The schema of a one-column set of values of a type."""
    return (SchemaCol(type_name, type_name),)


def eval_product(members, env: Env) -> TupleSet:
    """Cartesian product with positionwise concatenation: every member
    contributes its full width, tuple members are inlined."""
    parts = []
    for m in members:
        value = eval_expr(m, env)
        if isinstance(value, bool):
            raise TypeMismatch("a constructor member cannot be a condition")
        parts.append(value)
    if any(isinstance(p, TupleSet) and p.schema is None for p in parts):
        return TupleSet(None)
    return product(parts)


def product(parts) -> TupleSet:
    """The product of typed sets and scalars, a scalar acting as a
    one-column set."""
    tuples = [()]
    schema = ()
    for part in parts:
        if isinstance(part, TupleSet):
            members = part.members()
            schema += part.schema
        else:
            members = ((part,),)
            schema += _column(scalar_type_name(part))
        tuples = [values + v for values in tuples for v in members]
    return TupleSet(schema, rows=dict.fromkeys(tuples))


def eval_union(members, env: Env) -> TupleSet:
    return union([_as_tuple_set(eval_expr(m, env), "a union member") for m in members])


def union(sets) -> TupleSet:
    """The union of sets of one tuple shape. A member's int column where
    another has a real one reads as real, as ``conform`` reads an int at a
    real domain, and that member's tuples are no longer its relation's."""
    typed = [s for s in sets if s.schema is not None]
    if not typed:
        return TupleSet(None)
    schema = union_schema([s.schema for s in typed])
    relations, rows = set(), {}
    for s in typed:
        widened = [a.type_name != b.type_name for a, b in zip(s.schema, schema)]
        widen = any(widened)
        relations.add(None if widen else s.relation)
        for values in s.members():
            if widen:
                values = tuple([RealVal(float(v.value)) if w else v for v, w in zip(values, widened)])
            rows[values] = None
    return TupleSet(schema, relations.pop() if len(relations) == 1 else None, rows)


def union_schema(schemas) -> Tuple[SchemaCol, ...]:
    """The one tuple shape of a union's members: their shared column types,
    real where one has int and another real; raises SchemaMismatch when
    they differ otherwise."""
    schema = list(schemas[0])
    for other in schemas[1:]:
        if len(other) != len(schema):
            raise SchemaMismatch("union members must share one tuple shape")
        for i, (a, b) in enumerate(zip(other, schema)):
            if a.type_name != b.type_name:
                if {a.type_name, b.type_name} != {"int", "real"}:
                    raise SchemaMismatch("union members must share one tuple shape")
                schema[i] = a if a.type_name == "real" else b
    return tuple(schema)


# --- conforming values to domains ----------------------------------------------------


class _Miss(Exception):
    """Internal: a referenced tuple does not exist (strict resolution)."""


class _RefResolver:
    """Resolves a referenced tuple to a row id.

    A read resolves strictly against the state it reads: a missing target
    raises _Miss. A write also sees the transaction's ``pending`` references
    to tuples not added yet; in deferred mode a missing target gets a
    reserved row id recorded in ``buffer``, which the transaction adds to
    its pending references once the statement succeeds.
    """

    def __init__(self, state: DbState, deferred: bool = False, pending: Optional[Dict] = None):
        self.state = state
        self.catalog = state.catalog
        self.deferred = deferred
        self.pending = {} if pending is None else pending  # the plan's, read only
        self.buffer: Dict[Tuple[str, tuple], int] = {}

    def resolve(self, relation: str, values: tuple) -> RefVal:
        """A reference to the row stored first under the tuple's key, or to
        the row reserved for it."""
        rowid = self.state.indexes[relation].first(values)
        if rowid is not None:
            return RefVal(relation, rowid)
        waiting = self.pending.get((relation, values))
        if waiting is not None:
            return RefVal(relation, waiting[0])
        existing = self.buffer.get((relation, values))
        if existing is not None:
            return RefVal(relation, existing)
        if not self.deferred:
            raise _Miss(relation, values)
        rowid = self.state.reserve_rowid(relation)
        self.buffer[(relation, values)] = rowid
        return RefVal(relation, rowid)


def conform(domains: Tuple[Domain, ...], flat, resolver: _RefResolver) -> tuple:
    """The values a flat value list gives a sequence of domains: the one
    place a spelled-out tuple is read, by writes and reads alike.

    A scalar domain coerces its value (an int reads as a real, a text as a
    timestamp). A relation-valued domain takes a ready reference or inline
    tuple of its relation, or else that relation's values spelled out in
    place, as products over selections produce them, which are conformed in
    turn: to an inline tuple, or to the row ``resolver`` finds by key. A
    value its domain cannot take raises DomainTypeMismatch, and too few or
    too many values ArityMismatch."""
    values, end = _conform_from(domains, flat, 0, resolver)
    if end != len(flat):
        raise ArityMismatch(f"too many values: the domains take {end}, got {len(flat)}")
    return values


def _conform_from(domains, flat, i: int, resolver: _RefResolver):
    out = []
    for dom in domains:
        if i >= len(flat):
            raise ArityMismatch(f"no value for {dom.attr!r}")
        v = flat[i]
        if dom.is_scalar:
            try:
                out.append(coerce_scalar(v, dom.type_name))
            except TypeMismatch as exc:
                raise DomainTypeMismatch(str(exc)) from exc
            i += 1
            continue
        target = resolver.catalog.lookup(dom.type_name)
        if target.klass == "simple":
            if isinstance(v, RefVal) and v.relation == dom.type_name:
                out.append(v)
                i += 1
                continue
            sub, i = _conform_from(target.domains, flat, i, resolver)
            out.append(resolver.resolve(dom.type_name, sub))
        else:  # domain-class value, stored inline
            if isinstance(v, TupleVal) and v.relation == dom.type_name:
                out.append(v)
                i += 1
            else:
                sub, i = _conform_from(target.domains, flat, i, resolver)
                out.append(TupleVal(dom.type_name, sub))
    return tuple(out), i


def _conformed(dom: Domain, spelled: TupleSet, state: DbState) -> list:
    """The value each tuple of a set gives one domain, as a read takes it:
    against the state read, seeing no pending reference and reserving no
    row; None for a tuple naming a missing row. A fault is a TypeMismatch."""
    resolver = _RefResolver(state)
    out = []
    try:
        for flat in spelled.members():
            try:
                out.append(conform((dom,), flat, resolver)[0])
            except _Miss:
                out.append(None)
    except (ArityMismatch, DomainTypeMismatch) as exc:
        raise TypeMismatch(str(exc)) from exc
    return out


# --- selection ------------------------------------------------------------------------


def _is_type_marker(expr) -> bool:
    """A bare `(text)`-style selection: a non-captured position."""
    return (
        isinstance(expr, syntax.Selection)
        and expr.target in SCALAR_TYPES
        and not expr.args
        and expr.filter is None
    )


def eval_selection(sel: syntax.Selection, env: Env) -> TupleSet:
    name = sel.target
    if name in env.bindings:
        base = env.bindings[name]
        if base.schema is None:
            return base
        constraints, _bound = _constraints(base.schema, sel, env)
        keep = _keeper(base.schema, constraints, sel, env)
        return base if keep is None else base.having(keep)
    if name in BUILTIN_FUNCTIONS or (
        name in env.catalog and env.catalog.lookup(name).klass == "function"
    ):
        return _apply_by_name(name, sel, env)
    if name in SCALAR_TYPES:
        raise NotEnumerable(f"the {name} type is not enumerable")
    rel = env.catalog.lookup(name)
    if rel.klass == "domain":
        return _construct_domain_tuples(rel, sel, env)
    schema = relation_schema(rel)
    constraints, bound = _constraints(schema, sel, env)
    rows, ordered = _candidates(name, bound, env)
    keep = _keeper(schema, constraints, sel, env)
    if name in env.state.runs:
        # a key names a collision's whole run: one tuple per key, and no row
        tuples = rows.values() if keep is None else filter(keep, rows.values())
        return TupleSet(schema, name, dict.fromkeys(tuples))
    if keep is not None:
        rows = {rowid: values for rowid, values in rows.items() if keep(values)}
    return RowSet(schema, name, rows, ordered)


def _constraints(schema, sel: syntax.Selection, env: Env):
    """Evaluate each positional argument once, into (position, predicate)
    pairs, plus (position, column, values) for each position whose allowed
    values are known (see ``_positional_constraint``)."""
    if len(sel.args) > len(schema):
        raise ArityMismatch(
            f"{sel.target!r} has {len(schema)} domains, got {len(sel.args)} arguments"
        )
    constraints = []
    bound = []
    for pos, arg in enumerate(sel.args):
        if isinstance(arg, syntax.Wildcard) or _is_type_marker(arg):
            continue
        check, values = _positional_constraint(arg, schema[pos], env)
        constraints.append((pos, check))
        if values is not None:
            bound.append((pos, schema[pos], values))
    return constraints, bound


def _candidates(name: str, bound, env: Env):
    """The rows of a stored relation that a selection reads, as a fresh row
    id -> tuple map, and whether it runs in key order, as read from key
    ranges.

    The source is the smallest that the bound positions allow: one key
    range per leading value; the buckets of a reference position; or the
    buckets of a scalar position's value map, which is built on first use
    unless the state is sealed. With none of them, the whole relation."""
    state = env.state
    leading, maps = None, []
    for pos, col, values in bound:
        if pos == 0:
            leading = values
        elif col.type_name in SCALAR_TYPES:
            if not state.sealed or pos in state.indexes[name].valued:
                state.index_values(name, pos)
                maps.append((pos, values))
        elif env.catalog.lookup(col.type_name).klass == "simple":
            maps.append((pos, [(v.relation, v.row) for v in values]))
    # the values are distinct, and in key order when sorted
    leads = None if leading is None else sorted(leading)
    if maps:
        idx = state.indexes[name]
        size, pos, keys = min((sum(len(idx.bucket(p, k)) for k in ks), p, ks) for p, ks in maps)
        if size < (len(idx.rows) if leads is None else sum(map(idx.count, leads))):
            get_row = state.get_row
            return {r: get_row(name, r) for key in keys for r in idx.bucket(pos, key)}, False
    if leads is None:
        return state.scan(name), True
    rows = {}
    for lead in leads:  # reading the ranges in order keeps key order
        rows.update(state.scan(name, lead))
    return rows, True


def _keeper(schema, constraints, sel: syntax.Selection, env: Env):
    """The test of a tuple against every constraint and the filter, or None
    when there is nothing to test."""
    filter_expr = sel.filter
    if not constraints and filter_expr is None:
        return None

    def keep(values) -> bool:
        return all(check(values[pos]) for pos, check in constraints) and (
            filter_expr is None or _filter_passes(filter_expr, schema, values, env)
        )

    return keep


def _filter_passes(filter_expr, schema, values, env: Env) -> bool:
    frame = {col.attr: v for col, v in zip(schema, values)}
    outcome = eval_expr(filter_expr, env.with_locals(frame))
    if not isinstance(outcome, bool):
        raise TypeMismatch("a selection filter must yield a condition")
    return outcome


def _positional_constraint(arg, col: SchemaCol, env: Env):
    """A per-value predicate for one bound positional argument, and the
    values it allows, each as stored (a scalar coerced to the column type,
    a reference to a stored row), or None when they are not known."""
    value = eval_expr(arg, env)
    if isinstance(value, bool):
        raise TypeMismatch("a positional argument cannot be a condition")
    if col.type_name not in SCALAR_TYPES:
        return _membership_constraint(_as_tuple_set(value), col, env)
    if isinstance(value, TupleSet):
        if value.schema is None:
            return (lambda v: False), ()
        if value.width() != 1:
            raise TypeMismatch(
                f"position {col.attr!r} holds a scalar; a constraining set must"
                " have one column"
            )
        members = {coerce_scalar(t[0], col.type_name) for t in value.members()}
        return (lambda v: v in members), members
    value = coerce_scalar(value, col.type_name)
    return (lambda v: v == value), (value,)


def _membership_constraint(allowed: TupleSet, col: SchemaCol, env: Env):
    """The predicate and allowed values of a relation-valued position bound
    to a set: a value matches when the set holds its tuple."""
    if allowed.schema is None:
        return (lambda v: False), ()
    relation, state = col.type_name, env.state
    if allowed.relation == relation and env.catalog.lookup(relation).klass == "simple":
        # a set read from the referenced relation names its rows: those it
        # was read from, or else those stored under its keys
        held, rest = allowed.stored(state, relation)
        rowids = set(held)
        run = state.indexes[relation].run
        for values in rest:
            rowids.update(run(values))
    else:
        # any other set spells its values out, read as a write reads them;
        # a tuple naming a missing row matches nothing
        members = set(_conformed(col, allowed, state))
        members.discard(None)
        if state.runs:
            members = {mate for v in members for mate in _run_mates(v, state)}
        if env.catalog.lookup(relation).klass == "domain":
            return (lambda v: v in members), members
        rowids = {v.row for v in members}
    return (
        (lambda v: isinstance(v, RefVal) and v.relation == relation and v.row in rowids),
        [RefVal(relation, r) for r in rowids],
    )


def _run_mates(v: Value, state: DbState) -> list:
    """``v`` with each reference it holds, inline tuples included, naming in
    turn every row of its target's key run: as for a set read from the
    target, a key names a deferred update collision's whole run."""
    if isinstance(v, RefVal) and v.relation in state.runs:
        idx = state.indexes[v.relation]
        if v.row in idx.rows:
            return [RefVal(v.relation, r) for r in idx.run(idx.rows[v.row])]
    elif isinstance(v, TupleVal):
        return [TupleVal(v.relation, mates) for mates in itertools.product(*[_run_mates(x, state) for x in v.values])]
    return [v]


def _construct_domain_tuples(rel: RelationDef, sel: syntax.Selection, env: Env) -> TupleSet:
    """Selecting from a domain-class relation is a typed tuple constructor:
    legal only when every position is bound to a constant or a finite set,
    each of whose tuples is read as the position's value, as a write reads
    it."""
    if len(sel.args) != rel.arity:
        raise NotEnumerable(
            f"domain {rel.name!r} is not enumerable; bind all {rel.arity} positions"
        )
    position_sets = []
    for arg, dom in zip(sel.args, rel.domains):
        if isinstance(arg, syntax.Wildcard) or _is_type_marker(arg):
            raise NotEnumerable(
                f"domain {rel.name!r} is not enumerable; position {dom.attr!r}"
                " must be bound"
            )
        value = eval_expr(arg, env)
        if isinstance(value, bool):
            raise TypeMismatch("a position cannot be bound to a condition")
        candidates = _conformed(dom, _as_tuple_set(value), env.state)
        if any(v is None for v in candidates):
            raise TypeMismatch(
                f"no such {dom.type_name!r} tuple to bind at position {dom.attr!r}"
            )
        position_sets.append(candidates)
    result = TupleSet(rel.domains, relation=rel.name)
    for combo in itertools.product(*position_sets):
        if sel.filter is None or _filter_passes(sel.filter, rel.domains, combo, env):
            result.add(combo)
    return result


# --- function application -----------------------------------------------------------

def _apply_by_name(name: str, sel: syntax.Selection, env: Env) -> TupleSet:
    if sel.filter is not None:
        raise TypeMismatch(f"{name!r} is a function; it takes arguments, not a filter")
    args = []
    for arg in sel.args:
        if isinstance(arg, syntax.Wildcard) or _is_type_marker(arg):
            raise NotEnumerable(
                f"function {name!r} is not enumerable; all arguments must be bound"
            )
        args.append(_as_tuple_set(eval_expr(arg, env), "a function argument"))
    if name in BUILTIN_FUNCTIONS:
        params, result_type = BUILTIN_FUNCTIONS[name]
        return _apply(
            name, params, result_type, args, lambda vals: _BUILTIN_IMPL[name](vals), env
        )
    fn = env.catalog.lookup(name)
    params = tuple(d.type_name for d in fn.domains)

    def call(vals):
        frame = {d.attr: v for d, v in zip(fn.domains, vals)}
        out = eval_expr(fn.body, env.with_locals(frame))
        return scalar_context(out, "a function result")

    return _apply(name, params, fn.result_type, args, call, env)


def _apply(name, params, result_type, arg_sets, call, env: Env) -> TupleSet:
    if len(arg_sets) != len(params):
        raise ArityMismatch(
            f"function {name!r} takes {len(params)} arguments, got {len(arg_sets)}"
        )
    columns = []
    for s, param in zip(arg_sets, params):
        if s.schema is None:
            columns.append([])
            continue
        if s.width() != 1:
            raise TypeMismatch(
                f"arguments of {name!r} are scalars; got a {s.width()}-column set"
            )
        columns.append([coerce_scalar(t[0], param) for t in s.tuples()])
    result = TupleSet((SchemaCol(name, result_type),))
    for combo in itertools.product(*columns):
        result.add((call(tuple(combo)),))
    return result


# --- projection -----------------------------------------------------------------------


def eval_projection(proj: syntax.Projection, env: Env) -> TupleSet:
    source = eval_expr(proj.source, env)
    if not isinstance(source, TupleSet):
        raise TypeMismatch("a projection applies to a set of tuples")
    if source.schema is None:
        return source
    columns = [c for path in proj.paths for c in _resolve_path(path, source.schema, env)]
    routes = [route for _col, route in columns]
    get_row = env.state.get_row
    rows = []
    for values in source.members():
        out = []
        for route in routes:
            v = values[route[0]]
            for pos in route[1:]:
                inner = get_row(v.relation, v.row) if isinstance(v, RefVal) else v.values
                v = inner[pos]
            out.append(v)
        rows.append(tuple(out))
    return TupleSet(tuple(col for col, _route in columns), rows=dict.fromkeys(rows))


def _schema_position(schema, name: str):
    for i, col in enumerate(schema):
        if col.attr == name:
            return i, col
    raise UnknownAttr(f"no attribute {name!r} here")


def _resolve_path(path: syntax.Path, schema, env: Env):
    """The (column, route) of each output column of a projection path: the
    route is the positions to read from the source tuple, every one but the
    last holding a reference or an inline tuple to read the next one from."""
    pos, col = _schema_position(schema, path.name)
    if path.subs is None:
        return [(col, (pos,))]
    if col.type_name in SCALAR_TYPES:
        raise NotARelation(f"attribute {path.name!r} is a scalar; it has no attributes")
    inner = relation_schema(env.catalog.lookup(col.type_name))
    return [
        (sub_col, (pos,) + route)
        for sub in path.subs
        for sub_col, route in _resolve_path(sub, inner, env)
    ]


# --- connection (the join-replacing operation) -----------------------------------------


def eval_connection(node: syntax.Connection, env: Env) -> TupleSet:
    source = eval_selection(node.source, env)
    return connect(node.target, source, env)


def shortest_path(catalog: Catalog, start: str, goal: str):
    """The unique shortest edge path between two relations in the schema
    graph. Raises NoConnection when none exists and AmbiguousPath (naming
    every competitor) when more than one is equally short.

    The outcome is memoised on the catalog, which never changes; a failure
    is raised afresh, as a copy of the first one, on every call."""
    for name in (start, goal):
        if name not in catalog:
            raise UnknownRelation(f"unknown relation {name!r}")
    found = catalog._paths.get((start, goal))
    if found is None:
        try:
            found = tuple(_search_path(catalog.schema_graph(), start, goal))
        except (NoConnection, AmbiguousPath) as exc:
            found = exc.with_traceback(None)
        catalog._paths[(start, goal)] = found
    if isinstance(found, Exception):
        raise copy.copy(found)
    return found


def _search_path(graph: SchemaGraph, start: str, goal: str):
    if start == goal:
        return []
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for node in frontier:
            for _edge, other in graph.neighbors(node):
                if other not in dist:
                    dist[other] = dist[node] + 1
                    nxt.append(other)
        if goal in dist:
            break
        frontier = nxt
    if goal not in dist:
        raise NoConnection(f"no connection between {start!r} and {goal!r}")
    paths = _enumerate_shortest(graph, dist, start, goal)
    if len(paths) > 1:
        rendered = sorted(_render_path(start, p) for p in paths)
        raise AmbiguousPath(
            f"{len(paths)} equally short connections between {start!r} and"
            f" {goal!r}: " + "; ".join(rendered),
            paths=rendered,
        )
    return paths[0]


def _enumerate_shortest(graph, dist, start, goal, limit=16):
    paths = []

    def walk(node, acc):
        if len(paths) >= limit:
            return
        if node == goal:
            paths.append(list(acc))
            return
        next_dist = dist[node] + 1
        for edge, other in graph.neighbors(node):
            if dist.get(other) == next_dist:
                acc.append((edge, other))
                walk(other, acc)
                acc.pop()

    walk(start, [])
    return paths


def _render_path(start, path) -> str:
    parts = [start]
    for edge, other in path:
        parts.append(f"-[{edge.label()}]-")
        parts.append(other)
    return " ".join(parts)


def connect(target: str, source: TupleSet, env: Env) -> TupleSet:
    """Pairs (target tuple ++ source tuple) for every target row connected to
    a source-set row along the unique shortest schema path."""
    pairs, starts = connected(target, source, env)
    catalog = env.catalog
    schema = relation_schema(catalog.lookup(target)) + relation_schema(catalog.lookup(source.relation))
    pages = env.state.indexes[target].rows.pages if pairs else None
    bits, mask = store.ROW_BITS, (1 << store.ROW_BITS) - 1
    return TupleSet(schema, rows=dict.fromkeys([pages[end >> bits][end & mask] + starts[start] for start, end in pairs]))


def connected(target: str, source: TupleSet, env: Env):
    """The (source row, target row) id pairs of every target row connected
    to a source-set row along the unique shortest schema path, and the
    source set's tuple each source row holds.

    The walk starts from the rows the source set was read from, or else the
    rows stored under its keys, and follows the path back to the target, a
    semi-join: each step reads a reference value (the current row
    references the next relation) or a reverse map (rows of the next
    relation reference the current row), so it touches only connected rows.
    """
    if source.relation is None:
        raise TypeMismatch(
            "a connection source must be a subset of a named relation"
        )
    path = shortest_path(env.catalog, target, source.relation)
    nodes = [target] + [nxt for _edge, nxt in path]
    if any(env.catalog.lookup(n).klass != "simple" for n in nodes):
        return set(), {}
    state = env.state
    bits = store.ROW_BITS
    mask = (1 << bits) - 1
    starts, rest = source.stored(state, source.relation)
    run = state.indexes[source.relation].run
    for values in rest:
        for rid in run(values):
            starts[rid] = values
    # (source row, current row) pairs walked edge by edge, source to target
    pairs = {(rid, rid) for rid in starts}
    for (edge, current), nxt in zip(reversed(path), reversed(nodes[:-1])):
        advanced = set()
        if edge.adopter == current:
            pages = state.indexes[current].rows.pages
            # a reference may name an unstored row: one reserved for a
            # pending reference, or one removed with its referrer left; its
            # page, covering a row id handed out, is in the table
            stored = state.indexes[nxt].rows.pages
            for start, rid in pairs:
                v = pages[rid >> bits][rid & mask][edge.position]
                if isinstance(v, RefVal):
                    page = stored[v.row >> bits]
                    if page is not None and page[v.row & mask] is not None:
                        advanced.add((start, v.row))
        else:
            # the reverse map's page of a referenced row, as ``bucket``
            # finds it, read inline: this loop is hot
            pages = state.indexes[nxt].maps.get(edge.position, {})
            for start, rid in pairs:
                page = pages.get(rid >> bits)
                if page is not None:
                    for referrer in page.get((current, rid), ()):
                        advanced.add((start, referrer))
        pairs = advanced
    return pairs, starts
