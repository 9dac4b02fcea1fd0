"""Expression and query evaluation against a catalog, a store state, and a
set of immutable variable bindings.

Evaluation is read-only: no operation here ever mutates the store. Results
are scalars, conditions (booleans, which can never be stored), or tuple sets.

A selection from a stored relation reads it through its ordered index: the
evaluated first argument picks the access path. A scalar reads the key
range under its encoding; a set at a reference position reads one range per
referenced row id, in row-id order; any other first argument reads the whole
relation. Every positional constraint and the filter are then checked on
each row read, since a text key range can hold longer texts.

The connection operator replaces joins: it finds the shortest path between
two relations in the schema graph and chain-joins along it, returning the
connected (target, source) pairs. The walk starts from the source set's rows
and goes back along the path to the target through the references rows hold
and reverse maps, so it touches only connected rows. Two equally short paths
are an error that names both, never a silent choice.
"""

from __future__ import annotations

import copy
import itertools
import re as _re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from . import syntax
from .catalog import BUILTIN_FUNCTIONS, SCALAR_TYPES, Catalog, RelationDef, SchemaGraph
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
    encode_tuple,
    encode_value,
    parse_timestamp,
    render_timestamp,
)


@dataclass(frozen=True)
class SchemaCol:
    attr: str
    type_name: str  # scalar name, relation name, or 'any' for untyped


class TupleSet:
    """A duplicate-free set of same-shaped tuples, iterated in key order.

    ``relation`` names the relation the tuples are a subset of, when there is
    one; constructed sets carry None. The completely empty constructor ``()``
    has no schema at all and unifies with any shape.

    ``rows`` maps each tuple's canonical key to the tuple. A set taken from
    a relation adopts the map ``DbState.scan`` returns, and sets derived from
    it copy those keys: only constructed tuples are encoded, once, by ``add``.
    """

    def __init__(self, schema, relation=None, rows=None):
        self.schema: Optional[Tuple[SchemaCol, ...]] = (
            tuple(schema) if schema is not None else None
        )
        self.relation = relation
        self._rows: Dict[bytes, tuple] = rows if rows is not None else {}

    @classmethod
    def from_tuples(cls, schema, tuples, relation=None) -> "TupleSet":
        ts = cls(schema, relation)
        for t in tuples:
            ts.add(t)
        return ts

    @classmethod
    def empty_untyped(cls) -> "TupleSet":
        return cls(None)

    def add(self, values: tuple):
        self._rows[encode_tuple(values)] = tuple(values)

    def __len__(self):
        return len(self._rows)

    def __contains__(self, values) -> bool:
        return encode_tuple(values) in self._rows

    def tuples(self):
        """Tuples in canonical-key order."""
        return [self._rows[k] for k in sorted(self._rows)]

    def keys(self):
        return set(self._rows)

    def width(self) -> int:
        return len(self.schema) if self.schema is not None else 0

    def attr_index(self, attr: str) -> Optional[int]:
        if self.schema is None:
            return None
        for i, col in enumerate(self.schema):
            if col.attr == attr:
                return i
        return None

    def same_tuples(self, other: "TupleSet") -> bool:
        return self.keys() == other.keys()

    def __repr__(self):
        shape = (
            " ".join(f"{c.attr}:{c.type_name}" for c in self.schema)
            if self.schema is not None
            else "?"
        )
        return f"<TupleSet [{shape}] {len(self)} tuples>"


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
    return tuple(SchemaCol(d.attr, d.type_name) for d in rel.domains)


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
    if isinstance(v, RefVal):
        return v.relation
    if isinstance(v, TupleVal):
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
_REGEX_CACHE: Dict[str, "_re.Pattern"] = {}


def _compile_pattern(pattern: str):
    """Validate the minimal dialect (literals, ., *, +, ?, character classes;
    the whole string must match) and delegate to the stdlib engine."""
    cached = _REGEX_CACHE.get(pattern)
    if cached is not None:
        return cached
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
        compiled = _re.compile(pattern)
    except _re.error as exc:
        raise BadRegex(f"bad pattern {pattern!r}: {exc}") from exc
    _REGEX_CACHE[pattern] = compiled
    return compiled


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
        b = coerce_scalar(b, "timestamp")
        if op in ("=", "!="):
            return (a == b) if op == "=" else (a != b)
        ka, kb = a.sort_key(), b.sort_key()
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
                raise BadCast(f"cannot read {v.value!r} as int") from None
    elif t == "real":
        if isinstance(v, RealVal):
            return v
        if isinstance(v, IntVal):
            return RealVal(float(v.value))
        if isinstance(v, TextVal):
            try:
                return RealVal(float(v.value.strip()))
            except (ValueError, DomainTypeMismatch):
                raise BadCast(f"cannot read {v.value!r} as real") from None
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
    col = SchemaCol(scalar_type_name(value), scalar_type_name(value))
    return TupleSet.from_tuples((col,), [(value,)])


def eval_product(members, env: Env) -> TupleSet:
    """Cartesian product with positionwise concatenation: every member
    contributes its full width, tuple members are inlined."""
    sets = [_as_tuple_set(eval_expr(m, env)) for m in members]
    if any(s.schema is None for s in sets):
        return TupleSet.empty_untyped()
    schema = tuple(itertools.chain.from_iterable(s.schema for s in sets))
    result = TupleSet(schema)
    for combo in itertools.product(*[s.tuples() for s in sets]):
        result.add(tuple(itertools.chain.from_iterable(combo)))
    return result


def eval_union(members, env: Env) -> TupleSet:
    sets = [_as_tuple_set(eval_expr(m, env), "a union member") for m in members]
    typed = [s for s in sets if s.schema is not None]
    if not typed:
        return TupleSet.empty_untyped()
    schema = typed[0].schema
    relations = {s.relation for s in typed}
    result = TupleSet(schema, relation=relations.pop() if len(relations) == 1 else None)
    for s in typed:
        if len(s.schema) != len(schema) or any(
            a.type_name != b.type_name for a, b in zip(s.schema, schema)
        ):
            raise SchemaMismatch("union members must share one tuple shape")
        result._rows.update(s._rows)
    return result


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
        constraints, _prefixes = _constraints(base.schema, sel, env)
        return _keep(base, base._rows, constraints, sel, env)
    if name in BUILTIN_FUNCTIONS or (
        name in env.catalog and env.catalog.lookup(name).klass == "function"
    ):
        return _apply_by_name(name, sel, env)
    if name in SCALAR_TYPES:
        raise NotEnumerable(f"the {name} type is not enumerable")
    rel = env.catalog.lookup(name)
    if rel.klass == "domain":
        return _construct_domain_tuples(rel, sel, env)
    base = TupleSet(relation_schema(rel), relation=name)
    constraints, prefixes = _constraints(base.schema, sel, env)
    if prefixes is None:
        candidates = env.state.scan(name)
    else:
        # prefixes of one width never overlap, and visiting them in order
        # keeps the candidates in key order
        candidates = {}
        for prefix in sorted(prefixes):
            candidates.update(env.state.scan(name, prefix))
    return _keep(base, candidates, constraints, sel, env)


def _constraints(schema, sel: syntax.Selection, env: Env):
    """Evaluate each positional argument once, into (position, predicate)
    pairs, plus the key prefixes the leading argument allows (None when it
    allows any key)."""
    if len(sel.args) > len(schema):
        raise ArityMismatch(
            f"{sel.target!r} has {len(schema)} domains, got {len(sel.args)} arguments"
        )
    constraints = []
    prefixes = None
    for pos, arg in enumerate(sel.args):
        if isinstance(arg, syntax.Wildcard) or _is_type_marker(arg):
            continue
        check, allowed = _positional_constraint(arg, schema[pos], env)
        constraints.append((pos, check))
        if pos == 0:
            prefixes = allowed
    return constraints, prefixes


def _keep(base: TupleSet, candidates, constraints, sel: syntax.Selection, env: Env) -> TupleSet:
    """The candidate rows that meet every constraint and the filter."""
    kept = {}
    for key, values in candidates.items():
        if all(check(values[pos]) for pos, check in constraints):
            if sel.filter is not None and not _filter_passes(sel.filter, base, values, env):
                continue
            kept[key] = values
    return TupleSet(base.schema, relation=base.relation, rows=kept)


def _filter_passes(filter_expr, base: TupleSet, values, env: Env) -> bool:
    frame = {col.attr: v for col, v in zip(base.schema, values)}
    outcome = eval_expr(filter_expr, env.with_locals(frame))
    if not isinstance(outcome, bool):
        raise TypeMismatch("a selection filter must yield a condition")
    return outcome


def _positional_constraint(arg, col: SchemaCol, env: Env):
    """A per-value predicate for one bound positional argument, and the key
    prefixes of the values it allows when it is the leading one: an
    iterable of encodings, or None for any value."""
    value = eval_expr(arg, env)
    if isinstance(value, bool):
        raise TypeMismatch("a positional argument cannot be a condition")
    if isinstance(value, TupleSet):
        return _membership_constraint(value, col, env)
    return _equality_constraint(value, col)


def _equality_constraint(value: Value, col: SchemaCol):
    if col.type_name in SCALAR_TYPES:
        value = coerce_scalar(value, col.type_name)
    elif not (
        isinstance(value, (RefVal, TupleVal)) and scalar_type_name(value) == col.type_name
    ):
        raise TypeMismatch(
            f"position {col.attr!r} holds {col.type_name}, got {scalar_type_name(value)}"
        )
    return (lambda v: v == value), (encode_value(value),)


def _membership_constraint(allowed: TupleSet, col: SchemaCol, env: Env):
    if allowed.schema is None:
        return (lambda v: False), ()
    if col.type_name in SCALAR_TYPES:
        if allowed.width() != 1:
            raise TypeMismatch(
                f"position {col.attr!r} holds a scalar; a constraining set must"
                " have one column"
            )
        members = {coerce_scalar(t[0], col.type_name) for t in allowed._rows.values()}
        return (lambda v: v in members), None
    # relation-valued position: keep values whose target tuple is in the set
    target_rel = env.catalog.lookup(col.type_name)
    if target_rel.klass == "domain":
        members = set(allowed._rows.values())
        return (lambda v: isinstance(v, TupleVal) and v.values in members), None
    # a reference matches when its row is stored under one of the set's keys
    rowids = env.state.rowids(col.type_name, allowed._rows)
    return (
        (lambda v: isinstance(v, RefVal) and v.relation == col.type_name and v.row in rowids),
        (encode_value(RefVal(col.type_name, r)) for r in rowids),
    )


def _construct_domain_tuples(rel: RelationDef, sel: syntax.Selection, env: Env) -> TupleSet:
    """Selecting from a domain-class relation is a typed tuple constructor:
    legal only when every position is bound to a constant or a finite set."""
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
        if isinstance(value, TupleSet):
            candidates = [_domain_position_value(t, dom, env) for t in value.tuples()]
        else:
            candidates = [_domain_position_value((value,), dom, env)]
        position_sets.append(candidates)
    result = TupleSet(relation_schema(rel), relation=rel.name)
    for combo in itertools.product(*position_sets):
        values = tuple(combo)
        if sel.filter is None or _filter_passes(
            sel.filter, TupleSet(relation_schema(rel)), values, env
        ):
            result.add(values)
    return result


def _domain_position_value(tuple_values, dom, env: Env) -> Value:
    if dom.is_scalar:
        if len(tuple_values) != 1:
            raise TypeMismatch(
                f"position {dom.attr!r} holds one {dom.type_name} value"
            )
        return coerce_scalar(tuple_values[0], dom.type_name)
    target = env.catalog.lookup(dom.type_name)
    if len(tuple_values) == 1 and isinstance(tuple_values[0], (RefVal, TupleVal)):
        v = tuple_values[0]
        if scalar_type_name(v) != dom.type_name:
            raise TypeMismatch(
                f"position {dom.attr!r} holds {dom.type_name}, got {scalar_type_name(v)}"
            )
        return v
    if len(tuple_values) == target.arity:
        if target.klass == "domain":
            return TupleVal(target.name, tuple(
                _domain_position_value((v,), sub, env)
                for v, sub in zip(tuple_values, target.domains)
            ))
        rowid = env.state.contains_tuple(dom.type_name, tuple(tuple_values))
        if rowid is not None:
            return RefVal(dom.type_name, rowid)
        raise TypeMismatch(
            f"no such {dom.type_name!r} tuple to bind at position {dom.attr!r}"
        )
    raise TypeMismatch(f"cannot bind position {dom.attr!r} of {dom.type_name!r}")


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
    result = TupleSet(tuple(col for col, _route in columns))
    for values in source.tuples():
        out = []
        for route in routes:
            v = values[route[0]]
            for pos in route[1:]:
                inner = get_row(v.relation, v.row) if isinstance(v, RefVal) else v.values
                v = inner[pos]
            out.append(v)
        result.add(tuple(out))
    return result


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
    a source-set row along the unique shortest schema path.

    The walk starts from the source set's rows and follows the path back to
    the target, a semi-join: each step reads a reference value (the current
    row references the next relation) or a reverse map (rows of the next
    relation reference the current row), so it touches only connected rows.
    """
    if source.relation is None:
        raise TypeMismatch(
            "a connection source must be a subset of a named relation"
        )
    target_rel = env.catalog.lookup(target)
    source_rel = env.catalog.lookup(source.relation)
    path = shortest_path(env.catalog, target, source.relation)

    pair_schema = relation_schema(target_rel) + relation_schema(source_rel)
    result = TupleSet(pair_schema)
    nodes = [target] + [nxt for _edge, nxt in path]
    if any(env.catalog.lookup(n).klass != "simple" for n in nodes):
        return result
    state = env.state
    # (source row, current row) pairs walked edge by edge, source to target
    pairs = {(rid, rid) for rid in state.rowids(source.relation, source._rows)}
    for (edge, current), nxt in zip(reversed(path), reversed(nodes[:-1])):
        advanced = set()
        if edge.adopter == current:
            rows = state.indexes[current].rows
            # a reference may name an unstored row: one reserved for a
            # pending reference, or one removed with its referrer left
            stored = state.indexes[nxt].rows
            for start, rid in pairs:
                v = rows[rid][edge.position]
                if isinstance(v, RefVal) and v.row in stored:
                    advanced.add((start, v.row))
        else:
            reverse = state.indexes[nxt].reverse.get(edge.position, {})
            for start, rid in pairs:
                for referrer in reverse.get((current, rid), ()):
                    advanced.add((start, referrer))
        pairs = advanced
    target_rows = state.indexes[target].rows
    source_rows = state.indexes[source.relation].rows
    for start, end in pairs:
        result.add(target_rows[end] + source_rows[start])
    return result
