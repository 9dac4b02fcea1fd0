"""Transactions as lazily validated plans.

DML statements apply eagerly to the transaction's shadow state (so later
statements read their own writes), but integrity problems do not fail the
statement. The shadow is a fork of the published state, not a copy: it
shares every index with it, and its first write to a relation copies that
one index (see ``store``), so opening, reading and discarding a transaction
copy nothing. The one exception is a value map a selection builds (see
``evaluator``): the shadow copies the relation's index to build it in, so a
commit publishes it for every later transaction. Every row a statement
inserts, removes (cascades included) or rekeys enters the transaction's
write set with the statement's number. A reference to a tuple that does
not exist yet reserves a row id and is kept once, in ``pending``:
(relation, tuple) -> (row id, statement). Adding the tuple takes the
reserved id and drops the record, so ``pending`` holds
exactly the references still open, each with the statement that opened it.
A set member that matched nothing is kept in ``obligations`` as (statement,
message). Commit checks only what the transaction touched, since the
published state it started from already holds every invariant: a removed
row must have no referrers, a live written row's references must resolve,
no two rows may share a key, no reference may be pending and no member
unmatched. It then either publishes the shadow atomically or aborts with
the failure of the lowest statement number, leaving the published state
untouched. Statements are numbered from 1 in the order the transaction's
add, remove, abolish and update statements ran.

Variables bind once, live until the transaction ends, and always hold sets
of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import syntax
from .catalog import BUILTIN_FUNCTIONS, Catalog, Domain, RelationDef
from .errors import (
    ArityMismatch,
    DomainTypeMismatch,
    IntegrityError,
    NameCollision,
    Rebind,
    RelangError,
    SchemaMismatch,
    TypeMismatch,
    UnknownAttr,
)
from .evaluator import (
    Env,
    RowSet,
    TupleSet,
    _as_tuple_set,
    _Miss,
    _RefResolver,
    conform,
    connected,
    eval_expr,
    product,
    relation_schema,
    union,
    union_schema,
)
from .store import DbState, iter_refs
from .values import RefVal, TupleVal, Value


@dataclass
class CommitReport:
    """Per-relation row counts of a successful commit."""

    added: Dict[str, int] = field(default_factory=dict)
    removed: Dict[str, int] = field(default_factory=dict)
    updated: Dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        parts = []
        for label, counts in (("added", self.added), ("removed", self.removed), ("updated", self.updated)):
            for rel in sorted(counts):
                parts.append(f"{label} {counts[rel]} {rel}")
        return "committed" + (": " + ", ".join(parts) if parts else " (no changes)")


class TxnPlan:
    """One transaction: a shadow state, bindings, the write set, and
    deferred obligations."""

    def __init__(self, base: DbState):
        self.base = base
        self.shadow = base.fork()
        self.bindings: Dict[str, TupleSet] = {}
        self.steps = 0  # statements that ran to completion
        # (relation, row id) inserted, removed or rekeyed -> last statement
        self.written: Dict[Tuple[str, int], int] = {}
        # (statement, message) of each set member that matched nothing
        self.obligations: List[Tuple[int, str]] = []
        # (relation, tuple) of each referenced tuple not yet added
        #   -> (reserved row id, statement that referenced it)
        self.pending: Dict[Tuple[str, tuple], Tuple[int, int]] = {}
        # (relation, row id) of each rekey that collided with another row
        self.collided: List[Tuple[str, int]] = []
        self.status = "open"
        self._stmt = 0

    def _require_open(self):
        if self.status != "open":
            raise RelangError(f"transaction is {self.status}")

    def env(self) -> Env:
        return Env(self.shadow.catalog, self.shadow, self.bindings)

    # -- set-argument resolution

    def _set_argument(self, rel: RelationDef, expr, env: Env, deferred: bool):
        """Evaluate a DML set argument once: (storage tuples of ``rel``,
        None) when it reads as a tuple constructor, else (None, the set).

        A parenthesized set whose member count equals the relation's arity
        is first tried as a single tuple (products and unions are otherwise
        easily confused in handwritten scripts); when that fails
        structurally its members form the union it reads as.
        """
        union_fallback = isinstance(expr, syntax.Union_) and 0 < len(expr.members) == rel.arity
        if not (union_fallback or isinstance(expr, syntax.Product)):
            return None, eval_expr(expr, env)
        sets = [_as_tuple_set(eval_expr(m, env), "a set member") for m in expr.members]
        tuples = self._tuples_from_members(rel, sets, deferred, union_fallback)
        return (None, union(sets)) if tuples is None else (tuples, None)

    def _tuples_from_members(self, rel, sets, deferred, union_fallback):
        """Resolve a tuple constructor from its members' sets.

        A member that matches no tuples leaves a relation-valued position
        unresolvable; in a deferred command that is an integrity obligation
        (the referenced tuple was never added), not an empty no-op. Returns
        None when the members read better as the union they also form.
        """
        if any(ts.schema is None or len(ts) == 0 for ts in sets):
            if union_fallback and self._union_compatible(sets):
                return None
            if deferred:
                self.obligations.append(
                    (
                        self._stmt,
                        f"a member of the set added to {rel.name!r} matched no"
                        " tuples; the referenced tuple was never added",
                    )
                )
            return []
        try:
            return self._conform_all(rel, product(sets).tuples(), deferred)
        except (ArityMismatch, DomainTypeMismatch, TypeMismatch, SchemaMismatch):
            if union_fallback:
                return None
            raise

    @staticmethod
    def _union_compatible(sets) -> bool:
        shapes = [s.schema for s in sets if s.schema is not None]
        try:
            if shapes:
                union_schema(shapes)
        except SchemaMismatch:
            return False
        return True

    def _tuples_from_value(self, rel: RelationDef, value, deferred: bool):
        if isinstance(value, bool):
            raise TypeMismatch("a condition is not a set of tuples")
        if not isinstance(value, TupleSet):
            return self._conform_all(rel, [(value,)], deferred)
        if value.schema is None:
            return []
        if value.relation == rel.name:
            return list(value.tuples())
        return self._conform_all(rel, value.tuples(), deferred)

    def _conform_all(self, rel: RelationDef, flats, deferred: bool):
        """Each flat value list conformed to ``rel``'s domains, a reference
        it spells out found by key. In strict mode a tuple referencing
        nothing cannot be stored, so it is left out."""
        resolver = _RefResolver(self.shadow, deferred, self.pending)
        out = []
        for flat in flats:
            try:
                out.append(conform(rel.domains, flat, resolver))
            except _Miss:
                continue
        self._adopt_buffer(resolver)
        return out

    def _adopt_buffer(self, resolver: _RefResolver):
        for ref, rowid in resolver.buffer.items():
            self.pending[ref] = (rowid, self._stmt)

    def _resolve_target_rows(self, rel: RelationDef, expr):
        """The ids of the rows of ``rel`` named by a remove/update set
        argument, in value order. A set argument from a different relation
        resolves through the connection operator (keep target rows
        connected to the given set).

        A row the set was read from, or a connected row, is taken as it is;
        any other tuple names the row stored first under its key. With a
        deferred update collision in ``rel`` every tuple is found by key, so
        the extra rows of its run are not named.
        """
        env = self.env()
        idx = self.shadow.indexes[rel.name]
        tuples, value = self._set_argument(rel, expr, env, deferred=False)
        found: Dict[tuple, Optional[int]] = {}
        if tuples is not None:
            rest = tuples
        elif isinstance(value, TupleSet) and value.relation == rel.name:
            held, rest = value.stored(self.shadow, rel.name)
            found = {values: rowid for rowid, values in held.items()}
        elif isinstance(value, TupleSet) and value.relation is not None:
            pairs, _starts = connected(rel.name, value, env)
            found, rest = {idx.rows[end]: end for _start, end in pairs}, ()
            if rel.name in self.shadow.runs:
                found, rest = {}, list(found)
        else:
            rest = self._tuples_from_value(rel, value, deferred=False)
        for values in rest:
            found[values] = idx.first(values)
        return [found[values] for values in sorted(found) if found[values] is not None]

    # -- planned commands

    def plan_add(self, relation: str, set_expr) -> TupleSet:
        self._require_open()
        self._stmt += 1
        rel = self._simple_relation(relation)
        tuples, value = self._set_argument(rel, set_expr, self.env(), deferred=True)
        if tuples is None:
            tuples = self._tuples_from_value(rel, value, deferred=True)
        ids: Dict[int, tuple] = {}
        for values in tuples:
            waiting = self.pending.get((relation, values))
            pinned = None if waiting is None else waiting[0]
            rowid, inserted = self.shadow.insert(relation, values, rowid=pinned)
            if inserted:
                self.written[(relation, rowid)] = self._stmt
                # a fresh row satisfies any reference that was waiting for it
                self.pending.pop((relation, values), None)
                ids[rowid] = values
        self.steps += 1
        return RowSet(relation_schema(rel), relation, ids, ordered=False)

    def plan_remove(self, relation: str, set_expr, cascade: bool) -> TupleSet:
        self._require_open()
        self._stmt += 1
        rel = self._simple_relation(relation)
        removed = {}
        for rowid in self._resolve_target_rows(rel, set_expr):
            values = self.shadow.indexes[relation].rows.get(rowid)
            if values is None:
                continue  # already gone via an earlier cascade
            removed[values] = None
            # a referrer left behind is caught at commit
            for pair in self.shadow.erase(relation, rowid, cascade=cascade):
                self.written[pair] = self._stmt
        self.steps += 1
        return TupleSet(relation_schema(rel), relation=relation, rows=removed)

    def plan_update(self, relation: str, set_expr, assignments) -> TupleSet:
        self._require_open()
        self._stmt += 1
        rel = self._simple_relation(relation)
        positions = []
        for attr, value_expr in assignments:
            pos = rel.attr_index(attr)
            if pos is None:
                raise UnknownAttr(f"{relation!r} has no attribute {attr!r}")
            positions.append((pos, value_expr))
        updated = TupleSet(relation_schema(rel), relation=relation)
        env = self.env()
        resolver = _RefResolver(self.shadow, True, self.pending)
        # compute every new tuple against the pre-statement state first, so a
        # type error in any row leaves the shadow untouched
        planned = []
        for rowid in self._resolve_target_rows(rel, set_expr):
            old = self.shadow.get_row(relation, rowid)
            frame = {d.attr: v for d, v in zip(rel.domains, old)}
            new = list(old)
            for pos, value_expr in positions:
                outcome = eval_expr(value_expr, env.with_locals(frame))
                new[pos] = self._conform_position(rel.domains[pos], outcome, resolver)
            planned.append((rowid, tuple(new)))
        for rowid, new in planned:
            # a collision with another row is caught at commit
            if self.shadow.rekey(relation, rowid, new):
                self.collided.append((relation, rowid))
            self.written[(relation, rowid)] = self._stmt
            updated.add(new)
        self._adopt_buffer(resolver)
        self.steps += 1
        return updated

    def _conform_position(self, dom: Domain, outcome, resolver: _RefResolver) -> Value:
        """The value an update assignment gives one attribute: its one tuple
        conformed to the attribute's domain, as an added tuple is."""
        if isinstance(outcome, bool):
            raise TypeMismatch(f"assignment to {dom.attr!r} cannot be a condition")
        if isinstance(outcome, TupleSet):
            if len(outcome) != 1:
                raise TypeMismatch(
                    f"assignment to {dom.attr!r} needs exactly one tuple,"
                    f" got {len(outcome)}"
                )
            (flat,) = outcome.members()
        elif dom.is_scalar or isinstance(outcome, (RefVal, TupleVal)):
            flat = (outcome,)
        else:
            raise TypeMismatch(f"assignment to {dom.attr!r} needs a {dom.type_name} tuple")
        return conform((dom,), flat, resolver)[0]

    def _simple_relation(self, relation: str) -> RelationDef:
        rel = self.shadow.catalog.lookup(relation)
        if rel.klass != "simple":
            raise TypeMismatch(
                f"{relation!r} is a {rel.klass} relation; its tuples cannot be altered"
            )
        return rel

    # -- bindings

    def bind(self, name: str, value) -> None:
        self._require_open()
        if name in self.bindings:
            raise Rebind(f"variable {name!r} is already bound")
        if name in self.shadow.catalog or name in BUILTIN_FUNCTIONS:
            raise NameCollision(f"{name!r} is a relation name")
        if isinstance(value, bool):
            raise TypeMismatch("a variable holds a set of tuples, not a condition")
        self.bindings[name] = _as_tuple_set(value)

    # -- commit / rollback

    def commit(self) -> CommitReport:
        self._require_open()
        problem = min(self._problems(), key=lambda p: p[0], default=None)
        if problem is not None:
            self.status = "aborted"
            raise IntegrityError(f"statement {problem[0]}: {problem[1]}")
        self.shadow.runs.clear()  # every collision was resolved
        self.status = "committed"
        return self._report()

    def _problems(self):
        """(statement, message) of every integrity failure. Only written rows
        are examined: the base holds every invariant, so a reference breaks
        only where its row was written or its target removed, and the target's
        reverse maps find the rows that still hold it."""
        yield from self.obligations
        for (relation, _values), (_rowid, stmt) in self.pending.items():
            yield stmt, (
                f"a tuple of {relation!r} referenced in this transaction was never added"
            )
        indexes = self.shadow.indexes
        for (relation, rowid), stmt in self.written.items():
            values = indexes[relation].rows.get(rowid)
            if values is None:
                if self.shadow.referrers(relation, rowid):
                    yield stmt, f"removed tuple of {relation!r} is still referenced"
                continue
            for t_rel, t_row in iter_refs(values):
                # a target this transaction removed is reported as removed
                if t_row not in indexes[t_rel].rows and (t_rel, t_row) not in self.written:
                    yield stmt, f"a tuple of {relation!r} references a missing {t_rel!r} tuple"
        for relation, rowid in self.collided:
            idx = indexes[relation]
            values = idx.rows.get(rowid)
            rowids = [] if values is None else idx.run(values)
            if len(rowids) > 1:
                stmt = max(self.written.get((relation, r), 0) for r in rowids)
                yield stmt, f"update left two equal tuples in {relation!r}"

    def _report(self) -> CommitReport:
        """Rows added, removed and updated, by relation: each written row's
        base version against its shadow version."""
        report = CommitReport()
        for (relation, rowid) in self.written:
            base_idx = self.base.indexes.get(relation)
            before = base_idx.rows.get(rowid) if base_idx is not None else None
            after = self.shadow.indexes[relation].rows.get(rowid)
            if before == after:
                continue  # added then removed, or updated back
            if before is None:
                counts = report.added
            elif after is None:
                counts = report.removed
            else:
                counts = report.updated
            counts[relation] = counts.get(relation, 0) + 1
        return report

    def rollback(self) -> None:
        self._require_open()
        self.status = "aborted"


# --- the engine facade ------------------------------------------------------------


@dataclass
class OutputRequest:
    """An output statement's evaluated result plus its formatting choices."""

    value: object
    format_name: Optional[str]
    order_attrs: Tuple[str, ...]


class Database:
    """A catalog, a published state, and the one ambient transaction.

    Statements accumulate in the ambient transaction until `commit` publishes
    them (or `rollback` discards them); queries inside the transaction read
    their own writes. Definitions apply to the catalog immediately and are
    not transactional.
    """

    def __init__(self):
        self.catalog = Catalog()
        self.published = DbState(self.catalog)
        self.txn = TxnPlan(self.published)

    def env(self) -> Env:
        return self.txn.env()

    def eval(self, expr) -> object:
        return eval_expr(expr, self.env())

    def execute(self, stmt):
        """Run one statement; returns None, an evaluation result, a
        CommitReport, or an OutputRequest."""
        if isinstance(stmt, syntax.Definition):
            self._define(stmt)
            return None
        if isinstance(stmt, syntax.Command):
            return self._command(stmt)
        if isinstance(stmt, syntax.Assignment):
            if isinstance(stmt.rhs, syntax.Command):
                value = self._command(stmt.rhs)
            else:
                value = self.eval(stmt.rhs)
            self.txn.bind(stmt.name, value)
            return None
        if isinstance(stmt, syntax.Output):
            return OutputRequest(self.eval(stmt.expr), stmt.format_name, stmt.order_attrs)
        if isinstance(stmt, syntax.Commit):
            return self.commit()
        if isinstance(stmt, syntax.Rollback):
            self.rollback()
            return None
        if isinstance(stmt, syntax.BareQuery):
            return self.eval(stmt.expr)
        raise RelangError(f"unexecutable statement: {stmt!r}")

    def _define(self, stmt: syntax.Definition):
        catalog = self.catalog.define(stmt)
        self.catalog = catalog
        rel = catalog.lookup(stmt.name)
        # publish a new state: readers holding the old one keep its catalog
        # and relations, since neither state owns the indexes they share
        published = self.published.fork(catalog)
        published.add_relation(rel)
        published.sealed = True  # as every published state is
        self.published = published
        self.txn.shadow.catalog = catalog
        self.txn.shadow.add_relation(rel)

    def _command(self, stmt: syntax.Command) -> TupleSet:
        if stmt.verb == "add":
            return self.txn.plan_add(stmt.relation, stmt.set_arg)
        if stmt.verb == "remove":
            return self.txn.plan_remove(stmt.relation, stmt.set_arg, cascade=False)
        if stmt.verb == "abolish":
            return self.txn.plan_remove(stmt.relation, stmt.set_arg, cascade=True)
        if stmt.verb == "update":
            return self.txn.plan_update(stmt.relation, stmt.set_arg, stmt.assignments)
        raise RelangError(f"unknown command verb {stmt.verb!r}")

    def commit(self) -> CommitReport:
        try:
            report = self.txn.commit()
        except IntegrityError:
            self.txn = TxnPlan(self.published)
            raise
        self.published = self.txn.shadow
        self.txn = TxnPlan(self.published)
        return report

    def rollback(self) -> None:
        self.txn.rollback()
        self.txn = TxnPlan(self.published)

    def refresh(self) -> None:
        """Reopen the ambient transaction over the current published state
        (for callers that built the published state directly)."""
        self.txn = TxnPlan(self.published)

    @property
    def uncommitted_steps(self) -> int:
        return self.txn.steps
