"""Tuple storage: each simple relation is exactly one ordered multitable index.

The forward map (canonical key -> row id) IS the relation; the rows map is
its inverse view, and per-position reverse maps invert every reference so
referential traversal and cascades never scan.

Invariant: ``sorted_keys`` holds exactly the forward map's keys, in
ascending byte order. Every write that adds or drops a forward entry keeps
it so by bisection; a key that sorts after the last one is appended, which
is how a snapshot load (rows arrive in key order) fills it. ``scan`` reads
key ranges from it and never sorts.

Contract of ``scan(relation, prefix)``: it returns every row whose key
starts with the prefix bytes, in key order. Because text encodings are not
prefix-free, that range is a superset of the rows whose leading values
equal the prefix's value, so a caller must check its constraints on each
row it gets back.

Invariant: a tuple's canonical key is computed when the tuple is stored
(insert or rekey) and kept only as its forward-map entry. Readers never
re-encode a stored tuple: they take keys from ``scan``, and they match a
reference by the row id it holds. Only removal and rekey encode a stored
tuple again, to find the slot it leaves, since no row id -> key map is kept.

Row ids are allocated from a per-relation counter starting at 1 and are never
reused within a database lifetime. They are internal: no language syntax can
mention one and no output ever shows one.

A transaction's shadow state may temporarily hold two live rows under one
canonical key (an update collision whose resolution is deferred to commit).
That state is tracked in a side map and must be empty whenever a state is
published.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .catalog import Catalog, RelationDef
from .errors import (
    ArityMismatch,
    DanglingRef,
    DomainTypeMismatch,
    DuplicateTuple,
    NotEnumerable,
    ReferencedRow,
    RowNotFound,
)
from .values import (
    IntVal,
    RealVal,
    RefVal,
    TextVal,
    TimestampVal,
    TupleVal,
    encode_tuple,
)

_SCALAR_CLASSES = {
    "int": IntVal,
    "real": RealVal,
    "text": TextVal,
    "timestamp": TimestampVal,
}


class MultitableIndex:
    """Ordered index holding every tuple of one simple relation."""

    def __init__(self, domains):
        self.domains = domains
        self.rows: Dict[int, tuple] = {}
        self.forward: Dict[bytes, int] = {}
        self.sorted_keys: List[bytes] = []  # the forward map's keys, ascending
        # key -> extra live row ids sharing the key (deferred collisions)
        self.collisions: Dict[bytes, List[int]] = {}
        # position -> (target relation, target row) -> referencing row ids
        self.reverse: Dict[int, Dict[Tuple[str, int], Set[int]]] = {}
        self.next_rowid = 1

    def clone(self) -> "MultitableIndex":
        copy = MultitableIndex(self.domains)
        copy.rows = dict(self.rows)
        copy.forward = dict(self.forward)
        copy.sorted_keys = list(self.sorted_keys)
        copy.collisions = {k: list(v) for k, v in self.collisions.items()}
        copy.reverse = {
            p: {t: set(rs) for t, rs in m.items()} for p, m in self.reverse.items()
        }
        copy.next_rowid = self.next_rowid
        return copy

    def place(self, key: bytes, rowid: int):
        """Store a row under a key no row holds."""
        self.forward[key] = rowid
        keys = self.sorted_keys
        if not keys or keys[-1] < key:
            keys.append(key)
        else:
            insort(keys, key)

    def release(self, key: bytes, rowid: int):
        """Drop a row's hold on a key slot. When the row owned the slot, the
        first row of a deferred collision under the key takes it over."""
        extras = self.collisions.get(key, [])
        if self.forward.get(key) == rowid:
            if extras:
                self.forward[key] = extras.pop(0)
            else:
                del self.forward[key]
                del self.sorted_keys[bisect_left(self.sorted_keys, key)]
        elif rowid in extras:
            extras.remove(rowid)
        if key in self.collisions and not extras:
            del self.collisions[key]


def _prefix_end(prefix: bytes) -> Optional[bytes]:
    """The least byte string above every string that starts with
    ``prefix``; None when there is none (the prefix is empty or all 0xFF)."""
    stem = prefix.rstrip(b"\xff")
    if not stem:
        return None
    return stem[:-1] + bytes((stem[-1] + 1,))


def iter_refs(values) -> Iterable[Tuple[str, int]]:
    """Yield every (relation, row) reference inside a tuple, including those
    nested in inline complex values."""
    for v in values:
        if isinstance(v, RefVal):
            yield (v.relation, v.row)
        elif isinstance(v, TupleVal):
            yield from iter_refs(v.values)


class DbState:
    """All stored tuples of a database version.

    One writer at a time mutates a state; a published state is treated as an
    immutable value and may be read concurrently. The catalog reference is
    the catalog version the data conforms to.
    """

    def __init__(self, catalog: Optional[Catalog] = None):
        self.catalog = catalog or Catalog()
        self.indexes: Dict[str, MultitableIndex] = {}

    def clone(self) -> "DbState":
        copy = DbState(self.catalog)
        copy.indexes = {name: idx.clone() for name, idx in self.indexes.items()}
        return copy

    def add_relation(self, rel: RelationDef):
        if rel.klass == "simple" and rel.name not in self.indexes:
            self.indexes[rel.name] = MultitableIndex(rel.domains)

    def _index(self, relation: str) -> MultitableIndex:
        idx = self.indexes.get(relation)
        if idx is None:
            rel = self.catalog.lookup(relation)
            raise NotEnumerable(f"{relation!r} is a {rel.klass} relation; it has no stored tuples")
        return idx

    # -- validation

    def validate_tuple(self, relation: str, values) -> tuple:
        """Check a tuple structurally against the relation's domains."""
        rel = self.catalog.lookup(relation)
        return self._validate_against(rel, values)

    def _validate_against(self, rel: RelationDef, values) -> tuple:
        values = tuple(values)
        if len(values) != rel.arity:
            raise ArityMismatch(
                f"{rel.name!r} has arity {rel.arity}, got {len(values)} values"
            )
        for dom, v in zip(rel.domains, values):
            if dom.is_scalar:
                if not isinstance(v, _SCALAR_CLASSES[dom.type_name]):
                    raise DomainTypeMismatch(
                        f"position {dom.attr!r} of {rel.name!r} holds {dom.type_name}"
                    )
            else:
                target = self.catalog.lookup(dom.type_name)
                if target.klass == "simple":
                    if not isinstance(v, RefVal) or v.relation != dom.type_name:
                        raise DomainTypeMismatch(
                            f"position {dom.attr!r} of {rel.name!r} references"
                            f" {dom.type_name!r}"
                        )
                else:  # domain-class: inline complex value
                    if not isinstance(v, TupleVal) or v.relation != dom.type_name:
                        raise DomainTypeMismatch(
                            f"position {dom.attr!r} of {rel.name!r} holds an inline"
                            f" {dom.type_name!r} tuple"
                        )
                    self._validate_against(target, v.values)
        return values

    def _check_refs(self, values):
        for rel_name, row in iter_refs(values):
            idx = self.indexes.get(rel_name)
            if idx is None or row not in idx.rows:
                raise DanglingRef(f"no row {row} in relation {rel_name!r}")

    # -- operations

    def insert(self, relation: str, values, *, check_refs=True, rowid=None):
        """Insert a tuple; returns (row id, freshly-inserted flag).

        Duplicate insertion is an idempotent no-op returning the existing id.
        ``rowid`` pins the id of a fresh row (used when a deferred reference
        is being satisfied); it must have been reserved via reserve_rowid.
        """
        idx = self._index(relation)
        values = self.validate_tuple(relation, values)
        if check_refs:
            self._check_refs(values)
        key = encode_tuple(values)
        existing = idx.forward.get(key)
        if existing is not None:
            return existing, False
        if rowid is None:
            rowid = idx.next_rowid
            idx.next_rowid += 1
        idx.rows[rowid] = values
        idx.place(key, rowid)
        self._add_reverse(idx, rowid, values)
        return rowid, True

    def reserve_rowid(self, relation: str) -> int:
        idx = self._index(relation)
        rowid = idx.next_rowid
        idx.next_rowid += 1
        return rowid

    def contains_tuple(self, relation: str, values) -> Optional[int]:
        """Row id stored under the tuple's canonical key, or None."""
        idx = self._index(relation)
        return idx.forward.get(encode_tuple(values))

    def rowids(self, relation: str, keys) -> Set[int]:
        """Every live row id stored under one of the keys, the extra rows of
        a deferred update collision included."""
        idx = self._index(relation)
        found = set()
        for key in keys:
            rowid = idx.forward.get(key)
            if rowid is not None:
                found.add(rowid)
                found.update(idx.collisions.get(key, ()))
        return found

    def get_row(self, relation: str, rowid: int) -> tuple:
        idx = self._index(relation)
        row = idx.rows.get(rowid)
        if row is None:
            raise RowNotFound(f"no row {rowid} in relation {relation!r}")
        return row

    def scan(self, relation: str, prefix: bytes = b"") -> Dict[bytes, tuple]:
        """The rows whose canonical key starts with ``prefix``, as a fresh
        key -> tuple map in key order; the empty prefix gives the relation.

        The range is found by bisection over the sorted keys, so it costs
        the rows it returns, not the relation. The prefix is a byte prefix,
        not a value: text keys are not prefix-free (the key of "a" starts
        the key of "a\\0b"), so the range is a superset and a caller must
        check its constraints on every row again.

        The keys are the ones stored in the forward map, so a caller that
        needs a tuple's key takes it from here instead of encoding the tuple
        again. A deferred update collision shows once, under its key.
        """
        rel = self.catalog.lookup(relation)
        if rel.klass != "simple":
            raise NotEnumerable(f"{relation!r} is a {rel.klass} relation")
        idx = self.indexes[relation]
        keys = idx.sorted_keys
        lo = bisect_left(keys, prefix)
        end = _prefix_end(prefix)
        hi = len(keys) if end is None else bisect_left(keys, end, lo)
        rows, forward = idx.rows, idx.forward
        return {k: rows[forward[k]] for k in keys[lo:hi]}

    def referrers(self, relation: str, rowid: int):
        """Every (relation, attr, row) whose tuple references the given row."""
        self.get_row(relation, rowid)
        return self._referrers(relation, rowid)

    def _referrers(self, relation: str, rowid: int):
        found = set()
        target = (relation, rowid)
        for q_name, q_idx in self.indexes.items():
            for pos, refs in q_idx.reverse.items():
                for referrer in refs.get(target, ()):
                    found.add((q_name, q_idx.domains[pos].attr, referrer))
        return found

    def erase(self, relation: str, rowid: int, *, cascade=False, force=False):
        """Remove a row; returns the set of (relation, row) pairs removed.

        Without cascade, a still-referenced row is rejected unless ``force``
        is set (the transaction layer forces and defers the check to commit).
        With cascade, every transitively referencing row goes too.
        """
        self.get_row(relation, rowid)
        if cascade:
            doomed = {(relation, rowid)}
            frontier = [(relation, rowid)]
            while frontier:
                rel_name, rid = frontier.pop()
                for q_name, _attr, q_row in self._referrers(rel_name, rid):
                    if (q_name, q_row) not in doomed:
                        doomed.add((q_name, q_row))
                        frontier.append((q_name, q_row))
        else:
            if not force and self._referrers(relation, rowid):
                raise ReferencedRow(
                    f"row {rowid} of {relation!r} is referenced by other tuples"
                )
            doomed = {(relation, rowid)}
        for rel_name, rid in doomed:
            self._remove_row(rel_name, rid)
        return doomed

    def _remove_row(self, relation: str, rowid: int):
        idx = self.indexes[relation]
        values = idx.rows.pop(rowid)
        idx.release(encode_tuple(values), rowid)
        self._drop_reverse(idx, rowid, values)

    def rekey(self, relation: str, rowid: int, new_values, *, allow_collision=False):
        """Replace a row's tuple in place, preserving its row id.

        Returns True when the new key collided with a different live row (only
        possible with ``allow_collision``; the caller must defer resolution).
        """
        idx = self._index(relation)
        old_values = self.get_row(relation, rowid)
        new_values = self.validate_tuple(relation, new_values)
        old_key = encode_tuple(old_values)
        new_key = encode_tuple(new_values)
        if new_key == old_key:
            idx.rows[rowid] = new_values
            return False
        holder = idx.forward.get(new_key)
        collided = holder is not None and holder != rowid
        if collided and not allow_collision:
            raise DuplicateTuple(
                f"another row of {relation!r} already holds this tuple"
            )
        idx.release(old_key, rowid)
        if collided:
            idx.collisions.setdefault(new_key, []).append(rowid)
        else:
            idx.place(new_key, rowid)
        idx.rows[rowid] = new_values
        self._drop_reverse(idx, rowid, old_values)
        self._add_reverse(idx, rowid, new_values)
        return collided

    # -- reverse index maintenance

    def _add_reverse(self, idx: MultitableIndex, rowid: int, values):
        for pos, v in enumerate(values):
            for target in iter_refs([v]):
                idx.reverse.setdefault(pos, {}).setdefault(target, set()).add(rowid)

    def _drop_reverse(self, idx: MultitableIndex, rowid: int, values):
        for pos, v in enumerate(values):
            for target in iter_refs([v]):
                entry = idx.reverse.get(pos, {}).get(target)
                if entry is not None:
                    entry.discard(rowid)
                    if not entry:
                        del idx.reverse[pos][target]

    def collision_keys(self):
        return [
            (rel_name, key)
            for rel_name, idx in self.indexes.items()
            for key in idx.collisions
        ]
