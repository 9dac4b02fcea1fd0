"""Tuple storage: each simple relation is exactly one ordered multitable index.

The index is two parallel lists: ``keys`` holds every stored tuple's
canonical key in ascending byte order, and ``ids[i]`` is the row stored
under ``keys[i]``. That pair IS the relation; the rows map is its inverse
view, and per-position reverse maps invert every reference so referential
traversal and cascades never scan. Every lookup is a bisection over
``keys``, and ``scan`` reads a key range from it and never sorts.

Contract of ``scan(relation, prefix)``: it returns every row whose key
starts with the prefix bytes, in key order. Because text encodings are not
prefix-free, that range is a superset of the rows whose leading values
equal the prefix's value, so a caller must check its constraints on each
row it gets back.

Invariant: a tuple's canonical key is computed when the tuple is stored
(insert or rekey) and kept only in ``keys``. Readers never re-encode a
stored tuple: they take keys from ``scan``, and they match a reference by
the row id it holds. Only removal and rekey encode a stored tuple again, to
find the entry it leaves, since no row id -> key map is kept; so does a
commit, for each row whose rekey collided.

Row ids are allocated from a per-relation counter starting at 1 and are never
reused within a database lifetime. They are internal: no language syntax can
mention one and no output ever shows one.

A transaction's shadow state may temporarily hold two live rows under one
canonical key (an update collision whose resolution is deferred to commit).
Such rows form a run of equal keys, the earliest holder first; a published
state has no run.

Ownership: a state mutates only the indexes it owns, and an index mutates
only the reverse buckets it owns. ``DbState.fork`` makes a state that shares
every index with its parent, and after it neither state owns any of them.
A state's first write to a relation it does not own copies that index
shallowly: the rows map, the key and id arrays and each position's reverse
map are copied, while the row tuples and the reverse buckets stay shared.
The copy's first write to a bucket copies that bucket. An index that no
state owns is never written again, so a transaction costs the relations it
writes, and a published state, which a fork leaves owning nothing, stays
an immutable value that may be read concurrently.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .catalog import Catalog, RelationDef
from .errors import (
    ArityMismatch,
    DomainTypeMismatch,
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
        self.keys: List[bytes] = []  # ascending; equal keys only in a collision
        self.ids: List[int] = []  # ids[i] is the row stored under keys[i]
        # position -> (target relation, target row) -> referencing row ids
        self.reverse: Dict[int, Dict[Tuple[str, int], Set[int]]] = {}
        # (position, target) of each reverse bucket this index may write
        self.owned: Set[Tuple[int, Tuple[str, int]]] = set()
        self.next_rowid = 1

    def copy(self) -> "MultitableIndex":
        """A copy for a new owner, sharing the row tuples and every reverse
        bucket with this index; the copy owns no bucket yet."""
        copy = MultitableIndex(self.domains)
        copy.rows = dict(self.rows)
        copy.keys = list(self.keys)
        copy.ids = list(self.ids)
        copy.reverse = {p: dict(m) for p, m in self.reverse.items()}
        copy.next_rowid = self.next_rowid
        return copy

    def first(self, key: bytes) -> Optional[int]:
        """The row stored first under a key (its earliest holder), or None."""
        keys = self.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return self.ids[i]
        return None

    def run(self, key: bytes) -> List[int]:
        """Every row stored under a key, the earliest holder first."""
        keys = self.keys
        lo = bisect_left(keys, key)
        return self.ids[lo:bisect_right(keys, key, lo)]

    def release(self, key: bytes, rowid: int):
        """Drop a row's entry under a key; the next row of a collision run
        becomes the key's first holder."""
        i = self.ids.index(rowid, bisect_left(self.keys, key))
        del self.keys[i]
        del self.ids[i]

    def link(self, rowid: int, values):
        """Enter each reference a row holds in the reverse maps."""
        for pos, v in enumerate(values):
            for target in iter_refs([v]):
                self._bucket(pos, target).add(rowid)

    def unlink(self, rowid: int, values):
        """Take each reference a row holds out of the reverse maps."""
        for pos, v in enumerate(values):
            for target in iter_refs([v]):
                bucket = self._bucket(pos, target)
                bucket.discard(rowid)
                if not bucket:
                    del self.reverse[pos][target]
                    self.owned.discard((pos, target))

    def _bucket(self, pos: int, target: Tuple[str, int]) -> Set[int]:
        """The rows referencing ``target`` at ``pos``, as a bucket this index
        owns: a shared bucket is copied, a missing one made."""
        refs = self.reverse.setdefault(pos, {})
        if (pos, target) not in self.owned:
            refs[target] = set(refs.get(target, ()))
            self.owned.add((pos, target))
        return refs[target]


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

    A state mutates only the indexes it owns: those it created and those it
    copied on a first write. A fork owns none, and forking takes ownership
    from the parent too, so a published state that a transaction forked is
    never written again and may be read concurrently. The catalog reference
    is the catalog version the data conforms to.
    """

    def __init__(self, catalog: Optional[Catalog] = None):
        self.catalog = catalog or Catalog()
        self.indexes: Dict[str, MultitableIndex] = {}
        self.owned: Set[str] = set()  # relations whose index this state may write

    def fork(self, catalog: Optional[Catalog] = None) -> "DbState":
        """A state with the same tuples (under ``catalog``, if given) that
        shares every index with this one; it costs the relation count, and
        each state copies an index on its first write to it."""
        fork = DbState(catalog or self.catalog)
        fork.indexes = dict(self.indexes)
        self.owned = set()
        return fork

    def add_relation(self, rel: RelationDef):
        if rel.klass == "simple" and rel.name not in self.indexes:
            self.indexes[rel.name] = MultitableIndex(rel.domains)
            self.owned.add(rel.name)

    def _writable(self, relation: str) -> MultitableIndex:
        """The relation's index, copied first unless this state owns it."""
        idx = self._index(relation)
        if relation not in self.owned:
            idx = self.indexes[relation] = idx.copy()
            self.owned.add(relation)
        return idx

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

    # -- operations

    def insert(self, relation: str, values, *, rowid=None):
        """Insert a tuple; returns (row id, freshly-inserted flag).

        Duplicate insertion is an idempotent no-op returning the existing id.
        ``rowid`` pins the id of a fresh row (used when a deferred reference
        is being satisfied); it must have been reserved via reserve_rowid.
        References are not checked here: the transaction checks them at
        commit, and a snapshot load rejects an ordinal it has not loaded.
        """
        idx = self._index(relation)
        values = self.validate_tuple(relation, values)
        key = encode_tuple(values)
        keys = idx.keys
        i = len(keys)
        # a key above the last one (every row of a snapshot load) is new
        if keys and key <= keys[-1]:
            i = bisect_left(keys, key)
            if keys[i] == key:
                return idx.ids[i], False
        idx = self._writable(relation)
        if rowid is None:
            rowid = idx.next_rowid
            idx.next_rowid += 1
        idx.rows[rowid] = values
        idx.keys.insert(i, key)
        idx.ids.insert(i, rowid)
        idx.link(rowid, values)
        return rowid, True

    def reserve_rowid(self, relation: str) -> int:
        idx = self._writable(relation)
        rowid = idx.next_rowid
        idx.next_rowid += 1
        return rowid

    def contains_tuple(self, relation: str, values) -> Optional[int]:
        """Row id stored first under the tuple's canonical key, or None."""
        return self._index(relation).first(encode_tuple(values))

    def rowids(self, relation: str, keys) -> Set[int]:
        """Every live row id stored under one of the keys, the extra rows of
        a deferred update collision included."""
        idx = self._index(relation)
        found = set()
        for key in keys:
            found.update(idx.run(key))
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

        The keys are the stored ones, so a caller that needs a tuple's key
        takes it from here instead of encoding the tuple again. A deferred
        update collision shows once, under its key.
        """
        rel = self.catalog.lookup(relation)
        if rel.klass != "simple":
            raise NotEnumerable(f"{relation!r} is a {rel.klass} relation")
        idx = self.indexes[relation]
        keys, ids, rows = idx.keys, idx.ids, idx.rows
        lo = bisect_left(keys, prefix)
        end = _prefix_end(prefix)
        hi = len(keys) if end is None else bisect_left(keys, end, lo)
        return {keys[i]: rows[ids[i]] for i in range(lo, hi)}

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
        idx = self._writable(relation)
        values = idx.rows.pop(rowid)
        idx.release(encode_tuple(values), rowid)
        idx.unlink(rowid, values)

    def rekey(self, relation: str, rowid: int, new_values) -> bool:
        """Replace a row's tuple in place, preserving its row id.

        Returns True when the new key collided with a different live row. The
        row is then stored after the key's earlier holders, and the caller
        must resolve the collision (a transaction aborts at commit).
        """
        old_values = self.get_row(relation, rowid)
        new_values = self.validate_tuple(relation, new_values)
        old_key = encode_tuple(old_values)
        new_key = encode_tuple(new_values)
        idx = self._writable(relation)
        if new_key == old_key:
            idx.rows[rowid] = new_values
            return False
        idx.release(old_key, rowid)
        keys = idx.keys
        i = bisect_right(keys, new_key)
        keys.insert(i, new_key)
        idx.ids.insert(i, rowid)
        idx.rows[rowid] = new_values
        idx.unlink(rowid, old_values)
        idx.link(rowid, new_values)
        return i > 0 and keys[i - 1] == new_key
