"""Tuple storage: each simple relation is exactly one ordered multitable index.

The index is paged, and every page is a plain list, dict or set:

- **Keys.** Every stored tuple, which is its own key, in ascending value
  order, cut into sorted chunks of at most ``CHUNK_MAX`` tuples:
  ``key_chunks[c]`` holds the tuples, ``id_chunks[c][i]`` the row that
  holds ``key_chunks[c][i]``, and ``maxes[c]`` the chunk's largest tuple.
  The chunks ARE the relation. A lookup bisects ``maxes`` for the chunk,
  then the chunk for the slot; a chunk that outgrows ``CHUNK_MAX`` splits
  in half, and an emptied one is dropped. This is the layout of
  ``sortedcontainers.SortedList``.
- **Rows.** The inverse view, row id -> tuple, in pages of
  ``2 ** ROW_BITS`` consecutive row ids: slot ``rowid & mask`` of page
  ``rows.pages[rowid >> ROW_BITS]`` holds the row's tuple. A page whose
  last row goes is dropped.
- **Position maps.** Per position, the rows inverted by what they hold
  there: ``maps[pos][page][key]`` is the bucket (a set) of rows whose entry
  at ``pos`` is ``key``. Both kinds of position share the type, its paging
  and its ownership. A reference position's map, its reverse map, is keyed
  by the targets ``(t_rel, t_row)`` the rows hold there (an inline tuple
  may hold several), on page ``t_row >> ROW_BITS``; every reference
  position has one, so referential traversal and cascades never scan. A
  scalar position's map, a value map (``valued`` lists them), is keyed by
  the stored value itself, since a hash map needs no order, on page
  ``hash(value) & (2 ** ROW_BITS - 1)``, so a copy costs a fixed page
  table. A scalar position has a map only once
  something asked for one (``DbState.index_values``: the evaluator, the
  first time a selection binds the position); from then on every write
  keeps it, and until then it costs ``link`` one truthiness test.

``scan`` reads a key range from the chunks and never sorts.

Two writers store new rows, with one layout: ``insert`` places one tuple
by bisection and links it, and ``DbState.extend`` stores tuples that rise
above the last key, as a snapshot load reads them, filling row pages and
key chunks by slices and making each position's buckets from its rows
grouped by key. Keys stored in order fill each chunk up to ``CHUNK_MAX``.

Contract of ``scan(relation, lead)``: it returns, in key order, the rows
whose leading value equals ``lead``, a collision run's every row included;
a caller checks its other constraints on each row it gets back.

Invariant: a key is the very tuple object its row page holds, so the key
order is the values' own order (``values``), compared in C, and no key is
ever built: a store, a seek and a removal each bisect by the tuple itself.
A reader keeps the row ids it reads (``scan`` hands out row id -> tuple),
so a stored tuple is found again by its row id rather than by bisecting.
``runs`` names the relations where a rekey collided, whose rows a reader
then finds by key, since a key names a collision's whole run.

The store is a plain holder of conforming tuples and checks no integrity
rule. Callers hand ``insert`` and ``rekey`` tuples that conform to the
relation's domains: a transaction conforms every tuple it writes
(``evaluator.conform``) and checks references, removals and key collisions at
commit, and a snapshot load checks each row's shape and references once
(``shell.load_snapshot``).

Row ids are allocated from a per-relation counter starting at 1 and are never
reused within a database lifetime. They are internal: no language syntax can
mention one and no output ever shows one.

A transaction's shadow state may temporarily hold two live rows of equal
tuples (an update collision whose resolution is deferred to commit). Such
rows form a run of equal keys, the earliest holder first, which may span
chunks; a published state has no run.

Ownership has one rule, applied at every level: a copy shares every part
of the original, and after it neither side owns a shared part, so each
copies a part on its first write to it. A state owns the indexes it made
or copied, and ``DbState.fork`` shares every index with the new state. An
index owns the key chunks, row pages, map pages and buckets it made or
copied (their ``id()`` is in ``owned``), and ``MultitableIndex.copy``
copies only the page tables. So a state's first write to a relation costs
O(rows / page size), and each write the pages it touches. An index no
state owns is never written again: a published state, which a fork leaves
owning nothing and ``sealed``, stays an immutable value that may be read
concurrently; that is why only an unsealed state builds a value map.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from itertools import islice
from operator import itemgetter, lt
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .catalog import Catalog, RelationDef
from .errors import NotEnumerable, RowNotFound
from .values import RefVal, TupleVal

# Page sizes, picked by measurement: a larger page makes a relation's first
# copy cheaper and each further page copy dearer.
CHUNK_MAX = 512  # keys per chunk at most; a chunk that outgrows it splits in half
ROW_BITS = 8  # a row page covers 2 ** ROW_BITS row ids, as does a reference's map page


class Rows:
    """The rows of one index, row id -> tuple, read through its pages.

    ``pages[rowid >> ROW_BITS][rowid & mask]`` is a row's tuple, or None
    where no row is; a page that holds no row is None. The page table
    covers every row id the index has handed out, so a reference never
    reads past its end. It reads like a dict; only the index writes it."""

    __slots__ = ("pages", "count")

    def __init__(self, pages: Optional[List[Optional[List[Optional[tuple]]]]] = None, count: int = 0):
        self.pages = [] if pages is None else pages
        self.count = count

    def __len__(self) -> int:
        return self.count

    def get(self, rowid, default=None):
        n = rowid >> ROW_BITS
        page = self.pages[n] if 0 <= n < len(self.pages) else None
        row = None if page is None else page[rowid & ((1 << ROW_BITS) - 1)]
        return default if row is None else row

    def __contains__(self, rowid) -> bool:
        return self.get(rowid) is not None

    def __getitem__(self, rowid) -> tuple:
        row = self.get(rowid)
        if row is None:
            raise KeyError(rowid)
        return row

    def items(self) -> Iterator[Tuple[int, tuple]]:
        for n, page in enumerate(self.pages):
            if page is not None:
                base = n << ROW_BITS
                for i, row in enumerate(page):
                    if row is not None:
                        yield base + i, row

    def __iter__(self) -> Iterator[int]:
        for rowid, _row in self.items():
            yield rowid


class MultitableIndex:
    """Ordered index holding every tuple of one simple relation."""

    def __init__(self):
        self.key_chunks: List[List[tuple]] = []  # ascending; equal keys only in a collision
        self.id_chunks: List[List[int]] = []  # id_chunks[c][i] holds key_chunks[c][i]
        self.maxes: List[tuple] = []  # maxes[c] is key_chunks[c][-1]
        self.rows = Rows()
        # position -> page -> key -> row ids: see the module docstring
        self.maps: Dict[int, Dict[int, Dict[object, Set[int]]]] = {}
        self.valued: Tuple[int, ...] = ()  # the scalar positions that have a map
        # id() of each key chunk, row page, map page and bucket this index
        # made or copied, and so may write
        self.owned: Set[int] = set()
        self.next_rowid = 1

    def copy(self) -> "MultitableIndex":
        """A copy for a new owner: it shares every page and bucket with this
        index, copying only the page tables. Afterwards neither index owns
        any page, so each copies a page on its first write to it."""
        copy = MultitableIndex()
        copy.key_chunks = self.key_chunks.copy()
        copy.id_chunks = self.id_chunks.copy()
        copy.maxes = self.maxes.copy()
        copy.rows = Rows(self.rows.pages.copy(), self.rows.count)
        copy.maps = {pos: pages.copy() for pos, pages in self.maps.items()}
        copy.valued = self.valued
        copy.next_rowid = self.next_rowid
        self.owned = set()  # the pages are shared now: neither index may write them
        return copy

    # -- pages

    def _own(self, table, k, page, make):
        """``table[k]``, which is ``page`` (None where there is none), as a
        page this index may write: one it did not make is copied first, and
        a missing one is made by ``make``."""
        if page is None:
            page = make()
        elif id(page) in self.owned:
            return page
        else:
            page = page.copy()
        table[k] = page
        self.owned.add(id(page))
        return page

    def _own_chunk(self, c: int) -> Tuple[List[tuple], List[int]]:
        """Chunk ``c``'s keys and ids as lists this index may write."""
        keys, ids = self.key_chunks[c], self.id_chunks[c]
        if id(keys) not in self.owned:
            keys = self.key_chunks[c] = keys.copy()
            ids = self.id_chunks[c] = ids.copy()
            self.owned.add(id(keys))
        return keys, ids

    def _drop(self, table, k):
        """Drop the emptied page ``table[k]``."""
        self.owned.discard(id(table.pop(k)))

    # -- keys

    def first(self, key: tuple) -> Optional[int]:
        """The row stored first under a key (its earliest holder), or None."""
        c = bisect_left(self.maxes, key)
        if c < len(self.maxes):
            keys = self.key_chunks[c]
            i = bisect_left(keys, key)
            if keys[i] == key:
                return self.id_chunks[c][i]
        return None

    def run(self, key: tuple) -> List[int]:
        """Every row stored under a key, the earliest holder first."""
        maxes = self.maxes
        c = bisect_left(maxes, key)
        if c == len(maxes):
            return []
        keys = self.key_chunks[c]
        i = bisect_left(keys, key)
        j = bisect_right(keys, key, i)
        found = self.id_chunks[c][i:j]
        while j == len(keys) and c + 1 < len(maxes):  # the run may go on
            c += 1
            keys = self.key_chunks[c]
            j = bisect_right(keys, key)
            found += self.id_chunks[c][:j]
        return found

    def span(self, lead) -> Tuple[int, int, int, int]:
        """``(c, lo, d, hi)``: the keys whose leading value is ``lead`` run
        from slot ``lo`` of chunk ``c`` up to slot ``hi`` of chunk ``d``, not
        included; ``d`` is ``len(maxes)``, and ``hi`` 0, when they run to
        the end."""
        maxes, key_chunks = self.maxes, self.key_chunks
        c = bisect_left(maxes, lead, key=_lead)
        if c == len(maxes):
            return c, 0, c, 0
        lo = bisect_left(key_chunks[c], lead, key=_lead)
        d = bisect_right(maxes, lead, c, key=_lead)
        return c, lo, d, 0 if d == len(maxes) else bisect_right(key_chunks[d], lead, key=_lead)

    def count(self, lead) -> int:
        """How many keys have the leading value ``lead``, a collision run's
        included."""
        c, lo, d, hi = self.span(lead)
        return sum(map(len, self.key_chunks[c:d])) - lo + hi

    def place(self, c: int, i: int, key: tuple, rowid: int):
        """Store ``key`` -> ``rowid`` at slot ``i`` of chunk ``c``; chunk
        ``len(maxes)`` means after every key, where a full last chunk is
        followed by a new one, so keys stored in order fill their chunks."""
        maxes = self.maxes
        if c == len(maxes):
            if not maxes or len(self.key_chunks[-1]) >= CHUNK_MAX:
                self._new_chunk(c, [key], [rowid])
                return
            c -= 1
            i = len(self.key_chunks[c])
        keys, ids = self._own_chunk(c)
        keys.insert(i, key)
        ids.insert(i, rowid)
        if len(keys) > CHUNK_MAX:
            half = len(keys) >> 1
            self._new_chunk(c + 1, keys[half:], ids[half:])
            del keys[half:], ids[half:]
        maxes[c] = keys[-1]

    def _new_chunk(self, c: int, keys: List[tuple], ids: List[int]):
        self.key_chunks.insert(c, keys)
        self.id_chunks.insert(c, ids)
        self.maxes.insert(c, keys[-1])
        self.owned.add(id(keys))

    def release(self, key: tuple, rowid: int):
        """Drop a row's entry under a key; the next row of a collision run
        becomes the key's first holder."""
        c = bisect_left(self.maxes, key)
        i = bisect_left(self.key_chunks[c], key)
        while self.id_chunks[c][i] != rowid:  # walk the run, across chunks
            i += 1
            if i == len(self.id_chunks[c]):
                c, i = c + 1, 0
        if len(self.key_chunks[c]) == 1:
            self.owned.discard(id(self.key_chunks[c]))
            del self.key_chunks[c], self.id_chunks[c], self.maxes[c]
            return
        keys, ids = self._own_chunk(c)
        del keys[i], ids[i]
        self.maxes[c] = keys[-1]

    # -- rows

    def new_rowid(self) -> int:
        """Hand out the next row id, growing the page table to cover it."""
        rowid = self.next_rowid
        self.next_rowid += 1
        if rowid >> ROW_BITS == len(self.rows.pages):
            self.rows.pages.append(None)
        return rowid

    def _row_page(self, n: int) -> List[Optional[tuple]]:
        """Row page ``n`` as a page this index may write."""
        pages = self.rows.pages
        return self._own(pages, n, pages[n], _empty_row_page)

    def replace_row(self, rowid: int, values):
        """Store a new tuple for a stored row."""
        self._row_page(rowid >> ROW_BITS)[rowid & ((1 << ROW_BITS) - 1)] = values

    def pop_row(self, rowid: int) -> tuple:
        """Take a stored row out; returns its tuple."""
        n, i = rowid >> ROW_BITS, rowid & ((1 << ROW_BITS) - 1)
        page = self._row_page(n)
        values, page[i] = page[i], None
        self.rows.count -= 1
        if page.count(None) == len(page):  # its last row went
            self.rows.pages[n] = None
            self.owned.discard(id(page))
        return values

    # -- position maps

    def link(self, rowid: int, values):
        """Enter a row in the position maps: each reference it holds, and
        its value at each position in ``valued``. A position masked to None
        (as ``DbState.rekey`` masks the ones it keeps) holds nothing."""
        owned, maps, valued = self.owned, self.maps, self.valued
        for pos, v in enumerate(values):
            if isinstance(v, RefVal):
                keys: Iterable = ((v.relation, v.row),)
            elif isinstance(v, TupleVal):
                keys = iter_refs(v.values)
            elif valued and v is not None and pos in valued:
                keys = (v,)
            else:
                continue
            pages = maps.get(pos)
            for key in keys:
                if pages is None:  # a map is made for its first key, never empty
                    pages = maps[pos] = {}
                # ``_own`` is called only for a page or bucket this index
                # does not own yet: a bulk add links every row it inserts
                n = _page_of(key)
                page = pages.get(n)
                if page is None or id(page) not in owned:
                    page = self._own(pages, n, page, dict)
                bucket = page.get(key)
                if bucket is None or id(bucket) not in owned:
                    bucket = self._own(page, key, bucket, set)
                bucket.add(rowid)

    def unlink(self, rowid: int, values):
        """Take a row out of the position maps; as in ``link``, a position
        masked to None holds nothing."""
        valued = self.valued
        for pos, v in enumerate(values):
            if isinstance(v, RefVal):
                keys: Iterable = ((v.relation, v.row),)
            elif isinstance(v, TupleVal):
                # an inline tuple may hold one reference twice; its bucket
                # holds the row once
                keys = set(iter_refs(v.values))
            elif valued and v is not None and pos in valued:
                keys = (v,)
            else:
                continue
            pages = self.maps.get(pos)  # None only where there is no key
            for key in keys:
                n = _page_of(key)
                page = self._own(pages, n, pages[n], dict)
                bucket = page[key]
                if len(bucket) == 1:  # its last row goes: drop it uncopied
                    self._drop(page, key)
                    if not page:
                        self._drop(pages, n)
                        if not pages and pos not in valued:  # a reference map, left empty
                            del self.maps[pos]
                else:
                    self._own(page, key, bucket, set).discard(rowid)

    def extend(self, tuples: List[tuple], positions: Iterable[int]) -> List[int]:
        """Store tuples that rise, the first above every key, as new rows
        linked at ``positions`` and at each position in ``valued``; returns
        their row ids. The layout is the one ``insert`` makes of them one
        by one: the row pages and key chunks are filled by slices, the last
        chunk up to ``CHUNK_MAX`` first, and each position's buckets are
        made from its rows grouped by key."""
        n, bits = len(tuples), ROW_BITS
        first = self.next_rowid
        self.next_rowid = end = first + n
        ids = list(range(first, end))  # each id one int, shared by chunks and buckets
        pages = self.rows.pages
        pages += [None] * (((end - 1) >> bits) + 1 - len(pages))
        at = 0
        while at < n:
            slot = (first + at) & ((1 << bits) - 1)
            size = min((1 << bits) - slot, n - at)
            self._row_page((first + at) >> bits)[slot : slot + size] = tuples[at : at + size]
            at += size
        self.rows.count += n
        at = 0
        if self.maxes and len(self.key_chunks[-1]) < CHUNK_MAX:
            keys, chunk_ids = self._own_chunk(len(self.maxes) - 1)
            at = CHUNK_MAX - len(keys)
            keys += tuples[:at]
            chunk_ids += ids[:at]
            self.maxes[-1] = keys[-1]
        for at in range(at, n, CHUNK_MAX):
            self._new_chunk(len(self.maxes), tuples[at : at + CHUNK_MAX], ids[at : at + CHUNK_MAX])
        for pos in sorted({*positions, *self.valued}):
            self._link_column(pos, list(map(itemgetter(pos), tuples)), ids)
        return ids

    def _link_column(self, pos: int, col: list, ids: List[int]):
        """Enter the rows ``ids``, holding ``col`` at ``pos``, in its map,
        each bucket a set made or extended once."""
        kind = type(col[0])
        if kind is RefVal:
            pairs: Iterable = zip(map(_target, col), ids)
        elif kind is TupleVal:
            pairs = ((key, rowid) for v, rowid in zip(col, ids) for key in iter_refs(v[2]))
        else:
            pairs = zip(col, ids)
        groups: Dict[object, Set[int]] = {}
        for key, rowid in pairs:
            rows = groups.get(key)
            if rows is None:
                groups[key] = {rowid}
            else:
                rows.add(rowid)
        if not groups:  # a map is never empty
            return
        owned = self.owned
        pages = self.maps.setdefault(pos, {})
        for key, rows in groups.items():
            n = _page_of(key)
            page = pages.get(n)
            if page is None or id(page) not in owned:
                page = self._own(pages, n, page, dict)
            bucket = page.get(key)
            if bucket is None:
                page[key] = rows
                owned.add(id(rows))
            else:
                self._own(page, key, bucket, set).update(rows)

    def index_values(self, pos: int):
        """Give scalar position ``pos`` its map, built from the rows."""
        self.maps[pos] = {}  # kept when there are no rows
        rows = list(self.rows.items())
        if rows:
            self._link_column(pos, [values[pos] for _rowid, values in rows], [rowid for rowid, _values in rows])
        self.valued += (pos,)

    def bucket(self, pos: int, key) -> Iterable[int]:
        """The rows whose entry at ``pos`` is ``key``; only to read."""
        pages = self.maps.get(pos)
        page = None if pages is None else pages.get(_page_of(key))
        return () if page is None else page.get(key, ())


def _page_of(key) -> int:
    """The page of a position map that holds ``key``: the target's row page
    for a reference, whose key is a plain (relation, row) pair, and a hash
    slot for a value, whose class is a subclass of ``tuple``."""
    if type(key) is tuple:
        return key[1] >> ROW_BITS
    return hash(key) & ((1 << ROW_BITS) - 1)


def _empty_row_page() -> List[Optional[tuple]]:
    return [None] * (1 << ROW_BITS)


_lead = itemgetter(0)  # a key's leading value, which ``span`` bisects by
_target = itemgetter(1, 2)  # a reference's (relation, row), its reverse map's key


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
    never written again and may be read concurrently. Forking also seals
    the parent, and a selection builds no value map in a sealed state,
    since a reader may hold it. The catalog reference is the catalog
    version the data conforms to.
    """

    def __init__(self, catalog: Optional[Catalog] = None):
        self.catalog = catalog or Catalog()
        self.indexes: Dict[str, MultitableIndex] = {}
        self.owned: Set[str] = set()  # relations whose index this state may write
        self.sealed = False
        self.building = threading.Lock()  # held while a value map is built
        # relations whose index may hold a deferred update collision's run
        self.runs: Set[str] = set()

    def fork(self, catalog: Optional[Catalog] = None) -> "DbState":
        """A state with the same tuples (under ``catalog``, if given) that
        shares every index with this one; it costs the relation count, and
        each state copies an index on its first write to it."""
        fork = DbState(catalog or self.catalog)
        fork.indexes = dict(self.indexes)
        fork.runs = set(self.runs)
        self.owned = set()
        self.sealed = True
        return fork

    def add_relation(self, rel: RelationDef):
        if rel.klass == "simple" and rel.name not in self.indexes:
            self.indexes[rel.name] = MultitableIndex()
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

    # -- operations

    def insert(self, relation: str, values: tuple, *, rowid=None):
        """Insert a tuple; returns (row id, freshly-inserted flag).

        Duplicate insertion is an idempotent no-op returning the existing id.
        ``rowid`` pins the id of a fresh row (used when a deferred reference
        is being satisfied); it must have been reserved via reserve_rowid.
        The tuple is stored as given, and is its own key, so it must conform
        to the relation.
        """
        idx = self._index(relation)
        maxes = idx.maxes
        c, i = len(maxes), 0
        # a key above the last one is new
        if maxes and values <= maxes[-1]:
            c = bisect_left(maxes, values)
            keys = idx.key_chunks[c]
            i = bisect_left(keys, values)
            if keys[i] == values:
                return idx.id_chunks[c][i], False
        return self._store(relation, values, c, i, rowid), True

    def extend(self, relation: str, tuples: List[tuple], linked: Iterable[int]) -> Optional[List[int]]:
        """Store tuples that rise, the first above the relation's last, as
        new rows, as a snapshot load reads them; returns their row ids, in
        order. ``linked`` must name every position that may hold a
        reference; a value map is kept too. Tuples that do not rise, or do
        not start above the last, are refused: nothing is stored, and the
        result is None. The index is laid out as ``insert`` lays out the
        same tuples."""
        idx = self._index(relation)
        if not tuples:
            return []
        if (idx.maxes and not idx.maxes[-1] < tuples[0]) or not all(map(lt, tuples, islice(tuples, 1, None))):
            return None
        return self._writable(relation).extend(tuples, linked)

    def _store(self, relation: str, values: tuple, c: int, i: int, rowid) -> int:
        """Store a new tuple at slot ``i`` of chunk ``c`` (as
        ``MultitableIndex.place`` takes them) and link it; returns its row
        id."""
        idx = self.indexes[relation]
        if relation not in self.owned:
            idx = self._writable(relation)
        # The row id, the row page and the key's chunk are taken here when
        # this index owns them and the key goes last, as keys inserted in
        # order do; ``new_rowid``, ``_row_page`` and ``place`` do the same in
        # general.
        pages = idx.rows.pages
        if rowid is None:
            rowid = idx.next_rowid
            idx.next_rowid += 1
            if rowid >> ROW_BITS == len(pages):
                pages.append(None)
        owned, n = idx.owned, rowid >> ROW_BITS
        page = pages[n]
        if page is None or id(page) not in owned:
            page = idx._row_page(n)
        page[rowid & ((1 << ROW_BITS) - 1)] = values
        idx.rows.count += 1
        keys = idx.key_chunks[c - 1] if c and c == len(idx.maxes) else None
        if keys is not None and id(keys) in owned and len(keys) < CHUNK_MAX:
            keys.append(values)
            idx.id_chunks[c - 1].append(rowid)
            idx.maxes[c - 1] = values
        else:
            idx.place(c, i, values, rowid)
        idx.link(rowid, values)
        return rowid

    def index_values(self, relation: str, pos: int) -> MultitableIndex:
        """The relation's index, with a map at scalar position ``pos``: one
        built from the rows when there is none yet, which is a write.
        Selections on one state may run concurrently, so one build runs at
        a time, and a map is listed in ``valued`` only once it is whole."""
        idx = self._index(relation)
        if pos not in idx.valued:
            with self.building:
                idx = self._index(relation)
                if pos not in idx.valued:
                    idx = self._writable(relation)
                    idx.index_values(pos)
        return idx

    def reserve_rowid(self, relation: str) -> int:
        return self._writable(relation).new_rowid()

    def get_row(self, relation: str, rowid: int) -> tuple:
        row = self._index(relation).rows.get(rowid)
        if row is None:
            raise RowNotFound(f"no such tuple in relation {relation!r}")
        return row

    def scan(self, relation: str, lead=None) -> Dict[int, tuple]:
        """The rows whose leading value is ``lead``, as a fresh row id ->
        tuple map in key order, each row of a deferred update collision's
        run included; no ``lead`` gives the relation.

        The range is found by bisection over the chunks' largest keys and
        then inside a chunk, so it costs the rows it returns, not the
        relation. A caller checks its other constraints on every row.
        """
        rel = self.catalog.lookup(relation)
        if rel.klass != "simple":
            raise NotEnumerable(f"{relation!r} is a {rel.klass} relation")
        idx = self.indexes[relation]
        key_chunks, id_chunks = idx.key_chunks, idx.id_chunks
        c, lo, d, hi = (0, 0, len(key_chunks), 0) if lead is None else idx.span(lead)
        if c == d:  # the range ends in its first chunk
            return dict(zip(id_chunks[c][lo:hi], key_chunks[c][lo:hi])) if lo < hi else {}
        found = dict(zip(id_chunks[c][lo:], key_chunks[c][lo:]))
        for ids, keys in zip(id_chunks[c + 1 : d], key_chunks[c + 1 : d]):
            found.update(zip(ids, keys))
        if hi:
            found.update(zip(id_chunks[d][:hi], key_chunks[d][:hi]))
        return found

    def referrers(self, relation: str, rowid: int) -> Set[Tuple[str, int]]:
        """Every (relation, row) whose tuple references the given row, which
        need not be stored any more. Only the positions that may hold such
        a reference are read."""
        found = set()
        target = (relation, rowid)
        for q_name, pos in self.catalog.referencing(relation):
            for referrer in self.indexes[q_name].bucket(pos, target):
                found.add((q_name, referrer))
        return found

    def erase(self, relation: str, rowid: int, *, cascade=False):
        """Remove a row; returns the set of (relation, row) pairs removed.

        With cascade, every row referencing it, transitively, goes too.
        Without, only the row goes, and a referrer left behind is the
        caller's to report: a transaction reports it at commit.
        """
        self.get_row(relation, rowid)
        doomed = {(relation, rowid)}
        if cascade:
            frontier = [(relation, rowid)]
            while frontier:
                for pair in self.referrers(*frontier.pop()):
                    if pair not in doomed:
                        doomed.add(pair)
                        frontier.append(pair)
        for rel_name, rid in doomed:
            self._remove_row(rel_name, rid)
        return doomed

    def _remove_row(self, relation: str, rowid: int):
        idx = self._writable(relation)
        values = idx.pop_row(rowid)
        idx.release(values, rowid)
        idx.unlink(rowid, values)

    def rekey(self, relation: str, rowid: int, new_values) -> bool:
        """Replace a row's tuple in place, preserving its row id; the new
        tuple is stored as given, unless it equals the old one.

        Returns True when the new key collided with a different live row. The
        row is then stored after the key's earlier holders, and the caller
        must resolve the collision (a transaction aborts at commit).
        """
        old_values = self.get_row(relation, rowid)
        if new_values == old_values:
            return False
        idx = self._writable(relation)
        idx.replace_row(rowid, new_values)
        idx.release(old_values, rowid)
        maxes = idx.maxes
        c = bisect_right(maxes, new_values)
        i = bisect_right(idx.key_chunks[c], new_values) if c < len(maxes) else 0
        # the entry before the new one: the previous slot, or the end of the
        # previous chunk
        collided = (i > 0 and idx.key_chunks[c][i - 1] == new_values) or (
            i == 0 and c > 0 and maxes[c - 1] == new_values
        )
        idx.place(c, i, new_values, rowid)
        if collided:
            self.runs.add(relation)
        # relink only the positions whose value changed: a position masked
        # to None holds no reference
        pairs = list(zip(old_values, new_values))
        idx.unlink(rowid, [a if a != b else None for a, b in pairs])
        idx.link(rowid, [b if a != b else None for a, b in pairs])
        return collided
