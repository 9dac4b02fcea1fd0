"""The entry point: script runner, REPL, output formatting, and snapshots.

Formatting lives here and only here; it never alters the tuple set it
renders, and ordering requested at the output level is a formatting concern,
not a relational one.

Formatting is by column: each column of an output's tuples, or of a
relation's rows in a snapshot, is written in one pass by the writer for its
value type (``_Cells``), and each row is assembled from its columns' cells
once. An inline tuple's members are written as sub-columns. An output
formats each distinct row a reference column names once, those rows in
turn column by column; a snapshot writes a reference as its target's
``#<relation>:<ordinal>``, formatted once per target row.

Value order: every output lists its tuples, and every snapshot its rows, in
the order of their values (``values.py``, the order of their keys) with
each reference replaced by the tuple it references. So it depends on values
only, never on row ids or on the history of inserts. ``order_key`` builds
every such sort key; ``order`` attributes sort on top of value order,
stably, and by the values themselves where no ordered column holds a
reference or an inline tuple.

Snapshot format (text, deterministic byte for byte):

    ;; relang snapshot v1
    <one canonical definition per line, in definition order>
    <blank line>
    row <relation> <ordinal> {v1 ... vn}

Rows appear per relation in value order with ordinals from 1; a reference
is written #<relation>:<ordinal>. Ordering by the target's ordinal orders by
the target's values, so a save/load/save cycle is a fixed point. Where the
ordinals of every relation a relation references rise with their row ids,
as in any loaded database, value order is the relation's stored key order,
and saving reads it off the index without sorting.

Cells are separated by single spaces, and ordinals have no leading zeros.
Loading reads back only what saving writes: each definition as saving
renders it, canonical scalar literals and text escapes, rows in ordinal and
value order, references to rows loaded above, no duplicate row, and that
spacing.

Loading reads a relation's rows in blocks (``load_snapshot``). One
anchored pattern per relation, compiled on its first row from its domains
(an inline tuple's recursively), matches a row line, and a block's cells
are read column by column into tuples, which are their own keys. A
reference names its target's row by ordinal, since the load makes each
row's id its ordinal. A row the pattern refuses takes no other path:
``_diagnose_row`` only names its fault, walking the same cells one token
at a time by the pattern's own cell patterns, and raises the first fault
from the left, or else that the row is not in the form saving writes.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
import re
import sys
from itertools import chain, count, islice, repeat
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from . import store, syntax
from .catalog import SCALAR_TYPES, Catalog, RelationDef
from .errors import (
    DanglingOrdinal,
    DomainTypeMismatch,
    RelangError,
    SnapshotFormatError,
    SourceError,
    UnknownAttr,
    echo,
)
from .evaluator import TupleSet
from .store import DbState
from .txn import CommitReport, Database, OutputRequest
from .values import (
    IntVal,
    RealVal,
    RefVal,
    TextVal,
    TimestampVal,
    TupleVal,
    Value,
    parse_timestamp,
    quote_text,
    render_scalar,
    ref_column,
    render_timestamp,
    text_column,
    tuple_column,
    unescape_text,
)

PROMPT = "relang> "
SNAPSHOT_HEADER = ";; relang snapshot v1"


# --- formatting ---------------------------------------------------------------


def _distinct(render):
    """A column writer that renders each distinct value of its column once."""

    def write(col) -> List[str]:
        texts = {v: render(v) for v in set(col)}
        return list(map(texts.__getitem__, col))

    return write


def _quoted(col) -> List[str]:
    """Each text of a column as ``quote_text`` writes it, the whole column
    escaped in one pass: NUL, which no escape writes, separates the texts,
    unless one holds it."""
    texts = list(map(_value, col))
    joined = "\x00".join(texts)
    if joined.count("\x00") != len(texts) - 1:
        return list(map(quote_text, texts))
    return quote_text(joined).replace("\x00", '"\x00"').split("\x00")


# Scalar column writers by value type, one set per format, each writing a
# column of its type in one pass. Human-facing cells show text bare and
# every other scalar as its canonical literal (``render_scalar``);
# s-expression cells are literals that read back, timestamps included;
# snapshot cells are canonical literals. Writers read a value's fields by
# their place in its tuple (``values``).
_value = itemgetter(1)
_PLAIN = {
    TextVal: lambda col: list(map(_value, col)),
    IntVal: lambda col: list(map(str, map(_value, col))),
    RealVal: lambda col: list(map(repr, map(_value, col))),
    TimestampVal: _distinct(render_timestamp),
}
_SNAPSHOT = {**_PLAIN, TextVal: _quoted}
_SEXPR = {**_SNAPSHOT, TimestampVal: _distinct(lambda v: f'(timestamp "{render_timestamp(v)}")')}


class _Cells:
    """The cells of one output or one snapshot, written column by column.

    A column of one value type is written in one pass: a scalar column by
    its type's writer in ``scalars``, an inline tuple column as its
    members' columns, and a reference column as its targets' cells,
    ``targets[relation][row id]``. A snapshot is given those cells, each
    ``#<relation>:<ordinal>``. An output formats each target row the first
    time a column names it, through ``get_row``, those rows in turn column
    by column, and keeps its cell for the whole output. A column holds one
    value type, as a column's domain is one type and a union converts the
    ints it widens to reals."""

    def __init__(self, scalars, get_row=None, targets=None):
        self.scalars = scalars
        self.get_row = get_row
        self.targets: Dict[str, Dict[int, str]] = {} if targets is None else targets

    def column(self, col) -> List[str]:
        kind = type(col[0])
        if kind is TupleVal:
            return self.braced(list(map(itemgetter(2), col)))
        if kind is not RefVal:
            return self.scalars[kind](col)
        rel = col[0][1]  # a column's references all name its type's relation
        cells, rows = self.targets.setdefault(rel, {}), list(map(itemgetter(2), col))
        if self.get_row is not None:
            missing = [row for row in dict.fromkeys(rows) if row not in cells]
            if missing:
                cells.update(zip(missing, self.braced([self.get_row(rel, row) for row in missing])))
        return list(map(cells.__getitem__, rows))

    def columns(self, rows) -> List[List[str]]:
        """The cells of tuples of one shape, by column. Each column is read
        off the rows by one ``map``: ``zip(*rows)`` would hold an iterator
        per row, enough to set off the cyclic collector on a large output."""
        return [self.column(list(map(itemgetter(i), rows))) for i in range(len(rows[0]) if rows else 0)]

    def braced(self, rows) -> List[str]:
        """Each tuple's cells, in braces."""
        return ["{" + cells + "}" for cells in map(" ".join, zip(*self.columns(rows)))]


def order_key(values, ref_key) -> tuple:
    """The value-order key of a tuple: its values, with each reference
    replaced by ``ref_key(reference)`` and each inline tuple by its
    members' order key."""
    return tuple([
        ref_key(v) if type(v) is RefVal
        else order_key(v.values, ref_key) if type(v) is TupleVal
        else v
        for v in values
    ])


def _target_keys(get_row):
    """A ``ref_key`` giving each reference its target's order key, memoised
    for one output."""
    target_key = functools.cache(lambda rel, row: order_key(get_row(rel, row), ref_key))
    ref_key = lambda v: target_key(v.relation, v.row)
    return ref_key


def _referenced(catalog: Catalog, type_name: str) -> set:
    """The simple relations a value of the type may reference, those of
    the references an inline tuple holds included."""
    if type_name in SCALAR_TYPES:
        return set()
    rel = catalog.lookup(type_name)
    if rel.klass == "simple":
        return {type_name}
    return set().union(*[_referenced(catalog, dom.type_name) for dom in rel.domains])


def _rising(state: DbState, name: str, memo: Dict[str, bool]) -> bool:
    """Whether the relation's row ids rise with its value order, as far as
    its key order shows: no update collision is pending in it (a run holds
    one tuple under several ids), every relation it references rises, so it
    is in value order as stored (see ``_export_orders``), and its row ids
    rise in key order. ``memo`` holds the relations judged already: one
    output's, or a sealed state's own ``rising``. A sealed state is not
    written through a transaction, but a caller may still fill a published
    state directly (``load_snapshot`` does); such a write must be followed
    by ``Database.refresh``, which drops the kept verdicts."""
    got = memo.get(name)
    if got is None:
        idx = None if name in state.runs else state.indexes.get(name)
        got = memo[name] = idx is not None and _stored_in_value_order(state, name, memo) and _ids_rise(idx.id_chunks)
    return got


def _ids_rise(id_chunks) -> bool:
    """Whether the row ids rise across the chunks: each chunk's first above
    the previous chunk's last, and each chunk sorted (compared in C), up to
    the first chunk that drops."""
    last = 0
    for ids in id_chunks:
        if ids[0] < last or ids != sorted(ids):
            return False
        last = ids[-1]
    return True


def _stored_in_value_order(state: DbState, type_name: str, memo: Dict[str, bool]) -> bool:
    """Whether tuples of the type are in value order when in key order:
    every relation they may reference rises."""
    catalog = state.catalog
    refs = set().union(*[_referenced(catalog, dom.type_name) for dom in catalog.lookup(type_name).domains])
    return all(_rising(state, t, memo) for t in refs)


def _output(result: TupleSet, state: DbState, order_attrs, scalars) -> Tuple[List[tuple], _Cells]:
    """The result's tuples in value order (as stored when every relation
    its columns reference rises), then sorted stably by its ``order``
    attributes, and the cells that write them; the sort and the cells read
    each target row once."""
    positions = [result.attr_index(attr) for attr in order_attrs]
    if None in positions:
        raise UnknownAttr(f"no attribute {order_attrs[positions.index(None)]!r} to order by")
    tuples, get_row = result.tuples(), state.get_row
    memo = state.rising if state.sealed else {}
    refs = set().union(*[_referenced(state.catalog, col.type_name) for col in result.schema])
    stored = all(_rising(state, t, memo) for t in refs)
    scalar = all(result.schema[p].type_name in SCALAR_TYPES for p in positions)
    if not (stored and scalar):  # a sort by target rows, which the cells then share
        get_row = functools.cache(get_row)
        ref_key = _target_keys(get_row)
    if not stored:
        tuples.sort(key=lambda t: order_key(t, ref_key))
    if not scalar:
        tuples.sort(key=lambda t: order_key([t[p] for p in positions], ref_key))
    elif positions:
        tuples.sort(key=itemgetter(*positions))  # ``order_key`` keeps a scalar as it is
    return tuples, _Cells(scalars, get_row)


def format_result(result, fmt: str, state: DbState, order_attrs=()) -> str:
    """Render an evaluation result in one of the three formats."""
    if isinstance(result, bool):
        return "true" if result else "false"
    if not isinstance(result, TupleSet):
        return render_scalar(result)
    if fmt == "sexpr":
        return format_sexpr(result, state, order_attrs)
    if fmt == "csv":
        return format_csv(result, state, order_attrs)
    if fmt == "tabular":
        return format_tabular(result, state, order_attrs)
    raise RelangError(f"unknown format {fmt!r}")


def format_sexpr(result: TupleSet, state: DbState, order_attrs=()) -> str:
    if result.schema is None or len(result) == 0:
        return "()"
    tuples, cells = _output(result, state, order_attrs, _SEXPR)
    return "(" + " ".join(cells.braced(tuples)) + ")"


def format_csv(result: TupleSet, state: DbState, order_attrs=()) -> str:
    if result.schema is None:
        return ""
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow([col.attr for col in result.schema])
    tuples, cells = _output(result, state, order_attrs, _PLAIN)
    writer.writerows(zip(*cells.columns(tuples)))
    return buf.getvalue().rstrip("\n")


def format_tabular(result: TupleSet, state: DbState, order_attrs=()) -> str:
    if result.schema is None:
        return "(empty set)"
    headers = [col.attr for col in result.schema]
    tuples, cells = _output(result, state, order_attrs, _PLAIN)
    columns = cells.columns(tuples) or [[] for _h in headers]
    widths = [max(len(h), max(map(len, col), default=0)) for h, col in zip(headers, columns)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    # each line is stripped on the right, so the last column needs no padding
    padded = [[cell.ljust(w) for cell in col] for col, w in zip(columns[:-1], widths)] + columns[-1:]
    lines += map(str.rstrip, map("  ".join, zip(*padded)))
    return "\n".join(lines)


# --- snapshots ----------------------------------------------------------------


def _export_orders(catalog: Catalog, state: DbState) -> Tuple[Dict[str, List[tuple]], Dict[str, List[int]]]:
    """Per relation, its tuples in value order, and their row ids in that
    order; a row's export ordinal is its place there, from 1.

    A reference's order key is its target's ordinal, which ranks targets in
    their own value order, and in key order it ranks by its target's row
    id. So a relation is in value order as stored when every relation it
    references has ordinals that rise with their row ids, and so is a
    relation that holds no reference; only the others are sorted by order
    key. Ordinals rise with row ids in any loaded database (there they are
    equal) and after appends in key order.
    """
    orders: Dict[str, Dict[int, int]] = {}  # row id -> export ordinal
    rows: Dict[str, List[tuple]] = {}
    ordered: Dict[str, List[int]] = {}
    rising: Dict[str, bool] = {}  # whether a relation's ordinals rise with its row ids
    ref_key = lambda v: orders[v.relation][v.row]

    # definition order puts every relation after those it references
    for name in catalog.names():
        if catalog.lookup(name).klass != "simple":
            continue
        idx = state.indexes.get(name)
        if idx is None:
            continue
        if _stored_in_value_order(state, name, rising):
            rowids = list(chain.from_iterable(idx.id_chunks))
            rows[name] = list(chain.from_iterable(idx.key_chunks))
        else:
            pages, bits = idx.rows.pages, store.ROW_BITS
            keyed = sorted(
                (order_key(values, ref_key), (n << bits) + i, values)
                for n, page in enumerate(pages)
                if page is not None
                for i, values in enumerate(page)
                if values is not None
            )
            rowids = [rowid for _k, rowid, _v in keyed]
            rows[name] = [values for _k, _r, values in keyed]
        ordered[name] = rowids
        orders[name] = dict(zip(rowids, count(1)))
        rising[name] = rowids == sorted(rowids)
    return rows, ordered


def _definition_line(rel: RelationDef) -> str:
    """A catalog entry's line in a snapshot: its canonical definition."""
    klass = {"simple": "relation", "domain": "domain", "function": "function"}[rel.klass]
    domains = tuple(
        syntax.DomainSpec(d.attr if d.attr != d.type_name else None, d.type_name)
        for d in rel.domains
    )
    return syntax.render(syntax.Definition(klass, rel.name, domains, rel.body))


def save_snapshot(db: Database) -> str:
    """Serialize catalog and published state; byte-deterministic."""
    catalog, state = db.catalog, db.published
    lines = [SNAPSHOT_HEADER, *[_definition_line(catalog.lookup(name)) for name in catalog.names()], ""]
    rows, ordered = _export_orders(catalog, state)
    refs: Dict[str, Dict[int, str]] = {}  # each referenced row's cell, formatted once
    cells = _Cells(_SNAPSHOT, targets=refs)
    for name, rowids in ordered.items():
        ordinals = list(map(str, range(1, len(rowids) + 1)))
        if catalog.referencing(name):  # before its referrers, which come later in definition order
            refs[name] = dict(zip(rowids, map(f"#{name}:".__add__, ordinals)))
        prefix = f"row {name} "
        values = map(" ".join, zip(*cells.columns(rows[name])))
        lines += [f"{prefix}{ordinal} {{{text}}}" for ordinal, text in zip(ordinals, values)]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=4096)
def _read_atom(token: str, expected: str) -> Optional[Value]:
    """The scalar a canonical literal spells, or None. Only the
    canonical literal is read (``1_0``, ``+5`` and ``1e3`` are not), so every
    snapshot that loads is one that saving writes back byte for byte.
    Cached, since a snapshot repeats its literals (a year, a count) many
    times."""
    try:
        if expected == "int":
            value = IntVal(int(token))
        elif expected == "real":
            value = RealVal(float(token))
        elif expected == "timestamp":
            value = parse_timestamp(token)
        else:
            return None
    except (ValueError, RelangError):
        return None
    return value if render_scalar(value) == token else None


# The cells of a row as ``save_snapshot`` writes them: a text with only
# the escapes ``quote_text`` writes (and so no raw tab or carriage return),
# and a scalar literal, whose canonical form ``_read_atom`` checks.
_TEXT_CELL = r'"([^"\\\t\r]*(?:\\["\\ntr][^"\\\t\r]*)*)"'
_ATOM_CELL = r'([^ {}"]+)'


def _cell_pattern(rel: RelationDef, catalog: Catalog, refs, leaves: list, shape: list) -> str:
    """The pattern of a tuple's cells under ``rel``, one group per scalar or
    reference cell: a reference ``#<target>:<ordinal>`` (of at most 19
    digits, as no row count has more), an inline tuple its cells in braces.
    Appends what each group holds to ``leaves``: a scalar type, or the list
    of references to the target's loaded rows, by ordinal; and to ``shape``
    None per such cell of this tuple and ``(domain, inner shape)`` per
    inline tuple."""
    cells = []
    for dom in rel.domains:
        kind = dom.type_name
        if kind in SCALAR_TYPES:
            cells.append(_TEXT_CELL if kind == "text" else _ATOM_CELL)
            leaves.append(kind)
            shape.append(None)
        elif catalog.lookup(kind).klass == "simple":
            cells.append(f"#{re.escape(kind)}:([1-9][0-9]{{0,18}})")
            leaves.append(refs[kind])
            shape.append(None)
        else:
            inner: list = []
            cells.append(r"\{" + _cell_pattern(catalog.lookup(kind), catalog, refs, leaves, inner) + r"\}")
            shape.append((kind, inner))
    return " ".join(cells)


def _nest_columns(shape, cols) -> list:
    """The columns of tuples of ``shape`` made of the flat ``cols``
    iterator, one column per ``_cell_pattern`` group."""
    return [next(cols) if s is None else tuple_column(s[0], zip(*_nest_columns(s[1], cols))) for s in shape]


class _RowBlocks:
    """The rows of one relation, read and stored a block at a time (see
    ``load_snapshot``). One anchored pattern matches a row line: its
    ordinal is the first group, then come one group per scalar or
    reference cell (``_cell_pattern``). A block's cells are read column by
    column into the relation's tuples."""

    def __init__(self, rel: RelationDef, catalog: Catalog, state: DbState, refs):
        self.rel, self.catalog, self.state, self.refs = rel, catalog, state, refs
        # the positions that may hold a reference
        self.linked = sorted({pos for target in refs for q, pos in catalog.referencing(target) if q == rel.name})
        self.leaves: list = []
        self.shape: list = []
        cells = _cell_pattern(rel, catalog, refs, self.leaves, self.shape)
        self.match = re.compile(rf"row {re.escape(rel.name)} ([1-9][0-9]{{0,18}}) \{{{cells}\}}").fullmatch

    def load(self, lines: List[str], at: int) -> int:
        """Load the relation's rows from ``lines[at]`` on, at most
        ``CHUNK_MAX`` of them, up to the first line the pattern refuses;
        returns the index after them."""
        end, rows = self.read(lines, at, min(at + store.CHUNK_MAX, len(lines)))
        if end == at:  # the pattern refuses the first row
            self.refuse(lines[at], at + 1)
        if rows is None or not self.store(rows):
            # a fault in the block: read it again row by row, up to the fault
            for k in range(at, end):
                rows = self.read(lines, k, k + 1)[1]
                if rows is None:
                    self.refuse(lines[k], k + 1)
                if not self.store(rows):
                    if self.state.indexes[self.rel.name].first(rows[0]) is not None:
                        raise SnapshotFormatError(f"duplicate row in {self.rel.name!r}", k + 1)
                    raise SnapshotFormatError(f"row out of value order in {self.rel.name!r}", k + 1)
        return end

    def read(self, lines: List[str], at: int, stop: int) -> Tuple[int, Optional[List[tuple]]]:
        """The index after the lines from ``at`` (up to ``stop``) that the
        pattern matches, and the tuples of those rows; None for the tuples
        where a row holds an ordinal out of turn, a non-canonical literal,
        a lone surrogate or a reference to no loaded row."""
        width = len(self.leaves) + 1
        cells: list = []
        for m in map(self.match, islice(lines, at, stop)):  # no match outlives its line
            if m is None:
                break
            cells += m.groups()
        n = len(cells) // width
        first = len(self.state.indexes[self.rel.name].rows) + 1
        if not n or cells[::width] != list(map(str, range(first, first + n))):
            return at + n, None
        cols = []
        for g, leaf in enumerate(self.leaves, 1):
            col = cells[g::width]
            if leaf == "text":
                if any(map(str.__contains__, col, repeat("\\"))):
                    col = list(map(unescape_text, col))
                try:
                    col = text_column(col)
                except DomainTypeMismatch:  # a lone surrogate
                    return at + n, None
            elif type(leaf) is list:  # the references to the target's rows, by ordinal
                col = list(map(int, col))
                if max(col) >= len(leaf):
                    return at + n, None
                col = list(map(leaf.__getitem__, col))
            else:
                col = list(map(_read_atom, col, repeat(leaf)))
                if not all(col):  # a value is a non-empty tuple
                    return at + n, None
            cols.append(col)
        return at + n, list(zip(*_nest_columns(self.shape, iter(cols))))

    def store(self, rows: List[tuple]) -> bool:
        """Store rows that rise above the relation's last, each under its
        ordinal as its row id; False, storing nothing, for rows that do
        not."""
        name = self.rel.name
        ids = self.state.extend(name, rows, self.linked)
        if ids is None:
            return False
        if name in self.refs:
            self.refs[name] += ref_column(name, ids)
        return True

    def refuse(self, line: str, line_no: int):
        """Raise the fault in a row line the block reader refuses."""
        _row, _name, ordinal_text, rest = line.split(" ", 3)
        expected = len(self.state.indexes[self.rel.name].rows) + 1
        _diagnose_row(self.rel, ordinal_text, expected, rest, self.catalog, self.refs, line_no)


# One token of a row its reader refused, after any spaces: a brace, a text
# cell, an atom cell (a scalar literal or a reference), or a quote that
# opens no text cell, taken up to its closing quote if it has one.
_CELL_TOKEN = re.compile(rf' *(?:([{{}}])|{_TEXT_CELL}|{_ATOM_CELL}|("(?:[^"\\]|\\.)*)(")?)', re.S)


def _shown(digits: str) -> str:
    """Digits as an error names them: a run too long for any ordinal by its length."""
    return digits if len(digits) <= 19 else f"<{len(digits)} digits>"


def _next_token(text: str, at: int, line_no: int):
    """The token at ``at`` of a refused row's values, what it holds and the
    offset after it: a brace, a ``text`` (its string), an ``atom``, a
    ``ref`` ((relation, ordinal digits)), or "" at the end. A text cell but
    for a raw tab or carriage return, which saving escapes, is a text."""
    m = _CELL_TOKEN.match(text, at)
    if m is None:
        return "", None, len(text)
    brace, quoted, atom, bad, closed = m.groups()
    if bad is not None:
        if not closed:
            raise SnapshotFormatError("unterminated text in row", line_no)
        if not re.fullmatch(_TEXT_CELL, bad.replace("\t", " ").replace("\r", " ") + closed):
            raise SnapshotFormatError(f"non-canonical escape in text {echo(bad + closed, quote=False)}", line_no)
        quoted = bad[1:]
    if quoted is not None:
        return "text", unescape_text(quoted), m.end()
    if brace or atom[0] != "#":
        return brace or "atom", atom, m.end()
    rel, colon, ordinal = atom[1:].partition(":")
    if not colon or not (ordinal.isascii() and ordinal.isdigit()):
        raise SnapshotFormatError(f"malformed reference {echo(atom, quote=False)}", line_no)
    return "ref", (rel, ordinal), m.end()


def _diagnose_tuple(rel: RelationDef, text: str, at: int, closer: str, catalog: Catalog, refs, line_no: int) -> int:
    """Check the cells of a tuple of ``rel`` at ``text[at:]`` up to its
    ``closer`` ("}", or "" for the row's end) from the left: raise the first
    fault, or return the offset after the closer. Cells past the arity are
    counted, an inline tuple as one, to name the arity fault."""
    count = 0
    kind, cell, at = _next_token(text, at, line_no)
    for domain in [dom.type_name for dom in rel.domains]:
        if kind in ("}", ""):
            break
        count += 1
        if domain in SCALAR_TYPES:
            if kind == "atom":
                if _read_atom(cell, domain) is None:
                    raise SnapshotFormatError(f"{echo(cell)} is not a canonical {domain} literal", line_no)
            elif (kind, domain) != ("text", "text"):
                raise SnapshotFormatError(f"expected a {domain} literal", line_no)
            else:
                try:
                    TextVal(cell)
                except DomainTypeMismatch as exc:  # a lone surrogate
                    raise SnapshotFormatError(str(exc), line_no) from None
        elif catalog.lookup(domain).klass != "simple":
            if kind != "{":
                raise SnapshotFormatError(f"expected an inline {domain} tuple", line_no)
            at = _diagnose_tuple(catalog.lookup(domain), text, at, "}", catalog, refs, line_no)
        elif kind != "ref" or cell[0] != domain:
            raise SnapshotFormatError(f"expected a #{domain} reference", line_no)
        else:
            digits = cell[1].lstrip("0") or "0"
            if digits == "0" or len(digits) > 19 or int(digits) >= len(refs[domain]):
                raise DanglingOrdinal(f"#{domain}:{_shown(digits)} does not name a loaded row")
        kind, cell, at = _next_token(text, at, line_no)
    depth = 0  # of the braces open in the cells past the arity
    while depth or kind not in ("}", ""):
        if not kind:
            raise SnapshotFormatError("unterminated inline tuple", line_no)
        if not depth:
            count += 1
        depth += (kind == "{") - (kind == "}")
        kind, cell, at = _next_token(text, at, line_no)
    if kind != closer:
        raise SnapshotFormatError("unterminated inline tuple" if closer else "unbalanced '}' in row", line_no)
    if count != rel.arity:
        raise SnapshotFormatError(f"{rel.name!r} takes {rel.arity} values, got {count}", line_no)
    return at


def _diagnose_row(rel: RelationDef, ordinal_text: str, expected: int, rest: str, catalog: Catalog, refs, line_no: int):
    """Raise the fault in a row its relation's reader refused: the first
    from the left, or else that the row is not in the form saving writes
    (``01`` for ``1``, two spaces for one, a raw tab in a text)."""
    if not (ordinal_text.isascii() and ordinal_text.isdigit()):
        raise SnapshotFormatError(f"malformed ordinal {echo(ordinal_text)}", line_no)
    digits = ordinal_text.lstrip("0") or "0"
    if digits != str(expected):
        raise SnapshotFormatError(f"ordinal {_shown(digits)} out of order (expected {expected})", line_no)
    if not (rest.startswith("{") and rest.endswith("}")):
        raise SnapshotFormatError("row values must be brace-enclosed", line_no)
    _diagnose_tuple(rel, rest[1:-1], 0, "", catalog, refs, line_no)
    raise SnapshotFormatError("row is not in the form saving writes", line_no)


def load_snapshot(text: str) -> Database:
    """Rebuild a database from snapshot text.

    The rows are read in blocks: a run of consecutive lines of one
    relation, at most ``store.CHUNK_MAX`` of them, up to the first line the
    relation's pattern refuses. A block's ordinals must count on from the
    relation's last, its literals be canonical, its texts hold no lone
    surrogate, its references name loaded rows, and its tuples rise, the
    first above the relation's last stored; it is then stored by one
    ``DbState.extend``. A block that fails any of these is read again row
    by row up to its first faulty row, and that row's fault is raised;
    then a line the pattern refused is diagnosed. So every error keeps its
    class, message and line, and the first fault from the top wins; no
    row of a snapshot that loads goes through ``_diagnose_row``."""
    lines = text.split("\n")
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise SnapshotFormatError("missing snapshot header", 1)
    db = Database()
    i = 1
    while i < len(lines) and lines[i].strip():
        try:
            stmts = syntax.parse_script(lines[i])
        except SourceError as exc:
            raise SnapshotFormatError(f"bad definition: {exc}", i + 1) from exc
        for stmt in stmts:
            if not isinstance(stmt, syntax.Definition):
                raise SnapshotFormatError("expected a definition", i + 1)
            db.execute(stmt)
        if [lines[i]] != [_definition_line(db.catalog.lookup(stmt.name)) for stmt in stmts]:
            raise SnapshotFormatError("definition is not in the form saving writes", i + 1)
        i += 1
    if i >= len(lines):
        raise SnapshotFormatError("missing data section", len(lines))
    catalog, state = db.catalog, db.published
    relations = {name: catalog.lookup(name) for name in catalog.names()}
    # the references to each referenced relation's loaded rows, by ordinal
    # (no row has ordinal 0)
    refs: Dict[str, list] = {name: [None] for name in relations if catalog.referencing(name)}
    blocks: Dict[str, _RowBlocks] = {}  # per relation with a row, its reader
    i += 1  # after the blank separator
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[0] != "row":
            raise SnapshotFormatError(f"malformed row line: {echo(line)}", i + 1)
        rel_name = parts[1]
        reader = blocks.get(rel_name)
        if reader is None:
            rel = relations.get(rel_name)
            if rel is None:
                raise SnapshotFormatError(f"row for undefined relation {rel_name!r}", i + 1)
            if rel.klass != "simple":
                raise SnapshotFormatError(f"{rel_name!r} stores no rows", i + 1)
            reader = blocks[rel_name] = _RowBlocks(rel, catalog, state, refs)
        # every reference names a row loaded above, so no pass over the
        # loaded state is needed afterwards
        i = reader.load(lines, i)
    db.refresh()
    return db


# --- the command line -----------------------------------------------------------


def _default_format(stream) -> str:
    return "tabular" if stream.isatty() else "sexpr"


class Session:
    """Shared statement execution for script mode and the REPL."""

    def __init__(self, db: Database, out, fmt: Optional[str], echo_commits=False):
        self.db = db
        self.out = out
        self.fmt = fmt
        self.echo_commits = echo_commits

    def execute(self, stmt) -> None:
        result = self.db.execute(stmt)
        if result is None:
            return
        if isinstance(result, CommitReport):
            if self.echo_commits:
                print(result.describe(), file=self.out)
            return
        if isinstance(result, OutputRequest):
            fmt = self.fmt or result.format_name or _default_format(self.out)
            text = format_result(result.value, fmt, self.db.reading(), result.order_attrs)
            print(text, file=self.out)
            return
        if isinstance(result, TupleSet) and not isinstance(stmt, syntax.BareQuery):
            return  # DML return values are discarded unless bound or queried
        fmt = self.fmt or _default_format(self.out)
        print(format_result(result, fmt, self.db.reading()), file=self.out)


def _report_error(exc: Exception, err, line=None, column=None) -> None:
    name = type(exc).__name__
    where = ""
    if line is not None and not (isinstance(exc, SourceError) and exc.line is not None):
        where = f" (statement at line {line}, column {column})"
    print(f"error: {name}: {exc}{where}", file=err)


def run(argv=None, *, stdin=None, stdout=None, stderr=None) -> int:
    """CLI entry: run scripts and statements, or start a REPL."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr

    parser = argparse.ArgumentParser(
        prog="relang",
        description="Interpreter for the relational s-expression data language.",
    )
    parser.add_argument("files", nargs="*", metavar="FILE", help="script files to run")
    parser.add_argument(
        "-e", dest="statements", action="append", default=[], metavar="STMT",
        help="execute a statement (repeatable)",
    )
    parser.add_argument("--db", metavar="SNAPSHOT", help="load a snapshot before running")
    parser.add_argument("--save", metavar="SNAPSHOT", help="save a snapshot after success")
    parser.add_argument(
        "--format", choices=["tabular", "csv", "sexpr"], help="force an output format"
    )
    parser.add_argument(
        "--dump", action="store_true", help="print the snapshot to standard output"
    )
    args = parser.parse_args(argv)

    try:
        if args.db:
            with open(args.db, "r", encoding="utf-8") as fh:
                db = load_snapshot(fh.read())
        else:
            db = Database()
    except (OSError, RelangError) as exc:
        _report_error(exc, stderr)
        return 1

    session = Session(db, stdout, args.format)
    sources = []
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        except OSError as exc:
            print(f"error: {exc}", file=stderr)
            return 1
    for text in args.statements:
        sources.append(("<-e>", text))

    if not sources:
        interactive = hasattr(stdin, "isatty") and stdin.isatty()
        if interactive:
            return _repl(db, stdin, stdout, stderr, args)
        sources.append(("<stdin>", stdin.read()))

    for origin, text in sources:
        line = column = None
        try:
            for stmt, line, column in syntax.iter_statements(text):
                session.execute(stmt)
                line = column = None  # an error parsing the next one is not this one's
        except RelangError as exc:
            print(f"{origin}: ", end="", file=stderr)
            _report_error(exc, stderr, line, column)
            return 1

    if db.uncommitted_steps:
        print(
            f"warning: {db.uncommitted_steps} uncommitted statement(s) discarded"
            " (no commit)",
            file=stderr,
        )
    return _finish(db, args, stdout, stderr)


def _finish(db: Database, args, stdout, stderr) -> int:
    try:
        if args.save:
            with open(args.save, "w", encoding="utf-8") as fh:
                fh.write(save_snapshot(db))
        if args.dump:
            stdout.write(save_snapshot(db))
    except (OSError, RelangError) as exc:
        _report_error(exc, stderr)
        return 1
    return 0


def _repl(db: Database, stdin, stdout, stderr, args) -> int:
    try:
        import readline  # noqa: F401  (line editing when available)
    except ImportError:
        pass
    session = Session(db, stdout, args.format, echo_commits=True)
    print("relang interactive shell (end with Ctrl-D; changes need 'commit')", file=stdout)
    while True:
        try:
            line = input(PROMPT)
        except EOFError:
            print("", file=stdout)
            break
        except KeyboardInterrupt:
            print("", file=stdout)
            continue
        if not line.strip():
            continue
        try:
            for stmt in syntax.parse_script(line):
                session.execute(stmt)
        except RelangError as exc:
            _report_error(exc, stderr)
    if db.uncommitted_steps:
        print(
            f"warning: {db.uncommitted_steps} uncommitted statement(s) discarded",
            file=stderr,
        )
    return _finish(db, args, stdout, stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
