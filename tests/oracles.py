"""Independent oracles and random-case generators for the acceptance suite.

The brute-force connection oracle finds the shortest schema path with
networkx (not the engine's search) and then enumerates the full Cartesian
product of every relation on the path, filtering on reference equality along
each edge. It must agree with the engine's chain-join exactly.

The lexing and snapshot oracles are the slow paths the code replaced: a
character loop for the script lexer and one for snapshot rows, a sort of
every relation by its export key for the export order, and a snapshot load
that parses, builds and inserts each row in separate stages. ``by_values``
switches the engine back to finding by its values every row that a set
read, and ``contains_tuple`` is that lookup. The formatting oracles write
every cell through its value type's writer, formatting a referenced row
again for each cell that references it, and sort every output by order key.
``interpret`` is the tree walk that compiled row expressions replaced: it
evaluates an expression node by node on every call, building each constant
again and looking up each pattern, and runs a called function's body the
same way.
"""

import csv
import io
import itertools
import random
import string

import networkx as nx

import relang
from relang import evaluator, parse_script, shell, store, syntax
from relang.catalog import BUILTIN_FUNCTIONS, SCALAR_TYPES
from relang.errors import (
    DanglingOrdinal,
    DomainTypeMismatch,
    IllegalCharacter,
    NotEnumerable,
    SnapshotFormatError,
    TypeMismatch,
    UnterminatedString,
)
from relang.evaluator import TupleSet
from relang.store import iter_refs
from relang.syntax import (
    _PUNCT,
    EQUALS,
    INT_LIT,
    KEYWORD,
    KEYWORDS,
    NAME,
    OPERATOR,
    REAL_LIT,
    TEXT_LIT,
    Token,
)
from relang.txn import CommitReport
from relang.values import (
    IntVal,
    RealVal,
    RefVal,
    TextVal,
    TimestampVal,
    TupleVal,
    encode_tuple,
    encode_value,
    quote_text,
    render_timestamp,
    unescape_char,
)


def schema_multigraph(catalog) -> "nx.MultiGraph":
    g = nx.MultiGraph()
    for name in catalog.names():
        g.add_node(name)
    for edge in catalog.schema_graph().edges:
        g.add_edge(edge.adopter, edge.target, key=edge.label(), edge=edge)
    return g


def all_shortest_edge_paths(catalog, a, b):
    """Every shortest path as a list of Edge objects (parallel edges count
    as distinct paths)."""
    g = schema_multigraph(catalog)
    if a == b:
        return [[]]
    try:
        node_paths = list(nx.all_shortest_paths(g, a, b))
    except nx.NetworkXNoPath:
        return []
    edge_paths = []
    for nodes in node_paths:
        choices = []
        for u, v in zip(nodes, nodes[1:]):
            parallel = [d["edge"] for d in g.get_edge_data(u, v).values()]
            choices.append(parallel)
        for combo in itertools.product(*choices):
            edge_paths.append(list(combo))
    return edge_paths


def brute_force_connection(db, target, source_tuples, source_relation):
    """Connected (target ++ source) pairs by full product enumeration."""
    catalog, state = db.catalog, db.txn.shadow
    paths = all_shortest_edge_paths(catalog, target, source_relation)
    assert len(paths) == 1, f"oracle requires a unique path, got {len(paths)}"
    path = paths[0]
    names = [target]
    for edge in path:
        names.append(edge.target if names[-1] == edge.adopter else edge.adopter)
    row_lists = [sorted(state.indexes[n].rows.items()) for n in names]
    source_set = set(map(tuple, source_tuples))
    results = set()
    for combo in itertools.product(*row_lists):
        ok = True
        for i, edge in enumerate(path):
            a_rel, b_rel = names[i], names[i + 1]
            (a_rid, a_tup), (b_rid, b_tup) = combo[i], combo[i + 1]
            if edge.adopter == a_rel:
                ok = a_tup[edge.position] == RefVal(b_rel, b_rid)
            else:
                ok = b_tup[edge.position] == RefVal(a_rel, a_rid)
            if not ok:
                break
        if ok and tuple(combo[-1][1]) in source_set:
            results.add(tuple(combo[0][1]) + tuple(combo[-1][1]))
    return results


def tuple_set(schema, tuples, relation=None):
    """A set built from the tuples' values: it holds no row ids, so every
    consumer finds its tuples' rows by key."""
    return TupleSet(schema, relation, dict.fromkeys(map(tuple, tuples)))


def engine_connection_keys(db, target, source_relation):
    from relang.evaluator import connect, relation_schema

    env = db.env()
    rel = db.catalog.lookup(source_relation)
    source = tuple_set(relation_schema(rel), db.txn.shadow.scan(source_relation).values(), source_relation)
    return set(connect(target, source, env).members()), source.tuples()


def reference_report(base, shadow):
    """The commit report by diffing every row of every relation: the
    whole-state reference for the write-set report."""
    report = CommitReport()
    for name, idx in shadow.indexes.items():
        base_idx = base.indexes.get(name)
        base_rows = base_idx.rows if base_idx is not None else {}
        added = len([r for r in idx.rows if r not in base_rows])
        removed = len([r for r in base_rows if r not in idx.rows])
        updated = len(
            [r for r in idx.rows if r in base_rows and idx.rows[r] != base_rows[r]]
        )
        if added:
            report.added[name] = added
        if removed:
            report.removed[name] = removed
        if updated:
            report.updated[name] = updated
    return report


def dangling_refs(state):
    """Every (relation, row, target-relation, target-row) whose reference
    does not resolve, found by reading every row of the state. Empty on any
    publishable state."""
    bad = []
    for rel_name, idx in state.indexes.items():
        for rowid, values in idx.rows.items():
            for t_rel, t_row in iter_refs(values):
                t_idx = state.indexes.get(t_rel)
                if t_idx is None or t_row not in t_idx.rows:
                    bad.append((rel_name, rowid, t_rel, t_row))
    return bad


def contains_tuple(state, relation, values):
    """The row stored first under the tuple, its own key, or None: how the
    engine finds a spelled-out tuple's row, and found the rows a set read
    before sets kept row ids."""
    return state.indexes[relation].first(values)


def by_values(mp) -> None:
    """Make the engine find every row by its values again, as it did before
    sets kept the row ids they read, through ``mp`` (a
    ``pytest.MonkeyPatch``): no set names a row it was read from, so a
    reference position's allowed rows and a connection's start rows are
    the rows stored under the set's keys (``run`` per key), and a remove
    or update target is ``contains_tuple`` of each key, as a spelled-out
    reference always is; and every output with a reference column sorts."""
    mp.setattr(evaluator.RowSet, "stored", lambda ts, state, relation: ({}, ts.members()))
    mp.setattr(shell, "_rising", lambda state, name, memo: False)


def flat_keys(idx):
    """An index's keys in order, read across its chunks."""
    return [key for chunk in idx.key_chunks for key in chunk]


def flat_ids(idx):
    """An index's row ids in key order, read across its chunks."""
    return [rowid for chunk in idx.id_chunks for rowid in chunk]


def index_faults(state):
    """Every (relation, what) whose index disagrees with its own rows or
    with its paged layout.

    The keys must list each row once, each key the very tuple object its
    row page holds, in the order of their canonical byte keys (the order
    contract of ``values``), and the position maps must equal a rebuild
    from the rows: the reference
    positions, and each scalar position with a value map. The layout: chunks
    are non-empty and hold at most ``store.CHUNK_MAX`` keys, each with one id,
    and each chunk's recorded largest key is its last key; every row page has
    one slot per id of its page and holds a row, and the page table covers
    every id handed out; every map page holds only keys of its own page
    and is non-empty, as is every bucket, and every map but a value map;
    the row count is the number of stored rows. A row-id verdict kept on
    the index (``ids_rise``) must be what a fresh walk of its ids finds,
    and kept only on an index the state does not own. Empty on any state,
    published or not."""
    faults = []
    for rel_name, idx in state.indexes.items():
        chunks = list(zip(idx.key_chunks, idx.id_chunks))
        if not len(chunks) == len(idx.key_chunks) == len(idx.id_chunks) == len(idx.maxes):
            faults.append((rel_name, "chunk tables differ in length"))
        if any(len(keys) != len(ids) for keys, ids in chunks):
            faults.append((rel_name, "a key chunk and its id chunk differ in length"))
        if any(not keys for keys, _ids in chunks):
            faults.append((rel_name, "empty chunk"))
        if any(len(keys) > store.CHUNK_MAX for keys, _ids in chunks):
            faults.append((rel_name, "chunk over the size limit"))
        if any(keys[-1] is not m for keys, m in zip(idx.key_chunks, idx.maxes) if keys):
            faults.append((rel_name, "recorded largest key differs from the chunk's last"))
        pages = [page for page in idx.rows.pages if page is not None]
        if any(len(page) != 1 << store.ROW_BITS or page.count(None) == len(page) for page in pages):
            faults.append((rel_name, "row page of the wrong size, or empty"))
        if idx.next_rowid > 1 and len(idx.rows.pages) <= (idx.next_rowid - 1) >> store.ROW_BITS:
            faults.append((rel_name, "row page table short of the ids handed out"))
        rows = dict(idx.rows.items())
        if len(idx.rows) != sum(len(page) - page.count(None) for page in pages):
            faults.append((rel_name, "row count differs from the stored rows"))
        keys, ids = flat_keys(idx), flat_ids(idx)
        encoded = [encode_tuple(k) for k in keys]
        if any(k > after for k, after in zip(encoded, encoded[1:])):
            faults.append((rel_name, "keys out of order"))
        if any(rows.get(rowid) is not k for k, rowid in zip(keys, ids)) or sorted(ids) != sorted(rows):
            faults.append((rel_name, "keys differ from the rows"))
        if idx.ids_rise is not None and (idx.ids_rise != (ids == sorted(ids)) or rel_name in state.owned):
            faults.append((rel_name, "a kept row-id verdict differs from the ids, or may go stale"))
        if len(set(idx.valued)) != len(idx.valued) or not set(idx.valued) <= set(idx.maps):
            faults.append((rel_name, "a value map listed twice, or missing"))
        rebuilt = {}
        for rowid, values in rows.items():
            for pos, v in enumerate(values):
                for target in iter_refs([v]):
                    rebuilt.setdefault(pos, {}).setdefault(target, set()).add(rowid)
            for pos in idx.valued:
                key = values[pos]
                rebuilt.setdefault(pos, {}).setdefault(key, set()).add(rowid)
        if any(not pages and pos not in idx.valued for pos, pages in idx.maps.items()):
            faults.append((rel_name, "an empty map at a position without a value map"))
        current = {}
        for pos, pages in idx.maps.items():
            for n, page in pages.items():
                misplaced = any(_map_page(key) != n for key in page)
                if not page or misplaced or not all(page.values()):
                    faults.append((rel_name, "map page or bucket empty or misplaced"))
                for key, bucket in page.items():
                    current.setdefault(pos, {})[key] = set(bucket)
        if current != rebuilt:
            faults.append((rel_name, "position maps differ from the rows"))
    return faults


def _map_page(key):
    """The page of a position map that must hold ``key``: a reference's
    (a plain (relation, row) pair) by its target row, a value's by its
    hash."""
    if type(key) is tuple:
        return key[1] >> store.ROW_BITS
    return hash(key) % (1 << store.ROW_BITS)


SCALAR_CLASSES = {"int": IntVal, "real": RealVal, "text": TextVal, "timestamp": TimestampVal}


def type_faults(state):
    """Every (relation, row) whose stored tuple does not conform to its
    relation's domains: the arity, each scalar's class, each reference's
    relation, and each inline tuple, recursively. Empty on any state,
    published or not."""
    catalog = state.catalog

    def conforms(rel, values):
        if not isinstance(values, tuple) or len(values) != rel.arity:
            return False
        for dom, v in zip(rel.domains, values):
            if dom.is_scalar:
                if type(v) is not SCALAR_CLASSES[dom.type_name]:
                    return False
                continue
            target = catalog.lookup(dom.type_name)
            if target.klass == "simple":
                if not (isinstance(v, RefVal) and v.relation == target.name):
                    return False
            elif not (
                isinstance(v, TupleVal)
                and v.relation == target.name
                and conforms(target, v.values)
            ):
                return False
        return True

    return [
        (rel_name, rowid)
        for rel_name, idx in state.indexes.items()
        for rowid, values in idx.rows.items()
        if not conforms(catalog.lookup(rel_name), values)
    ]


def collision_keys(state):
    """Every (relation, key) held by more than one row, found by reading
    every relation's keys. Empty on any publishable state."""
    return [
        (rel_name, key)
        for rel_name, idx in state.indexes.items()
        for key, after in zip(flat_keys(idx), flat_keys(idx)[1:])
        if key == after
    ]


def commit_must_abort(txn) -> bool:
    """Whether a commit of the transaction has to abort, by whole-state
    checks of its shadow plus its open pending references and unmatched
    members."""
    return bool(
        dangling_refs(txn.shadow)
        or collision_keys(txn.shadow)
        or txn.pending
        or txn.obligations
    )


# --- lexing ----------------------------------------------------------------------

_DIGITS = frozenset("0123456789")  # str.isdigit() also accepts digits int() rejects


def tokenize_chars(source: str):
    """``syntax.tokenize`` one character at a time: split source text into
    tokens. Whitespace is the only separator; `//` starts a comment running
    to end of line."""
    tokens = []
    i, n = 0, len(source)
    line, col = 1, 1

    def advance(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch in _PUNCT:
            tokens.append(Token(_PUNCT[ch], ch, start_line, start_col))
            advance()
            continue
        if ch in "\"'":
            quote = ch
            advance()
            chars = []
            while True:
                if i >= n:
                    raise UnterminatedString(
                        "text literal never closed", start_line, start_col
                    )
                c = source[i]
                if c == "\\":
                    advance()
                    if i >= n:
                        raise UnterminatedString(
                            "text literal never closed", start_line, start_col
                        )
                    chars.append(unescape_char(source[i]))
                    advance()
                    continue
                if c == quote:
                    advance()
                    break
                chars.append(c)
                advance()
            tokens.append(Token(TEXT_LIT, "".join(chars), start_line, start_col))
            continue
        if ch in _DIGITS or (ch == "-" and i + 1 < n and source[i + 1] in _DIGITS):
            j = i + 1 if ch == "-" else i
            while j < n and source[j] in _DIGITS:
                j += 1
            is_real = False
            if j < n and source[j] == "." and j + 1 < n and source[j + 1] in _DIGITS:
                is_real = True
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    is_real = True
                    j = k
                    while j < n and source[j] in _DIGITS:
                        j += 1
            lexeme = source[i:j]
            if j < n and (source[j].isalpha() or source[j] == "_"):
                raise IllegalCharacter(
                    f"malformed number {lexeme + source[j]!r}", start_line, start_col
                )
            advance(j - i)
            tokens.append(
                Token(REAL_LIT if is_real else INT_LIT, lexeme, start_line, start_col)
            )
            continue
        if ch == "=":
            tokens.append(Token(EQUALS, "=", start_line, start_col))
            advance()
            continue
        if ch in "!<>" and i + 1 < n and source[i + 1] == "=":
            tokens.append(Token(OPERATOR, ch + "=", start_line, start_col))
            advance(2)
            continue
        if ch in "+-*/<>&|!~":
            tokens.append(Token(OPERATOR, ch, start_line, start_col))
            advance()
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            advance(j - i)
            kind = KEYWORD if lexeme in KEYWORDS else NAME
            tokens.append(Token(kind, lexeme, start_line, start_col))
            continue
        raise IllegalCharacter(f"illegal character {ch!r}", start_line, start_col)
    return tokens


# --- snapshots -------------------------------------------------------------------


def parse_row_values(text: str, line_no: int, canonical_escapes=False) -> list:
    """The brace-enclosed value list of one snapshot row line, read one
    character at a time. With ``canonical_escapes``, a backslash escape
    other than those ``quote_text`` writes is a format error."""
    values = []  # the innermost open value list
    enclosing = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == " ":
            i += 1
        elif ch == "{":
            enclosing.append(values)
            values = []
            i += 1
        elif ch == "}":
            if not enclosing:
                raise SnapshotFormatError("unbalanced '}' in row", line_no)
            inner, values = values, enclosing.pop()
            values.append(("tuple", inner))
            i += 1
        elif ch == '"':
            j = i + 1
            chars = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n:
                    if canonical_escapes and text[j + 1] not in '"\\ntr':
                        raise SnapshotFormatError("non-canonical escape in text", line_no)
                    chars.append(unescape_char(text[j + 1]))
                    j += 2
                else:
                    chars.append(text[j])
                    j += 1
            if j >= n:
                raise SnapshotFormatError("unterminated text in row", line_no)
            values.append(("text", "".join(chars)))
            i = j + 1
        else:
            j = i + 1
            while j < n and text[j] not in " }":
                j += 1
            if ch == "#":
                rel, colon, ordinal = text[i + 1 : j].partition(":")
                if not colon or not (ordinal.isascii() and ordinal.isdigit()):
                    raise SnapshotFormatError(f"malformed reference {text[i:j]}", line_no)
                values.append(("ref", rel, int(ordinal)))
            else:
                values.append(("atom", text[i:j]))
            i = j
    if enclosing:
        raise SnapshotFormatError("unterminated inline tuple", line_no)
    return values


def export_orders(catalog, state):
    """Per simple relation, its row ids in export order: every relation
    sorted by its export key, the canonical key with each reference replaced
    by its target's ordinal (a relation defined earlier, so already
    ordered)."""
    orders, ordered = {}, {}

    def export_key(values) -> bytes:
        out = []
        for v in values:
            if isinstance(v, RefVal):
                out.append(orders[v.relation][v.row].to_bytes(8, "big"))
            elif isinstance(v, TupleVal):
                out.append(export_key(v.values))
            else:
                out.append(encode_value(v))
        return b"".join(out)

    for name in catalog.names():
        if name in state.indexes:
            rows = state.indexes[name].rows.items()
            ordered[name] = [rowid for _k, rowid in sorted((export_key(v), r) for r, v in rows)]
            orders[name] = {rowid: i for i, rowid in enumerate(ordered[name], 1)}
    return ordered


def materialize(parsed, rel, catalog, refs, line_no: int):
    """The tuple a parsed row (``parse_row_values``) spells under ``rel``.
    ``refs[t]`` lists the references to the rows of ``t`` loaded so far,
    ordinal ``n`` at ``n - 1``: a loaded row is referenced through one
    shared ``RefVal``."""
    if len(parsed) != rel.arity:
        raise SnapshotFormatError(f"{rel.name!r} takes {rel.arity} values, got {len(parsed)}", line_no)
    out = []
    for item, dom in zip(parsed, rel.domains):
        tag, kind = item[0], dom.type_name
        if tag == "text" and kind == "text":
            try:
                out.append(TextVal(item[1]))
            except DomainTypeMismatch as exc:  # a lone surrogate
                raise SnapshotFormatError(str(exc), line_no) from None
        elif tag == "atom" and kind in SCALAR_TYPES:
            atom = shell._read_atom(item[1], kind)
            if atom is None:
                raise SnapshotFormatError(f"{item[1]!r} is not a canonical {kind} literal", line_no)
            out.append(atom)
        elif tag == "ref" and item[1] == kind and kind in refs:
            loaded = refs[kind]
            if not 1 <= item[2] <= len(loaded):
                raise DanglingOrdinal(f"#{kind}:{item[2]} does not name a loaded row")
            out.append(loaded[item[2] - 1])
        elif tag == "tuple" and kind not in SCALAR_TYPES and catalog.lookup(kind).klass != "simple":
            out.append(TupleVal(kind, materialize(item[1], catalog.lookup(kind), catalog, refs, line_no)))
        elif kind in SCALAR_TYPES:
            raise SnapshotFormatError(f"expected a {kind} literal", line_no)
        elif catalog.lookup(kind).klass == "simple":
            raise SnapshotFormatError(f"expected a #{kind} reference", line_no)
        else:
            raise SnapshotFormatError(f"expected an inline {kind} tuple", line_no)
    return tuple(out)


def load_snapshot_by_insert(text: str):
    """A snapshot load as it was before each relation had a row reader:
    each row is read by the character loop, made a tuple by
    ``materialize`` and stored by ``DbState.insert``, which seeks its place
    by the tuple and links every position. Only for snapshots that load."""
    lines = text.split("\n")
    blank = lines.index("")
    db = relang.Database()
    for line in lines[1:blank]:
        for stmt in parse_script(line):
            db.execute(stmt)
    catalog, state = db.catalog, db.published
    refs = {name: [] for name in catalog.names() if catalog.referencing(name)}
    for i, line in enumerate(lines[blank + 1 :], blank + 2):
        if not line:
            continue
        _row, name, _ordinal, rest = line.split(" ", 3)
        parsed = parse_row_values(rest[1:-1], i, canonical_escapes=True)
        values = materialize(parsed, catalog.lookup(name), catalog, refs, i)
        rowid, fresh = state.insert(name, values)
        assert fresh, f"duplicate row at line {i}"
        if name in refs:
            refs[name].append(RefVal(name, rowid))
    db.refresh()
    return db


# --- formatting cell by cell ------------------------------------------------------


def _members(values, state, writers) -> str:
    """Cell text of a tuple's values, each written by its type's writer,
    in braces."""
    return "{" + " ".join([writers[type(v)](v, state, writers) for v in values]) + "}"


def _ref_cell(v, state, writers) -> str:
    return _members(state.get_row(v[1], v[2]), state, writers)


def _tuple_cell(v, state, writers) -> str:
    return _members(v[2], state, writers)


# Cell writers by value type, each called as ``writer(value, state,
# writers)``. Human-facing cells show text bare and every other scalar as
# its canonical literal; s-expression cells are literals that read back,
# timestamps included. Referenced and inline tuples are their members in
# braces.
_PLAIN_CELLS = {
    TextVal: lambda v, _state, _writers: v[1],
    IntVal: lambda v, _state, _writers: str(v[1]),
    RealVal: lambda v, _state, _writers: repr(v[1]),
    TimestampVal: lambda v, _state, _writers: render_timestamp(v),
    RefVal: _ref_cell,
    TupleVal: _tuple_cell,
}
_SEXPR_CELLS = {
    **_PLAIN_CELLS,
    TextVal: lambda v, _state, _writers: quote_text(v[1]),
    TimestampVal: lambda v, _state, _writers: f'(timestamp "{render_timestamp(v)}")',
}

# Snapshot cells take each referenced relation's reference cells, row id ->
# ``#<relation>:<ordinal>`` (``refs``), in place of a state: each scalar is
# its canonical literal.
_SNAPSHOT_CELLS = {
    **_SEXPR_CELLS,
    TimestampVal: lambda v, _refs, _writers: render_timestamp(v),
    RefVal: lambda v, refs, _writers: refs[v[1]][v[2]],
}


def _plain_cells(t, state):
    return [_PLAIN_CELLS[type(v)](v, state, _PLAIN_CELLS) for v in t]


def ordered_by_key(result, state, order_attrs=()):
    """A result's tuples as an output lists them, every sort by order key:
    sorted into value order, then stably by the ``order`` attributes."""
    target_key = lambda v: shell.order_key(state.get_row(v[1], v[2]), target_key)
    tuples = sorted(result.tuples(), key=lambda t: shell.order_key(t, target_key))
    positions = [result.attr_index(attr) for attr in order_attrs]
    if positions:
        tuples.sort(key=lambda t: shell.order_key([t[p] for p in positions], target_key))
    return tuples


def format_by_cell(result, fmt, state, order_attrs=()) -> str:
    """A result in one of the three formats, every cell written on its own:
    ``shell.format_result`` before it wrote by column."""
    if fmt == "sexpr":
        if result.schema is None or len(result) == 0:
            return "()"
        return "(" + " ".join(_members(t, state, _SEXPR_CELLS) for t in ordered_by_key(result, state, order_attrs)) + ")"
    if fmt == "csv":
        if result.schema is None:
            return ""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([col.attr for col in result.schema])
        for t in ordered_by_key(result, state, order_attrs):
            writer.writerow(_plain_cells(t, state))
        return buf.getvalue().rstrip("\n")
    if result.schema is None:
        return "(empty set)"
    headers = [col.attr for col in result.schema]
    cells = [_plain_cells(t, state) for t in ordered_by_key(result, state, order_attrs)]
    widths = [max([len(h)] + [len(row[i]) for row in cells]) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in cells]
    return "\n".join(lines)


def save_snapshot_by_cell(db) -> str:
    """``shell.save_snapshot`` written row by row and cell by cell, in the
    export order of ``export_orders``."""
    catalog, state = db.catalog, db.published
    lines = [shell.SNAPSHOT_HEADER, *[shell._definition_line(catalog.lookup(name)) for name in catalog.names()], ""]
    ordered = export_orders(catalog, state)
    refs = {name: {rowid: f"#{name}:{n}" for n, rowid in enumerate(rowids, 1)} for name, rowids in ordered.items()}
    for name, rowids in ordered.items():
        for n, rowid in enumerate(rowids, 1):
            lines.append(f"row {name} {n} {_members(state.get_row(name, rowid), refs, _SNAPSHOT_CELLS)}")
    return "\n".join(lines) + "\n"


# --- random schema/database generation -------------------------------------------


def random_tree_db(
    rng: random.Random, max_rows=20, texts=string.ascii_lowercase[:6], refs_anywhere=False, inline=False
):
    """A database over a random tree-shaped schema (unique shortest paths).

    Each non-root relation adopts exactly one earlier relation, plus scalar
    padding domains; rows reference random rows of the adopted relation.
    The reference is the first domain, or with ``refs_anywhere`` a random
    one. Text values are drawn from ``texts``. With ``inline`` a second
    padding domain may be the domain ``pt`` of two reals, stored inline,
    and half the reals are whole, so an int can spell them.
    """
    db = relang.Database()
    if inline:
        for stmt in parse_script("domain (pt (x real) (y real))"):
            db.execute(stmt)
    n = rng.randint(2, 5)
    names = [f"r{i}" for i in range(n)]
    parents = {}
    for i, name in enumerate(names):
        domains = []
        if i > 0:
            parent = names[rng.randrange(i)]
            parents[name] = parent
            domains.append(f"(p_{parent} {parent})")
        for j in range(rng.randint(1, 2)):
            scalar = rng.choice(["int", "text", "real", "timestamp"] + (["pt"] if inline and j else []))
            domains.append(f"(s{j} {scalar})")
        if i > 0 and refs_anywhere:
            domains.insert(rng.randint(0, len(domains) - 1), domains.pop(0))
        script = f"relation ({name} {' '.join(domains)})"
        for stmt in parse_script(script):
            db.execute(stmt)
    for i, name in enumerate(names):
        rel = db.catalog.lookup(name)
        count = rng.randint(0, max_rows)
        for _ in range(count):
            values = []
            ok = True
            for dom in rel.domains:
                if dom.type_name == "int":
                    values.append(IntVal(rng.randint(0, 9)))
                elif dom.type_name == "text":
                    values.append(TextVal(rng.choice(texts)))
                elif dom.type_name == "real":
                    values.append(RealVal(_random_real(rng, inline)))
                elif dom.type_name == "pt":
                    x, y = _random_real(rng, True), _random_real(rng, True)
                    values.append(TupleVal("pt", (RealVal(x), RealVal(y))))
                elif dom.type_name == "timestamp":
                    values.append(
                        TimestampVal(
                            rng.randint(-800, 2100),
                            rng.choice([None, rng.randint(1, 12)]),
                        )
                    )
                else:
                    target_rows = sorted(db.published.indexes[dom.type_name].rows)
                    if not target_rows:
                        ok = False
                        break
                    values.append(RefVal(dom.type_name, rng.choice(target_rows)))
            if ok:
                db.published.insert(name, tuple(values))
    db.refresh()
    return db, names


def _random_real(rng: random.Random, whole: bool) -> float:
    if whole and rng.random() < 0.5:
        return float(rng.randint(-2, 2))
    return rng.uniform(-5.0, 5.0)


# Every scalar type, a reference in a relation and in inline tuples, and an
# inline tuple inside an inline tuple (``pair`` holds two ``pin``s).
INLINE_SCHEMA = (
    "relation (a (name text) (n int))"
    " domain (pin a (x real) (at timestamp))"
    " domain (pair pin (other pin) (label text))"
    " relation (b (p pair) (q a) (t text))"
    " relation (c (e pin) b (k int))"
)


def random_inline_db(rng: random.Random, max_rows=12, texts=string.ascii_lowercase[:6]):
    """A database over ``INLINE_SCHEMA`` with random rows: ints from the
    whole 64-bit range, reals, timestamps of every precision (BC years
    included), texts drawn from ``texts``, and references to random rows
    loaded earlier, inside inline tuples too."""
    db = relang.Database()
    for stmt in parse_script(INLINE_SCHEMA):
        db.execute(stmt)
    state = db.published

    def scalar(kind):
        if kind == "int":
            return IntVal(rng.choice([0, -1, 7, rng.randint(-(1 << 63), (1 << 63) - 1)]))
        if kind == "real":
            return RealVal(rng.choice([0.5, -2.0, rng.uniform(-1e6, 1e6), 1e300]))
        if kind == "text":
            return TextVal(rng.choice(texts))
        month = rng.choice([None, rng.randint(1, 12)])
        day = None if month is None else rng.choice([None, rng.randint(1, 28)])
        return TimestampVal(rng.randint(-3000, 2100), month, day)

    def value(kind):
        if kind in SCALAR_CLASSES:
            return scalar(kind)
        rel = db.catalog.lookup(kind)
        if rel.klass == "domain":
            return TupleVal(kind, tuple(value(d.type_name) for d in rel.domains))
        return RefVal(kind, rng.choice(sorted(state.indexes[kind].rows)))

    for name in ("a", "b", "c"):
        rel = db.catalog.lookup(name)
        for _ in range(rng.randint(1 if name == "a" else 0, max_rows)):
            if all(state.indexes[d.type_name].rows for d in rel.domains if d.type_name in ("a", "b")):
                state.insert(name, tuple(value(d.type_name) for d in rel.domains))
    db.refresh()
    return db


def connectable_pair(db, names, rng: random.Random, max_edges=3):
    """A random (target, source) pair with a path of at most max_edges."""
    g = schema_multigraph(db.catalog)
    candidates = []
    for a in names:
        for b in names:
            try:
                d = nx.shortest_path_length(g, a, b)
            except nx.NetworkXNoPath:
                continue
            if d <= max_edges:
                candidates.append((a, b))
    return rng.choice(candidates)


# --- the tree-walk interpreter ---------------------------------------------------


def interpret(expr, env):
    """``expr``'s value, walking the tree node by node: a name reads
    ``env.locals``, then the bindings; a function called by name runs its
    body through this walk; every other node goes to ``eval_expr``."""
    if isinstance(expr, syntax.Const):
        if expr.kind == "int":
            return IntVal(expr.value)
        if expr.kind == "real":
            return RealVal(expr.value)
        return TextVal(expr.value)
    if isinstance(expr, syntax.Name):
        if env.locals is not None and expr.ident in env.locals:
            return env.locals[expr.ident]
        return evaluator._binding(expr.ident, env)
    if isinstance(expr, syntax.OpApply):
        return _interpret_op(expr, env)
    if isinstance(expr, syntax.Typecast):
        return _interpret_cast(expr, env)
    if isinstance(expr, syntax.Selection) and _is_function(expr.target, env):
        return _interpret_call(expr, env)
    return evaluator.eval_expr(expr, env)


def _is_function(name, env) -> bool:
    if name in env.bindings:
        return False
    return name in BUILTIN_FUNCTIONS or (name in env.catalog and env.catalog.lookup(name).klass == "function")


def _interpret_op(expr, env):
    op = expr.op
    if op in ("&", "|"):
        result = None
        for operand in expr.operands:
            v = interpret(operand, env)
            if not isinstance(v, bool):
                raise TypeMismatch(f"operator {op!r} combines conditions")
            result = v if result is None else (result and v if op == "&" else result or v)
        return result
    if op == "!":
        if len(expr.operands) != 1:
            raise TypeMismatch("'!' negates a single condition")
        v = interpret(expr.operands[0], env)
        if not isinstance(v, bool):
            raise TypeMismatch("'!' negates a condition")
        return not v
    operands = [evaluator.scalar_context(interpret(x, env), "an operand") for x in expr.operands]
    first = operands[0]
    if op in ("+", "-", "*", "/"):
        return evaluator._fold_arithmetic(op, operands)
    if op in ("=", "!=", "<", ">", "<=", ">="):
        if len(operands) != 2:
            raise TypeMismatch(f"comparison {op!r} takes exactly two operands")
        return evaluator._compare(op, operands[0], operands[1])
    if op == "~":
        if len(operands) != 2:
            raise TypeMismatch("'~' takes a text and a pattern")
        if not isinstance(first, TextVal):
            raise TypeMismatch("'~' matches a text first operand")
        pattern = operands[1]
        if not isinstance(pattern, TextVal):
            raise TypeMismatch("'~' takes a text pattern")
        return evaluator._compile_pattern(pattern.value).fullmatch(first.value) is not None
    raise TypeMismatch(f"unknown operator {op!r}")


def _interpret_cast(expr, env):
    v = evaluator.scalar_context(interpret(expr.expr, env), "a castable value")
    return evaluator._cast(v, expr.type_name)


def _interpret_call(sel, env):
    """A function applied to its arguments' values, as the engine applies
    it, with the body walked for each combination."""
    name = sel.target
    if sel.filter is not None:
        raise TypeMismatch(f"{name!r} is a function; it takes arguments, not a filter")
    args = []
    for arg in sel.args:
        if isinstance(arg, syntax.Wildcard) or evaluator._is_type_marker(arg):
            raise NotEnumerable(f"function {name!r} is not enumerable; all arguments must be bound")
        args.append(evaluator._as_tuple_set(interpret(arg, env), "a function argument"))
    if name in BUILTIN_FUNCTIONS:
        params, result_type = BUILTIN_FUNCTIONS[name]
        return evaluator._apply(name, params, result_type, args, evaluator._BUILTIN_IMPL[name], env)
    fn = env.catalog.lookup(name)

    def call(vals):
        frame = {d.attr: v for d, v in zip(fn.domains, vals)}
        return evaluator.scalar_context(interpret(fn.body, env.with_locals(frame)), "a function result")

    return evaluator._apply(name, tuple(d.type_name for d in fn.domains), fn.result_type, args, call, env)
