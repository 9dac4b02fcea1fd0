"""The entry point: script runner, REPL, output formatting, and snapshots.

Formatting lives here and only here; it never alters the tuple set it
renders, and ordering requested at the output level is a formatting concern,
not a relational one.

Snapshot format (text, deterministic byte for byte):

    ;; relang snapshot v1
    <one canonical definition per line, in definition order>
    <blank line>
    row <relation> <ordinal> {v1 ... vn}

Rows appear per relation in export order with ordinals from 1; a reference
is written #<relation>:<ordinal>. Export order is the canonical tuple order
computed over values with references replaced by target ordinals, so it does
not depend on internal row ids and a save/load/save cycle is a fixed point.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
import sys
from typing import Dict, List, Optional

from . import syntax
from .catalog import Catalog, RelationDef
from .errors import (
    DanglingOrdinal,
    RelangError,
    SnapshotFormatError,
    SourceError,
    UnknownAttr,
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
    encode_value,
    parse_timestamp,
    render_scalar,
    render_timestamp,
    unescape_char,
)

PROMPT = "relang> "
SNAPSHOT_HEADER = ";; relang snapshot v1"


# --- formatting ---------------------------------------------------------------


def _cell(v: Value, state: DbState, scalar) -> str:
    """Cell text of one value: braces around referenced and inline tuples,
    ``scalar`` for everything else."""
    if isinstance(v, RefVal):
        members = state.get_row(v.relation, v.row)
    elif isinstance(v, TupleVal):
        members = v.values
    else:
        return scalar(v)
    return "{" + " ".join(_cell(x, state, scalar) for x in members) + "}"


def _plain_scalar(v: Value) -> str:
    """Human-facing scalar text: text bare, everything else canonical."""
    return v.value if isinstance(v, TextVal) else render_scalar(v)


def _sexpr_scalar(v: Value) -> str:
    if isinstance(v, TimestampVal):
        return f'(timestamp "{render_timestamp(v)}")'
    return render_scalar(v)


def _ordered_tuples(result: TupleSet, order_attrs) -> List[tuple]:
    tuples = result.tuples()
    if not order_attrs:
        return tuples
    positions = []
    for attr in order_attrs:
        pos = result.attr_index(attr)
        if pos is None:
            raise UnknownAttr(f"no attribute {attr!r} to order by")
        positions.append(pos)
    return sorted(tuples, key=lambda t: tuple(encode_value(t[p]) for p in positions))


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
    rows = [
        "{" + " ".join(_cell(v, state, _sexpr_scalar) for v in t) + "}"
        for t in _ordered_tuples(result, order_attrs)
    ]
    return "(" + " ".join(rows) + ")"


def format_csv(result: TupleSet, state: DbState, order_attrs=()) -> str:
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    if result.schema is None:
        return ""
    writer.writerow([col.attr for col in result.schema])
    for t in _ordered_tuples(result, order_attrs):
        writer.writerow([_cell(v, state, _plain_scalar) for v in t])
    return buf.getvalue().rstrip("\n")


def format_tabular(result: TupleSet, state: DbState, order_attrs=()) -> str:
    if result.schema is None:
        return "(empty set)"
    headers = [col.attr for col in result.schema]
    rows = [
        [_cell(v, state, _plain_scalar) for v in t]
        for t in _ordered_tuples(result, order_attrs)
    ]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


# --- snapshots ----------------------------------------------------------------


def _export_orders(catalog: Catalog, state: DbState) -> Dict[str, Dict[int, int]]:
    """Per relation, map row id -> export ordinal (1-based).

    Ordinals follow canonical tuple order computed with references replaced
    by target ordinals, which makes them independent of internal row ids.
    """
    orders: Dict[str, Dict[int, int]] = {}

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
        if catalog.lookup(name).klass != "simple":
            continue
        idx = state.indexes.get(name)
        rows = idx.rows if idx is not None else {}
        keyed = sorted((export_key(values), rowid) for rowid, values in rows.items())
        orders[name] = {rowid: i + 1 for i, (_k, rowid) in enumerate(keyed)}
    return orders


def _snapshot_value(v: Value, orders) -> str:
    if isinstance(v, RefVal):
        return f"#{v.relation}:{orders[v.relation][v.row]}"
    if isinstance(v, TupleVal):
        return "{" + " ".join(_snapshot_value(x, orders) for x in v.values) + "}"
    return render_scalar(v)


def save_snapshot(db: Database) -> str:
    """Serialize catalog and published state; byte-deterministic."""
    catalog, state = db.catalog, db.published
    lines = [SNAPSHOT_HEADER]
    for name in catalog.names():
        rel = catalog.lookup(name)
        klass = {"simple": "relation", "domain": "domain", "function": "function"}[rel.klass]
        domains = tuple(
            syntax.DomainSpec(d.attr if d.attr != d.type_name else None, d.type_name)
            for d in rel.domains
        )
        lines.append(
            syntax.render(syntax.Definition(klass, rel.name, domains, rel.body))
        )
    lines.append("")
    orders = _export_orders(catalog, state)
    for name in catalog.names():
        if catalog.lookup(name).klass != "simple":
            continue
        idx = state.indexes.get(name)
        if idx is None:
            continue
        by_ordinal = sorted(orders[name].items(), key=lambda kv: kv[1])
        for rowid, ordinal in by_ordinal:
            values = " ".join(_snapshot_value(v, orders) for v in idx.rows[rowid])
            lines.append(f"row {name} {ordinal} {{{values}}}")
    return "\n".join(lines) + "\n"


def _parse_row_values(text: str, line_no: int) -> list:
    """Parse the brace-enclosed value list of one snapshot row line.

    Inline tuples nest on an explicit stack, so no nesting depth exhausts
    the interpreter's."""
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


@functools.lru_cache(maxsize=4096)
def _read_atom(token: str, expected: str) -> Optional[Value]:
    """The scalar a canonical literal spells, or None. Only the canonical
    literal is read (``1_0``, ``+5`` and ``1e3`` are not), so every snapshot
    that loads is one that saving writes back byte for byte. Cached, since a
    snapshot repeats its literals (a year, a count) many times."""
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


def _atom_value(token: str, expected: str, line_no: int) -> Value:
    value = _read_atom(token, expected)
    if value is None:
        raise SnapshotFormatError(f"{token!r} is not a canonical {expected} literal", line_no)
    return value


def _materialize(parsed, rel: RelationDef, catalog: Catalog, loaded_rows, line_no: int):
    if len(parsed) != rel.arity:
        raise SnapshotFormatError(
            f"{rel.name!r} takes {rel.arity} values, got {len(parsed)}", line_no
        )
    out = []
    for item, dom in zip(parsed, rel.domains):
        if dom.is_scalar:
            if item[0] == "text":
                if dom.type_name == "text":
                    out.append(TextVal(item[1]))
                    continue
                raise SnapshotFormatError(
                    f"text where {dom.type_name} expected", line_no
                )
            if item[0] != "atom":
                raise SnapshotFormatError(
                    f"expected a {dom.type_name} literal", line_no
                )
            out.append(_atom_value(item[1], dom.type_name, line_no))
            continue
        target = catalog.lookup(dom.type_name)
        if target.klass == "simple":
            if item[0] != "ref" or item[1] != dom.type_name:
                raise SnapshotFormatError(
                    f"expected a #{dom.type_name} reference", line_no
                )
            count = loaded_rows.get(dom.type_name, 0)
            if not 1 <= item[2] <= count:
                raise DanglingOrdinal(
                    f"#{dom.type_name}:{item[2]} does not name a loaded row"
                )
            out.append(RefVal(dom.type_name, item[2]))
        else:
            if item[0] != "tuple":
                raise SnapshotFormatError(
                    f"expected an inline {dom.type_name} tuple", line_no
                )
            inner = _materialize(item[1], target, catalog, loaded_rows, line_no)
            out.append(TupleVal(dom.type_name, tuple(inner)))
    return tuple(out)


def load_snapshot(text: str) -> Database:
    """Rebuild a database from snapshot text."""
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
        i += 1
    if i >= len(lines):
        raise SnapshotFormatError("missing data section", len(lines))
    i += 1  # blank separator
    loaded_rows: Dict[str, int] = {}
    while i < len(lines):
        line = lines[i]
        i += 1
        if not line.strip():
            continue
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[0] != "row":
            raise SnapshotFormatError(f"malformed row line: {line!r}", i)
        _row, rel_name, ordinal_text, rest = parts
        if rel_name not in db.catalog:
            raise SnapshotFormatError(f"row for undefined relation {rel_name!r}", i)
        rel = db.catalog.lookup(rel_name)
        if rel.klass != "simple":
            raise SnapshotFormatError(f"{rel_name!r} stores no rows", i)
        if not (ordinal_text.isascii() and ordinal_text.isdigit()):
            raise SnapshotFormatError(f"malformed ordinal {ordinal_text!r}", i)
        ordinal = int(ordinal_text)
        expected = loaded_rows.get(rel_name, 0) + 1
        if ordinal != expected:
            raise SnapshotFormatError(
                f"ordinal {ordinal} out of order (expected {expected})", i
            )
        if not (rest.startswith("{") and rest.endswith("}")):
            raise SnapshotFormatError("row values must be brace-enclosed", i)
        parsed = _parse_row_values(rest[1:-1], i)
        # every reference names a row loaded above, so no pass over the
        # loaded state is needed afterwards
        values = _materialize(parsed, rel, db.catalog, loaded_rows, i)
        rowid, fresh = db.published.insert(rel_name, values)
        if not fresh or rowid != ordinal:
            raise SnapshotFormatError(f"duplicate row in {rel_name!r}", i)
        loaded_rows[rel_name] = ordinal
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
            text = format_result(
                result.value, fmt, self.db.txn.shadow, result.order_attrs
            )
            print(text, file=self.out)
            return
        if isinstance(result, TupleSet) and not isinstance(stmt, syntax.BareQuery):
            return  # DML return values are discarded unless bound or queried
        fmt = self.fmt or _default_format(self.out)
        print(format_result(result, fmt, self.db.txn.shadow), file=self.out)


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
