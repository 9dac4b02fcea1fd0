"""Span recorder for the traced run, built from the benchmark's own files.

In the traced process only, the public entry points of each layer are
replaced by wrappers. Each call made inside a timed operation records one
span: name, start, end and parent. Spans are kept in memory in flat arrays
and written out when the run ends. A span's self time is its duration
minus its children's; a layer's self time is the sum over its spans.

The wrappers also count work at the same boundaries (rows scanned, keys
encoded, rows cloned, ...). An exception that leaves a span into a span of
another layer, or into the operation, counts as one error of the layer it
left.

The untraced run never calls ``tracing`` and so leaves every entry point
as the program defines it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from relang import catalog, evaluator, shell, store, syntax, txn, values
from relang.errors import IntegrityError
from relang.evaluator import TupleSet

LAYERS = ("syntax", "catalog", "evaluator", "store", "values", "txn", "shell")


def entry_points() -> List[Tuple[str, object, str]]:
    """(layer, owner, attribute) of every wrapped entry point. The owner
    is the defining module, or the class for a method."""
    eps = [("syntax", syntax, n) for n in ("parse_script", "iter_statements", "parse_statement", "parse_expression", "tokenize")]
    eps += [("catalog", catalog.Catalog, "define"), ("catalog", catalog.Catalog, "schema_graph"), ("catalog", catalog, "typecheck_expr")]
    eps += [("evaluator", evaluator, n) for n in ("eval_expr", "eval_selection", "eval_projection", "connect", "shortest_path")]
    eps += [
        ("store", store.DbState, n)
        for n, v in vars(store.DbState).items()
        if not n.startswith("_") and inspect.isfunction(v)
    ]
    eps += [("values", values, n) for n in ("encode_tuple", "encode_value")]
    eps += [("txn", txn.Database, "execute")]
    eps += [("txn", txn.TxnPlan, n) for n in ("plan_add", "plan_remove", "plan_update", "commit")]
    eps += [("shell", shell, n) for n in ("format_result", "save_snapshot", "load_snapshot")]
    eps += [("shell", shell.Session, "execute")]
    return eps


def _rows_held(state) -> int:
    return sum(len(idx.rows) for idx in state.indexes.values())


# --- counters kept at the boundaries: hook(recorder, args, result, exc) ---------------


def _count_tokenize(rec, args, result, exc):
    rec.counts["syntax.bytes"] += len(args[0])


def _count_returned(rec, args, result, exc):
    if rec.depth["evaluator"] == 0 and isinstance(result, TupleSet):
        rec.counts["evaluator.rows_returned"] += len(result)


def _count_scan(rec, args, result, exc):
    if result is not None:
        rec.counts["store.rows_scanned"] += len(result)
        if rec.depth["evaluator"]:
            rec.counts["evaluator.examined"] += len(result)


def _count_get_row(rec, args, result, exc):
    if rec.depth["evaluator"]:
        rec.counts["evaluator.examined"] += 1


def _count_clone(rec, args, result, exc):
    rec.counts["store.rows_cloned"] += _rows_held(args[0])


def _count_validated(rec, args, result, exc):
    if rec.depth["txn"]:  # at commit, not when a snapshot load validates
        rec.counts["store.rows_validated"] += _rows_held(args[0])


def _count_commit(rec, args, result, exc):
    rec.counts["txn.commits"] += 1
    rec.counts["txn.obligations"] += len(args[0].obligations)
    if isinstance(exc, IntegrityError):
        rec.counts["txn.aborts"] += 1


def _count_format(rec, args, result, exc):
    if isinstance(args[0], TupleSet):
        rec.counts["shell.rows_formatted"] += len(args[0])
    if result is not None:
        rec.counts["shell.bytes_out"] += len(result)


def _count_save(rec, args, result, exc):
    if result is not None:
        rec.counts["shell.bytes_out"] += len(result)


HOOKS: Dict[str, Callable] = {
    "syntax.tokenize": _count_tokenize,
    "store.DbState.scan": _count_scan,
    "store.DbState.get_row": _count_get_row,
    "store.DbState.clone": _count_clone,
    "store.DbState.dangling_refs": _count_validated,
    "txn.TxnPlan.commit": _count_commit,
    "shell.format_result": _count_format,
    "shell.save_snapshot": _count_save,
}
for _name in ("eval_expr", "eval_selection", "eval_projection", "connect", "shortest_path"):
    HOOKS[f"evaluator.{_name}"] = _count_returned


class Recorder:
    """Spans and counts of one traced run."""

    def __init__(self):
        self.names: List[str] = []
        self.layer_of: List[str] = []  # by name id; "op" for operation spans
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.on = False
        self.depth: Counter = Counter()  # open spans per layer
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(i)
        self.span_start.append(time.perf_counter())
        return i

    def _end(self, i: int) -> None:
        self.span_end[i] = time.perf_counter()
        self.stack.pop()

    def begin_op(self, cls: str) -> None:
        self.on = True
        self._begin(self.name_id(f"op.{cls}", "op"))

    def end_op(self) -> None:
        self._end(self.stack[-1])
        self.on = False

    def call(self, nid: int, layer: str, hook, fn, args, kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        self.depth[layer] += 1
        i = self._begin(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self._end(i)
            self.depth[layer] -= 1
            if not isinstance(exc, StopIteration):  # a generator's normal end
                parent = self.stack[-1]
                if parent < 0 or self.layer_of[self.span_name[parent]] != layer:
                    self.errors[layer] += 1
                if hook is not None:
                    hook(self, args, None, exc)
            raise
        self._end(i)
        self.depth[layer] -= 1
        if hook is not None:
            hook(self, args, result, None)
        return result

    def wrap(self, layer: str, qualname: str, fn):
        name = f"{layer}.{qualname}"
        nid = self.name_id(name, layer)
        hook = HOOKS.get(name)
        rec = self
        if inspect.isgeneratorfunction(fn):
            # one span per statement the generator yields
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        if rec.on:
                            item = rec.call(nid, layer, hook, next, (it,), {})
                        else:
                            item = next(it)
                    except StopIteration:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            return rec.call(nid, layer, hook, fn, args, kwargs)

        return wrapper

    # -- results

    def layer_totals(self):
        """Per layer: (self seconds, spans); plus spans per name."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        by_name: Counter = Counter()
        for i in range(n):
            layer = self.layer_of[names[i]]
            self_s[layer] += ends[i] - starts[i] - child[i]
            calls[layer] += 1
            by_name[self.names[names[i]]] += 1
        return self_s, calls, by_name

    def write(self, path: Path) -> None:
        """One JSON header line, then the span arrays as raw bytes in
        header order (native byte order)."""
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.span_name),
            "arrays": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


@contextmanager
def tracing():
    """Wrap every entry point for the duration of the block; restore the
    originals on the way out."""
    rec = Recorder()
    modules = [m for name, m in sorted(sys.modules.items()) if name == "relang" or name.startswith("relang.")]
    patched = []
    try:
        for layer, owner, attr in entry_points():
            original = vars(owner)[attr]
            qualname = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
            wrapper = rec.wrap(layer, qualname, original)
            if inspect.ismodule(owner):
                # rebind the name in every module that imported it by name
                for mod in modules:
                    if vars(mod).get(attr) is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
            else:
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
        yield rec
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def per_layer_metrics(rec: Recorder, ops: int, overhead_ratio: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    self_s, calls, by_name = rec.layer_totals()
    c = rec.counts
    commits = max(c["txn.commits"], 1)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = (1000.0 * self_s[layer] / ops, "ms")
        out[f"{layer}.calls_per_op"] = (calls[layer] / ops, "count")
        out[f"{layer}.errors_per_op"] = (rec.errors[layer] / ops, "count")
    out["syntax.bytes_per_op"] = (c["syntax.bytes"] / ops, "bytes")
    out["catalog.schema_graph_calls_per_op"] = (by_name["catalog.Catalog.schema_graph"] / ops, "count")
    out["evaluator.rows_returned_per_op"] = (c["evaluator.rows_returned"] / ops, "rows")
    out["evaluator.examined_per_returned"] = (
        c["evaluator.examined"] / max(c["evaluator.rows_returned"], 1), "ratio")
    out["evaluator.paths_searched_per_op"] = (by_name["evaluator.shortest_path"] / ops, "count")
    out["store.rows_scanned_per_op"] = (c["store.rows_scanned"] / ops, "rows")
    out["store.rows_cloned_per_op"] = (c["store.rows_cloned"] / ops, "rows")
    out["store.rows_validated_per_commit"] = (c["store.rows_validated"] / commits, "rows")
    out["values.keys_encoded_per_op"] = (by_name["values.encode_tuple"] / ops, "count")
    out["txn.obligations_per_commit"] = (c["txn.obligations"] / commits, "count")
    out["txn.aborts_per_commit"] = (c["txn.aborts"] / commits, "ratio")
    out["shell.rows_formatted_per_op"] = (c["shell.rows_formatted"] / ops, "rows")
    out["shell.bytes_out_per_op"] = (c["shell.bytes_out"] / ops, "bytes")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
