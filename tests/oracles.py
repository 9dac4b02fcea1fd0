"""Independent oracles and random-case generators for the acceptance suite.

The brute-force connection oracle finds the shortest schema path with
networkx (not the engine's search) and then enumerates the full Cartesian
product of every relation on the path, filtering on reference equality along
each edge. It must agree with the engine's chain-join exactly.
"""

import itertools
import random
import string

import networkx as nx

import relang
from relang import parse_script
from relang.store import iter_refs
from relang.txn import CommitReport
from relang.values import (
    IntVal,
    RealVal,
    RefVal,
    TextVal,
    TimestampVal,
    TupleVal,
    encode_tuple,
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
    source_keys = {encode_tuple(t) for t in source_tuples}
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
        if ok and encode_tuple(combo[-1][1]) in source_keys:
            results.add(encode_tuple(tuple(combo[0][1]) + tuple(combo[-1][1])))
    return results


def engine_connection_keys(db, target, source_relation):
    from relang.evaluator import connect, relation_schema, TupleSet

    env = db.env()
    rel = db.catalog.lookup(source_relation)
    source = TupleSet.from_tuples(
        relation_schema(rel), db.txn.shadow.scan(source_relation).values(), relation=source_relation
    )
    return connect(target, source, env).keys(), source.tuples()


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


def index_faults(state):
    """Every (relation, what) whose index disagrees with its own rows: the
    key array must list each row once, under its own key, in key order, and
    the reverse maps must equal a rebuild from the rows. Empty on any state,
    published or not."""
    faults = []
    for rel_name, idx in state.indexes.items():
        if any(k > after for k, after in zip(idx.keys, idx.keys[1:])):
            faults.append((rel_name, "keys out of order"))
        if list(zip(idx.keys, idx.ids)) != [
            (encode_tuple(idx.rows[rowid]), rowid) for rowid in idx.ids
        ] or sorted(idx.ids) != sorted(idx.rows):
            faults.append((rel_name, "keys differ from the rows"))
        rebuilt = {}
        for rowid, values in idx.rows.items():
            for pos, v in enumerate(values):
                for target in iter_refs([v]):
                    rebuilt.setdefault(pos, {}).setdefault(target, set()).add(rowid)
        current = {
            pos: {t: set(rs) for t, rs in mapping.items() if rs}
            for pos, mapping in idx.reverse.items()
            if any(mapping.values())
        }
        if current != rebuilt:
            faults.append((rel_name, "reverse maps differ from the rows"))
    return faults


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
    every relation's key array. Empty on any publishable state."""
    return [
        (rel_name, key)
        for rel_name, idx in state.indexes.items()
        for key, after in zip(idx.keys, idx.keys[1:])
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


# --- random schema/database generation -------------------------------------------


def random_tree_db(rng: random.Random, max_rows=20, texts=string.ascii_lowercase[:6]):
    """A database over a random tree-shaped schema (unique shortest paths).

    Each non-root relation adopts exactly one earlier relation, plus scalar
    padding domains; rows reference random rows of the adopted relation.
    Text values are drawn from ``texts``.
    """
    db = relang.Database()
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
            scalar = rng.choice(["int", "text", "real", "timestamp"])
            domains.append(f"(s{j} {scalar})")
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
                    values.append(RealVal(rng.uniform(-5.0, 5.0)))
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
