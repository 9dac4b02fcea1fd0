#!/usr/bin/env python3
"""Measure the connection operator against brute-force join enumeration.

Generates random tree-shaped schemas, populates them, and answers random
connection queries two ways: with the engine's index-backed chain join and
with full Cartesian-product enumeration. Each query runs from the whole
source relation, from the empty set and from a random proper subset of it.
Verifies exact agreement and reports timings.

Usage: python scripts/join_elimination_experiment.py [N_SCHEMAS] [SEED]
"""

import itertools
import random
import string
import sys
import time

sys.path.insert(0, "src")

import relang
from relang.evaluator import TupleSet, connect, relation_schema
from relang.values import RefVal, TextVal


def make_random_db(rng, n_relations, max_rows):
    db = relang.Database()
    names = [f"r{i}" for i in range(n_relations)]
    for i, name in enumerate(names):
        domains = []
        if i > 0:
            parent = names[rng.randrange(i)]
            domains.append(f"(p_{parent} {parent})")
        domains.append(f"(tag text)")
        for stmt in relang.parse_script(f"relation ({name} {' '.join(domains)})"):
            db.execute(stmt)
    for name in names:
        rel = db.catalog.lookup(name)
        for _ in range(rng.randint(1, max_rows)):
            values = []
            ok = True
            for dom in rel.domains:
                if dom.type_name == "text":
                    values.append(TextVal(rng.choice(string.ascii_lowercase)))
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


def brute_force(db, target, source_rel, source_tuples):
    from relang.evaluator import shortest_path

    path = shortest_path(db.catalog, target, source_rel)
    names = [target]
    for edge, other in path:
        names.append(other)
    state = db.published
    row_lists = [sorted(state.indexes[n].rows.items()) for n in names]
    source_set = set(source_tuples)
    out = set()
    for combo in itertools.product(*row_lists):
        ok = True
        for i, (edge, _other) in enumerate(path):
            a_rel, b_rel = names[i], names[i + 1]
            (a_rid, a_tup), (b_rid, b_tup) = combo[i], combo[i + 1]
            if edge.adopter == a_rel:
                ok = a_tup[edge.position] == RefVal(b_rel, b_rid)
            else:
                ok = b_tup[edge.position] == RefVal(a_rel, a_rid)
            if not ok:
                break
        if ok and combo[-1][1] in source_set:
            out.add(combo[0][1] + combo[-1][1])
    return out


def main():
    n_schemas = int(sys.argv[1]) if len(sys.argv) > 1 else 30
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1
    rng = random.Random(seed)
    pick = random.Random(seed + 1)  # draws the source subsets
    engine_total = brute_total = 0.0
    checked = 0
    for trial in range(n_schemas):
        db, names = make_random_db(rng, rng.randint(3, 5), max_rows=15)
        target, source_rel = rng.sample(names, 2)
        whole = list(db.published.scan(source_rel).values())
        sources = [whole, []]
        if len(whole) > 1:
            sources.append(pick.sample(whole, pick.randrange(1, len(whole))))
        for source_tuples in sources:
            try:
                t0 = time.perf_counter()
                source = TupleSet(
                    relation_schema(db.catalog.lookup(source_rel)),
                    source_rel,
                    dict.fromkeys(source_tuples, ()),
                )
                engine = set(connect(target, source, db.env()).members())
                t1 = time.perf_counter()
                oracle = brute_force(db, target, source_rel, source_tuples)
                t2 = time.perf_counter()
            except relang.errors.AmbiguousPath:
                break
            assert engine == oracle, f"disagreement on trial {trial}"
            engine_total += t1 - t0
            brute_total += t2 - t1
            checked += 1
    print(f"{checked} random connection queries, engine == brute force on all")
    print(f"engine (index chain join): {engine_total * 1000:8.2f} ms total")
    print(f"brute force (full product): {brute_total * 1000:8.2f} ms total")


if __name__ == "__main__":
    main()
