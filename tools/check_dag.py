#!/usr/bin/env python3
"""Check the DAG invariants of `warpcc analyze --json` output.

For every section of a module document, and for the link of a project
document:

- every function appears in exactly one `levels` entry;
- every edge goes from a strictly lower level to a higher one;
- `licensed_fraction` matches a recount of the dependent pairs from
  `edges`, to 1e-6.

A project document must also place every module in exactly one
`module_levels` entry, and every `sccs` group (an import cycle) inside
a single entry.

Usage: python3 tools/check_dag.py FILE.json...
Or import it and call check_dag(doc) on a loaded document.
"""
import json
import sys


def check_graph(where, names, edges, levels, licensed):
    level_of = {}
    for k, level in enumerate(levels):
        for f in level:
            assert f not in level_of, f"{where}: {f} is on two levels"
            level_of[f] = k
    assert sorted(level_of) == sorted(names), \
        f"{where}: levels cover {sorted(level_of)}, functions are {sorted(names)}"
    succs = {f: [] for f in names}
    for a, b in edges:
        assert level_of[a] < level_of[b], \
            f"{where}: edge {a} -> {b} goes from level {level_of[a]} to {level_of[b]}"
        succs[a].append(b)
    # Edges climb levels, so no function reaches itself and each
    # dependent unordered pair is counted once, from its lower end.
    pairs = 0
    for f in names:
        seen, todo = set(), [f]
        while todo:
            for g in succs[todo.pop()]:
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
        pairs += len(seen)
    n = len(names)
    want = 1.0 if n < 2 else 1.0 - pairs / (n * (n - 1) // 2)
    assert abs(licensed - want) < 1e-6, \
        f"{where}: licensed_fraction {licensed} != recount {want}"


def check_dag(doc):
    if doc["kind"] == "module":
        for s in doc["sections"]:
            check_graph(f"{doc['module']}.{s['name']}",
                        [f["name"] for f in s["functions"]],
                        [(e["from"], e["to"]) for e in s["edges"]],
                        s["levels"], s["licensed_fraction"])
        return
    check_graph("project",
                [f["name"] for m in doc["modules"] for f in m["functions"]],
                [(e["from"], e["to"]) for e in doc["edges"]],
                doc["levels"], doc["licensed_fraction"])
    level_of = {}
    for k, level in enumerate(doc["module_levels"]):
        for m in level:
            assert m not in level_of, f"module {m} is on two module levels"
            level_of[m] = k
    modules = sorted(m["name"] for m in doc["modules"])
    assert sorted(level_of) == modules, \
        f"module levels cover {sorted(level_of)}, modules are {modules}"
    for group in doc["sccs"]:
        assert len({level_of[m] for m in group}) == 1, \
            f"import cycle {group} spans module levels {doc['module_levels']}"


if __name__ == "__main__":
    for path in sys.argv[1:]:
        with open(path) as f:
            check_dag(json.load(f))
        print(f"{path}: DAG invariants hold")
