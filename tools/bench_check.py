#!/usr/bin/env python3
"""Per-sweep invariants of the BENCH_*.json artifacts.

    bench_check.py committed.json fresh.json

runs the checks registered for the fresh file's name (see CHECKS) on
the freshly regenerated artifact; the absint checks also compare it
against the committed one.  bench_diff.py --exact pins the numbers;
these assertions pin what the numbers mean, so a deliberate
regeneration cannot quietly break a sweep's story.  Exit status:
0 = every assertion holds, 1 = an assertion failed, 2 = usage.
"""

import json
import os
import sys

BUCKETS = ["cpu", "dependence_wait", "pool_wait", "ether",
           "fs", "backoff", "rollback", "master_serial"]


def check_parallel(bench, committed):
    assert bench["schema"] == "warpcc-bench-parallel/1", bench["schema"]
    assert bench["speedup"] and bench["fault_sweep"], "BENCH_parallel.json is empty"
    print("BENCH_parallel.json ok:", len(bench["speedup"]), "speedup +",
          len(bench["fault_sweep"]), "fault points")


def check_sched(bench, committed):
    assert bench["schema"] == "warpcc-bench-sched/1", bench["schema"]
    points = bench["points"]
    assert points, "BENCH_sched.json has no points"
    policies = {p["policy"] for p in points}
    assert policies == {"fcfs", "lpt", "lpt+batch"}, policies
    print("BENCH_sched.json ok:", len(points), "points")


def check_deps(bench, committed):
    assert bench["schema"] == "warpcc-bench-deps/1", bench["schema"]
    points = bench["points"]
    assert points, "BENCH_deps.json has no points"
    policies = {p["policy"] for p in points}
    assert policies == {"fcfs", "dag", "dag+lpt"}, policies
    for p in points:
        assert 0.0 <= p["licensed_fraction"] <= 1.0, p
        # Edge-free points under `dag` must reproduce FCFS exactly.
        if p["policy"] == "dag" and p["edges"] == 0:
            fcfs = next(q for q in points
                        if q["series"] == p["series"] and q["policy"] == "fcfs")
            assert p["elapsed"] == fcfs["elapsed"], (p, fcfs)
    print("BENCH_deps.json ok:", len(points), "points")


def check_absint(fresh, committed):
    assert fresh["schema"] == "warpcc-bench-absint/1", fresh["schema"]
    points = fresh["points"]
    assert points, "BENCH_absint.json has no points"

    improved = 0
    for p in points:
        # Every pruned plan must have replayed clean under the
        # race oracle, and pruning can only license more pairs.
        assert p["race_violations"] == 0, p
        assert p["licensed_on"] >= p["licensed_off"], p
        assert p["edges_off"] - p["edges_on"] <= p["pruned"], p
        if p["licensed_on"] > p["licensed_off"]:
            improved += 1
    assert improved >= 2, f"licensed fraction improved on only {improved} program(s)"

    # No regression against the committed sweep.
    by_series = {p["series"]: p for p in committed["points"]}
    for p in points:
        c = by_series[p["series"]]
        assert p["licensed_on"] >= c["licensed_on"], (p, c)
        assert p["pruned"] >= c["pruned"], (p, c)
    print("BENCH_absint.json ok:", len(points), "points,",
          improved, "programs improved")


def check_spec(fresh, committed):
    assert fresh["schema"] == "warpcc-bench-spec/1", fresh["schema"]
    points = fresh["points"]
    assert points, "BENCH_spec.json has no points"

    faster = 0
    for p in points:
        # The commit protocol must have replayed clean, the
        # counters must balance, and speculation must never lose
        # to gated dispatch.
        assert p["race_violations"] == 0, p
        assert p["spec_dispatched"] == p["spec_committed"] + p["spec_rolled_back"], p
        assert p["elapsed_spec"] <= p["elapsed_lpt"], p
        # Hot edges are a subset of the speculative ones, and a series
        # with no hot edge has nothing to abort on: both catch an edge
        # class mix-up in either direction.
        assert 0 <= p["hot_edges"] <= p["spec_edges"], p
        assert p["hot_edges"] > 0 or p["spec_rolled_back"] == 0, p
        if p["elapsed_spec"] < p["elapsed_lpt"] and p["spec_rolled_back"] == 0:
            faster += 1
    assert faster >= 2, f"dag+spec strictly faster with all commits on only {faster} point(s)"
    racy = [p for p in points if p["hot_edges"] > 0]
    assert racy and all(p["spec_rolled_back"] >= 1 for p in racy), racy
    print("BENCH_spec.json ok:", len(points), "points,",
          faster, "strictly faster with all speculations committed")


def check_profile(bench, committed):
    assert bench["schema"] == "warpcc-bench-profile/1", bench["schema"]
    points = bench["points"]
    assert points, "BENCH_profile.json has no points"
    for p in points:
        acc = 0.0
        for k in BUCKETS:
            acc += p["buckets"][k]
        assert acc == p["elapsed"], (p["series"], p["policy"], p["pool"])
        assert p["dominant"] in BUCKETS, p
    print("BENCH_profile.json ok:", len(points),
          "points, all bucket sums bit-exact")


def check_cache(fresh, committed):
    assert fresh["schema"] == "warpcc-bench-cache/1", fresh["schema"]
    points = fresh["points"]
    assert points, "BENCH_cache.json has no points"
    for p in points:
        # Warm strictly below cold on every point, every lookup
        # hitting; the one-edit run recompiles exactly the closure.
        assert p["warm_elapsed"] < p["cold_elapsed"], p
        assert p["cold_hits"] == 0 and p["warm_misses"] == 0, p
        assert p["cold_misses"] == p["functions"] == p["warm_hits"], p
        assert p["edit_misses"] == p["closure"] == p["edit_invalidated"], p
        assert p["edit_hits"] == p["functions"] - p["closure"], p
    print("BENCH_cache.json ok:", len(points), "points")


def check_link(bench, committed):
    assert bench["schema"] == "warpcc-bench-link/2", bench["schema"]
    compose, sched = bench["compose"], bench["sched"]
    assert compose and sched, "BENCH_link.json sweep is empty"
    for p in compose:
        assert p["cross_edges"] > 0 and p["cross_edges"] < p["edges"], p
        assert 0.0 <= p["licensed"] <= 1.0, p
        if p["shape"] == "clustered":
            assert p["diags"].get("W011", 0) > 0, p
        else:
            assert p["diags"] == {} and p["missing"] == 0, p
    for p in sched:
        # Every composed-DAG schedule replayed clean under the
        # race oracle, and gated dispatch must beat FCFS.
        assert p["race_violations"] == 0, p
        if p["policy"] == "dag+lpt":
            assert p["speedup_vs_fcfs"] > 1.0, p
        # With no speculative edge, dag+spec has nothing to speculate
        # past and must replay dag+lpt exactly.
        if p["policy"] == "dag+spec" and p["spec_edges"] == 0:
            lpt = next(q for q in sched
                       if (q["shape"], q["modules"], q["policy"])
                       == (p["shape"], p["modules"], "dag+lpt"))
            assert p["elapsed"] == lpt["elapsed"], (p, lpt)
    print("BENCH_link.json ok:", len(compose), "compose +",
          len(sched), "sched points")


CHECKS = {
    "BENCH_parallel.json": check_parallel,
    "BENCH_sched.json": check_sched,
    "BENCH_deps.json": check_deps,
    "BENCH_absint.json": check_absint,
    "BENCH_spec.json": check_spec,
    "BENCH_profile.json": check_profile,
    "BENCH_cache.json": check_cache,
    "BENCH_link.json": check_link,
}


def main():
    if len(sys.argv) != 3 or os.path.basename(sys.argv[2]) not in CHECKS:
        print(__doc__, file=sys.stderr)
        print("known files:", ", ".join(CHECKS), file=sys.stderr)
        sys.exit(2)
    committed_path, fresh_path = sys.argv[1], sys.argv[2]
    with open(committed_path) as f:
        committed = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    CHECKS[os.path.basename(fresh_path)](fresh, committed)


if __name__ == "__main__":
    main()
