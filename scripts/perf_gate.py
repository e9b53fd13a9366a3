#!/usr/bin/env python3
"""Paired perf gate: perfbench on the parent commit against this tree.

    python3 scripts/perf_gate.py             # exit 1 on a regression
    python3 scripts/perf_gate.py --selftest  # check the comparison rule

HEAD^ (a pull request merge commit's base, a push's parent) is checked
out as a git worktree under .bench_build/. For every workload in
BENCHMARK.json both trees' own perfbench/run.py run PAIRS times,
alternating which runs first.
The gate fails when a run of this tree is incorrect, or when on a workload
this tree loses every pair on METRIC *and* its median is worse than the
parent's by more than the metric's bound: one slow run loses one pair, a
real slowdown loses them all (docs/observability.md "Perf gate").
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARENT = os.path.join(ROOT, ".bench_build", "perf-gate-parent")
PAIRS = 5
SECONDS = 5
METRIC = "steps_per_s"


def run(tree, workload):
    """One perfbench run of `tree`; its JSON result, or None."""
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]) if done.returncode == 0 else None
    except (IndexError, ValueError):
        return None


def value(result):
    return (result or {}).get("metrics", {}).get(METRIC, {}).get("value")


def verdict(results, bound):
    """Problems found in {workload: {"parent": [...], "change": [...]}}.

    The lists hold one perfbench result (or None) per pair, in pair order;
    METRIC is higher-is-better.
    """
    problems = []
    for workload, sides in results.items():
        for i, result in enumerate(sides["change"]):
            if not result or not result.get("correct") or result.get(
                    "failed", 1) > 0:
                problems.append("%s: change run %d is not correct: %s"
                                % (workload, i + 1, result))
        pairs = [(value(p), value(c))
                 for p, c in zip(sides["parent"], sides["change"])
                 if value(p) is not None and value(c) is not None]
        if len(pairs) < PAIRS:
            continue  # missing parent results: nothing to compare against
        lost = sum(1 for p, c in pairs if c < p)
        parent = statistics.median(p for p, _ in pairs)
        change = statistics.median(c for _, c in pairs)
        worse = (parent - change) / parent if parent else 0.0
        if lost == len(pairs) and worse > bound:
            problems.append(
                "%s: %s lost %d of %d pairs, median %.4g vs parent %.4g "
                "(%.0f%% worse, bound %.0f%%)"
                % (workload, METRIC, lost, len(pairs), change, parent,
                   100 * worse, 100 * bound))
    return problems


def checkout_parent():
    """Checks HEAD^ out at PARENT, reusing an earlier worktree (and so its
    perfbench build) when there is one."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD^"],
                            check=True, capture_output=True,
                            text=True).stdout.strip()
    subprocess.run(["git", "-C", ROOT, "worktree", "prune"], check=True)
    if os.path.exists(os.path.join(PARENT, ".git")):
        subprocess.run(["git", "-C", PARENT, "checkout", "--quiet",
                        "--detach", "--force", commit], check=True)
    else:
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        PARENT, commit], check=True)


def gate():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metric = next(m for m in benchmark["end_to_end"] if m["name"] == METRIC)
    checkout_parent()
    results = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        sides = results[workload] = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = [("parent", PARENT), ("change", ROOT)]
            for side, tree in order if i % 2 == 0 else reversed(order):
                sides[side].append(run(tree, workload))
            print("%s pair %d: %s parent %s, change %s"
                  % (workload, i + 1, METRIC, value(sides["parent"][-1]),
                     value(sides["change"][-1])), flush=True)
    problems = verdict(results, metric["bound"])
    for problem in problems:
        print("PERF GATE FAILURE: " + problem)
    print("perf gate: " + ("OK" if not problems else "FAILED"))
    return 0 if not problems else 1


def selftest():
    def result(rate, correct=True):
        return {"correct": correct, "failed": 0,
                "metrics": {METRIC: {"value": rate, "unit": "1/s"}}}

    def sides(parent, change):
        return {"parent": [result(r) for r in parent],
                "change": [result(r) for r in change]}

    base = [1.0e6, 1.1e6, 0.9e6, 1.05e6, 0.95e6]
    noisy = [r * f for r, f in zip(base, [1.2, 0.8, 1.15, 0.85, 1.0])]
    # Slower in the median by more than the bound, but one pair won.
    one_win = [r * f for r, f in zip(base, [0.7, 0.7, 0.7, 0.7, 1.3])]
    broken = sides(base, base)
    broken["change"][2] = result(base[2], correct=False)
    cases = [
        ("identical sides pass", {"a": sides(base, base)}, None),
        ("+-20% noise passes",
         {"a": sides(base, noisy), "b": sides(base, [r * 0.8 for r in base]),
          "c": sides(base, one_win)}, None),
        ("2x slowdown fails and names its workload",
         {"a": sides(base, base), "slow": sides(base, [r / 2 for r in base])},
         "slow:"),
        ("an incorrect change run fails", {"a": broken}, "not correct"),
    ]
    failures = 0
    for name, results, expect in cases:
        problems = verdict(results, 0.25)
        ok = (not problems if expect is None else
              len(problems) == 1 and expect in problems[0])
        failures += not ok
        print("[%s] %s %s" % ("OK" if ok else "FAIL", name, problems or ""))
    print("perf gate self-test: " + ("OK" if not failures else "FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(selftest())
    if sys.argv[1:]:
        sys.exit("usage: perf_gate.py [--selftest]")
    sys.exit(gate())
