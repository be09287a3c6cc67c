#!/usr/bin/env python3
"""Paired before/after benchmark of the exact layer and graph validation, in one process.

    python3 scripts/bench_exact.py [--out BENCH_4.json]

"Before" is ``walks.py`` and ``graphs.py`` at the revision that
``scripts/bench_kernel.py`` picks (HEAD when ``src/`` has uncommitted
changes, else HEAD~1), loaded as separate modules next to the working
tree's ("after"). Both sides get the same inputs REPEATS times, alternating
which side goes first in each repeat; only the call itself is timed. Cases:

- ``hitting_table`` of the biased walk on extremal lollipops, n = 50/200/481;
- ``resistance_matrix`` on line(100) and the extremal lollipop(80);
- ``complete_graph`` builds, n = 481/1001 (almost all of it is validation
  in ``Graph.__post_init__`` before).

Tables of both sides must agree to 1e-9 of each column's largest entry
(entrywise, small entries of the O(n^3) tables carry more relative error
on large slow-mixing graphs, see ``walks.hitting_table``), and graphs must
have the same adjacency. The JSON gives each side's median and quartiles in seconds
per call, the median ratio after/before, the machine and the revisions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread, as in bench/run.py: set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from bench_kernel import before_revision, load_before, machine, revisions, summary  # noqa: E402

from qconsensus import graphs, walks  # noqa: E402  (bench_kernel puts ./src on the path)
from qconsensus.harness import lollipop_clique_size  # noqa: E402

REPEATS = 5
TABLE_RTOL = 1e-9


def lollipop(n: int) -> graphs.Graph:
    return graphs.lollipop_graph(n, lollipop_clique_size(n))


def close(a: np.ndarray, b: np.ndarray) -> bool:
    """Entries agree to TABLE_RTOL of their column's largest entry."""
    return bool(np.all(np.abs(a - b) <= TABLE_RTOL * np.maximum(1.0, np.abs(b).max(axis=0))))


def measure(name, before_fn, after_fn, arg, same):
    """Paired repeats of one call; both sides' results must agree."""
    times = {"before": [], "after": []}
    fns = {"before": before_fn, "after": after_fn}
    results = {}
    for rep in range(REPEATS):
        order = ("before", "after") if rep % 2 == 0 else ("after", "before")
        for side in order:
            t = perf_counter()
            results[side] = fns[side](arg)
            times[side].append(perf_counter() - t)
        if not same(results["after"], results["before"]):
            raise SystemExit(f"error: {name}: before and after results differ")
    case = {"name": name, "unit": "s/call", "better": "lower",
            "before": summary(times["before"]), "after": summary(times["after"])}
    case["ratio_after_over_before"] = case["after"]["median"] / case["before"]["median"]
    print(f"{name:40s} {case['before']['median']:9.4f} -> {case['after']['median']:9.4f} "
          f"s/call (x{case['ratio_after_over_before']:.4f})", flush=True)
    return case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_4.json")
    args = parser.parse_args(argv)
    before_rev = before_revision()
    old_graphs = load_before(before_rev, "graphs")
    old_walks = load_before(before_rev, "walks")
    cases = []
    for n in (50, 200, 481):
        m = walks.transition_matrix(lollipop(n), "biased")
        cases.append(measure(f"hitting_table/lollipop({n})", old_walks.hitting_table,
                             walks.hitting_table, m, lambda a, b: close(a.h, b.h)))
    for name, g in (("line(100)", graphs.line_graph(100)), ("lollipop(80)", lollipop(80))):
        cases.append(measure(f"resistance_matrix/{name}", old_walks.resistance_matrix,
                             walks.resistance_matrix, walks.edge_weights(g), close))
    for n in (481, 1001):
        cases.append(measure(f"complete_graph({n})", old_graphs.complete_graph,
                             graphs.complete_graph, n,
                             lambda a, b: a.adjacency == b.adjacency))
    record = {
        "benchmark": "paired exact-layer and graph-build before/after, one process",
        "command": "python3 scripts/bench_exact.py " + " ".join(argv or sys.argv[1:]),
        "machine": machine(),
        "revision": revisions(before_rev),
        "repeats": REPEATS,
        "blas_threads": BLAS_THREADS,
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
