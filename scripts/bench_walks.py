#!/usr/bin/env python3
"""Paired before/after benchmark of the token Monte Carlo samplers, in one process.

    python3 scripts/bench_walks.py [--out BENCH_6.json]

"Before" is ``walks.py`` at the revision that ``scripts/bench_kernel.py``
picks (HEAD when ``src/`` has uncommitted changes, else HEAD~1), loaded as
a separate module next to the working tree's ("after"). Both sides draw the
same sample REPEATS times, on seeds 0, 1, ..., alternating which side goes
first in each repeat; only the sample_* call is timed. The cases are the
four token samples of one ``bench/`` short-runs unit:

- ``sample_hitting`` on star(5), 1 -> 2, 2000 runs;
- ``sample_pair_meetings`` on line(9), 0 and 8, couplings X and Xprime,
  300 runs each;
- ``sample_meet_all`` on star(11) from node 1 against the 10 other nodes,
  200 runs.

The two sides draw different streams, so their samples differ; the JSON
gives each side's mean ticks over all repeats next to its median and
quartiles in microseconds per run, the median ratio after/before, the
machine and the revisions.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from bench_kernel import before_revision, load_before, machine, revisions, summary

from qconsensus import graphs, walks  # bench_kernel puts ./src on the path

REPEATS = 15
STAR5, LINE9, STAR11 = graphs.star_graph(5), graphs.line_graph(9), graphs.star_graph(11)
CASES = (
    ("sample_hitting/star(5)", 2000, lambda mod, seed, runs: mod.sample_hitting(
        STAR5, 1, 2, seed, runs)),
    ("sample_pair_meetings/line(9)/X", 300, lambda mod, seed, runs: mod.sample_pair_meetings(
        LINE9, 0, 8, seed, runs, "X")),
    ("sample_pair_meetings/line(9)/Xprime", 300, lambda mod, seed, runs: mod.sample_pair_meetings(
        LINE9, 0, 8, seed, runs, "Xprime")),
    ("sample_meet_all/star(11)", 200, lambda mod, seed, runs: mod.sample_meet_all(
        STAR11, 1, [0, *range(2, 11)], seed, runs)),
)


def measure(before, name, runs, call):
    """Paired repeats of one sample; returns the case record."""
    sides = {"before": before, "after": walks}
    times = {"before": [], "after": []}
    ticks = {"before": [], "after": []}
    for rep in range(REPEATS):
        order = ("before", "after") if rep % 2 == 0 else ("after", "before")
        for side in order:
            t = perf_counter()
            sample = call(sides[side], rep, runs)
            times[side].append((perf_counter() - t) / runs * 1e6)
            ticks[side].append(sample)
    case = {"name": name, "unit": "us/run", "better": "lower", "runs": runs,
            "before": summary(times["before"]), "after": summary(times["after"])}
    for side in sides:
        case[side]["mean_ticks"] = float(np.concatenate(ticks[side]).mean())
    case["ratio_after_over_before"] = case["after"]["median"] / case["before"]["median"]
    print(f"{name:40s} {case['before']['median']:9.2f} -> {case['after']['median']:9.2f} "
          f"us/run (x{case['ratio_after_over_before']:.3f})", flush=True)
    return case


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_6.json")
    args = parser.parse_args(argv)
    before_rev = before_revision()
    before = load_before(before_rev, "walks")
    cases = [measure(before, name, runs, call) for name, runs, call in CASES]
    record = {
        "benchmark": "paired token Monte Carlo before/after, one process",
        "command": "python3 scripts/bench_walks.py " + " ".join(argv or sys.argv[1:]),
        "machine": machine(),
        "revision": revisions(before_rev),
        "repeats": REPEATS,
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
