#!/usr/bin/env python3
"""Paired before/after benchmark of the protocol kernels, in one process.

    python3 scripts/bench_kernel.py [--out BENCH_2.json]

"Before" is ``src/qconsensus/consensus.py`` at HEAD when ``src/`` has
uncommitted changes, else at HEAD~1, loaded as a separate module next to
the working tree's ``consensus.py`` ("after").
Both sides run the same seeded runs REPEATS times, alternating which side
goes first in each repeat, and must agree on every run's ticks, outcome and
trace. Only the ``run_to_convergence`` calls are timed. Cases:

- Mticks/s for each protocol on star(101), line(65), lollipop(45) and
  ER(101), untraced and with ``trace_stride=100``: seeded runs, each capped
  at TICKS_PER_CASE ticks, until the case has run TICKS_PER_CASE ticks;
- Mticks/s with ``trace_stride=1`` at n=1001 (binary on star(1001),
  quantized on line(1001)), where the cost of a trace row dominates: seeded
  runs as above, with SMALL_STRIDE_TICKS in place of TICKS_PER_CASE;
- us/run for SHORT_RUNS ``line(3)`` quantized ``q_setting1`` runs.

The JSON gives each side's median and quartiles over the repeats, the
median ratio after/before, the machine and the revisions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qconsensus import consensus as after  # noqa: E402
from qconsensus.graphs import TopologySpec, build_graph, er_probability  # noqa: E402
from qconsensus.harness import (  # noqa: E402
    init_majority_one,
    init_q_setting1,
    init_q_setting2,
    lollipop_clique_size,
    round_rng,
)

REPEATS = 5
TICKS_PER_CASE = 200_000
SMALL_STRIDE_TICKS = 20_000
SHORT_RUNS = 40_000
TRACE_STRIDE = 100
TOPOLOGIES = (
    ("star(101)", TopologySpec("star", 101)),
    ("line(65)", TopologySpec("line", 65)),
    ("lollipop(45)", TopologySpec("lollipop", 45, m=lollipop_clique_size(45))),
    ("ER(101)", TopologySpec("erdos_renyi", 101, p=er_probability(101), seed=101)),
)


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def before_revision() -> str:
    """HEAD when ``src/`` has uncommitted changes, else HEAD~1."""
    return "HEAD" if git("status", "--porcelain", "src") else "HEAD~1"


def load_before(rev: str, name: str) -> types.ModuleType:
    """``src/qconsensus/<name>.py`` at ``rev`` as the module ``qconsensus.<name>_before``."""
    source = git("show", f"{rev}:src/qconsensus/{name}.py")
    module = types.ModuleType(f"qconsensus.{name}_before")
    module.__package__ = "qconsensus"
    sys.modules[module.__name__] = module
    exec(compile(source, f"{rev}:{name}.py", "exec"), module.__dict__)
    return module


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def revisions(before_rev: str) -> dict:
    after_rev = git("rev-parse", "HEAD")
    if before_rev == "HEAD":
        after_rev += " + working tree"
    return {"before": git("rev-parse", before_rev), "after": after_rev}


def initial_state(mod, init: str, g, rng):
    """A state of ``mod``'s own classes, drawn exactly as the harness draws it."""
    if init == "majority_one":
        return mod.BinaryState.from_opinions(init_majority_one(g.n, rng).opinions)
    state = init_q_setting1(g, rng) if init == "q_setting1" else init_q_setting2(g.n, rng)
    return mod.QuantizedState.from_values(state.values)


def run_all(mod, protocol, init, g, seeds, max_ticks, stride):
    """Time each run_to_convergence call; return (seconds, per-run outcomes)."""
    elapsed = 0.0
    outcomes = []
    for seed in seeds:
        rng = round_rng(seed, g.n, 0)
        state = initial_state(mod, init, g, rng)
        t = perf_counter()
        res = mod.run_to_convergence(protocol, g, state, rng, max_ticks, stride)
        elapsed += perf_counter() - t
        outcomes.append((res.ticks, res.converged, res.detail, res.trace))
    return elapsed, outcomes


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def measure(before, name, unit, protocol, init, g, seeds, max_ticks, stride):
    """Paired repeats of one case; both sides must produce identical outcomes."""
    times = {"before": [], "after": []}
    sides = {"before": before, "after": after}
    reference = None
    for rep in range(REPEATS):
        order = ("before", "after") if rep % 2 == 0 else ("after", "before")
        for side in order:
            elapsed, outcomes = run_all(sides[side], protocol, init, g, seeds, max_ticks, stride)
            if reference is None:
                reference = outcomes
            elif outcomes != reference:
                raise SystemExit(f"error: {name}: {side} outcomes differ")
            times[side].append(elapsed)
    ticks = sum(o[0] for o in reference)
    if unit == "Mticks/s":
        values = {side: [ticks / t / 1e6 for t in ts] for side, ts in times.items()}
    else:
        values = {side: [t / len(seeds) * 1e6 for t in ts] for side, ts in times.items()}
    case = {"name": name, "unit": unit, "better": "higher" if unit == "Mticks/s" else "lower",
            "runs": len(seeds), "ticks": ticks,
            "before": summary(values["before"]), "after": summary(values["after"])}
    case["ratio_after_over_before"] = case["after"]["median"] / case["before"]["median"]
    print(f"{name:40s} {case['before']['median']:9.3f} -> {case['after']['median']:9.3f} "
          f"{unit} (x{case['ratio_after_over_before']:.2f})", flush=True)
    return case


def seeds_for(protocol, init, g, ticks_per_case) -> list[int]:
    """Seeds 0, 1, ... until their runs, each capped at ``ticks_per_case``, reach it."""
    seeds, total = [], 0
    while total < ticks_per_case:
        seed = len(seeds)
        _, [(ticks, *_)] = run_all(after, protocol, init, g, [seed], ticks_per_case, 0)
        seeds.append(seed)
        total += ticks
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_2.json")
    args = parser.parse_args(argv)
    before_rev = before_revision()
    before = load_before(before_rev, "consensus")
    cases = []
    for protocol, init in (("binary", "majority_one"), ("quantized", "q_setting2")):
        for topo, spec in TOPOLOGIES:
            g = build_graph(spec)
            seeds = seeds_for(protocol, init, g, TICKS_PER_CASE)
            for stride in (0, TRACE_STRIDE):
                mode = f"trace_stride={stride}" if stride else "untraced"
                cases.append(measure(before, f"{protocol}/{topo}/{mode}", "Mticks/s", protocol,
                                     init, g, seeds, TICKS_PER_CASE, stride))
    for protocol, init, topo in (("binary", "majority_one", "star"),
                                 ("quantized", "q_setting2", "line")):
        g = build_graph(TopologySpec(topo, 1001))
        seeds = seeds_for(protocol, init, g, SMALL_STRIDE_TICKS)
        cases.append(measure(before, f"{protocol}/{topo}(1001)/trace_stride=1", "Mticks/s",
                             protocol, init, g, seeds, SMALL_STRIDE_TICKS, 1))
    g = build_graph(TopologySpec("line", 3))
    cases.append(measure(before, f"quantized/line(3)/q_setting1 x{SHORT_RUNS}", "us/run",
                         "quantized", "q_setting1", g, range(SHORT_RUNS), 10**6, 0))
    record = {
        "benchmark": "paired protocol-kernel before/after, one process",
        "command": "python3 scripts/bench_kernel.py " + " ".join(argv or sys.argv[1:]),
        "machine": machine(),
        "revision": revisions(before_rev),
        "repeats": REPEATS,
        "ticks_per_case": TICKS_PER_CASE,
        "small_stride_ticks": SMALL_STRIDE_TICKS,
        "cases": cases,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
