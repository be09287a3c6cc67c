#!/usr/bin/env python3
"""Paired before/after benchmark of one layer, in one process.

    python3 scripts/bench_ab.py {kernel,exact,walks} [--out PATH]

"Before" is the workload's modules of ``src/qconsensus`` at HEAD when
``src/`` has uncommitted changes, else at HEAD~1, loaded as separate
modules next to the working tree's ("after"). Both sides run each case
the workload's number of repeats, alternating which side goes first in
each repeat; only the calls under test are timed. Each case prints one line, and ``--out`` writes
the JSON record: each side's median and quartiles, the median ratio
after/before, the machine and the revisions. Workloads:

- ``kernel`` (consensus.py, 5 repeats): Mticks/s for each protocol on
  star(101), line(65), lollipop(45) and ER(101), untraced and with
  ``trace_stride=100``, over seeded runs each capped at TICKS_PER_CASE
  ticks until the case has run TICKS_PER_CASE ticks; Mticks/s with
  ``trace_stride=1`` at n=1001 (binary on star(1001), quantized on
  line(1001)) over SMALL_STRIDE_TICKS; us/run over SHORT_RUNS ``line(3)``
  quantized ``q_setting1`` runs. Both sides must give identical ticks,
  outcomes and traces.
- ``exact`` (graphs.py and walks.py, 5 repeats): s/call of
  ``hitting_table`` on extremal lollipops, n = 50/200/481,
  ``resistance_matrix`` on line(100) and lollipop(80), and
  ``complete_graph`` at n = 481/1001. Tables must agree to TABLE_RTOL of
  each column's largest entry (small entries of the O(n^3) tables carry
  more relative error on slow-mixing graphs, see ``walks.hitting_table``),
  and graphs must have the same adjacency.
- ``walks`` (walks.py, 15 repeats): us/run of the four token samples of one
  ``bench/`` short-runs unit, on seeds 0, 1, ...: ``sample_hitting`` on
  star(5), 1 -> 2, 2000 runs; ``sample_pair_meetings`` on line(9), 0 and
  8, X and Xprime, 300 runs each; ``sample_meet_all`` on star(11) from
  node 1, 200 runs. The sides may draw different streams, so nothing is
  compared, and each side's mean ticks over all repeats is recorded.

A disagreement between the sides exits with an error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

# One BLAS thread, as in bench/run.py: set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qconsensus import consensus, graphs, walks  # noqa: E402
from qconsensus.graphs import TopologySpec, build_graph, er_probability  # noqa: E402
from qconsensus.harness import (  # noqa: E402
    init_majority_one,
    init_q_setting1,
    init_q_setting2,
    lollipop_clique_size,
    round_rng,
)

TICKS_PER_CASE = 200_000
SMALL_STRIDE_TICKS = 20_000
SHORT_RUNS = 40_000
TRACE_STRIDE = 100
TABLE_RTOL = 1e-9


@dataclass
class Case:
    """One timed call: ``run(side, repeat)`` returns (seconds timed, result).

    ``side`` has one attribute per module of the workload: that side's module.
    A case's value in ``unit`` is seconds/call ("s/call"), work/seconds
    ("Mticks/s", ``work`` in Mticks) or 1e6 * seconds/work ("us/run",
    ``work`` in runs).
    """

    name: str
    unit: str
    run: Callable[[types.SimpleNamespace, int], tuple[float, object]]
    work: float = 1.0
    extra: dict = field(default_factory=dict)  # more keys of the case's record

    def value(self, seconds: float) -> float:
        if self.unit == "Mticks/s":
            return self.work / seconds
        if self.unit == "us/run":
            return seconds / self.work * 1e6
        return seconds


def timed(fn, *args) -> tuple[float, object]:
    t = perf_counter()
    out = fn(*args)
    return perf_counter() - t, out


# ------------------------------------------------------------------ kernel

KERNEL_TOPOLOGIES = (
    ("star(101)", TopologySpec("star", 101)),
    ("line(65)", TopologySpec("line", 65)),
    ("lollipop(45)", TopologySpec("lollipop", 45, m=lollipop_clique_size(45))),
    ("ER(101)", TopologySpec("erdos_renyi", 101, p=er_probability(101), seed=101)),
)


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


def kernel_case(name, protocol, init, g, ticks_per_case, stride) -> Case:
    """Seeds 0, 1, ... until their runs, each capped at ``ticks_per_case``, reach it."""
    seeds, ticks = [], 0
    while ticks < ticks_per_case:
        _, [(t, *_)] = run_all(consensus, protocol, init, g, [len(seeds)], ticks_per_case, 0)
        seeds.append(len(seeds))
        ticks += t
    return Case(name, "Mticks/s",
                lambda side, rep: run_all(side.consensus, protocol, init, g, seeds,
                                          ticks_per_case, stride),
                ticks / 1e6, {"runs": len(seeds), "ticks": ticks})


def kernel_cases() -> list[Case]:
    cases = []
    for protocol, init in (("binary", "majority_one"), ("quantized", "q_setting2")):
        for topo, spec in KERNEL_TOPOLOGIES:
            g = build_graph(spec)
            for stride in (0, TRACE_STRIDE):
                mode = f"trace_stride={stride}" if stride else "untraced"
                cases.append(kernel_case(f"{protocol}/{topo}/{mode}", protocol, init, g,
                                         TICKS_PER_CASE, stride))
    for protocol, init, topo in (("binary", "majority_one", "star"),
                                 ("quantized", "q_setting2", "line")):
        cases.append(kernel_case(f"{protocol}/{topo}(1001)/trace_stride=1", protocol, init,
                                 build_graph(TopologySpec(topo, 1001)), SMALL_STRIDE_TICKS, 1))
    g = build_graph(TopologySpec("line", 3))
    cases.append(Case(f"quantized/line(3)/q_setting1 x{SHORT_RUNS}", "us/run",
                      lambda side, rep: run_all(side.consensus, "quantized", "q_setting1", g,
                                                range(SHORT_RUNS), 10**6, 0),
                      SHORT_RUNS, {"runs": SHORT_RUNS}))
    return cases


# ------------------------------------------------------------------- exact

def lollipop(n: int) -> graphs.Graph:
    return graphs.lollipop_graph(n, lollipop_clique_size(n))


def same_table(a, b) -> bool:
    """Graphs have the same adjacency; tables agree to TABLE_RTOL of each column's largest entry."""
    if hasattr(a, "adjacency"):  # a Graph of either side's graphs module
        return a.adjacency == b.adjacency
    return bool(np.all(np.abs(a - b) <= TABLE_RTOL * np.maximum(1.0, np.abs(b).max(axis=0))))


def exact_cases() -> list[Case]:
    cases = []
    for n in (50, 200, 481):
        m = walks.transition_matrix(lollipop(n), "biased")
        cases.append(Case(f"hitting_table/lollipop({n})", "s/call",
                          lambda side, rep, m=m: timed(lambda: side.walks.hitting_table(m).h)))
    for name, g in (("line(100)", graphs.line_graph(100)), ("lollipop(80)", lollipop(80))):
        wg = walks.edge_weights(g)
        cases.append(Case(f"resistance_matrix/{name}", "s/call",
                          lambda side, rep, wg=wg: timed(side.walks.resistance_matrix, wg)))
    for n in (481, 1001):
        cases.append(Case(f"complete_graph({n})", "s/call",
                          lambda side, rep, n=n: timed(side.graphs.complete_graph, n)))
    return cases


# ------------------------------------------------------------------- walks

def walks_cases() -> list[Case]:
    star5, line9, star11 = graphs.star_graph(5), graphs.line_graph(9), graphs.star_graph(11)
    samples = (
        ("sample_hitting/star(5)", 2000, lambda mod, seed, runs: mod.sample_hitting(
            star5, 1, 2, seed, runs)),
        ("sample_pair_meetings/line(9)/X", 300, lambda mod, seed, runs:
            mod.sample_pair_meetings(line9, 0, 8, seed, runs, "X")),
        ("sample_pair_meetings/line(9)/Xprime", 300, lambda mod, seed, runs:
            mod.sample_pair_meetings(line9, 0, 8, seed, runs, "Xprime")),
        ("sample_meet_all/star(11)", 200, lambda mod, seed, runs: mod.sample_meet_all(
            star11, 1, [0, *range(2, 11)], seed, runs)),
    )
    return [Case(name, "us/run",
                 lambda side, rep, runs=runs, call=call: timed(call, side.walks, rep, runs),
                 runs, {"runs": runs})
            for name, runs, call in samples]


@dataclass
class Workload:
    title: str
    modules: tuple[str, ...]
    repeats: int
    cases: Callable[[], list[Case]]
    same: Callable[[object, object], bool] | None  # None: the sides' results may differ


WORKLOADS = {
    "kernel": Workload("paired protocol-kernel before/after, one process", ("consensus",), 5,
                       kernel_cases, lambda a, b: a == b),
    "exact": Workload("paired exact-layer and graph-build before/after, one process",
                      ("graphs", "walks"), 5, exact_cases, same_table),
    "walks": Workload("paired token Monte Carlo before/after, one process", ("walks",), 15,
                      walks_cases, None),
}


# ------------------------------------------------------------------ driver

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


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": samples}


def measure(case: Case, sides: dict, repeats: int, same) -> dict:
    """Paired repeats of one case; with ``same``, every result must match the first."""
    values = {"before": [], "after": []}
    samples = {"before": [], "after": []}
    reference = None
    for rep in range(repeats):
        order = ("before", "after") if rep % 2 == 0 else ("after", "before")
        for side in order:
            seconds, result = case.run(sides[side], rep)
            values[side].append(case.value(seconds))
            if same is None:
                samples[side].append(result)
            elif reference is None:
                reference = result
            elif not same(result, reference):
                raise SystemExit(f"error: {case.name}: before and after results differ")
    record = {"name": case.name, "unit": case.unit,
              "better": "higher" if case.unit == "Mticks/s" else "lower", **case.extra,
              "before": summary(values["before"]), "after": summary(values["after"])}
    if same is None:
        for side in sides:
            record[side]["mean_ticks"] = float(np.concatenate(samples[side]).mean())
    record["ratio_after_over_before"] = record["after"]["median"] / record["before"]["median"]
    print(f"{case.name:40s} {record['before']['median']:10.4g} -> "
          f"{record['after']['median']:10.4g} {case.unit} "
          f"(x{record['ratio_after_over_before']:.3f})", flush=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--out", help="path of the JSON record (default: not written)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    before_rev = before_revision()
    sides = {
        "before": types.SimpleNamespace(**{m: load_before(before_rev, m)
                                           for m in workload.modules}),
        "after": types.SimpleNamespace(**{m: importlib.import_module(f"qconsensus.{m}")
                                          for m in workload.modules}),
    }
    cases = [measure(case, sides, workload.repeats, workload.same)
             for case in workload.cases()]
    if workload.same is not None:
        print(f"before and after agree on all {len(cases)} cases")
    if args.out:
        record = {
            "benchmark": workload.title,
            "command": "python3 scripts/bench_ab.py " + " ".join(argv or sys.argv[1:]),
            "machine": machine(),
            "revision": revisions(before_rev),
            "repeats": workload.repeats,
            "blas_threads": BLAS_THREADS,
            "cases": cases,
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
