#!/usr/bin/env python3
"""Paired before/after benchmark of one layer, in one process.

    python3 scripts/bench_ab.py {kernel,exact,walks,runs,graphs,traces,sweep} [...] [--out PATH]

"Before" is the whole ``src/qconsensus`` tree at HEAD when ``src/`` has
uncommitted changes, else at HEAD~1, extracted with ``git archive`` into a
temporary directory and imported as its own package, ``qconsensus_before``,
so that its relative imports bind its own modules; "after" is the working
tree's ``qconsensus``. Both sides run each case
the workload's number of repeats, alternating which side goes first in
each repeat; only the calls under test are timed. Each case prints one line, and ``--out`` writes
one JSON record of every workload named, in order: per case, each side's
median, quartiles and fastest repeat, the median ratio after/before and
the fastest/fastest ratio (the statistic ``bench/`` compares); and the
machine and the revisions. Workloads:

- ``kernel`` (consensus.py and harness.py, 15 repeats): Mticks/s for each
  protocol on star(101), line(65), lollipop(45) and ER(101), untraced and with
  ``trace_stride=100``, over seeded runs each capped at TICKS_PER_CASE
  ticks until the case has run TICKS_PER_CASE ticks; Mticks/s with
  ``trace_stride=1`` at n=1001 (binary on star(1001), quantized on
  line(1001)) over SMALL_STRIDE_TICKS; us/run over SHORT_RUNS ``line(3)``
  quantized ``q_setting1`` runs. Both sides must give identical ticks,
  outcomes and traces.
- ``exact`` (graphs.py, walks.py and chains.py, 5 repeats): s/call of
  ``hitting_table`` on extremal lollipops, n = 50/200/481,
  ``resistance_matrix`` on line(100) and lollipop(80), ``meeting_table``
  for coupling X on line(33), lollipop(33) and ER(33) (``topology_spec``
  with master seed MEETING_SEED), ``complete_graph`` at n = 481/1001, and
  ``transition_matrix`` of each walk kind and ``hidden_vertex`` on the
  relabelled lollipop(300) edge list of a ``bench/`` exact unit
  (``Exact(0, ...).relabelled[0]``); each side builds its own graph from
  that edge list before its timed ``transition_matrix`` call, and
  ``hidden_vertex`` reads one biased hitting table. Tables must agree to
  TABLE_RTOL of each column's largest entry (small entries of the O(n^3)
  tables carry more relative error on slow-mixing graphs, see
  ``walks.hitting_table``); walk matrices, hidden vertices and graphs'
  adjacency must be equal.
- ``walks`` (walks.py, 15 repeats): us/run of the four token samples of one
  ``bench/`` short-runs unit, on seeds 0, 1, ...: ``sample_hitting`` on
  star(5), 1 -> 2; ``sample_pair_meetings`` on line(9), 0 and 8, X and
  Xprime; ``sample_meet_all`` on star(11) from node 1; each with the runs
  of ``ShortRuns(...).token_runs``. The sides may draw different streams,
  so nothing is compared, and each side's mean ticks over all repeats is
  recorded.
- ``runs`` (graphs.py, harness.py and consensus.py, 15 repeats): us/run of
  ``round_rng`` + ``initial_state`` + ``run_to_convergence``, each side
  through its own modules, over the protocol cases of one ``bench/``
  short-runs unit (``ShortRuns.PROTOCOL_CASES`` at full size), run ri of a
  case on ``round_rng(RUNS_SEED, n, ri)``; each of the three is timed on
  its own and printed on its own line below the total. Both sides must give
  identical generator states right after ``round_rng``, start states,
  ticks and outcomes.
- ``graphs`` (graphs.py, 15 repeats): s/call of ``build_graph`` over the
  desk ER sweep (``topology_spec`` with master seed GRAPHS_SEED), of
  ER(481) on the same rule, of the lollipop(300) edge list with nodes
  relabelled by a GRAPHS_SEED permutation, of complete(481), over the
  desk line and lollipop sweeps, and of the extremal lollipop(961) and
  complete(961), the largest generated rows. Both sides must give the
  same adjacency and ``meta``.
- ``traces`` (consensus.py and rows.py, 15 repeats): s/call of each side's
  ``write_trace_csv`` over one set of SimResults per case of a ``bench/``
  traced unit (``Traced.CASES``), run once before timing at ``bench/``'s
  ``TRACE_STRIDE``, on seeds 0, 1, ... until the case's ticks reach its
  target. Each side rewrites its own files in a temporary directory,
  as a run of ``bench/`` rewrites its own; the files must match byte for
  byte.
- ``sweep`` (harness.py and what it calls, 15 repeats): s/call of
  ``list(iter_sweep(cfg))``, graph builds included, for each ``SweepConfig``
  of a ``bench/`` grid unit, ``Grid(SWEEP_SEED, ...).configs``, in its
  order. Both sides must give the same records, floats bit for bit.

The ``bench/`` cases are imported from ``bench/workloads.py``, so the two
measure the same work. A disagreement between the sides exits with an error.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
from workloads import TRACE_STRIDE, Exact, Grid, ShortRuns, Traced  # noqa: E402

from qconsensus import consensus, graphs, harness, walks  # noqa: E402
from qconsensus.graphs import TopologySpec, build_graph, er_probability  # noqa: E402
from qconsensus.harness import DESK_N_VALUES, lollipop_clique_size, topology_spec  # noqa: E402

TICKS_PER_CASE = 200_000
SMALL_STRIDE_TICKS = 20_000
SHORT_RUNS = 40_000
TABLE_RTOL = 1e-9
RUNS_SEED = 41
MEETING_SEED = 7
GRAPHS_SEED = 11
BEFORE_PACKAGE = "qconsensus_before"


@dataclass
class Case:
    """One timed call: ``run(side, repeat)`` returns (seconds timed, result).

    ``side`` has one attribute per module of the workload: that side's module.
    A case's value in ``unit`` is seconds/call ("s/call"), work/seconds
    ("Mticks/s", ``work`` in Mticks) or 1e6 * seconds/work ("us/run",
    ``work`` in runs). The seconds may be a dict of the parts of the call,
    each timed on its own; the case's value is then their sum's, and each
    part is also recorded.
    """

    name: str
    unit: str
    run: Callable[[types.SimpleNamespace, int], tuple[float, object]]
    work: float = 1.0
    extra: dict = field(default_factory=dict)  # more keys of the case's record

    @property
    def higher_is_better(self) -> bool:
        return self.unit == "Mticks/s"

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


def bench_workload(cls, seed: int = 0):
    """``bench/``'s workload ``cls`` for ``seed``, made in a directory removed on return."""
    with tempfile.TemporaryDirectory() as tmp:
        return cls(seed, Path(tmp))


# ------------------------------------------------------------------ kernel

KERNEL_TOPOLOGIES = (
    ("star(101)", TopologySpec("star", 101)),
    ("line(65)", TopologySpec("line", 65)),
    ("lollipop(45)", TopologySpec("lollipop", 45, m=lollipop_clique_size(45))),
    ("ER(101)", TopologySpec("erdos_renyi", 101, p=er_probability(101), seed=101)),
)


def run_all(side, protocol, init, g, seeds, max_ticks, stride):
    """Time each run_to_convergence call; return (seconds, per-run outcomes)."""
    elapsed = 0.0
    outcomes = []
    for seed in seeds:
        rng = side.harness.round_rng(seed, g.n, 0)
        state = side.harness.initial_state(protocol, init, g, rng)
        t = perf_counter()
        res = side.consensus.run_to_convergence(protocol, g, state, rng, max_ticks, stride)
        elapsed += perf_counter() - t
        outcomes.append((res.ticks, res.converged, res.detail, res.trace))
    return elapsed, outcomes


def kernel_case(name, protocol, init, g, ticks_per_case, stride) -> Case:
    """Seeds 0, 1, ... until their runs, each capped at ``ticks_per_case``, reach it."""
    here = types.SimpleNamespace(consensus=consensus, harness=harness)
    seeds, ticks = [], 0
    while ticks < ticks_per_case:
        _, [(t, *_)] = run_all(here, protocol, init, g, [len(seeds)], ticks_per_case, 0)
        seeds.append(len(seeds))
        ticks += t
    return Case(name, "Mticks/s",
                lambda side, rep: run_all(side, protocol, init, g, seeds, ticks_per_case,
                                          stride),
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
                      lambda side, rep: run_all(side, "quantized", "q_setting1", g,
                                                range(SHORT_RUNS), 10**6, 0),
                      SHORT_RUNS, {"runs": SHORT_RUNS}))
    return cases


# ------------------------------------------------------------------- exact

def lollipop(n: int) -> graphs.Graph:
    return graphs.lollipop_graph(n, lollipop_clique_size(n))


def same_table(a, b) -> bool:
    """Graphs have the same adjacency, walk matrices the same kind and entries, and
    hidden vertices the same node; tables agree to TABLE_RTOL of each column's largest
    entry."""
    if hasattr(a, "adjacency"):  # a Graph of either side's graphs module
        return a.adjacency == b.adjacency
    if hasattr(a, "kind"):  # a WalkMatrix: both sides evaluate the same float expressions
        return a.kind == b.kind and np.array_equal(a.p, b.p)
    if isinstance(a, int):  # a hidden vertex
        return a == b
    return bool(np.all(np.abs(a - b) <= TABLE_RTOL * np.maximum(1.0, np.abs(b).max(axis=0))))


def exact_cases() -> list[Case]:
    cases = []
    for n in (50, 200, 481):
        m = walks.transition_matrix(lollipop(n), "biased")
        cases.append(Case(f"hitting_table/lollipop({n})", "s/call",
                          lambda side, rep, m=m: timed(lambda: side.walks.hitting_table(m).h)))
    for name, g in (("line(100)", graphs.line_graph(100)), ("lollipop(80)", lollipop(80))):
        # each side's own input, built before its timed call
        cases.append(Case(f"resistance_matrix/{name}", "s/call",
                          lambda side, rep, g=g: timed(side.walks.resistance_matrix,
                                                       side.walks.edge_weights(g))))
    for name, g in (("line(33)", graphs.line_graph(33)), ("lollipop(33)", lollipop(33)),
                    ("ER(33)", build_graph(topology_spec("erdos_renyi", 33, MEETING_SEED)))):
        cases.append(Case(f"meeting_table/{name}", "s/call",
                          lambda side, rep, g=g: timed(side.chains.meeting_table, g, "X")))
    for n in (481, 1001):
        cases.append(Case(f"complete_graph({n})", "s/call",
                          lambda side, rep, n=n: timed(side.graphs.complete_graph, n)))
    spec = bench_workload(Exact).relabelled[0]
    name = f"relabelled lollipop({spec.n})"
    for kind in ("biased", "simple", "natural"):
        # each side's own graph, built before its timed call: from_edges hands csr its arrays
        cases.append(Case(f"transition_matrix/{kind}/{name}", "s/call",
                          lambda side, rep, kind=kind: timed(
                              side.walks.transition_matrix,
                              side.graphs.build_graph(side.graphs.TopologySpec(**vars(spec))),
                              kind)))
    table = walks.hitting_table(walks.transition_matrix(build_graph(spec), "biased"))
    cases.append(Case(f"hidden_vertex/{name}", "s/call",
                      lambda side, rep: timed(side.walks.hidden_vertex, table)))
    return cases


# ------------------------------------------------------------------- walks

def walks_cases() -> list[Case]:
    star5, line9, star11 = graphs.star_graph(5), graphs.line_graph(9), graphs.star_graph(11)
    samples = (
        ("sample_hitting/star(5)", lambda mod, seed, runs: mod.sample_hitting(
            star5, 1, 2, seed, runs)),
        ("sample_pair_meetings/line(9)/X", lambda mod, seed, runs:
            mod.sample_pair_meetings(line9, 0, 8, seed, runs, "X")),
        ("sample_pair_meetings/line(9)/Xprime", lambda mod, seed, runs:
            mod.sample_pair_meetings(line9, 0, 8, seed, runs, "Xprime")),
        ("sample_meet_all/star(11)", lambda mod, seed, runs: mod.sample_meet_all(
            star11, 1, [0, *range(2, 11)], seed, runs)),
    )
    return [Case(name, "us/run",
                 lambda side, rep, runs=runs, call=call: timed(call, side.walks, rep, runs),
                 runs, {"runs": runs})
            for (name, call), runs in zip(samples, bench_workload(ShortRuns).token_runs,
                                          strict=True)]


# -------------------------------------------------------------------- runs

RUN_PARTS = ("round_rng", "initial_state", "run_to_convergence")


def short_runs(side, kind, n, protocol, init, runs) -> tuple[dict, list]:
    """Time ``runs`` whole runs on ``side``'s own graph, stream, init and kernel, each
    of RUN_PARTS on its own clock. A run's outcome holds its generator's state right
    after ``round_rng``, its start state (as text, since each side has its own state
    classes), ticks, convergence and detail."""
    g = side.graphs.build_graph(side.graphs.TopologySpec(kind, n))
    budget = harness.default_max_ticks(n)
    seconds = dict.fromkeys(RUN_PARTS, 0.0)
    outcomes = []
    for ri in range(runs):
        t = perf_counter()
        rng = side.harness.round_rng(RUNS_SEED, n, ri)
        seconds["round_rng"] += perf_counter() - t
        seeded = rng.bit_generator.state
        t = perf_counter()
        state = side.harness.initial_state(protocol, init, g, rng, kind)
        seconds["initial_state"] += perf_counter() - t
        start = repr(state)
        t = perf_counter()
        res = side.consensus.run_to_convergence(protocol, g, state, rng, budget)
        seconds["run_to_convergence"] += perf_counter() - t
        outcomes.append((seeded, start, res.ticks, res.converged, res.detail))
    return seconds, outcomes


def runs_cases() -> list[Case]:
    cases = []
    for kind, n, protocol, init, runs, _ in ShortRuns.PROTOCOL_CASES:
        case = kind, n, protocol, init, runs
        cases.append(Case(f"{protocol}/{kind}({n})/{init} x{runs}", "us/run",
                          lambda side, rep, case=case: short_runs(side, *case),
                          runs, {"runs": runs}))
    return cases


# ------------------------------------------------------------------ graphs

def build_all(side, specs) -> tuple[float, list]:
    """Time ``side``'s build_graph over ``specs``, each passed as ``side``'s own TopologySpec."""
    own = [side.graphs.TopologySpec(**vars(spec)) for spec in specs]
    t = perf_counter()
    built = [side.graphs.build_graph(spec) for spec in own]
    return perf_counter() - t, [(g.adjacency, g.meta) for g in built]


def graphs_cases() -> list[Case]:
    def sweep(kind):
        return [topology_spec(kind, n, GRAPHS_SEED) for n in DESK_N_VALUES[kind]]

    base = lollipop(300)
    perm = np.random.default_rng(GRAPHS_SEED).permutation(base.n).tolist()
    relabelled = tuple(sorted((perm[u], perm[v]) for u, v in base.edges()))
    inputs = (
        ("build_graph/desk ER sweep", sweep("erdos_renyi")),
        ("build_graph/ER(481)", [topology_spec("erdos_renyi", 481, GRAPHS_SEED)]),
        ("build_graph/relabelled lollipop(300) edges",
         [TopologySpec("edge_list", base.n, edges=relabelled)]),
        ("build_graph/complete(481)", [TopologySpec("complete", 481)]),
        ("build_graph/desk line sweep", sweep("line")),
        ("build_graph/desk lollipop sweep", sweep("lollipop")),
        ("build_graph/extremal lollipop(961)", [topology_spec("lollipop", 961, GRAPHS_SEED)]),
        ("build_graph/complete(961)", [TopologySpec("complete", 961)]),
    )
    return [Case(name, "s/call", lambda side, rep, specs=specs: build_all(side, specs))
            for name, specs in inputs]


# ------------------------------------------------------------------ traces

def write_all(side, results, out_dir: Path) -> tuple[float, list]:
    """Time ``side``'s write_trace_csv of each result into its own file in ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{k}.csv" for k in range(len(results))]
    t = perf_counter()
    for result, path in zip(results, paths):
        side.consensus.write_trace_csv(result, path)
    elapsed = perf_counter() - t
    return elapsed, [path.read_bytes() for path in paths]


def traces_cases() -> list[Case]:
    out = tempfile.TemporaryDirectory()  # removed when the process exits
    cases = []
    for kind, n, protocol, init, target in Traced.CASES:
        g = build_graph(topology_spec(kind, n, 0))
        results, ticks = [], 0
        while ticks < target:
            rng = harness.round_rng(len(results), n, 0)
            state = harness.initial_state(protocol, init, g, rng, kind)
            results.append(consensus.run_to_convergence(
                protocol, g, state, rng, harness.default_max_ticks(n), TRACE_STRIDE))
            ticks += results[-1].ticks
        label = f"{protocol}/{kind}({n})/trace_stride={TRACE_STRIDE}"
        cases.append(Case(
            label, "s/call",
            lambda side, rep, results=results, label=label: write_all(
                side, results, Path(out.name, side.consensus.__name__, label.replace("/", "_"))),
            extra={"runs": len(results), "rows": sum(len(r.trace) for r in results)}))
    return cases


# ------------------------------------------------------------------- sweep

SWEEP_SEED = 1


def sweep_all(side, cfg) -> tuple[float, list]:
    """Time ``side``'s iter_sweep of ``cfg`` rebuilt as ``side``'s own SweepConfig.

    Records are compared as tuples with each float's hex, so that a NaN mean matches.
    """
    cfg = side.harness.SweepConfig(**vars(cfg))
    t = perf_counter()
    records = list(side.harness.iter_sweep(cfg))
    elapsed = perf_counter() - t
    return elapsed, [(r.n, r.mean_ticks.hex(), r.std_ticks.hex(), r.rounds_converged,
                      r.rounds_total, r.round_ticks) for r in records]


def sweep_cases() -> list[Case]:
    return [Case(f"iter_sweep/{cfg.kind}/{cfg.protocol}/{cfg.init}", "s/call",
                 lambda side, rep, cfg=cfg: sweep_all(side, cfg))
            for cfg in bench_workload(Grid, SWEEP_SEED).configs]


@dataclass
class Workload:
    title: str
    modules: tuple[str, ...]
    repeats: int
    cases: Callable[[], list[Case]]
    same: Callable[[object, object], bool] | None  # None: the sides' results may differ


WORKLOADS = {
    "kernel": Workload("paired protocol-kernel before/after, one process",
                       ("consensus", "harness"), 15, kernel_cases, lambda a, b: a == b),
    "exact": Workload("paired exact-layer and graph-build before/after, one process",
                      ("graphs", "walks", "chains"), 5, exact_cases, same_table),
    "walks": Workload("paired token Monte Carlo before/after, one process", ("walks",), 15,
                      walks_cases, None),
    "runs": Workload("paired per-run fixed cost of short protocol runs, one process",
                     ("graphs", "harness", "consensus"), 15, runs_cases, lambda a, b: a == b),
    "graphs": Workload("paired graph construction before/after, one process", ("graphs",), 15,
                       graphs_cases, lambda a, b: a == b),
    "traces": Workload("paired trace CSV writes before/after, one process", ("consensus",), 15,
                       traces_cases, lambda a, b: a == b),
    "sweep": Workload("paired desk-grid sweeps before/after, one process", ("harness",), 15,
                      sweep_cases, lambda a, b: a == b),
}


# ------------------------------------------------------------------ driver

def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def before_revision() -> str:
    """HEAD when ``src/`` has uncommitted changes, else HEAD~1."""
    return "HEAD" if git("status", "--porcelain", "src") else "HEAD~1"


def extract_before(rev: str, into: str) -> None:
    """Extract ``src/qconsensus`` at ``rev`` into ``into`` as the package BEFORE_PACKAGE,
    and put ``into`` on the import path."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", f"--prefix={BEFORE_PACKAGE}/",
         f"{rev}:src/qconsensus"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    sys.path.insert(0, into)


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
    parts = {"before": {}, "after": {}}
    samples = {"before": [], "after": []}
    reference = None
    for rep in range(repeats):
        order = ("before", "after") if rep % 2 == 0 else ("after", "before")
        for side in order:
            seconds, result = case.run(sides[side], rep)
            if isinstance(seconds, dict):
                for part, s in seconds.items():
                    parts[side].setdefault(part, []).append(case.value(s))
                seconds = sum(seconds.values())
            values[side].append(case.value(seconds))
            if same is None:
                samples[side].append(result)
            elif reference is None:
                reference = result
            elif not same(result, reference):
                raise SystemExit(f"error: {case.name}: before and after results differ")
    record = {"name": case.name, "unit": case.unit,
              "better": "higher" if case.higher_is_better else "lower", **case.extra,
              "before": summary(values["before"]), "after": summary(values["after"])}
    fastest = max if case.higher_is_better else min
    for side in sides:
        record[side]["fastest"] = fastest(values[side])
        if same is None:
            record[side]["mean_ticks"] = float(np.concatenate(samples[side]).mean())
    before, after = record["before"], record["after"]
    record["ratio_after_over_before"] = after["median"] / before["median"]
    record["ratio_fastest"] = after["fastest"] / before["fastest"]
    print(f"{case.name:40s} {before['median']:10.4g} -> {after['median']:10.4g} {case.unit} "
          f"(x{record['ratio_after_over_before']:.3f}; fastest {before['fastest']:.4g} -> "
          f"{after['fastest']:.4g}, x{record['ratio_fastest']:.3f})", flush=True)
    if parts["after"]:
        record["parts"] = {}
        for part, after_values in parts["after"].items():
            b, a = summary(parts["before"][part]), summary(after_values)
            ratio = a["median"] / b["median"]
            record["parts"][part] = {"before": b, "after": a, "ratio_after_over_before": ratio}
            print(f"  {part:38s} {b['median']:10.4g} -> {a['median']:10.4g} {case.unit} "
                  f"(x{ratio:.3f})", flush=True)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="+", choices=WORKLOADS)
    parser.add_argument("--out", help="path of the JSON record (default: not written)")
    args = parser.parse_args(argv)
    before_rev = before_revision()
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        extract_before(before_rev, tmp)
        for name in args.workload:
            workload = WORKLOADS[name]
            sides = {side: types.SimpleNamespace(
                         **{m: importlib.import_module(f"{package}.{m}") for m in workload.modules})
                     for side, package in (("before", BEFORE_PACKAGE), ("after", "qconsensus"))}
            cases = [measure(case, sides, workload.repeats, workload.same)
                     for case in workload.cases()]
            if workload.same is not None:
                print(f"{name}: before and after agree on all {len(cases)} cases")
            records.append({"workload": name, "benchmark": workload.title,
                            "repeats": workload.repeats, "cases": cases})
    if args.out:
        record = {
            "command": "python3 scripts/bench_ab.py " + " ".join(argv or sys.argv[1:]),
            "machine": machine(),
            "revision": revisions(before_rev),
            "blas_threads": BLAS_THREADS,
            "workloads": records,
        }
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
