"""The four benchmark workloads: inputs, one fixed unit of work, verification.

Each workload builds its inputs from the seed once (set-up), then runs a
fixed unit of work as often as the run lasts. ``unit`` takes a tracer:
``NullTracer`` for end-to-end timing, ``Tracer`` for the traced units that
yield per-layer times. ``verify`` checks a unit's outputs against the
paper's invariants outside the timed region, and ``digest`` hashes its
integer outputs, so every repeat of one seed, traced or not, must
reproduce the first unit byte for byte.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from spans import Tracer

from qconsensus import harness
from qconsensus.consensus import run_to_convergence, write_trace_csv
from qconsensus.graphs import TopologySpec, build_graph, lollipop_graph
from qconsensus.harness import (
    DESK_N_VALUES,
    SweepConfig,
    SweepRecord,
    fit_scaling,
    init_majority_one,
    init_q_setting1,
    init_q_setting2,
    iter_sweep,
    lollipop_clique_size,
    round_rng,
    write_curves_csv,
    write_rounds_csv,
    write_sweep_csv,
)
from qconsensus.walks import (
    edge_weights,
    hidden_vertex,
    hitting_table,
    resistance_matrix,
    sample_hitting,
    sample_meet_all,
    sample_pair_meetings,
    transition_matrix,
)

# The twelve combinations of scripts/run_figures.py, fixed here so that the
# benchmark keeps measuring the same work if that script changes.
GRID_KINDS = ("star", "line", "lollipop", "erdos_renyi")
GRID_SETTINGS = (
    ("binary", "majority_one"),
    ("quantized", "q_setting1"),
    ("quantized", "q_setting2"),
)
TRACE_STRIDE = 100
COMMUTE_TOL = 1e-6
CLOSED_FORM_TOL = 1e-9
HIDDEN_TOL = 1e-9


def derived_seed(seed: int, *path: int) -> int:
    """An independent 32-bit seed for one input stream of the workload."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


@dataclass
class ProtocolRun:
    protocol: str
    invariant: int  # strong surplus (binary) or value sum (quantized) at start
    state: object
    result: object
    trace_path: Path | None = None


@dataclass
class UnitResult:
    """Outputs of one unit of work, kept for verification and digests."""

    ops: int = 0  # numerator of ops_per_s
    items: list = field(default_factory=list)  # seconds per timed item, same order every unit
    weights: list = field(default_factory=list)  # share of each item's time that is counted
    run_groups: list = field(default_factory=list)  # (start, end) item ranges, one per run
    runs: list = field(default_factory=list)  # ProtocolRun
    graphs: list = field(default_factory=list)  # every graph built
    files: list = field(default_factory=list)  # CSV outputs in digest order
    samples: dict = field(default_factory=dict)  # token Monte Carlo arrays
    exact: dict = field(default_factory=dict)  # exact tables and results

    def add(self, seconds: float, run: bool = True) -> None:
        """Record a timed item; ``run`` makes it one run for run_p50_us/run_p90_us."""
        if run:
            self.run_groups.append((len(self.items), len(self.items) + 1))
        self.items.append(seconds)
        self.weights.append(1.0)

    def timed(self, tr, name, fn, *args, run: bool = True):
        """One call into the program as a timed item, then a probe point."""
        t = perf_counter()
        value = tr.call(name, fn, *args)
        self.add(perf_counter() - t, run)
        tr.boundary()
        return value


def invariant(protocol: str, state) -> int:
    return state.s_plus - state.s_minus if protocol == "binary" else state.q_sum


def initial_state(tr, init: str, g, rng, star: bool):
    """The init dispatch of harness.iter_sweep, called through public functions."""
    if init == "majority_one":
        return tr.call("harness.init_majority_one", init_majority_one, g.n, rng)
    if init == "q_setting1":
        exclude = (0,) if star else ()
        return tr.call("harness.init_q_setting1", init_q_setting1, g, rng, exclude)
    return tr.call("harness.init_q_setting2", init_q_setting2, g.n, rng)


def protocol_run(tr, protocol, init, g, star, master, ri, budget, stride=0) -> ProtocolRun:
    rng = tr.call("harness.round_rng", round_rng, master, g.n, ri)
    state = initial_state(tr, init, g, rng, star)
    inv = invariant(protocol, state)
    result = tr.call(f"consensus.run_to_convergence:{protocol}", run_to_convergence,
                     protocol, g, state, rng, budget, stride)
    return ProtocolRun(protocol, inv, state, result)


def check_run(run: ProtocolRun) -> str | None:
    """The paper's outcome invariants for one finished protocol run."""
    res, s = run.result, run.state
    if not res.converged:
        return "timed out"
    if s.tick != res.ticks:
        return f"state tick {s.tick} != result ticks {res.ticks}"
    if run.protocol == "binary":
        if run.invariant == 0:
            return "no initial majority"
        sign = 1 if run.invariant > 0 else -1
        ops = s.opinions
        if any(o * sign <= 0 for o in ops):
            return "final opinions not all on the initial majority sign"
        if ops.count(2) - ops.count(-2) != run.invariant:
            return "strong surplus not conserved"
        return None
    values = s.values
    q, r = divmod(run.invariant, len(values))
    if sum(values) != run.invariant:
        return "value sum not conserved"
    if any(v != q and v != q + 1 for v in values):
        return f"final values outside {{{q}, {q + 1}}}"
    if values.count(q + 1) != r:
        return f"{values.count(q + 1)} copies of q+1, expected {r}"
    return None


def check_trace(run: ProtocolRun, stride: int) -> str | None:
    """Row count, first/last tick and the per-row conserved quantities."""
    res = run.result
    rows = res.trace
    expected = 1 if res.ticks == 0 else 2 + (res.ticks - 1) // stride
    if len(rows) != expected:
        return f"{len(rows)} trace rows, expected {expected}"
    if rows[0][0] != 0 or rows[-1][0] != res.ticks:
        return "trace does not span tick 0 to the final tick"
    if run.protocol == "binary":
        n = run.state.n
        for tick, sp, sm, wp, wm in rows:
            if sp + sm + wp + wm != n or sp - sm != run.invariant:
                return f"trace row at tick {tick} breaks count conservation"
        return None
    for (t0, l0, _, _), (t1, l1, _, _) in zip(rows, rows[1:]):
        if l1 > l0 * (1 + 1e-12) + 1e-9:
            return f"Lyapunov function rose between ticks {t0} and {t1}"
    return None


def count_graphs(graphs) -> dict:
    er = [g for g in graphs if "er_retries" in g.meta]
    return {
        "builds": len(graphs),
        "edges_built": sum(g.edge_count() for g in graphs),
        "er_graphs": len(er),
        "er_retries": sum(g.meta["er_retries"] for g in er),
    }


def count_runs(runs) -> dict:
    out = {"runs": len(runs), "converged": 0, "binary_ticks": 0, "quantized_ticks": 0,
           "trace_rows": 0}
    for run in runs:
        out["converged"] += run.result.converged
        out[f"{run.protocol}_ticks"] += run.result.ticks
        out["trace_rows"] += len(run.result.trace)
    out["ticks"] = out["binary_ticks"] + out["quantized_ticks"]
    return out


class Workload:
    name = ""

    def unit(self, tr) -> UnitResult:
        raise NotImplementedError

    def verify(self, out: UnitResult) -> tuple[int, list[str]]:
        """(operations checked, one message per failed operation)."""
        raise NotImplementedError

    def counts(self, out: UnitResult) -> dict:
        """Deterministic counts of the unit's work."""
        counts = count_runs(out.runs)
        counts.update(count_graphs(out.graphs))
        counts["trace_bytes"] = sum(run.trace_path.stat().st_size for run in out.runs
                                    if run.trace_path is not None)
        for key, sample in out.samples.items():
            counts[f"mc_runs:{key}"] = len(sample)
        counts["mc_runs"] = sum(len(s) for s in out.samples.values())
        counts["mc_ticks"] = int(sum(int(s.sum()) for s in out.samples.values()))
        return counts

    def digest(self, out: UnitResult) -> str:
        """SHA-256 of the integer outputs: run ticks, token samples, CSV files."""
        h = hashlib.sha256()
        for run in out.runs:
            h.update(f"{run.protocol},{run.result.ticks},{int(run.result.converged)};".encode())
        for key in sorted(out.samples):
            h.update(key.encode())
            h.update(np.asarray(out.samples[key], dtype=np.int64).tobytes())
        for g in out.graphs:
            h.update(repr(g.adjacency).encode())
        for path in out.files:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        for key in sorted(k for k, v in out.exact.items() if isinstance(v, int)):
            h.update(f"{key}={out.exact[key]};".encode())
        return h.hexdigest()


class Grid(Workload):
    """All twelve topology x setting sweeps on the desk grids, fit and CSV write.

    The "run" of run_p50_us/run_p90_us is one combination: its sweep, fit
    and CSVs, the work of one ``qconsensus sweep`` invocation.
    """

    name = "grid"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.out_dir = out_dir / "grid"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        rounds = 1 if tiny else 3
        self.configs = []
        for kind in GRID_KINDS:
            n_values = DESK_N_VALUES[kind][:3] if tiny else DESK_N_VALUES[kind]
            for protocol, init in GRID_SETTINGS:
                self.configs.append(SweepConfig(kind=kind, n_values=n_values, protocol=protocol,
                                                init=init, rounds=rounds, master_seed=seed))

    def _paths(self, cfg):
        label = f"{cfg.kind}_{cfg.protocol}_{cfg.init}"
        return [self.out_dir / f"{label}{suffix}.csv" for suffix in ("", "_rounds", "_curves")]

    def unit(self, tr) -> UnitResult:
        out = UnitResult()
        fits = []
        sweep_of = self._sweep_traced if isinstance(tr, Tracer) else self._sweep_untraced
        for cfg in self.configs:
            first = len(out.items)
            records = sweep_of(tr, out, cfg)
            sweep, rounds, curves = self._paths(cfg)
            fits.append(out.timed(tr, "harness.fit_scaling", fit_scaling, records, run=False))
            out.timed(tr, "harness.write_sweep_csv", write_sweep_csv, cfg, records, sweep, run=False)
            out.timed(tr, "harness.write_rounds_csv", write_rounds_csv, records, rounds, run=False)
            out.timed(tr, "harness.write_curves_csv", write_curves_csv, cfg, records, curves,
                      run=False)
            out.files += [sweep, rounds]
            out.run_groups.append((first, len(out.items)))
        out.exact["fits"] = fits
        out.ops = sum(run.result.ticks for run in out.runs)
        return out

    def _sweep_untraced(self, tr, out: UnitResult, cfg) -> list:
        """harness.iter_sweep itself, with run_to_convergence observed in passing.

        The wrapper only keeps each run's state and result for verification.
        Each sweep point (one n) is a timed item.
        """
        original = harness.run_to_convergence

        def observed(protocol, g, state, rng, max_ticks, trace_stride=0):
            inv = invariant(protocol, state)
            result = original(protocol, g, state, rng, max_ticks, trace_stride)
            out.runs.append(ProtocolRun(protocol, inv, state, result))
            if not out.graphs or out.graphs[-1] is not g:
                out.graphs.append(g)
            return result

        records = []
        harness.run_to_convergence = observed
        try:
            t = perf_counter()
            for rec in iter_sweep(cfg):
                out.add(perf_counter() - t, run=False)
                records.append(rec)
                tr.boundary()
                t = perf_counter()
        finally:
            harness.run_to_convergence = original
        return records

    def _sweep_traced(self, tr, out: UnitResult, cfg) -> list:
        """The calls iter_sweep makes, one span each; must match it tick for tick."""
        records = []
        for n in cfg.n_values:
            t = perf_counter()
            tr.run_id += 1
            tr.begin("bench.sweep_point")
            spec = tr.call("harness.spec_for", cfg.spec_for, n)
            g = tr.call("graphs.build_graph", build_graph, spec)
            out.graphs.append(g)
            budget = cfg.max_ticks_for(n)
            rounds = []
            for ri in range(cfg.rounds):
                run = protocol_run(tr, cfg.protocol, cfg.init, g, cfg.kind == "star",
                                   cfg.master_seed, ri, budget)
                out.runs.append(run)
                rounds.append((ri, run.result.ticks, run.result.converged))
            # The aggregation of iter_sweep, so that the CSVs match byte for byte.
            ticks = [tk for _, tk, ok in rounds if ok]
            mean = float(np.mean(ticks)) if ticks else float("nan")
            std = float(np.std(ticks, ddof=1)) if len(ticks) > 1 else (0.0 if ticks else float("nan"))
            records.append(SweepRecord(n, mean, std, len(ticks), cfg.rounds, tuple(rounds)))
            tr.end()
            out.add(perf_counter() - t, run=False)
            tr.boundary()
        return records

    def verify(self, out):
        failures = [f"grid run {k}: {msg}" for k, run in enumerate(out.runs)
                    if (msg := check_run(run)) is not None]
        for cfg, fit in zip(self.configs, out.exact["fits"]):
            if not (math.isfinite(fit.exponent) and math.isfinite(fit.coefficient)):
                failures.append(f"{cfg.kind} {cfg.init}: scaling fit {fit}")
        return len(out.runs) + len(self.configs), failures


class ShortRuns(Workload):
    """Thousands of protocol runs of a few ticks, plus token Monte Carlo runs."""

    name = "short-runs"
    # (topology, n, protocol, init, runs at full size, runs when tiny)
    PROTOCOL_CASES = (
        ("line", 3, "quantized", "q_setting1", 1500, 20),
        ("star", 5, "binary", "majority_one", 500, 10),
        ("line", 5, "binary", "majority_one", 500, 10),
    )

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.cases = []
        for k, (kind, n, protocol, init, full, small) in enumerate(self.PROTOCOL_CASES):
            g = build_graph(TopologySpec(kind, n))
            self.cases.append((g, kind == "star", protocol, init, derived_seed(seed, 1, k),
                               150 * n**3, small if tiny else full))
        self.star5 = build_graph(TopologySpec("star", 5))
        self.line9 = build_graph(TopologySpec("line", 9))
        self.star11 = build_graph(TopologySpec("star", 11))
        self.token_seeds = [derived_seed(seed, 2, k) for k in range(4)]
        self.token_runs = (50, 20, 20, 10) if tiny else (2000, 300, 300, 200)
        self._reference = None

    def unit(self, tr) -> UnitResult:
        out = UnitResult()
        for g, star, protocol, init, master, budget, count in self.cases:
            for ri in range(count):
                tr.run_id += 1
                t = perf_counter()
                run = protocol_run(tr, protocol, init, g, star, master, ri, budget)
                out.add(perf_counter() - t)
                out.runs.append(run)
                tr.boundary()
        seeds, runs = self.token_seeds, self.token_runs
        tr.run_id += 1
        out.samples["hitting"] = out.timed(tr, "walks.mc.sample_hitting", sample_hitting,
                                           self.star5, 1, 2, seeds[0], runs[0], run=False)
        for k, coupling in ((1, "X"), (2, "Xprime")):
            tr.run_id += 1
            out.samples[f"pair_{coupling}"] = out.timed(
                tr, f"walks.mc.sample_pair_meetings:{coupling}", sample_pair_meetings,
                self.line9, 0, self.line9.n - 1, seeds[k], runs[k], coupling, run=False)
        tr.run_id += 1
        out.samples["meet_all"] = out.timed(tr, "walks.mc.sample_meet_all", sample_meet_all,
                                            self.star11, 1, [0] + list(range(2, self.star11.n)),
                                            seeds[3], runs[3], run=False)
        out.ops = len(out.runs) + sum(runs)
        return out

    def reference(self):
        """Exact hitting times the token samples are checked against."""
        if self._reference is None:
            h_star5 = hitting_table(transition_matrix(self.star5, "biased"))
            h_line9 = hitting_table(transition_matrix(self.line9, "biased"))
            h_star11 = hitting_table(transition_matrix(self.star11, "biased"))
            self._reference = (float(h_star5.h[1, 2]), h_line9.max_hitting(),
                               h_star11.max_hitting())
        return self._reference

    def verify(self, out):
        failures = [f"short run {k}: {msg}" for k, run in enumerate(out.runs)
                    if (msg := check_run(run)) is not None]
        hit, hmax_line9, hmax_star11 = self.reference()
        s = out.samples["hitting"]
        se = s.std(ddof=1) / math.sqrt(len(s))
        if abs(s.mean() - hit) > 3 * se:
            failures.append(f"star(5) hitting mean {s.mean():.4f} not within 3 sigma of {hit}")
        for coupling in ("X", "Xprime"):
            m = out.samples[f"pair_{coupling}"].mean()
            if not m < 4 * hmax_line9:
                failures.append(f"line(9) {coupling} meeting mean {m} >= 4 H_max")
        # Meet-all within (e^6 + 1) ln n meeting periods, with the exact
        # meeting bound 4 H_max standing in for the meeting time.
        s = out.samples["meet_all"]
        bound = (math.e**6 + 1) * 4 * hmax_star11 * math.log(self.star11.n)
        if s.mean() + 3 * s.std(ddof=1) / math.sqrt(len(s)) > bound:
            failures.append(f"star(11) meet-all mean {s.mean()} above {bound}")
        return len(out.runs) + len(out.samples), failures


class Exact(Workload):
    """Graph construction and the exact walk layer at sizes that cost seconds."""

    name = "exact"

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.n_complete = 41 if tiny else 481
        self.n_closed = 9 if tiny else 61
        self.relabelled = []
        # Lollipops with seed-relabelled nodes: same cost, different input.
        for k, n in enumerate((30, 12) if tiny else (300, 80)):
            base = lollipop_graph(n, lollipop_clique_size(n))
            perm = np.random.default_rng(derived_seed(seed, 3, k)).permutation(n).tolist()
            edges = tuple(sorted((perm[u], perm[v]) for u, v in base.edges()))
            self.relabelled.append(TopologySpec("edge_list", n, edges=edges))

    def unit(self, tr) -> UnitResult:
        out = UnitResult()

        def call(name, fn, *args):
            return out.timed(tr, name, fn, *args)

        def build(spec):
            g = call("graphs.build_graph", build_graph, spec)
            out.graphs.append(g)
            return g

        ex = out.exact
        ex["complete"] = build(TopologySpec("complete", self.n_complete))
        big = build(self.relabelled[0])
        ex["h_big"] = call("walks.hitting_table", hitting_table,
                           call("walks.transition_matrix", transition_matrix, big, "biased"))
        ex["hidden"] = int(call("walks.hidden_vertex", hidden_vertex, ex["h_big"]))
        small = build(self.relabelled[1])
        ex["r_small"] = call("walks.resistance_matrix", resistance_matrix,
                             call("walks.edge_weights", edge_weights, small))
        ex["h_small"] = call("walks.hitting_table", hitting_table,
                             call("walks.transition_matrix", transition_matrix, small, "biased"))
        for kind in ("star", "line"):
            g = build(TopologySpec(kind, self.n_closed))
            ex[f"h_{kind}"] = call("walks.hitting_table", hitting_table,
                                   call("walks.transition_matrix", transition_matrix, g, "biased"))
        out.ops = sum(v.n ** 2 for v in ex.values() if hasattr(v, "h")) + ex["r_small"].size
        return out

    def verify(self, out):
        ex = out.exact
        failures = []
        n = self.n_complete
        g = ex["complete"]
        if g.edge_count() != n * (n - 1) // 2 or any(d != n - 1 for d in g.degrees()):
            failures.append(f"complete({n}) has the wrong edge set")
        n = self.n_closed
        star, line = ex["h_star"].h, ex["h_line"].h
        want = n * (n - 1)
        leaves = star[1:, 1:][~np.eye(n - 1, dtype=bool)]
        if np.max(np.abs(leaves - want)) > CLOSED_FORM_TOL * want:
            failures.append(f"star({n}) leaf-to-leaf hitting time differs from n(n-1)")
        want = 0.5 * n * (n * n - 5.0 * n / 3.0)
        if abs(line[0, n - 1] - want) > CLOSED_FORM_TOL * want:
            failures.append(f"line({n}) end-to-end hitting time {line[0, n - 1]} != {want}")
        h, r = ex["h_small"].h, ex["r_small"]
        commute = h + h.T
        gap = np.abs(commute - h.shape[0] * r) / np.maximum(1.0, commute)
        if gap.max() > COMMUTE_TOL:
            failures.append(f"commute identity off by {gap.max():.3e} (relative)")
        hb, t = ex["h_big"].h, ex["hidden"]
        if not (0 <= t < hb.shape[0]) or np.max(hb[t, :] - hb[:, t]) > HIDDEN_TOL * max(1.0, hb.max()):
            failures.append(f"node {t} is not a hidden vertex")
        return 5, failures


class Traced(Workload):
    """Long runs with trace_stride > 0, each followed by write_trace_csv.

    Each case repeats seeded runs until its ticks reach a target, and its
    runs' times count pro rata to the target, so the unit's cost does not
    depend on how far the seed's last run overshoots. Each run is a timed
    item, but the "run" of run_p50_us/run_p90_us is one case's batch: a
    single long run's latency is set by its random convergence time.
    """

    name = "traced"
    # (topology, n, protocol, init, tick target at full size)
    CASES = (
        ("line", 65, "quantized", "q_setting2", 900_000),
        ("lollipop", 45, "binary", "majority_one", 300_000),
        ("star", 101, "binary", "majority_one", 450_000),
    )
    TINY = ((9, 2_000), (9, 2_000), (11, 2_000))

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.out_dir = out_dir / "traced"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.cases = []
        for k, (kind, n, protocol, init, target) in enumerate(self.CASES):
            if tiny:
                n, target = self.TINY[k]
            m = lollipop_clique_size(n) if kind == "lollipop" else None
            g = build_graph(TopologySpec(kind, n, m=m))
            self.cases.append((f"{kind}{n}", g, kind == "star", protocol, init,
                               derived_seed(seed, 4, k), 150 * n**3, target))

    def unit(self, tr) -> UnitResult:
        out = UnitResult()
        for label, g, star, protocol, init, master, budget, target in self.cases:
            total = ri = 0
            first = len(out.items)
            while total < target:
                tr.run_id += 1
                t = perf_counter()
                run = protocol_run(tr, protocol, init, g, star, master, ri, budget, TRACE_STRIDE)
                run.trace_path = self.out_dir / f"{label}_{ri}.csv"
                tr.call("consensus.write_trace_csv", write_trace_csv, run.result, run.trace_path)
                out.add(perf_counter() - t, run=False)
                tr.boundary()
                out.runs.append(run)
                out.files.append(run.trace_path)
                total += run.result.ticks
                ri += 1
            out.weights[first:] = [target / total] * (len(out.items) - first)
            out.run_groups.append((first, len(out.items)))
        out.ops = sum(case[-1] for case in self.cases)
        return out

    def verify(self, out):
        failures = []
        for k, run in enumerate(out.runs):
            msg = check_run(run) or check_trace(run, TRACE_STRIDE)
            if msg is not None:
                failures.append(f"traced run {k}: {msg}")
        return len(out.runs), failures


WORKLOADS = {cls.name: cls for cls in (Grid, ShortRuns, Exact, Traced)}
