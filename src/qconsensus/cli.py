"""Command-line front end: simulation, sweeps and exact analysis as subcommands.

Exit codes: 0 success, 2 usage error, 3 tick-budget timeout, 4 invariant
failure (``check``). Output goes to stdout unless --out is given; relative
--out paths resolve against $QCONSENSUS_OUT_DIR when that is set.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import checks as checks_mod
from . import consensus as cons
from . import walks
from .graphs import TopologySpec, build_graph, check_nodes, read_edge_list
from .harness import (
    DEFAULT_INIT,
    SweepConfig,
    default_n_values,
    fit_scaling,
    initial_state,
    iter_sweep,
    topology_spec,
    write_curves_csv,
    write_rounds_csv,
    write_sweep_table,
)
from .rows import write_json, write_table

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INVARIANT = 4

OUT_DIR_ENV = "QCONSENSUS_OUT_DIR"


class UsageError(Exception):
    pass


def _resolve_out(path: str | None) -> str | None:
    if path is None:
        return None
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        resolved = _resolve_out(path)
        with open(resolved, "w", newline="") as fh:
            yield fh


def _emit_rows(args, header, rows) -> None:
    """Write tuple rows as CSV (one line per row) or a JSON array."""
    with _open_out(args.out) as fh:
        write_table(fh, args.format, header, rows)


def _emit_matrix(args, matrix) -> None:
    with _open_out(args.out) as fh:
        if args.format == "json":
            write_json(fh, {"nodes": list(range(matrix.shape[0])), "matrix": matrix.tolist()})
        else:
            walks.write_matrix_rows(fh, matrix)


def _add_topology_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topo", required=True,
                   choices=("star", "line", "lollipop", "complete", "erdos_renyi", "edge_list"))
    p.add_argument("--n", type=int, help="node count")
    p.add_argument("--m", type=int, help="lollipop clique size (default floor((2n+1)/3))")
    p.add_argument("--p", type=float, help="ER edge probability (default min(1, 5 ln n / n))")
    p.add_argument("--edges", help="edge-list file for --topo edge_list")


def _topology_spec(args) -> TopologySpec:
    if args.topo == "edge_list":
        if not args.edges:
            raise UsageError("--topo edge_list requires --edges FILE")
        g = read_edge_list(args.edges)
        return TopologySpec("edge_list", g.n, edges=tuple(g.edges()))
    if args.n is None:
        raise UsageError("--n is required")
    return topology_spec(args.topo, args.n, args.seed, args.m, args.p)


SIM_HEADER = ("topology", "protocol", "init", "n", "seed", "max_ticks",
              "ticks", "converged", "outcome")


def cmd_simulate(args) -> int:
    g = build_graph(_topology_spec(args))
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    init = args.init or DEFAULT_INIT[args.protocol]
    state = initial_state(args.protocol, init, g, rng, args.topo, args.lo, args.hi,
                          args.init_file)
    max_ticks = args.max_ticks if args.max_ticks is not None else 150 * g.n**3
    if args.trace_stride and not args.trace_out:
        raise UsageError("--trace-stride requires --trace-out PATH")
    result = cons.run_to_convergence(args.protocol, g, state, rng, max_ticks,
                                     args.trace_stride or 0)
    if args.trace_out:
        cons.write_trace_csv(result, _resolve_out(args.trace_out))
    row = (args.topo, args.protocol, init, g.n, args.seed, max_ticks,
           result.ticks, int(result.converged), result.detail)
    _emit_rows(args, SIM_HEADER, [row])
    return EXIT_OK if result.converged else EXIT_TIMEOUT


def cmd_sweep(args) -> int:
    if args.n_values:
        try:
            n_values = tuple(int(s) for s in args.n_values.split(","))
        except ValueError as exc:
            raise UsageError(f"bad --n-values: {exc}") from exc
    else:
        n_values = default_n_values(args.topo, args.full_grid)
    try:
        cfg = SweepConfig(
            kind=args.topo, n_values=n_values, protocol=args.protocol,
            init=args.init or DEFAULT_INIT[args.protocol],
            rounds=args.rounds, master_seed=args.seed, m=args.m, p=args.p,
            lo=args.lo, hi=args.hi, max_ticks=args.max_ticks,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    with _open_out(args.out) as fh:
        records = write_sweep_table(fh, args.format, cfg, iter_sweep(cfg))
    if args.rounds_out:
        write_rounds_csv(records, _resolve_out(args.rounds_out))
    if args.curves_out:
        write_curves_csv(cfg, records, _resolve_out(args.curves_out))
    if args.fit:
        fit = fit_scaling(records)
        print(f"power-law fit: exponent={fit.exponent:.3f} "
              f"coefficient={fit.coefficient:.4g} residual={fit.residual:.4g}",
              file=sys.stderr)
    return EXIT_OK


def cmd_bound(args) -> int:
    g = build_graph(_topology_spec(args))
    pairs = []
    if args.all_pairs:
        pairs = [(x, y) for x in range(g.n) for y in range(g.n) if x != y]
    else:
        if args.x is None or args.y is None:
            raise UsageError("--x and --y are required without --all-pairs")
        check_nodes(g.n, args.x, args.y)
        pairs = [(args.x, args.y)]
    exact = None
    if args.exact:
        exact = walks.hitting_table(walks.transition_matrix(g, "biased"))
    header = ["x", "y", "general", "path_refined"] + (["exact"] if args.exact else [])
    rows = []
    bounds = {}
    for x, y in pairs:
        if x not in bounds:
            bounds[x] = walks.hitting_bounds_from(g, x)
        general, refined = bounds[x][y]
        row = [x, y, general, refined]
        if args.exact:
            row.append(float(exact.h[x, y]))
        rows.append(tuple(row))
    _emit_rows(args, header, rows)
    return EXIT_OK


def cmd_resistance(args) -> int:
    g = build_graph(_topology_spec(args))
    wg = walks.edge_weights(g)
    if args.x is not None or args.y is not None:
        if args.x is None or args.y is None:
            raise UsageError("give both --x and --y, or neither")
        r = walks.effective_resistance(wg, args.x, args.y)
        _emit_rows(args, ("x", "y", "resistance"), [(args.x, args.y, r)])
    else:
        _emit_matrix(args, walks.resistance_matrix(wg))
    return EXIT_OK


def cmd_hitting(args) -> int:
    g = build_graph(_topology_spec(args))
    m = walks.transition_matrix(g, args.walk)
    if args.target is not None:
        h = walks.hitting_times(m, args.target)
        _emit_rows(args, ("source", "expected_ticks"),
                   [(i, float(h[i])) for i in range(g.n)])
    else:
        _emit_matrix(args, walks.hitting_table(m).h)
    return EXIT_OK


def cmd_meet(args) -> int:
    g = build_graph(_topology_spec(args))
    if args.x is None or args.y is None:
        raise UsageError("--x and --y are required")
    max_ticks = args.max_ticks if args.max_ticks is not None else walks.DEFAULT_TICK_BUDGET
    sample = walks.sample_pair_meetings(g, args.x, args.y, args.seed, args.runs,
                                        args.coupling, max_ticks)
    mean = float(sample.mean())
    std = float(sample.std(ddof=1)) if len(sample) > 1 else 0.0
    row = (args.topo, g.n, args.x, args.y, args.coupling, args.runs, args.seed,
           mean, std, int(sample.min()), int(sample.max()))
    _emit_rows(args, ("topology", "n", "x", "y", "coupling", "runs", "seed",
                      "mean_ticks", "std_ticks", "min_ticks", "max_ticks"), [row])
    return EXIT_OK


def cmd_check(args) -> int:
    results = checks_mod.run_all_checks(quick=args.quick, seed=args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.ok else 1
    if failed:
        print(f"{failed} invariant check(s) failed", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qconsensus",
        description="Asynchronous pairwise consensus simulation and exact random-walk analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_format=True):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default stdout)")
        if with_format:
            p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", help="run one protocol instance to convergence")
    _add_topology_flags(p)
    p.add_argument("--protocol", required=True, choices=("binary", "quantized"))
    p.add_argument("--init", choices=("majority_one", "q_setting1", "q_setting2", "file"))
    p.add_argument("--init-file", help="initial-state file for --init file")
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=100)
    p.add_argument("--max-ticks", type=int)
    p.add_argument("--trace-stride", type=int, default=0)
    p.add_argument("--trace-out", help="CSV path for the metric trace")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="measure mean convergence ticks over an n-grid")
    _add_topology_flags(p)
    p.add_argument("--protocol", required=True, choices=("binary", "quantized"))
    p.add_argument("--init", choices=("majority_one", "q_setting1", "q_setting2"))
    p.add_argument("--n-values", help="comma-separated n grid (default: desk-scale grid)")
    p.add_argument("--full-grid", action="store_true", help="use the 21..481 step-20 grid")
    p.add_argument("--rounds", type=int, default=20)
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=100)
    p.add_argument("--max-ticks", type=int)
    p.add_argument("--rounds-out", help="optional per-round CSV path")
    p.add_argument("--curves-out", help="optional reference-curves CSV path")
    p.add_argument("--fit", action="store_true", help="print a power-law fit to stderr")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bound", help="hitting-time upper bounds (3n^3 and path-refined)")
    _add_topology_flags(p)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--all-pairs", action="store_true")
    p.add_argument("--exact", action="store_true", help="include the exact hitting time")
    common(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("resistance", help="effective resistance (pair or full matrix)")
    _add_topology_flags(p)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    common(p)
    p.set_defaults(func=cmd_resistance)

    p = sub.add_parser("hitting", help="exact hitting times (vector or full table)")
    _add_topology_flags(p)
    p.add_argument("--walk", choices=walks.WALK_KINDS, default="biased")
    p.add_argument("--target", type=int)
    common(p)
    p.set_defaults(func=cmd_hitting)

    p = sub.add_parser("meet", help="Monte Carlo two-token meeting times")
    _add_topology_flags(p)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--coupling", choices=("X", "Xprime"), default="X")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--max-ticks", type=int)
    common(p)
    p.set_defaults(func=cmd_meet)

    p = sub.add_parser("check", help="run the full invariant suite")
    p.add_argument("--quick", action="store_true", help="smoke-test budgets")
    p.add_argument("--seed", type=int, default=2026)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except walks.TickBudgetError as exc:
        print(f"timeout: {exc} (ticks elapsed: {exc.ticks})", file=sys.stderr)
        return EXIT_TIMEOUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
