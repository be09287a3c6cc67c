"""Command-line front end: simulation, sweeps and exact analysis as subcommands.

Exit codes: 0 success, 1 stdout closed by its reader (``| head``), 2 usage
error, 3 tick-budget timeout, 4 invariant failure (``check``). Output goes
to stdout unless --out is given; relative --out paths resolve against
$QCONSENSUS_OUT_DIR when that is set.
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
from .graphs import (TOPOLOGY_KINDS, Graph, TopologySpec, build_graph, check_nodes,
                     read_edge_list, require_connected)
from .harness import (
    DEFAULT_INIT,
    FIT_MIN_SIZES,
    INITS,
    SweepConfig,
    default_max_ticks,
    default_n_values,
    fit_scaling,
    initial_state,
    iter_sweep,
    seed_sequence,
    topology_spec,
    write_curves_csv,
    write_rounds_csv,
    write_sweep_table,
)
from .rows import open_out, write_matrix, write_table

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INVARIANT = 4

OUT_DIR_ENV = "QCONSENSUS_OUT_DIR"


def _resolve_out(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        with open_out(_resolve_out(path)) as fh:
            yield fh


def _emit_rows(args, header, rows) -> None:
    """Write tuple rows as CSV (one line per row) or a JSON array."""
    with _open_out(args.out) as fh:
        write_table(fh, args.format, header, rows)


def _emit_matrix(args, matrix) -> None:
    with _open_out(args.out) as fh:
        write_matrix(fh, args.format, matrix)


def _add_topology_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topo", required=True, choices=TOPOLOGY_KINDS)
    p.add_argument("--n", type=int, help="node count")
    p.add_argument("--m", type=int, help="lollipop clique size (default floor((2n+1)/3))")
    p.add_argument("--p", type=float,
                   help="ER edge probability (default min(1, 5 ln n / n), and 1 at n = 1)")
    p.add_argument("--edges", help="edge-list file for --topo edge_list")


def _topology_spec(args) -> TopologySpec:
    if args.n is None:
        raise ValueError("--n is required")
    return topology_spec(args.topo, args.n, args.seed, args.m, args.p)


def _check_topology_flags(args) -> None:
    """Reject --edges off edge_list and --n/--m/--p on it (``topology_spec`` checks the rest)."""
    for flag in ("n", "m", "p") if args.topo == "edge_list" else ("edges",):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} does not apply to --topo {args.topo}")


def _graph(args) -> Graph:
    """The connected graph of the topology flags; an edge-list file is built once, as read."""
    _check_topology_flags(args)
    if args.topo != "edge_list":
        return build_graph(_topology_spec(args))
    if not args.edges:
        raise ValueError("--topo edge_list requires --edges FILE")
    return require_connected(read_edge_list(args.edges))


SIM_HEADER = ("topology", "protocol", "init", "n", "seed", "max_ticks",
              "ticks", "converged", "outcome")


def cmd_simulate(args) -> int:
    init = args.init or DEFAULT_INIT[args.protocol]
    if args.init_file is not None and init != "file":
        raise ValueError("--init-file requires --init file")
    g = _graph(args)
    rng = np.random.default_rng(seed_sequence(args.seed))
    state = initial_state(args.protocol, init, g, rng, args.topo, args.lo, args.hi,
                          args.init_file)
    max_ticks = args.max_ticks if args.max_ticks is not None else default_max_ticks(g.n)
    if args.trace_stride and not args.trace_out:
        raise ValueError("--trace-stride requires --trace-out PATH")
    if args.trace_out and not args.trace_stride:
        raise ValueError("--trace-out requires --trace-stride N > 0")
    result = cons.run_to_convergence(args.protocol, g, state, rng, max_ticks,
                                     args.trace_stride or 0)
    if args.trace_out:
        cons.write_trace_csv(result, _resolve_out(args.trace_out))
    row = (args.topo, args.protocol, init, g.n, args.seed, max_ticks,
           result.ticks, int(result.converged), result.detail)
    _emit_rows(args, SIM_HEADER, [row])
    return EXIT_OK if result.converged else EXIT_TIMEOUT


def cmd_sweep(args) -> int:
    _check_topology_flags(args)
    if args.n is not None:
        raise ValueError("--n does not apply to sweep: give --n-values")
    if args.n_values is not None:
        if args.full_grid:
            raise ValueError("--full-grid and --n-values cannot be used together")
        try:
            n_values = tuple(int(s) for s in args.n_values.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --n-values: {exc}") from exc
    else:
        n_values = default_n_values(args.topo, args.full_grid)
    if args.fit and len(n_values) < FIT_MIN_SIZES:
        raise ValueError(f"--fit needs at least {FIT_MIN_SIZES} n-values, got {len(n_values)}")
    cfg = SweepConfig(
        kind=args.topo, n_values=n_values, protocol=args.protocol,
        init=args.init or DEFAULT_INIT[args.protocol],
        rounds=args.rounds, master_seed=args.seed, m=args.m, p=args.p,
        lo=args.lo, hi=args.hi, max_ticks=args.max_ticks,
    )
    sweep = iter_sweep(cfg)
    with _open_out(args.out) as fh:
        records = write_sweep_table(fh, args.format, cfg, sweep)
    if args.rounds_out:
        write_rounds_csv(records, _resolve_out(args.rounds_out))
    if args.curves_out:
        write_curves_csv(cfg, records, _resolve_out(args.curves_out))
    if args.fit:
        converged = sum(1 for rec in records if rec.rounds_converged)
        if converged < FIT_MIN_SIZES:
            print(f"timeout: {converged} of {len(records)} sizes converged; "
                  f"the fit needs {FIT_MIN_SIZES}", file=sys.stderr)
            return EXIT_TIMEOUT
        fit = fit_scaling(records)
        print(f"power-law fit: exponent={fit.exponent:.3f} "
              f"coefficient={fit.coefficient:.4g} residual={fit.residual:.4g}",
              file=sys.stderr)
    return EXIT_OK


def _pair(args, instead: str = "", chosen: bool = False) -> bool:
    """Whether --x and --y are given: both, or neither when ``chosen`` is the command's
    other form, named ``instead``; every other mix is a usage error."""
    given = (args.x is not None) + (args.y is not None)
    if given != (0 if chosen else 2):
        raise ValueError("give both --x and --y" + (f", or {instead}" if instead else ""))
    return given == 2


def cmd_bound(args) -> int:
    g = _graph(args)
    if _pair(args, "--all-pairs", args.all_pairs):
        check_nodes(g.n, args.x, args.y)
        pairs = [(args.x, args.y)]
    else:
        pairs = [(x, y) for x in range(g.n) for y in range(g.n) if x != y]
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
    g = _graph(args)
    m = walks.edge_weights(g)
    if _pair(args, "neither", args.x is None and args.y is None):
        r = walks.effective_resistance(m, args.x, args.y)
        _emit_rows(args, ("x", "y", "resistance"), [(args.x, args.y, r)])
    else:
        _emit_matrix(args, walks.resistance_matrix(m))
    return EXIT_OK


def cmd_hitting(args) -> int:
    g = _graph(args)
    m = walks.transition_matrix(g, args.walk)
    if args.target is not None:
        h = walks.hitting_times(m, args.target)
        _emit_rows(args, ("source", "expected_ticks"),
                   [(i, float(h[i])) for i in range(g.n)])
    else:
        _emit_matrix(args, walks.hitting_table(m).h)
    return EXIT_OK


def cmd_meet(args) -> int:
    g = _graph(args)
    _pair(args)
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

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("simulate", help="run one protocol instance to convergence")
    _add_topology_flags(p)
    p.add_argument("--protocol", required=True, choices=cons.PROTOCOLS)
    p.add_argument("--init", choices=(*INITS, "file"))
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
    p.add_argument("--protocol", required=True, choices=cons.PROTOCOLS)
    p.add_argument("--init", choices=INITS)
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
        code = args.func(args)
        sys.stdout.flush()  # so that a closed reader is met here, not at exit
        return code
    except BrokenPipeError:
        # Python's recipe: stdout's unwritten bytes go nowhere, and no message is printed
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED
    except walks.TickBudgetError as exc:
        print(f"timeout: {exc} (ticks elapsed: {exc.ticks})", file=sys.stderr)
        return EXIT_TIMEOUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
