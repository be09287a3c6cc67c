#!/usr/bin/env python3
"""Benchmark for qconsensus: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload {grid,short-runs,exact,traced} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src. The run
builds its inputs from the seed, repeats the workload's fixed unit of work
for S seconds, verifies every unit's outputs, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, measured with no spans recorded.
``--trace 1`` alternates untraced and traced units, and reports the
per-layer metrics of BENCHMARK.json from the spans. Times and rates are scaled to a reference CPU speed measured in the
same run (see ``spans.SpeedProbe``). Spans, counts, raw values and the output
digest are written to .bench_out/. bench/README.md describes the workloads
and metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS, NullTracer, SpeedProbe, Tracer, layer_self_time, speed_probe  # noqa: E402

# BLAS threads are fixed, not inherited: hitting_table timings differ by
# about 20% between one and two OpenBLAS threads on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4  # extra fresh-process set-ups per run; setup_s is the median
PROBE_REFERENCE_S = 0.01  # speed_probe time that defines the reference CPU speed
TIME_UNITS = ("s", "us")


def decile(samples: list[float], k: int) -> float:
    """The k-th decile, interpolated within the samples (never beyond them)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[k - 1]


def scale_to_reference(metrics: dict, declared: list, speed: float) -> dict:
    """Times shrink and rates grow by ``speed`` = reference / measured probe time.

    setup_s is left alone: each set-up sample is scaled by its own process's
    probe.
    """
    out = {}
    for m in declared:
        value, unit = metrics[m["name"]], m["unit"]
        if unit in TIME_UNITS and m["name"] != "setup_s":
            value *= speed
        elif unit.endswith("/s"):
            value /= speed
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def load_program():
    """Import qconsensus from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "qconsensus"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no qconsensus sources at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import qconsensus

    if Path(qconsensus.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported qconsensus from {qconsensus.__file__}, not {pkg}")
    return qconsensus


def make_workload(name: str, seed: int, tiny: bool):
    load_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](seed, OUT_DIR, tiny)


def git_revision() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qconsensus").glob("*.py")):
        src.update(path.name.encode())
        src.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_revision": git_revision(),
        "source_sha256": src.hexdigest(),
    }


@contextmanager
def counting_solves(tally: list):
    """Count numpy.linalg.solve calls and their flops, computed from the sizes.

    An LU solve of an m x m system with k right-hand sides is taken as
    2/3 m^3 + 2 m^2 k flops.
    """
    import numpy as np

    original = np.linalg.solve

    def solve(a, b, *args, **kwargs):
        m = a.shape[-1]
        k = b.shape[-1] if b.ndim > 1 else 1
        tally[0] += 1
        tally[1] += 2.0 / 3.0 * m**3 + 2.0 * m * m * k
        return original(a, b, *args, **kwargs)

    np.linalg.solve = solve
    try:
        yield
    finally:
        np.linalg.solve = original


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []


def repeat(wl, tracers: list, seconds: float, tally: Tally):
    """Run units, cycling through ``tracers``, until ``seconds`` pass; verify each.

    Every tracer gets at least one unit. Returns, per tracer, the unit wall
    times less the speed probes run inside them, the per-unit lists of timed
    items, and its first unit's output; and the first unit's digest, which
    every unit must reproduce.
    """
    walls = [[] for _ in tracers]
    items = [[] for _ in tracers]
    first = [None] * len(tracers)
    reference = None
    deadline = time.perf_counter() + seconds
    count = 0
    while count < len(tracers) or time.perf_counter() < deadline:
        k = count % len(tracers)
        tr = tracers[k]
        count += 1
        tr.boundary()
        t, probed = time.perf_counter(), tr.probe_spent
        tr.begin("bench.unit")
        out = wl.unit(tr)
        tr.end()
        walls[k].append(time.perf_counter() - t - (tr.probe_spent - probed))
        attempted, failures = wl.verify(out)
        if items[k] and len(out.items) != len(items[k][0]):
            failures.append(f"unit {count}: {len(out.items)} timed items, not {len(items[k][0])}")
        else:
            items[k].append(out.items)
        if first[k] is None:
            first[k] = out
        digest = wl.digest(out)
        if reference is None:
            reference = digest
        else:
            attempted += 1
            if digest != reference:
                failures.append(f"unit {count}: output digest differs from the first unit's")
        tally.attempted += attempted
        tally.failures += failures
    return list(zip(walls, items, first)), reference


def fastest_items(items: list, weights: list) -> list[float]:
    """Each timed item's fastest time over the run's units, times its weight.

    Units repeat identical inputs, so item k is the same work in every unit.
    Its fastest repeat is its cost when the shared host is not slowing it.
    """
    return [min(times) * w for times, w in zip(zip(*items, strict=True), weights, strict=True)]


def setup_probe_times(args) -> list[float]:
    """Set-up time of fresh processes, each scaled by its own speed probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        setup, probe = proc.stdout.split()[-2:]
        times.append(float(setup) * PROBE_REFERENCE_S / float(probe))
    return times


def end_to_end_metrics(out, best: list[float], setup_times) -> dict:
    wall = sum(best)
    runs = [sum(best[a:b]) for a, b in out.run_groups]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup_times),
        "ops_per_s": out.ops / wall,
        "run_p50_us": statistics.median(runs) * 1e6,
        "run_p90_us": decile(runs, 9) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, counts, solves, untraced_wall, traced_wall) -> dict:
    """Per traced unit, each span time from the fastest unit; a rate or ratio
    with nothing to divide by reads 0. ``solves`` is per unit; the walls are
    sums of fastest items."""
    units = tracer.unit_totals()

    def dur(prefix):
        return min(sum(v[1] for k, v in u.items() if k.startswith(prefix)) for u in units)

    def calls(prefix):
        return sum(v[0] for k, v in units[0].items() if k.startswith(prefix))

    def per(num, den):
        return num / den if den else 0.0

    c = counts
    kernel = dur("consensus.run_to_convergence")
    pair_runs = c.get("mc_runs:pair_X", 0) + c.get("mc_runs:pair_Xprime", 0)
    metrics = {
        "consensus.kernel_s": kernel,
        "consensus.ticks": c["ticks"],
        "consensus.runs": c["runs"],
        "consensus.binary_mticks_per_s":
            per(c["binary_ticks"], dur("consensus.run_to_convergence:binary")) / 1e6,
        "consensus.quantized_mticks_per_s":
            per(c["quantized_ticks"], dur("consensus.run_to_convergence:quantized")) / 1e6,
        "consensus.converged_ratio": per(c["converged"], c["runs"]),
        "consensus.us_per_run": per(kernel, c["runs"]) * 1e6,
        "consensus.trace_rows": c["trace_rows"],
        "consensus.trace_bytes": c["trace_bytes"],
        "consensus.write_trace_s": dur("consensus.write_trace_csv"),
        "harness.rng_us_per_run": per(dur("harness.round_rng"), calls("harness.round_rng")) * 1e6,
        "harness.init_us_per_run": per(dur("harness.init_"), calls("harness.init_")) * 1e6,
        "harness.fit_s": dur("harness.fit_scaling"),
        "harness.csv_s": dur("harness.write_"),
        "walks.mc.hitting_us_per_run":
            per(dur("walks.mc.sample_hitting"), c.get("mc_runs:hitting", 0)) * 1e6,
        "walks.mc.pair_us_per_run": per(dur("walks.mc.sample_pair_meetings"), pair_runs) * 1e6,
        "walks.mc.meet_all_us_per_run":
            per(dur("walks.mc.sample_meet_all"), c.get("mc_runs:meet_all", 0)) * 1e6,
        "walks.mc.runs": c["mc_runs"],
        "walks.mc.ticks": c["mc_ticks"],
        "walks.transition_s": dur("walks.transition_matrix"),
        "walks.edge_weights_s": dur("walks.edge_weights"),
        "walks.hitting_table_s": dur("walks.hitting_table"),
        "walks.resistance_matrix_s": dur("walks.resistance_matrix"),
        "walks.hidden_vertex_s": dur("walks.hidden_vertex"),
        "walks.dense_solves": solves[0],
        "walks.solve_gflop_computed": solves[1] / 1e9,
        "graphs.build_s": dur("graphs.build_graph"),
        "graphs.builds": c["builds"],
        "graphs.edges_built": c["edges_built"],
        "graphs.er_retries": c["er_retries"],
        "graphs.er_accept_ratio": per(c["er_graphs"], c["er_graphs"] + c["er_retries"]),
        "trace_overhead_s": traced_wall - untraced_wall,
        "traced_wall_s": traced_wall,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = min(layer_self_time(u, layer) for u in units)
    return metrics


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def measure(args) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    wl = make_workload(args.workload, args.seed, args.tiny)
    setup_main = time.perf_counter() - T_START
    declared = declared_metrics()
    tally = Tally()
    probe = SpeedProbe()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment()}
    if args.trace == 0:
        [(walls, items, out)], digest = repeat(wl, [NullTracer(probe)], args.seconds, tally)
        setup_times = [setup_main * PROBE_REFERENCE_S / min(probe.samples[:5])]
        setup_times += setup_probe_times(args)
        computed = end_to_end_metrics(out, fastest_items(items, out.weights), setup_times)
        record["samples"] = {"units": len(walls), "items_per_unit": len(out.items),
                             "runs_per_unit": len(out.run_groups), "setups": len(setup_times),
                             "median_unit_wall_s": statistics.median(walls)}
        wanted = declared["end_to_end"]
    else:
        # Untraced and traced units alternate, so that both see the same host.
        tracer, solves = Tracer(probe), [0, 0.0]
        with counting_solves(solves):
            [(walls_u, items_u, _), (walls, items, out)], digest = repeat(
                wl, [NullTracer(probe), tracer], args.seconds, tally)
        solves = [x / (len(walls_u) + len(walls)) for x in solves]
        computed = per_layer_metrics(tracer, wl.counts(out), solves,
                                     sum(fastest_items(items_u, out.weights)),
                                     sum(fastest_items(items, out.weights)))
        tracer.write_csv(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.csv")
        record["samples"] = {"untraced_units": len(walls_u), "traced_units": len(walls),
                             "spans": len(tracer.spans)}
        wanted = declared["per_layer"]
    fast_probe = decile(probe.samples, 1)
    speed = PROBE_REFERENCE_S / fast_probe
    record["speed"] = {"probes": len(probe.samples), "fast_decile_probe_s": fast_probe,
                       "median_probe_s": statistics.median(probe.samples), "scale": speed}
    record["raw_metrics"] = computed
    record["counts"] = wl.counts(out)
    record["digest"] = digest
    record["failures"] = tally.failures
    metrics = scale_to_reference(computed, wanted, speed)
    record["metrics"] = metrics
    with open(OUT_DIR / f"record_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: " + json.dumps(record["samples"]))
    print("counts " + json.dumps(record["counts"], sort_keys=True))
    print(f"digest sha256:{digest}")
    print("speed " + json.dumps(record["speed"]))
    for message in tally.failures[:20]:
        print(f"FAILED {message}")
    print(f"failed_ratio {len(tally.failures)}/{tally.attempted} = "
          f"{len(tally.failures) / tally.attempted!r}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    return {"correct": not tally.failures, "attempted": tally.attempted,
            "failed": len(tally.failures), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("grid", "short-runs", "exact", "traced"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's self-tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.setup_probe:
        make_workload(args.workload, args.seed, args.tiny)
        setup = time.perf_counter() - T_START
        print(repr(setup), repr(min(speed_probe() for _ in range(5))))
        return 0
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
