"""The scripts under scripts/, run as separate processes the way a user runs them."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
BENCH = ROOT / "bench"


def run(*argv, **env) -> bytes:
    return subprocess.run([sys.executable, *map(str, argv)], check=True,
                          capture_output=True, timeout=120, env={**os.environ, **env}).stdout


def test_run_figures_writes_the_sweep_csv_the_cli_prints(tmp_path):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    run(SCRIPTS / "run_figures.py", "--kinds", "star", "--rounds", "2", "--out-dir", tmp_path,
        QCONSENSUS_OUT_DIR=elsewhere)
    assert len(list(tmp_path.glob("*.csv"))) == 9
    assert not any(elsewhere.iterdir())
    sweep = run("-m", "qconsensus", "sweep", "--topo", "star", "--protocol", "binary",
                "--rounds", "2", "--seed", "7")
    assert (tmp_path / "star_binary_majority_one.csv").read_bytes() == sweep


def test_run_figures_stops_on_the_first_failing_sweep(tmp_path):
    proc = subprocess.run([sys.executable, SCRIPTS / "run_figures.py", "--rounds", "0",
                           "--out-dir", tmp_path], capture_output=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.split(None, 1) == [b"star_binary_majority_one",
                                          b"error: rounds must be >= 1\n"]
    assert not any(tmp_path.iterdir())


def test_bench_ab_help():
    assert b"usage:" in run(SCRIPTS / "bench_ab.py", "--help")


def load(path: Path, monkeypatch):
    """Import the module at ``path`` under its file name, until the test ends."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, path.stem, module)
    spec.loader.exec_module(module)
    return module


def test_bench_ab_restates_the_cases_of_bench_workloads(monkeypatch, tmp_path):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # bench_ab sets them on import; undone after the test
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports spans from bench/
    ab = load(SCRIPTS / "bench_ab.py", monkeypatch)
    workloads = load(BENCH / "workloads.py", monkeypatch)
    assert ab.TRACE_STRIDE == workloads.TRACE_STRIDE
    assert ab.TOKEN_RUNS == workloads.ShortRuns(0, tmp_path).token_runs
    assert ab.SHORT_RUN_CASES == tuple(case[:5] for case in workloads.ShortRuns.PROTOCOL_CASES)
    assert ab.TRACED_CASES == workloads.Traced.CASES
    assert (ab.GRID_KINDS, ab.GRID_SETTINGS) == (workloads.GRID_KINDS, workloads.GRID_SETTINGS)
    grid = workloads.Grid(0, tmp_path).configs
    assert [(c.kind, c.n_values, c.protocol, c.init, c.rounds) for c in grid] == [
        (kind, ab.DESK_N_VALUES[kind], protocol, init, ab.SWEEP_ROUNDS)
        for kind in ab.GRID_KINDS for protocol, init in ab.GRID_SETTINGS]
