"""The scripts under scripts/, run as separate processes the way a user runs them."""

import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from qconsensus import consensus, graphs, harness

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


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


@pytest.fixture
def bench_ab(monkeypatch):
    """scripts/bench_ab.py as a module, and bench/workloads.py as it imports it; the
    environment, import path and modules it changes are restored after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # bench_ab sets them on import
    monkeypatch.setattr(sys, "path", list(sys.path))  # bench_ab puts src/ and bench/ on it
    ab = load(SCRIPTS / "bench_ab.py", monkeypatch)
    yield ab, sys.modules["workloads"]
    for name in ("workloads", "spans"):
        sys.modules.pop(name, None)


def test_bench_ab_takes_its_cases_from_bench_workloads(bench_ab, tmp_path):
    ab, workloads = bench_ab
    grid = workloads.Grid(ab.SWEEP_SEED, tmp_path).configs
    sweep = ab.sweep_cases()
    assert [case.name for case in sweep] == [f"iter_sweep/{c.kind}/{c.protocol}/{c.init}"
                                             for c in grid]
    assert len(sweep) == 12

    runs = ab.runs_cases()
    assert [(case.name, case.work) for case in runs] == [
        (f"{protocol}/{kind}({n})/{init} x{full}", full)
        for kind, n, protocol, init, full, _ in workloads.ShortRuns.PROTOCOL_CASES]
    assert [case.work for case in ab.walks_cases()] == list(
        workloads.ShortRuns(0, tmp_path).token_runs)
    stride = workloads.TRACE_STRIDE
    assert [case.name for case in ab.traces_cases()] == [
        f"{protocol}/{kind}({n})/trace_stride={stride}"
        for kind, n, protocol, init, _ in workloads.Traced.CASES]

    star5 = next(case for case in runs if "star(5)" in case.name)
    after = types.SimpleNamespace(graphs=graphs, harness=harness, consensus=consensus)
    seconds, outcomes = star5.run(after, 0)
    assert tuple(seconds) == ab.RUN_PARTS and min(seconds.values()) > 0
    assert len(outcomes) == star5.work
    assert all(converged for *_, converged, _ in outcomes)
    seeded, start = outcomes[0][:2]
    assert seeded == harness.round_rng(ab.RUNS_SEED, 5, 0).bit_generator.state
    assert start.startswith("BinaryState(opinions=[")


def test_bench_ab_records_each_timed_part_of_a_case(bench_ab, capsys):
    ab, _ = bench_ab
    case = ab.Case("parts", "us/run", lambda side, rep: ({"a": 1e-6, "b": 3e-6}, None), 1.0)
    record = ab.measure(case, {"before": None, "after": None}, 3, lambda a, b: a == b)
    assert record["after"]["median"] == pytest.approx(4.0)
    assert [record["parts"][p]["before"]["median"] for p in "ab"] == pytest.approx([1.0, 3.0])
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["parts", "a", "b"]
