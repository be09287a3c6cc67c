"""Self-tests for the benchmark, on tiny inputs.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

from qconsensus import harness  # noqa: E402
from qconsensus.walks import HittingTable  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert f"  {m['name']} = " in proc.stdout


@pytest.mark.parametrize("workload", NAMES)
def test_same_seed_same_digest_traced_or_not(workload, tmp_path):
    first = workloads.WORKLOADS[workload](11, tmp_path / "a", tiny=True)
    second = workloads.WORKLOADS[workload](11, tmp_path / "b", tiny=True)
    untraced = first.unit(NullTracer())
    traced = second.unit(Tracer())
    assert first.digest(untraced) == second.digest(traced)
    assert first.counts(untraced) == second.counts(traced)


def measure_tiny(workload, monkeypatch, trace=0):
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    args = argparse.Namespace(workload=workload, seed=3, seconds=0.1, trace=trace, tiny=True)
    return run.measure(args)


def assert_failed(result):
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def corrupt_runs(monkeypatch, module, corrupt):
    original = module.run_to_convergence

    def corrupted(protocol, g, state, rng, max_ticks, trace_stride=0):
        return corrupt(original(protocol, g, state, rng, max_ticks, trace_stride), state)

    monkeypatch.setattr(module, "run_to_convergence", corrupted)


def off_by_one(result, state):
    return dataclasses.replace(result, ticks=result.ticks + 1)


def test_clean_run_has_no_failures(monkeypatch):
    result = measure_tiny("short-runs", monkeypatch)
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("workload,module", [("short-runs", workloads), ("traced", workloads),
                                             ("grid", harness)])
def test_off_by_one_tick_count_fails(workload, module, monkeypatch):
    corrupt_runs(monkeypatch, module, off_by_one)
    assert_failed(measure_tiny(workload, monkeypatch))


def test_grid_replay_must_match_iter_sweep(monkeypatch, capsys):
    # Replay runs on other streams stay valid, so only the comparison of
    # their ticks with iter_sweep's can catch them.
    monkeypatch.setattr(workloads, "round_rng",
                        lambda seed, n, ri: harness.round_rng(seed + 1, n, ri))
    assert_failed(measure_tiny("grid", monkeypatch, trace=1))
    assert "output digest differs from the first unit's" in capsys.readouterr().out


def test_quantized_state_outside_q_q1_fails(monkeypatch):
    def shift(result, state):
        if result.protocol == "quantized":
            state.values[0] += 1
            state.values[1] -= 1  # sum kept, so only the {q, q+1} check can catch it
        return result

    corrupt_runs(monkeypatch, workloads, shift)
    assert_failed(measure_tiny("short-runs", monkeypatch))


def test_perturbed_hitting_table_fails(monkeypatch):
    original = workloads.hitting_table

    def perturbed(m):
        table = original(m)
        h = table.h.copy()
        h[0, 1] *= 1.001
        return HittingTable(table.kind, h)

    monkeypatch.setattr(workloads, "hitting_table", perturbed)
    assert_failed(measure_tiny("exact", monkeypatch))
