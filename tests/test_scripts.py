"""The scripts under scripts/, run as separate processes the way a user runs them."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run(*argv) -> bytes:
    return subprocess.run([sys.executable, *map(str, argv)], check=True,
                          capture_output=True, timeout=120).stdout


def test_run_figures_writes_the_sweep_csv_the_cli_prints(tmp_path):
    run(SCRIPTS / "run_figures.py", "--kinds", "star", "--rounds", "2", "--out-dir", tmp_path)
    assert len(list(tmp_path.glob("*.csv"))) == 9
    sweep = run("-m", "qconsensus", "sweep", "--topo", "star", "--protocol", "binary",
                "--rounds", "2", "--seed", "7")
    assert (tmp_path / "star_binary_majority_one.csv").read_bytes() == sweep


def test_bench_ab_help():
    assert b"usage:" in run(SCRIPTS / "bench_ab.py", "--help")
