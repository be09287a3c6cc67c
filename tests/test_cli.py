import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from qconsensus.cli import (EXIT_CLOSED, EXIT_OK, EXIT_TIMEOUT, EXIT_USAGE, _topology_spec,
                            build_parser, main)
from qconsensus.graphs import ER_MAX_SAMPLES
from qconsensus.harness import DESK_N_VALUES, SweepConfig, fit_scaling, iter_sweep

from conftest import KERNEL_PATHS, kernel_path


def run_cli(*argv):
    return main(list(argv))


def test_simulate_smoke(tmp_path, capsys):
    code = run_cli("simulate", "--topo", "star", "--n", "21", "--protocol", "binary",
                   "--init", "majority_one", "--seed", "1")
    out = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert out[0] == "topology,protocol,init,n,seed,max_ticks,ticks,converged,outcome"
    cells = out[1].split(",")
    assert cells[0] == "star" and cells[3] == "21" and cells[7] == "1"


def test_simulate_writes_its_row_and_trace_to_dev_null(capsys):
    code = run_cli("simulate", "--topo", "star", "--n", "21", "--protocol", "binary",
                   "--trace-stride", "1", "--out", os.devnull, "--trace-out", os.devnull)
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


def test_a_reader_that_closes_early_is_not_a_usage_error():
    # the 200-node table is far more than a pipe holds, so the CLI is mid-write at the close
    proc = subprocess.Popen([sys.executable, "-m", "qconsensus", "hitting", "--topo", "line",
                             "--n", "200"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"node,0,1,")
    proc.stdout.close()
    assert proc.stderr.read() == b""
    assert proc.wait(timeout=60) == EXIT_CLOSED


def test_simulate_even_n_usage_error(capsys):
    code = run_cli("simulate", "--topo", "star", "--n", "22", "--protocol", "binary",
                   "--init", "majority_one")
    assert code == EXIT_USAGE
    assert "odd N required" in capsys.readouterr().err


def test_simulate_timeout_exit_code(capsys):
    code = run_cli("simulate", "--topo", "line", "--n", "9", "--protocol", "quantized",
                   "--init", "q_setting2", "--seed", "3", "--max-ticks", "1")
    assert code == EXIT_TIMEOUT
    assert ",timeout" in capsys.readouterr().out


def test_simulate_json_format(capsys):
    code = run_cli("simulate", "--topo", "line", "--n", "5", "--protocol", "quantized",
                   "--init", "q_setting1", "--seed", "2", "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["topology"] == "line"
    assert rows[0]["converged"] == 1


@pytest.mark.parametrize("argv", [
    ("hitting", "--topo", "erdos_renyi", "--n", "2", "--p", "1e-9"),
    ("simulate", "--topo", "erdos_renyi", "--n", "50", "--p", "0.01", "--protocol", "binary"),
])
def test_an_erdos_renyi_graph_past_its_sample_bound_is_a_usage_error(argv, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: erdos_renyi found no connected G(n=")
    assert captured.err.endswith(f" in {ER_MAX_SAMPLES} samples\n")


@pytest.mark.parametrize("argv, rows", [
    (("simulate", "--n", "1"), ["erdos_renyi,binary,majority_one,1,0,150,0,1,all_positive"]),
    (("sweep", "--n-values", "1,3,5"), ["erdos_renyi,binary,majority_one,1,20,20,0.0,0.0,0"]),
])
def test_erdos_renyi_on_one_node_runs_with_the_default_p(argv, rows, capsys):
    # One node is connected at any p; the default must not be 5 ln(1) / 1 = 0.
    assert run_cli(*argv, "--topo", "erdos_renyi", "--protocol", "binary") == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:2] == rows


def test_simulate_byte_identical_outputs(tmp_path):
    args = ("simulate", "--topo", "erdos_renyi", "--n", "15", "--protocol", "quantized",
            "--init", "q_setting2", "--seed", "9")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(a)) == EXIT_OK
    assert run_cli(*args, "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_trace(tmp_path):
    trace = tmp_path / "trace.csv"
    code = run_cli("simulate", "--topo", "line", "--n", "7", "--protocol", "binary",
                   "--init", "majority_one", "--seed", "4", "--out", str(tmp_path / "o.csv"),
                   "--trace-stride", "10", "--trace-out", str(trace))
    assert code == EXIT_OK
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == "tick,s_plus,s_minus,w_plus,w_minus"
    assert len(lines) >= 2


def test_simulate_trace_requires_out(capsys):
    code = run_cli("simulate", "--topo", "line", "--n", "7", "--protocol", "binary",
                   "--trace-stride", "10")
    assert code == EXIT_USAGE


def test_simulate_trace_out_requires_a_stride(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = run_cli("simulate", "--topo", "line", "--n", "7", "--protocol", "binary",
                   "--trace-out", str(trace))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == "error: --trace-out requires --trace-stride N > 0\n"
    assert captured.out == ""
    assert not trace.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("topo", ["erdos_renyi", "star", "lollipop"])
def test_simulate_rejects_n_below_one_on_every_topology(topo, n, capsys):
    # An ER spec derives its p and graph seed from n, so n is checked before either.
    assert run_cli("simulate", "--topo", topo, f"--n={n}", "--protocol", "binary") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be >= 1\n"


def test_simulate_rejects_negative_trace_stride(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    code = run_cli("simulate", "--topo", "line", "--n", "7", "--protocol", "binary",
                   "--trace-stride", "-5", "--trace-out", str(trace))
    assert code == EXIT_USAGE
    assert "trace_stride must be >= 0" in capsys.readouterr().err
    assert not trace.exists()


def test_simulate_rejects_negative_max_ticks(capsys):
    code = run_cli("simulate", "--topo", "line", "--n", "7", "--protocol", "binary",
                   "--max-ticks", "-3")
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "max_ticks must be >= 0" in captured.err
    assert captured.out == ""


def test_sweep_rejects_negative_max_ticks(capsys):
    code = run_cli("sweep", "--topo", "star", "--protocol", "binary",
                   "--n-values", "5", "--rounds", "1", "--max-ticks", "-1")
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "max_ticks must be >= 0" in captured.err
    assert captured.out == ""


def test_sweep_rejects_lo_above_hi(capsys):
    code = run_cli("sweep", "--topo", "star", "--protocol", "quantized",
                   "--n-values", "5", "--rounds", "1", "--lo", "9", "--hi", "3")
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "lo must be <= hi" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (("--topo", "edge_list", "--edges", "EDGES", "--protocol", "binary"),
     "sweeps build one graph per n and cannot use an edge list"),
    (("--topo", "erdos_renyi", "--p", "0", "--protocol", "binary"),
     "erdos_renyi requires 0 < p <= 1, got p=0.0"),
    (("--topo", "lollipop", "--m", "2", "--protocol", "binary"),
     "lollipop requires 3 <= m <= n, got m=2, n=9"),
    (("--topo", "line", "--protocol", "quantized", "--init", "q_setting1", "--n-values", "2,3"),
     "q_setting1 requires n >= 3, got 2"),
    (("--topo", "star", "--protocol", "binary", "--n-values", "5,7", "--fit"),
     "--fit needs at least 3 n-values, got 2"),
    (("--topo", "line", "--protocol", "quantized", "--n-values", "5,7,9",
      "--lo", "-9223372036854775809"),
     "lo and hi must fit in int64, got lo=-9223372036854775809, hi=100"),
    (("--topo", "line", "--protocol", "quantized", "--n-values", "5,7,9",
      "--hi", "9223372036854775808"),
     "lo and hi must fit in int64, got lo=1, hi=9223372036854775808"),
    (("--topo", "erdos_renyi", "--n-values", "51", "--p", "0.01", "--protocol", "binary"),
     f"erdos_renyi found no connected G(n=51, p=0.01) in {ER_MAX_SAMPLES} samples"),
])
def test_sweep_rejects_a_bad_config_before_its_header(argv, message, tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n")
    argv = [str(edges) if a == "EDGES" else a for a in argv]
    assert run_cli("sweep", *argv, "--rounds", "1") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("n, flags, message", [
    (2, ("--topo", "line", "--protocol", "quantized", "--init", "q_setting1"),
     "q_setting1 requires n >= 3, got 2"),
    (5, ("--topo", "line", "--protocol", "quantized", "--lo", "9", "--hi", "3"),
     "lo must be <= hi, got lo=9, hi=3"),
    (10, ("--topo", "star", "--protocol", "binary"),
     "odd N required for the majority_one init, got 10"),
    (5, ("--topo", "line", "--protocol", "quantized", "--hi", "9223372036854775808"),
     "lo and hi must fit in int64, got lo=1, hi=9223372036854775808"),
    (5, ("--topo", "line", "--protocol", "binary", "--init", "q_setting1"),
     "binary protocol cannot use init 'q_setting1'"),
])
def test_simulate_and_sweep_reject_a_bad_init_in_the_same_words(n, flags, message, capsys):
    for argv in (("simulate", "--n", str(n)), ("sweep", "--n-values", str(n), "--rounds", "1")):
        assert run_cli(*argv, *flags) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("topo", ["star", "line", "lollipop", "erdos_renyi"])
def test_sweep_rejects_a_negative_seed_before_its_header(topo, capsys):
    code = run_cli("sweep", "--topo", topo, "--protocol", "binary", "--n-values", "5",
                   "--rounds", "1", "--seed", "-1")
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_simulate_binary_rejects_lo_above_hi(capsys):
    code = run_cli("simulate", "--topo", "line", "--n", "5", "--protocol", "binary",
                   "--lo", "9", "--hi", "3")
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: lo must be <= hi, got lo=9, hi=3\n"


def test_sweep_rejects_empty_n_values(capsys):
    code = run_cli("sweep", "--topo", "star", "--protocol", "binary", "--n-values", "",
                   "--rounds", "1")
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: bad --n-values: ")


def test_sweep_fit_and_default_grid(capsys):
    args = ("sweep", "--topo", "star", "--protocol", "binary", "--rounds", "1", "--seed", "3")
    assert run_cli(*args, "--fit") == EXIT_OK
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [int(r["n"]) for r in rows] == list(DESK_N_VALUES["star"])
    fit = fit_scaling(list(iter_sweep(SweepConfig("star", DESK_N_VALUES["star"], "binary",
                                                  "majority_one", 1, 3))))
    assert captured.err == (f"power-law fit: exponent={fit.exponent:.3f} "
                            f"coefficient={fit.coefficient:.4g} residual={fit.residual:.4g}\n")


def test_sweep_fit_with_too_few_converged_sizes_is_a_timeout(capsys):
    code = run_cli("sweep", "--topo", "line", "--protocol", "quantized",
                   "--n-values", "9,11,13", "--rounds", "1", "--max-ticks", "1", "--fit")
    captured = capsys.readouterr()
    assert code == EXIT_TIMEOUT
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [(r["n"], r["converged"]) for r in rows] == [("9", "0"), ("11", "0"), ("13", "0")]
    assert captured.err == "timeout: 0 of 3 sizes converged; the fit needs 3\n"


def test_sweep_fit_leaves_out_sizes_with_a_mean_of_zero_ticks(capsys):
    sweep = ("sweep", "--topo", "complete", "--rounds", "1", "--fit")
    too_few = ("error: scaling fit needs at least 3 points, got {}: "
               "a point is a size with a converged mean above 0\n")
    # complete(1) is converged at tick 0; ln(0) has no value to fit
    assert run_cli(*sweep, "--protocol", "binary", "--n-values", "1,3,5") == EXIT_USAGE
    captured = capsys.readouterr()
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert [(r["n"], r["mean_ticks"]) for r in rows][0] == ("1", "0.0") and len(rows) == 3
    assert captured.err == too_few.format(2)
    assert run_cli(*sweep, "--protocol", "quantized", "--init", "q_setting2", "--lo", "5",
                   "--hi", "5", "--n-values", "3,5,7") == EXIT_USAGE
    captured = capsys.readouterr()
    assert [r["mean_ticks"] for r in csv.DictReader(captured.out.splitlines())] == ["0.0"] * 3
    assert captured.err == too_few.format(0)
    assert run_cli(*sweep, "--protocol", "binary", "--n-values", "1,3,5,7") == EXIT_OK
    fit = fit_scaling(list(iter_sweep(SweepConfig("complete", (3, 5, 7), "binary",
                                                  "majority_one", 1, 0))))
    assert capsys.readouterr().err == (f"power-law fit: exponent={fit.exponent:.3f} "
                                       f"coefficient={fit.coefficient:.4g} "
                                       f"residual={fit.residual:.4g}\n")


def test_simulate_init_file(tmp_path, capsys):
    init = tmp_path / "values.txt"
    init.write_text("4\n4\n4\n")
    code = run_cli("simulate", "--topo", "line", "--n", "3", "--protocol", "quantized",
                   "--init", "file", "--init-file", str(init))
    assert code == EXIT_OK
    cells = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert cells[6] == "0" and cells[7] == "1"  # already converged
    code = run_cli("simulate", "--topo", "line", "--n", "3", "--protocol", "quantized",
                   "--init", "file")
    assert code == EXIT_USAGE
    for count in (3, 7):  # values for a graph of 5 nodes
        init.write_text("".join(f"{v}\n" for v in range(count)))
        code = run_cli("simulate", "--topo", "line", "--n", "5", "--protocol", "quantized",
                       "--init", "file", "--init-file", str(init))
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"{count} nodes but the graph has 5" in captured.err


def test_simulate_rejects_an_init_file_without_init_file(tmp_path, capsys):
    votes = tmp_path / "votes.txt"
    votes.write_text("+\n-\n+\n-\n+\n")
    for init in ((), ("--init", "majority_one")):
        assert run_cli("simulate", "--topo", "line", "--n", "5", "--protocol", "binary", *init,
                       "--init-file", str(votes)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --init-file requires --init file\n"


def test_sweep_rejects_full_grid_with_n_values(capsys):
    assert run_cli("sweep", "--topo", "star", "--protocol", "binary", "--full-grid",
                   "--n-values", "5", "--rounds", "1") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --full-grid and --n-values cannot be used together\n"


@pytest.mark.parametrize("grid", [("--n-values", "5,7"), ()])
def test_sweep_rejects_n_before_writing(grid, tmp_path, capsys):
    out, rounds = tmp_path / "sweep.csv", tmp_path / "rounds.csv"
    assert run_cli("sweep", "--topo", "star", "--n", "51", "--protocol", "binary",
                   "--rounds", "1", *grid, "--out", str(out),
                   "--rounds-out", str(rounds)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --n does not apply to sweep: give --n-values\n"
    assert not out.exists() and not rounds.exists()


@pytest.mark.parametrize("topo, flags, message", [
    ("star", ("--m", "3"), "m applies only to lollipop, not star"),
    ("erdos_renyi", ("--m", "3"), "m applies only to lollipop, not erdos_renyi"),
    ("line", ("--p", "0.5"), "p applies only to erdos_renyi, not line"),
    ("lollipop", ("--p", "0.5"), "p applies only to erdos_renyi, not lollipop"),
    ("star", ("--edges", "EDGES"), "--edges does not apply to --topo star"),
    ("edge_list", ("--edges", "EDGES", "--n", "3"), "--n does not apply to --topo edge_list"),
    ("edge_list", ("--edges", "EDGES", "--m", "3"), "--m does not apply to --topo edge_list"),
])
def test_simulate_and_sweep_reject_a_topology_flag_the_topology_does_not_read(
        topo, flags, message, tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n")
    flags = [str(edges) if a == "EDGES" else a for a in flags]
    size = () if topo == "edge_list" else ("--n", "5")
    for argv in (("simulate", *size), ("sweep", "--n-values", "5", "--rounds", "1")):
        assert run_cli(*argv, "--topo", topo, *flags, "--protocol", "binary") == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        run_cli("simulate", "--topo", "star", "--n", "5", "--protocol", "binary",
                "--frobnicate")
    assert info.value.code == EXIT_USAGE


def test_missing_n_is_usage_error(capsys):
    code = run_cli("hitting", "--topo", "star")
    assert code == EXIT_USAGE


def test_sweep_csv_and_sidecars(tmp_path):
    out = tmp_path / "sweep.csv"
    rounds = tmp_path / "rounds.csv"
    curves = tmp_path / "curves.csv"
    code = run_cli("sweep", "--topo", "star", "--protocol", "quantized",
                   "--init", "q_setting1", "--n-values", "5,7,9", "--rounds", "2",
                   "--seed", "1", "--out", str(out), "--rounds-out", str(rounds),
                   "--curves-out", str(curves))
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "topology,protocol,init,n,rounds,converged,mean_ticks,std_ticks,seed"
    assert len(lines) == 4
    assert rounds.read_text().startswith("n,round,ticks,converged")
    assert curves.read_text().splitlines()[0] == "n,mean_ticks,0.6*n^2,0.7*n^2"


def test_sweep_even_n_usage_error(capsys):
    code = run_cli("sweep", "--topo", "star", "--protocol", "binary",
                   "--n-values", "10,12", "--rounds", "1")
    assert code == EXIT_USAGE
    assert "odd" in capsys.readouterr().err


def test_sweep_json(capsys):
    args = ("sweep", "--topo", "line", "--protocol", "quantized", "--init", "q_setting2",
            "--n-values", "4,6", "--rounds", "1", "--seed", "2")
    code = run_cli(*args, "--format", "json")
    assert code == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [r["n"] for r in rows] == [4, 6]
    assert run_cli(*args) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    for r, cells in zip(rows, csv.DictReader(lines)):
        for column in ("mean_ticks", "std_ticks"):
            assert isinstance(r[column], float)
            assert r[column] == float(cells[column])


def test_sweep_json_is_strict_when_every_round_times_out(capsys):
    code = run_cli("sweep", "--topo", "line", "--protocol", "quantized", "--n-values", "9",
                   "--rounds", "2", "--max-ticks", "1", "--format", "json")
    assert code == EXIT_OK

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    [row] = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert row["converged"] == 0
    assert row["mean_ticks"] is None and row["std_ticks"] is None


def test_bound_row(capsys):
    code = run_cli("bound", "--topo", "star", "--n", "5", "--x", "1", "--y", "2", "--exact")
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,general,path_refined,exact"
    cells = lines[1].split(",")
    assert float(cells[2]) == 375.0
    assert float(cells[3]) == 50.0
    assert float(cells[4]) == pytest.approx(20.0)


def test_bound_requires_pair(capsys):
    assert run_cli("bound", "--topo", "star", "--n", "5") == EXIT_USAGE


def test_bound_all_pairs_prints_every_ordered_pair(capsys):
    assert run_cli("bound", "--topo", "line", "--n", "5", "--all-pairs") == EXIT_OK
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [(int(r["x"]), int(r["y"])) for r in rows] == \
        [(x, y) for x in range(5) for y in range(5) if x != y]
    assert {float(r["general"]) for r in rows} == {375.0}


@pytest.mark.parametrize("argv, message", [
    (("resistance", "--topo", "star", "--n", "5", "--x", "1"),
     "give both --x and --y, or neither"),
    (("resistance", "--topo", "edge_list"), "--topo edge_list requires --edges FILE"),
])
def test_incomplete_pair_or_graph_is_a_usage_error(argv, message, capsys):
    assert run_cli(*argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


GIVE_PAIR = "give both --x and --y"


@pytest.mark.parametrize("argv, message", [
    (("bound", "--topo", "star", "--n", "5"), f"{GIVE_PAIR}, or --all-pairs"),
    (("bound", "--topo", "star", "--n", "5", "--y", "1"), f"{GIVE_PAIR}, or --all-pairs"),
    (("bound", "--topo", "line", "--n", "5", "--all-pairs", "--x", "0", "--y", "9"),
     f"{GIVE_PAIR}, or --all-pairs"),
    (("bound", "--topo", "line", "--n", "5", "--all-pairs", "--x", "0"),
     f"{GIVE_PAIR}, or --all-pairs"),
    (("resistance", "--topo", "star", "--n", "5", "--y", "1"), f"{GIVE_PAIR}, or neither"),
    (("meet", "--topo", "star", "--n", "7", "--x", "1"), GIVE_PAIR),
])
def test_every_command_of_a_node_pair_states_one_pair_rule(argv, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_resistance_pair_and_matrix(capsys):
    code = run_cli("resistance", "--topo", "star", "--n", "5", "--x", "1", "--y", "2")
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert float(out[1].split(",")[2]) == pytest.approx(8.0)

    code = run_cli("resistance", "--topo", "star", "--n", "3")
    out = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    assert out[0] == "node,0,1,2"
    assert float(out[1].split(",")[2]) == pytest.approx(2.0)


def test_hitting_vector_and_matrix(capsys):
    code = run_cli("hitting", "--topo", "star", "--n", "5", "--target", "2")
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "source,expected_ticks"
    assert float(out[2].split(",")[1]) == pytest.approx(20.0)  # leaf -> leaf

    code = run_cli("hitting", "--topo", "line", "--n", "3", "--format", "json")
    data = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert data["nodes"] == [0, 1, 2]
    assert data["matrix"][0][2] == pytest.approx(6.0)


def test_meet_summary(capsys):
    code = run_cli("meet", "--topo", "star", "--n", "7", "--x", "1", "--y", "2",
                   "--runs", "300", "--seed", "4")
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    cells = dict(zip(header, lines[1].split(",")))
    assert cells["coupling"] == "X"
    assert float(cells["mean_ticks"]) > 0
    assert int(cells["runs"]) == 300


def test_meet_requires_pair(capsys):
    assert run_cli("meet", "--topo", "star", "--n", "7") == EXIT_USAGE


def test_meet_timeout_exit(capsys):
    code = run_cli("meet", "--topo", "line", "--n", "9", "--x", "0", "--y", "8",
                   "--runs", "5", "--max-ticks", "3")
    assert code == EXIT_TIMEOUT
    assert "ticks elapsed: 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--topo", "star", "--n", "5", "--x", "7", "--y", "1"), "nodes must be in 0..4"),
    (("--topo", "line", "--n", "5", "--x", "0", "--y", "-1"), "nodes must be in 0..4"),
    (("--topo", "line", "--n", "5", "--x", "0", "--y", "4", "--runs", "0"), "runs must be >= 1"),
    (("--topo", "line", "--n", "5", "--x", "0", "--y", "4", "--runs", "3", "--max-ticks", "-1"),
     "max_ticks must be >= 0"),
])
def test_meet_rejects_bad_nodes_and_runs(argv, message, capsys):
    assert run_cli("meet", *argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["erdos_renyi", "lollipop"])
def test_simulate_and_sweep_resolve_the_same_spec(kind):
    args = build_parser().parse_args(["simulate", "--topo", kind, "--n", "13", "--seed", "17",
                                      "--protocol", "quantized"])
    cfg = SweepConfig(kind, (13,), "quantized", "q_setting2", rounds=1, master_seed=17)
    assert _topology_spec(args) == cfg.spec_for(13)


def test_complete_topology(capsys):
    # K_n's biased walk enters a given node at rate 2 / (n (n - 1)) per tick
    assert run_cli("hitting", "--topo", "complete", "--n", "4", "--target", "0") == EXIT_OK
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [float(r["expected_ticks"]) for r in rows] == pytest.approx([0.0, 6.0, 6.0, 6.0])


def test_edge_list_topology(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n2 3\n")
    code = run_cli("hitting", "--topo", "edge_list", "--edges", str(edges), "--target", "3")
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5


def test_a_disconnected_edge_list_is_a_usage_error(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n2 3\n")
    assert run_cli("hitting", "--topo", "edge_list", "--edges", str(edges),
                   "--target", "0") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: explicit edge list does not yield a connected graph\n"


@pytest.mark.parametrize("line, text", [("1 x", "1 x"), ("0 1 2  # three", "0 1 2")])
def test_bad_edge_list_line_names_its_file_and_line(line, text, tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text(f"0 1\n{line}\n")
    assert run_cli("bound", "--topo", "edge_list", "--edges", str(edges),
                   "--x", "0", "--y", "1") == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {edges}:2: expected 'u v', got {text!r}\n"


def test_out_dir_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("QCONSENSUS_OUT_DIR", str(tmp_path))
    code = run_cli("resistance", "--topo", "star", "--n", "3", "--out", "r.csv")
    assert code == EXIT_OK
    assert (tmp_path / "r.csv").exists()


def test_check_quick(capsys):
    code = run_cli("check", "--quick")
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = [l for l in out.strip().splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 14
    assert all(l.startswith("PASS") for l in lines)
    for name in ("commute_identity", "hitting_bound", "binary_majority_outcome",
                 "quantized_conservation"):
        assert any(name in l for l in lines)


# SHA-256 of each output, recorded before `cli` and `harness` shared one
# spec -> (graph, state) factory and one CSV writer per table; sweep_json
# was recorded again when its mean and std became JSON numbers instead of
# strings. Every field is an integer, a mean of integers or a numpy standard
# deviation, so no digest depends on LAPACK. bound_all_pairs holds the
# integer bounds of every ordered pair, stored as floats.
GOLDEN_DIGESTS = {
    "simulate_binary": "d6c81aaa4a98a6d0a6af425b57b87d178279cd7c4858b17050d42b1c868fc6cd",
    "simulate_quantized": "657c9498b106992c5f3f8b62db7ee7503c83a0cbf3e237c89aa5ed82e29963c4",
    "simulate_json": "722f94567a5f4b8c47169af33025e4d69fab1d5309d0dfea3d80faa8aedfe1f2",
    "sweep_json": "3d83a1b38d20f4d294524ccc371af18f293cea5eccf4f35d2e9d2c25babea52b",
    "meet": "67b9904abdc2df026ff2b985e9e4cdc3f4be46c5245b4ec454cda0a59f16d8ff",
    "trace_binary": "a569f343a419af811b154b65bd21d2ee07e492cdad287156eddf664b12568dce",
    "trace_quantized": "7d4bae9cb455f28d541ab0caa62249c60c3230f4cd6c7ee271b58821c27ec26f",
    "sweep_csv": "76e5dbd26dfd8ffc4d2bdfa5c71ec711611061892ea960fed662c4f51c8418b0",
    "rounds_csv": "474649a941a991d4071b5be4efa29295084463e922b8bbe85501b32ca1e81d83",
    "bound_all_pairs": "442948983d75c24d1da9d7294f29675892010ae848b3f1e4dd492a41d34d2c8a",
    "curves_csv": "8fdc0afca641a5372640e1608e4c343946d9c35bc6fa1e327c0e3189c7d5f031",
}


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    def stdout(*argv):
        assert run_cli(*argv) == EXIT_OK
        return capsys.readouterr().out.encode()

    trace, sweep, rounds = tmp_path / "trace.csv", tmp_path / "sweep.csv", tmp_path / "rounds.csv"
    qtrace, curves = tmp_path / "qtrace.csv", tmp_path / "curves.csv"
    sweep_args = ("sweep", "--topo", "erdos_renyi", "--protocol", "quantized",
                  "--n-values", "9,11", "--rounds", "3", "--seed", "5")
    for path in KERNEL_PATHS:
        with kernel_path(path):
            outputs = {
                "simulate_binary": stdout("simulate", "--topo", "star", "--n", "21",
                                          "--protocol", "binary", "--seed", "1",
                                          "--trace-stride", "50", "--trace-out", str(trace)),
                "simulate_quantized": stdout("simulate", "--topo", "erdos_renyi", "--n", "15",
                                             "--protocol", "quantized", "--seed", "9"),
                "simulate_json": stdout("simulate", "--topo", "lollipop", "--n", "10",
                                        "--protocol", "quantized", "--init", "q_setting1",
                                        "--seed", "2", "--format", "json"),
                "sweep_json": stdout(*sweep_args, "--format", "json"),
                "meet": stdout("meet", "--topo", "line", "--n", "7", "--x", "0", "--y", "6",
                               "--runs", "200", "--seed", "3"),
                "bound_all_pairs": stdout("bound", "--topo", "lollipop", "--n", "12",
                                          "--all-pairs"),
            }
            assert run_cli(*sweep_args, "--out", str(sweep), "--rounds-out", str(rounds)) \
                == EXIT_OK
            stdout("simulate", "--topo", "line", "--n", "15", "--protocol", "quantized",
                   "--init", "q_setting2", "--seed", "4", "--trace-stride", "7",
                   "--trace-out", str(qtrace))
            # line q_setting1's one curve, 0.17*n^3, needs no libm call
            stdout("sweep", "--topo", "line", "--protocol", "quantized", "--init", "q_setting1",
                   "--n-values", "5,7,9", "--rounds", "2", "--seed", "5",
                   "--curves-out", str(curves))
        outputs["trace_binary"] = trace.read_bytes()
        outputs["trace_quantized"] = qtrace.read_bytes()
        outputs["sweep_csv"] = sweep.read_bytes()
        outputs["rounds_csv"] = rounds.read_bytes()
        outputs["curves_csv"] = curves.read_bytes()
        assert {name: hashlib.sha256(out).hexdigest() for name, out in outputs.items()} \
            == GOLDEN_DIGESTS, path
