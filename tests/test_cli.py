import csv
import hashlib
import json

import pytest

from qconsensus.cli import EXIT_OK, EXIT_TIMEOUT, EXIT_USAGE, _topology_spec, build_parser, main
from qconsensus.harness import SweepConfig


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


def test_edge_list_topology(tmp_path, capsys):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n2 3\n")
    code = run_cli("hitting", "--topo", "edge_list", "--edges", str(edges), "--target", "3")
    assert code == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5


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
# deviation, so no digest depends on LAPACK.
GOLDEN_DIGESTS = {
    "simulate_binary": "d6c81aaa4a98a6d0a6af425b57b87d178279cd7c4858b17050d42b1c868fc6cd",
    "simulate_quantized": "657c9498b106992c5f3f8b62db7ee7503c83a0cbf3e237c89aa5ed82e29963c4",
    "simulate_json": "722f94567a5f4b8c47169af33025e4d69fab1d5309d0dfea3d80faa8aedfe1f2",
    "sweep_json": "3d83a1b38d20f4d294524ccc371af18f293cea5eccf4f35d2e9d2c25babea52b",
    "meet": "67b9904abdc2df026ff2b985e9e4cdc3f4be46c5245b4ec454cda0a59f16d8ff",
    "trace_binary": "a569f343a419af811b154b65bd21d2ee07e492cdad287156eddf664b12568dce",
    "sweep_csv": "76e5dbd26dfd8ffc4d2bdfa5c71ec711611061892ea960fed662c4f51c8418b0",
    "rounds_csv": "474649a941a991d4071b5be4efa29295084463e922b8bbe85501b32ca1e81d83",
}


def test_cli_outputs_match_golden_digests(tmp_path, capsys):
    def stdout(*argv):
        assert run_cli(*argv) == EXIT_OK
        return capsys.readouterr().out.encode()

    trace, sweep, rounds = tmp_path / "trace.csv", tmp_path / "sweep.csv", tmp_path / "rounds.csv"
    sweep_args = ("sweep", "--topo", "erdos_renyi", "--protocol", "quantized",
                  "--n-values", "9,11", "--rounds", "3", "--seed", "5")
    outputs = {
        "simulate_binary": stdout("simulate", "--topo", "star", "--n", "21", "--protocol",
                                  "binary", "--seed", "1", "--trace-stride", "50",
                                  "--trace-out", str(trace)),
        "simulate_quantized": stdout("simulate", "--topo", "erdos_renyi", "--n", "15",
                                     "--protocol", "quantized", "--seed", "9"),
        "simulate_json": stdout("simulate", "--topo", "lollipop", "--n", "10", "--protocol",
                                "quantized", "--init", "q_setting1", "--seed", "2",
                                "--format", "json"),
        "sweep_json": stdout(*sweep_args, "--format", "json"),
        "meet": stdout("meet", "--topo", "line", "--n", "7", "--x", "0", "--y", "6",
                       "--runs", "200", "--seed", "3"),
    }
    assert run_cli(*sweep_args, "--out", str(sweep), "--rounds-out", str(rounds)) == EXIT_OK
    outputs["trace_binary"] = trace.read_bytes()
    outputs["sweep_csv"] = sweep.read_bytes()
    outputs["rounds_csv"] = rounds.read_bytes()
    assert {name: hashlib.sha256(out).hexdigest() for name, out in outputs.items()} \
        == GOLDEN_DIGESTS
