"""CLI surface: subcommands, determinism, error objects."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from specgraph import (enumerate_graphs, graph6_decode, graph6_encode, is_ds,
                       pyramid_graph, star_graph)
from specgraph.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_family_default_is_bare_graph6(capsys):
    code, out = run_cli(capsys, "family", "--star", "4")
    assert code == 0
    assert out.strip() == graph6_encode(star_graph(4))


def test_family_json(capsys):
    code, out = run_cli(capsys, "family", "--pyramid", "6", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["edges"] == 12
    assert payload["order"] == 6
    assert payload["graph6"] == graph6_encode(pyramid_graph(6, 3))
    assert payload["family"] == {"kind": "pyramid", "params": [6, 3]}


def test_family_dot(capsys):
    code, out = run_cli(capsys, "family", "--cycle", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {")
    assert "3 -- 0;" in out or "0 -- 3;" in out


def test_charpoly_subcommand(capsys):
    code, out = run_cli(capsys, "charpoly", "--pyramid", "6", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["coefficients"] == [1, 0, -12, -20, -9, 0, 0]
    assert payload["factored"][-1] == {"coefficients": [1, -2, -9], "exponent": 1}


def test_spectrum_subcommand(capsys):
    code, out = run_cli(capsys, "spectrum", "--pyramid", "6", "3")
    payload = json.loads(out)
    assert code == 0
    assert payload["charpoly"] == [1, 0, -12, -20, -9, 0, 0]
    assert len(payload["eigenvalues"]) == 6
    assert payload["closed_form"][0]["kind"] == "quadratic-surd"


@pytest.mark.parametrize("family, zeros", [(("--path", "3"), 1), (("--star", "4"), 3)])
def test_spectrum_prints_zero_eigenvalues_exactly(capsys, family, zeros):
    code, out = run_cli(capsys, "spectrum", *family)
    payload = json.loads(out)
    assert code == 0
    assert payload["eigenvalues"].count(0.0) == zeros
    assert [0.0, zeros] in payload["clustered"]
    assert "-0.0" not in out and "e-" not in out


def test_spectrum_of_graph6_input(capsys):
    g6 = graph6_encode(star_graph(4))
    code, out = run_cli(capsys, "spectrum", g6)
    payload = json.loads(out)
    assert code == 0
    assert payload["charpoly"] == [1, 0, -4, 0, 0, 0]
    assert "closed_form" not in payload  # no family given


def test_cospectral_subcommand(capsys):
    star = graph6_encode(star_graph(4))
    code, out = run_cli(capsys, "cospectral", star, star)
    payload = json.loads(out)
    assert code == 0 and payload["cospectral"] and payload["isomorphic"]


def test_ds_composes_with_family(capsys):
    _, star_line = run_cli(capsys, "family", "--star", "4")
    code, out = run_cli(capsys, "ds", star_line.strip())
    payload = json.loads(out)
    assert code == 0
    assert payload["is_ds"] is False
    assert len(payload["mates"]) == 1
    assert payload["searched_order"] == 5


def test_cp_subcommand(capsys):
    code, out = run_cli(capsys, "cp", "--cycle", "5")
    payload = json.loads(out)
    assert code == 0
    assert payload["is_cp"] is False
    assert payload["reason"] == "long-odd-cycle-found"
    assert sorted(payload["witness"]) == [0, 1, 2, 3, 4]


def test_cycle_subcommand(capsys):
    code, out = run_cli(capsys, "cycle", "--complete", "4")
    payload = json.loads(out)
    assert code == 0 and payload["long_odd_cycle"] is None


def test_enumerate_subcommand(capsys, tmp_path):
    csv_path = tmp_path / "census.csv"
    code, out = run_cli(capsys, "enumerate", "5", "--csv", str(csv_path))
    payload = json.loads(out)
    assert code == 0
    assert payload["graph_count"] == 34
    assert len(payload["nontrivial_classes"]) == 1
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "graph6,charpoly,is_ds,is_cp"
    assert len(lines) == 35


def test_enumerate_csv_into_missing_directory_is_an_error_object(capsys, tmp_path):
    code, out = run_cli(capsys, "enumerate", "3", "--csv", str(tmp_path / "missing" / "x.csv"))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "SpecGraphError"


@pytest.mark.parametrize("order", [5, 6])
def test_enumerate_csv_is_ds_column_matches_is_ds(capsys, tmp_path, order):
    csv_path = tmp_path / "census.csv"
    run_cli(capsys, "enumerate", str(order), "--csv", str(csv_path))
    with csv_path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == len(enumerate_graphs(order))
    for row in rows:
        assert row["is_ds"] == str(is_ds(graph6_decode(row["graph6"])).is_ds)


@pytest.mark.parametrize("module", ["specgraph", "specgraph.cli"])
def test_python_m_prints_what_main_prints(capsys, module):
    _, expected = run_cli(capsys, "ds", "--star", "4")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", module, "ds", "--star", "4"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_nu_subcommand_below_cap(capsys):
    code, out = run_cli(capsys, "nu", "--cap", "5")
    payload = json.loads(out)
    assert code == 0
    assert payload["nu"] is None


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, "spectrum", "--pyramid", "7", "4")
    _, second = run_cli(capsys, "spectrum", "--pyramid", "7", "4")
    assert first == second


def test_table_format(capsys):
    code, out = run_cli(capsys, "charpoly", "--complete", "3", "--format", "table")
    assert code == 0
    assert "coefficients: [1, 0, -3, -2]" in out


def test_verify_json_reports_time_per_check(capsys, monkeypatch):
    from specgraph import verify

    def crash(workers):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "ALL_CHECKS", (
        ("enumeration-counts", verify.check_enumeration_counts),
        ("crash", crash),
    ))
    code, out = run_cli(capsys, "verify", "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["all_passed"] is False
    assert [c["name"] for c in payload["checks"]] == ["enumeration-counts", "crash"]
    assert [c["passed"] for c in payload["checks"]] == [True, False]
    assert all(c["elapsed_s"] >= 0 for c in payload["checks"])

    code, out = run_cli(capsys, "verify")  # the table carries no times
    assert out.splitlines()[1] == "crash               FAIL  error: RuntimeError('boom')"


def test_error_object_on_bad_graph6(capsys):
    code, out = run_cli(capsys, "cp", "D~~~~")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "Graph6Error"


def test_error_object_on_bad_family(capsys):
    code, out = run_cli(capsys, "family", "--pyramid", "3", "5")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"]["type"] == "ParameterError"


def test_error_when_no_graph_given(capsys):
    code, out = run_cli(capsys, "charpoly")
    assert code == 1
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv", [
    ["enumerate", "3", "--workers", "-1"],
    ["ds", "--star", "4", "--workers", "0"],
    ["nu", "--cap", "3", "--workers", "0"],
    ["verify", "--workers", "0"],
])
def test_workers_below_one_is_an_error_object(capsys, argv):
    enumerate_graphs(3)  # a warm cache must not hide the bad count
    code, out = run_cli(capsys, *argv)
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "ParameterError" and "workers must be >= 1" in error["message"]


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["family", "--pyramid", "six", "3"])
    assert exc.value.code == 2
