import csv
import json
import shutil
import subprocess

import numpy as np
import pytest

from sparselq import analysis, cli, model
from sparselq.errors import ParseError, UnknownKey

from conftest import feasible_instance


def small_problem_doc(seed=13, n=2, m=1):
    rng = np.random.default_rng(seed)
    plant, _, _ = feasible_instance(rng, n, m)
    return {"n": n, "m": m,
            "A": plant.A.reshape(-1).tolist(),
            "B2": plant.B2.reshape(-1).tolist()}


@pytest.fixture()
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(small_problem_doc()))
    return str(path)


class TestParseProblem:
    def test_defaults(self):
        doc = small_problem_doc()
        plant, forced = cli.parse_problem(json.dumps(doc))
        assert forced == ()
        np.testing.assert_array_equal(plant.B1, np.eye(2))
        np.testing.assert_array_equal(plant.C,
                                      np.vstack([np.eye(2), np.zeros((1, 2))]))
        np.testing.assert_array_equal(plant.D,
                                      np.array([[0.0], [0.0], [1.0]]))
        assert len(plant.vertices) == 1

    def test_explicit_everything(self):
        doc = small_problem_doc()
        doc["B1"] = [2.0, 0.0, 0.0, 2.0]
        doc["C"] = [1.0, 0.0, 0.0, 0.0]
        doc["D"] = [0.0, 1.0]
        doc["vertices"] = [{"A": doc["A"], "B2": doc["B2"]},
                           {"A": doc["A"], "B2": doc["B2"]}]
        doc["forced_zeros"] = [[0, 1]]
        plant, forced = cli.parse_problem(json.dumps(doc))
        assert forced == ((0, 1),)
        assert len(plant.vertices) == 2
        assert plant.C.shape == (2, 2)

    def test_rejects_unknown_key(self):
        doc = small_problem_doc()
        doc["Q"] = [1.0]
        with pytest.raises(UnknownKey):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_vertex_extras(self):
        doc = small_problem_doc()
        doc["vertices"] = [{"A": doc["A"], "B2": doc["B2"], "B1": [1.0]}]
        with pytest.raises(UnknownKey):
            cli.parse_problem(json.dumps(doc))
        doc["vertices"] = [{"A": doc["A"]}]
        with pytest.raises(ParseError):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_lonely_C(self):
        doc = small_problem_doc()
        doc["C"] = [1.0, 0.0]
        with pytest.raises(ParseError):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_wrong_size(self):
        doc = small_problem_doc()
        doc["A"] = doc["A"][:-1]
        with pytest.raises(ParseError):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_bad_json_and_nonobject(self):
        with pytest.raises(ParseError):
            cli.parse_problem("{not json")
        with pytest.raises(ParseError):
            cli.parse_problem("[1, 2]")

    def test_rejects_missing_required(self):
        doc = small_problem_doc()
        del doc["B2"]
        with pytest.raises(ParseError):
            cli.parse_problem(json.dumps(doc))

    def test_forced_zeros_reach_the_lift(self, tmp_path):
        doc = small_problem_doc()
        doc["forced_zeros"] = [[0, 0]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        lifted = cli.load_problem(str(path))
        assert lifted.forced_zeros == ((0, 0),)


class TestSolveRoundtrip:
    def test_solve_then_verify(self, problem_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = cli.run_command(["solve", "--problem", problem_file,
                                "--relaxation", "l1", "--gamma", "0.5",
                                "--out", out])
        assert code == 0
        sol_path = tmp_path / "run" / "solution.json"
        assert sol_path.exists()
        doc = json.loads(sol_path.read_text())
        assert doc["status"] == "converged"
        assert doc["certified"] is True
        assert "wall_ms" not in json.dumps(doc)
        with open(tmp_path / "run" / "trace.csv") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == analysis.TRACE_COLUMNS

        code = cli.run_command(["verify", "--problem", problem_file,
                                "--solution", str(sol_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "verification passed" in captured.out
        assert "stationarity: ok" in captured.out

    def test_verify_catches_tampering(self, problem_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.run_command(["solve", "--problem", problem_file,
                                "--gamma", "0.5", "--out", out]) == 0
        sol_path = tmp_path / "run" / "solution.json"
        doc = json.loads(sol_path.read_text())
        doc["K"][0][0] += 25.0
        sol_path.write_text(json.dumps(doc))
        code = cli.run_command(["verify", "--problem", problem_file,
                                "--solution", str(sol_path)])
        assert code == 4
        assert "FAILED" in capsys.readouterr().out

    def test_verify_derives_J_upper(self, problem_file, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert cli.run_command(["solve", "--problem", problem_file,
                                "--gamma", "0.5", "--out", out]) == 0
        sol_path = tmp_path / "run" / "solution.json"
        doc = json.loads(sol_path.read_text())
        doc["J_upper"] *= 10.0
        sol_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.run_command(["verify", "--problem", problem_file,
                                "--solution", str(sol_path)])
        assert code == 4
        assert "J_upper: FAILED" in capsys.readouterr().out

    def test_unconverged_exit_code_still_writes(self, problem_file,
                                                tmp_path):
        out = str(tmp_path / "short")
        code = cli.run_command(["solve", "--problem", problem_file,
                                "--gamma", "0.5", "--out", out,
                                "--max-outer", "3"])
        assert code == 3
        doc = json.loads((tmp_path / "short" / "solution.json").read_text())
        assert doc["status"] == "max_iter"
        assert doc["certified"] is False

    def test_pq_regime(self, problem_file, tmp_path):
        out = str(tmp_path / "pq")
        code = cli.run_command(["solve", "--problem", problem_file,
                                "--relaxation", "pq", "--gamma", "0.5",
                                "--out", out])
        assert code == 0
        doc = json.loads((tmp_path / "pq" / "solution.json").read_text())
        assert doc["regime"] == "pq"

    def test_l0_regime_writes_stages(self, problem_file, tmp_path):
        out = str(tmp_path / "l0")
        code = cli.run_command(["solve", "--problem", problem_file,
                                "--relaxation", "l0", "--gamma", "0.5",
                                "--sigma0", "0.2", "--sigma-decay", "0.3",
                                "--lambda", "10.0", "--out", out])
        assert code == 0
        doc = json.loads((tmp_path / "l0" / "solution.json").read_text())
        assert doc["regime"] == "l0"
        assert doc["stage_trace"]
        with open(tmp_path / "l0" / "stages.csv") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == analysis.STAGE_TRACE_COLUMNS


class TestBadInputs:
    def test_missing_file(self, tmp_path):
        code = cli.run_command(["solve", "--problem",
                                str(tmp_path / "nope.json"),
                                "--gamma", "1.0",
                                "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unknown_problem_key(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = small_problem_doc()
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        code = cli.run_command(["solve", "--problem", str(path),
                                "--gamma", "1.0",
                                "--out", str(tmp_path / "o")])
        assert code == 2

    def test_assumption_violation(self, tmp_path):
        doc = small_problem_doc()
        doc["C"] = [1.0, 0.0, 0.0, 1.0]
        doc["D"] = [0.0, 0.0]  # D^T D singular
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.run_command(["solve", "--problem", str(path),
                                "--gamma", "1.0",
                                "--out", str(tmp_path / "o")])
        assert code == 2


    def test_negative_gamma(self, problem_file, tmp_path, capsys):
        code = cli.run_command(["solve", "--problem", problem_file,
                                "--gamma", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    def test_negative_gamma_in_sweep(self, problem_file, tmp_path, capsys):
        code = cli.run_command(["sweep", "--problem", problem_file,
                                "--gammas", "50,-1",
                                "--out", str(tmp_path / "o")])
        assert code == 2
        assert "gamma" in capsys.readouterr().err
        assert not (tmp_path / "o" / "rows").exists()


def _failing_run(*args):
    raise ValueError("worker failure")


class TestSweep:
    def test_serial_merge_keeps_input_order(self, problem_file, tmp_path):
        out = str(tmp_path / "sw")
        code = cli.run_command(["sweep", "--problem", problem_file,
                                "--gammas", "0.6,0.2", "--serial",
                                "--out", out])
        assert code == 0
        rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())
        assert [row["gamma"] for row in rows] == [0.6, 0.2]
        with open(tmp_path / "sw" / "sweep.csv") as fh:
            table = list(csv.reader(fh))
        assert table[0][0] == "gamma"
        assert len(table) == 3

    def test_parallel_pool(self, problem_file, tmp_path):
        out = str(tmp_path / "swp")
        code = cli.run_command(["sweep", "--problem", problem_file,
                                "--gammas", "0.3,0.5", "--out", out])
        assert code == 0
        rows = json.loads((tmp_path / "swp" / "sweep.json").read_text())
        assert len(rows) == 2
        assert all(row["status"] == "converged" for row in rows)


    def test_worker_error_is_not_rerun_serially(self, problem_file, tmp_path,
                                                monkeypatch, caplog):
        # Workers fork from this process and inherit the patched solver.
        monkeypatch.setattr(cli, "_run_one", _failing_run)
        with pytest.raises(ValueError, match="worker failure"):
            cli.run_command(["sweep", "--problem", problem_file,
                             "--gammas", "0.3,0.5",
                             "--out", str(tmp_path / "swe")])
        assert "running serially" not in caplog.text


class TestSimulate:
    def test_writes_trajectories(self, problem_file, tmp_path):
        out = str(tmp_path / "run")
        assert cli.run_command(["solve", "--problem", problem_file,
                                "--gamma", "0.5", "--out", out]) == 0
        sim_out = str(tmp_path / "sim")
        code = cli.run_command(["simulate", "--problem", problem_file,
                                "--solution",
                                str(tmp_path / "run" / "solution.json"),
                                "--horizon", "1.0", "--dt", "0.5",
                                "--out", sim_out])
        assert code == 0
        with open(tmp_path / "sim" / "impulse.csv") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["channel", "t", "x0", "x1"]
        # 2 channels x 3 samples
        assert len(table) == 1 + 2 * 3
        # each trajectory starts from its disturbance column
        first = [float(v) for v in table[1][2:]]
        np.testing.assert_allclose(first, [1.0, 0.0])


def test_console_script_help():
    exe = shutil.which("sparselq")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "solve" in res.stdout and "sweep" in res.stdout
