import csv
import json
import shutil
import subprocess

import numpy as np
import pytest

from sparselq import analysis, cli, model, outer
from sparselq.errors import EigFailure, ParseError, UnknownKey

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

    def test_rejects_non_integer_size(self):
        doc = small_problem_doc()
        doc["n"] = "abc"
        with pytest.raises(ParseError, match="n"):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_non_numeric_entry(self, tmp_path, capsys):
        doc = small_problem_doc()
        doc["A"] = ["x"]
        with pytest.raises(ParseError, match="A"):
            cli.parse_problem(json.dumps(doc))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.run_command(["solve", "--problem", str(path),
                                "--gamma", "1.0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "A" in capsys.readouterr().err

    def test_forced_zeros_reach_the_lift(self, tmp_path):
        doc = small_problem_doc()
        doc["forced_zeros"] = [[0, 0]]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        lifted = cli.load_problem(str(path))
        assert lifted.forced_zeros == ((0, 0),)


def _flip_first(rows):
    rows[0][0] = 1 - rows[0][0]
    return rows


def _raise_min_eig_W(report):
    report["min_eig_W"] += 1.0
    return report


# One tampering per field that verify derives from (W, P).
TAMPER = {
    "K": lambda K: [[K[0][0] + 25.0] + K[0][1:]] + K[1:],
    "J_upper": lambda J: 10.0 * J,
    "J_vertex": lambda costs: [0.5 * c for c in costs],
    "stable": lambda margins: [x - 1.0 for x in margins],
    "pattern": _flip_first,
    "n_zeros": lambda zeros: zeros + 1,
    "primal_res": lambda res: res + 1.0,
    "feasibility": _raise_min_eig_W,
    "certified": lambda flag: not flag,
}


def _solve_and_load(problem_file, tmp_path, *extra):
    out = tmp_path / "run"
    assert cli.run_command(["solve", "--problem", problem_file,
                            "--out", str(out)] + list(extra)) == 0
    path = out / "solution.json"
    return path, json.loads(path.read_text())


def _verify(problem_file, path, doc, capsys):
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.run_command(["verify", "--problem", problem_file,
                            "--solution", str(path)])
    return code, capsys.readouterr()


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

    @pytest.mark.parametrize("field", list(analysis.CERTIFIED_FIELDS))
    def test_verify_catches_tampering(self, problem_file, tmp_path, capsys,
                                      field):
        path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
        assert doc["certified"] is True
        doc[field] = TAMPER[field](doc[field])
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 4
        assert f"{field}: FAILED" in captured.out

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


class TestVerifyPenaltyParameters:
    """verify re-checks stationarity with the penalty the solve used."""

    def _solve_and_verify(self, problem_file, tmp_path, capsys, regime):
        lifted = cli.load_problem(problem_file)
        sol = outer.solve_relaxed(lifted, regime)
        assert sol.certified
        out = tmp_path / "run"
        cli.write_solution(sol, str(out))
        code = cli.run_command(["verify", "--problem", problem_file,
                                "--solution", str(out / "solution.json")])
        return code, capsys.readouterr().out

    def test_weighted_l1(self, problem_file, tmp_path, capsys):
        weights = np.array([[0.3, 2.5]])
        code, out = self._solve_and_verify(
            problem_file, tmp_path, capsys,
            outer.regime_l1(0.5, weights=weights))
        assert "stationarity: ok" in out
        assert code == 0
        doc = json.loads((tmp_path / "run" / "solution.json").read_text())
        assert doc["weights"] == weights.tolist()
        assert doc["pq_params"] is None

    def test_non_default_pq(self, problem_file, tmp_path, capsys):
        params = (2.0, 0.5, -0.4, 3.0)
        code, out = self._solve_and_verify(
            problem_file, tmp_path, capsys,
            outer.regime_pq(0.5, pq_params=params))
        assert "stationarity: ok" in out
        assert code == 0
        doc = json.loads((tmp_path / "run" / "solution.json").read_text())
        assert tuple(doc["pq_params"]) == params

    def test_files_without_the_fields_use_the_defaults(self, problem_file,
                                                        tmp_path, capsys):
        code, _ = self._solve_and_verify(problem_file, tmp_path, capsys,
                                         outer.regime_pq(0.5))
        assert code == 0
        path = tmp_path / "run" / "solution.json"
        doc = json.loads(path.read_text())
        del doc["weights"], doc["pq_params"]
        path.write_text(json.dumps(doc))
        code = cli.run_command(["verify", "--problem", problem_file,
                                "--solution", str(path)])
        assert "stationarity: ok" in capsys.readouterr().out
        assert code == 0

    @pytest.mark.parametrize("key,value", [("weights", [1.0, 2.0, 3.0]),
                                           ("pq_params", [1.0, 1.0, -1.0]),
                                           ("weights", ["x", 1.0])])
    def test_malformed_fields_are_bad_input(self, problem_file, tmp_path,
                                            capsys, key, value):
        self._solve_and_verify(problem_file, tmp_path, capsys,
                               outer.regime_pq(0.5))
        path = tmp_path / "run" / "solution.json"
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        code = cli.run_command(["verify", "--problem", problem_file,
                                "--solution", str(path)])
        assert code == 2
        assert key in capsys.readouterr().err


class TestVerifyTrust:
    """verify derives its tolerance, and says what it takes on trust."""

    @pytest.mark.parametrize("relaxation", ["l1", "pq", "l0"])
    def test_honest_round_trip_passes(self, problem_file, tmp_path, capsys,
                                      relaxation):
        path, doc = _solve_and_load(
            problem_file, tmp_path, "--relaxation", relaxation,
            "--gamma", "0.5", "--sigma0", "0.2", "--sigma-decay", "0.3")
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 0
        assert "status, iterations, dual_res: not derivable, not checked" \
            in captured.out
        checked = "not checked" if relaxation == "l0" else "ok"
        assert f"stationarity: {checked}" in captured.out

    @pytest.mark.parametrize("field", ["primal_res", "dual_res"])
    def test_stored_residuals_do_not_loosen_the_tolerance(
            self, problem_file, tmp_path, capsys, field):
        path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
        doc["W"][0][1] = doc["W"][1][0] = 0.5
        doc[field] = 1e6
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 4
        assert "feasible: FAILED" in captured.out

    def test_unknown_regime_is_bad_input(self, problem_file, tmp_path,
                                         capsys):
        path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
        doc["regime"] = "foo"
        doc["multiplier"] = [-x for x in doc["multiplier"]]
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 2
        assert "regime" in captured.err

    def test_missing_multiplier_is_not_checked(self, problem_file, tmp_path,
                                               capsys):
        path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
        del doc["multiplier"]
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 0
        assert "stationarity: not checked" in captured.out

    def test_negated_multiplier_fails_stationarity(self, problem_file,
                                                   tmp_path, capsys):
        path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
        doc["multiplier"] = [-x for x in doc["multiplier"]]
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 4
        assert "stationarity: FAILED" in captured.out

    def test_zero_W1_diagonal_fails_verification(self, problem_file,
                                                 tmp_path, capsys):
        path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
        doc["W"][0][0] = 0.0
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 4
        assert "K: FAILED" in captured.out
        assert "margins: FAILED" in captured.out

    def test_tiny_W1_diagonal_fails_verification(self, problem_file,
                                                 tmp_path, capsys):
        # K stays finite, but no Lyapunov solve meets its residual
        path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
        doc["W"][0][0] = 5e-308
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 4
        assert "J_vertex: FAILED" in captured.out
        assert "cost_bound: FAILED" in captured.out


class TestVerifyMalformedSolution:
    """A solution file with a missing or wrong-size field is bad input."""

    @pytest.mark.parametrize("key,value", [("W", [[1.0]]),
                                           ("multiplier", [0.0, 0.0]),
                                           ("P", None)])
    def test_exits_2_naming_the_field(self, problem_file, tmp_path, capsys,
                                      key, value):
        out = tmp_path / "run"
        assert cli.run_command(["solve", "--problem", problem_file,
                                "--gamma", "0.5", "--out", str(out)]) == 0
        path = out / "solution.json"
        doc = json.loads(path.read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli.run_command(["verify", "--problem", problem_file,
                                "--solution", str(path)])
        assert code == 2
        assert key in capsys.readouterr().err


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

    @pytest.mark.parametrize("gammas,named", [("50,-1", "gamma"),
                                              ("1,abc", "abc")])
    def test_bad_gamma_in_sweep(self, problem_file, tmp_path, capsys,
                                gammas, named):
        code = cli.run_command(["sweep", "--problem", problem_file,
                                "--gammas", gammas,
                                "--out", str(tmp_path / "o")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o" / "rows").exists()


def _failing_run(*args):
    raise ValueError("worker failure")


_solve_run = cli._run_one


def _eig_failure_at_gamma_half(lifted, relaxation, gamma, args):
    if gamma == 0.5:
        raise EigFailure("eigendecomposition failed")
    return _solve_run(lifted, relaxation, gamma, args)


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


    def test_failed_gamma_keeps_the_other_rows(self, problem_file, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(cli, "_run_one", _eig_failure_at_gamma_half)
        code = cli.run_command(["sweep", "--problem", problem_file,
                                "--gammas", "0.3,0.5",
                                "--out", str(tmp_path / "swf")])
        assert code == 3
        rows = json.loads((tmp_path / "swf" / "sweep.json").read_text())
        assert [row["gamma"] for row in rows] == [0.3, 0.5]
        assert rows[0]["status"] == "converged"
        assert rows[1]["status"] == "error"
        assert "eigendecomposition failed" in rows[1]["message"]
        assert rows[1]["J_upper"] is None and rows[1]["iterations"] is None
        with open(tmp_path / "swf" / "sweep.csv") as fh:
            table = list(csv.reader(fh))
        assert len(table) == 3 and table[2][5] == "error"


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

    @pytest.mark.parametrize("text,needle", [
        ('{"W": [[1.0]]}', "'K'"),
        ("{not json", "not valid JSON"),
        ('{"K": [[1.0]]}', "K: expected 2 entries")])
    def test_bad_solution_is_bad_input(self, problem_file, tmp_path, capsys,
                                       text, needle):
        path = tmp_path / "solution.json"
        path.write_text(text)
        code = cli.run_command(["simulate", "--problem", problem_file,
                                "--solution", str(path),
                                "--out", str(tmp_path / "sim")])
        assert code == 2
        assert needle in capsys.readouterr().err


def test_console_script_help():
    exe = shutil.which("sparselq")
    if exe is None:
        pytest.skip("console script not on PATH")
    res = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert res.returncode == 0
    assert "solve" in res.stdout and "sweep" in res.stdout
