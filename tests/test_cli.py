import csv
import dataclasses
import json
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sparselq import analysis, cli, model, outer
from sparselq.errors import EigFailure, InvalidInput, SparseLQError

from conftest import (ex1_matrices, ex3_matrices, feasible_instance,
                      source_env)


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
        with pytest.raises(InvalidInput, match="Q"):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_vertex_extras(self):
        doc = small_problem_doc()
        doc["vertices"] = [{"A": doc["A"], "B2": doc["B2"], "B1": [1.0]}]
        with pytest.raises(InvalidInput, match="B1"):
            cli.parse_problem(json.dumps(doc))
        doc["vertices"] = [{"A": doc["A"]}]
        with pytest.raises(InvalidInput):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_lonely_C(self):
        doc = small_problem_doc()
        doc["C"] = [1.0, 0.0]
        with pytest.raises(InvalidInput):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_wrong_size(self):
        doc = small_problem_doc()
        doc["A"] = doc["A"][:-1]
        with pytest.raises(InvalidInput):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_bad_json_and_nonobject(self):
        with pytest.raises(InvalidInput):
            cli.parse_problem("{not json")
        with pytest.raises(InvalidInput):
            cli.parse_problem("[1, 2]")

    def test_rejects_missing_required(self):
        doc = small_problem_doc()
        del doc["B2"]
        with pytest.raises(InvalidInput):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_non_integer_size(self):
        doc = small_problem_doc()
        doc["n"] = "abc"
        with pytest.raises(InvalidInput, match="n"):
            cli.parse_problem(json.dumps(doc))

    def test_rejects_non_numeric_entry(self, tmp_path, capsys):
        doc = small_problem_doc()
        doc["A"] = ["x"]
        with pytest.raises(InvalidInput, match="A"):
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


def _problem_doc(forced_zeros, matrices=ex1_matrices):
    A, B2, B1, C, D = matrices()
    return {"n": 3, "m": 2, "A": A.ravel().tolist(),
            "B2": B2.ravel().tolist(), "B1": B1.ravel().tolist(),
            "C": C.ravel().tolist(), "D": D.ravel().tolist(),
            "forced_zeros": forced_zeros}


class TestForcedZeroSolve:
    """A solve with forced zeros writes a whole solution.json (the
    feasibility flag is a JSON bool) that verify accepts."""

    def _solve_and_verify(self, path, tmp_path, capsys, *flags):
        out = tmp_path / "run"
        assert cli.run_command(["solve", "--problem", str(path),
                                "--gamma", "1", "--out", str(out),
                                *flags]) == 0
        doc = json.loads((out / "solution.json").read_text())
        assert doc["feasibility"]["feasible"] is True
        assert doc["K"][0][1] == 0.0
        capsys.readouterr()
        code = cli.run_command(["verify", "--problem", str(path),
                                "--solution", str(out / "solution.json")])
        assert code == 0, capsys.readouterr().out

    @pytest.mark.parametrize("relaxation", ["l1", "pq", "l0"])
    def test_each_regime(self, tmp_path, capsys, relaxation):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_changed(forced_zeros=[[0, 1]])))
        self._solve_and_verify(path, tmp_path, capsys,
                               "--relaxation", relaxation)

    def test_ex1_l1(self, tmp_path, capsys):
        # the gain row of the stored multiplier at a forced zero lies far
        # outside the l1 subdifferential; the pinned entry is exempt
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_problem_doc([[0, 1]])))
        self._solve_and_verify(path, tmp_path, capsys)


class TestVerifyHonestPq:
    """An honest pq solve passes verify, stationarity included."""

    def _solve_and_verify(self, tmp_path, capsys, gamma, forced_zeros,
                          matrices=ex1_matrices):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(_problem_doc(forced_zeros, matrices)))
        out = tmp_path / "run"
        assert cli.run_command(["solve", "--problem", str(path),
                                "--relaxation", "pq", "--gamma", gamma,
                                "--out", str(out)]) == 0
        capsys.readouterr()
        code = cli.run_command(["verify", "--problem", str(path),
                                "--solution", str(out / "solution.json")])
        captured = capsys.readouterr().out
        assert code == 0, captured
        assert "stationarity: ok" in captured

    @pytest.mark.parametrize("gamma", ["5", "10", "20"])
    def test_ex1(self, tmp_path, capsys, gamma):
        self._solve_and_verify(tmp_path, capsys, gamma, [])

    def test_ex1_with_a_forced_zero(self, tmp_path, capsys):
        self._solve_and_verify(tmp_path, capsys, "1", [[0, 1]])

    def test_ex3(self, tmp_path, capsys):
        # its multiplier's entries are about 28, so an absolute
        # stationarity threshold of 1e-3 needs a stop close to the optimum
        self._solve_and_verify(tmp_path, capsys, "10", [], ex3_matrices)


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

    @pytest.mark.parametrize("relaxation", ["l1", "pq", "l0"])
    def test_zero_gamma_is_recorded_as_asked(self, problem_file, tmp_path,
                                             capsys, relaxation):
        flags = ["--relaxation", relaxation, "--sigma0", "0.2",
                 "--sigma-decay", "0.3"]
        path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0",
                                    *flags)
        assert doc["gamma"] == 0
        assert _verify(problem_file, path, doc, capsys)[0] == 0
        out = tmp_path / "sweep"
        assert cli.run_command(["sweep", "--problem", problem_file,
                                "--gammas", "0", "--out", str(out),
                                *flags]) == 0
        [row] = json.loads((out / "sweep.json").read_text())
        assert (row["gamma"], row["J_upper"]) == (0, doc["J_upper"])

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

    @pytest.mark.parametrize("relaxation,field,value", [
        *[pytest.param(relaxation, field, value, id=f"{relaxation}-{tag}")
          for relaxation in ("l1", "pq")
          for tag, field, value in (
              ("negative_gamma", "gamma", -5.0),
              ("nan_gamma", "gamma", float("nan")),
              ("zero_weight", "weights", [[0.0, 1.0]]),
              ("negative_weight", "weights", [[1.0, -2.0]]))],
        pytest.param("pq", "pq_params", [1.0, 1.0, 0.0, 1.0], id="pq-b1_zero"),
        pytest.param("pq", "pq_params", [-1.0, 1.0, -1.0, 1.0],
                     id="pq-a1_negative")])
    def test_bad_stored_penalty_is_bad_input(self, problem_file, tmp_path,
                                             capsys, relaxation, field,
                                             value):
        path, doc = _solve_and_load(problem_file, tmp_path, "--relaxation",
                                    relaxation, "--gamma", "0.5")
        doc[field] = value
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 2
        assert field in captured.err
        assert "np.float64" not in captured.err

    def test_tiny_W1_diagonal_fails_verification(self, problem_file,
                                                 tmp_path, capsys):
        # K stays finite, but no Lyapunov solve meets its residual
        path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
        doc["W"][0][0] = 5e-308
        code, captured = _verify(problem_file, path, doc, capsys)
        assert code == 4
        assert "J_vertex: FAILED" in captured.out
        assert "cost_bound: FAILED" in captured.out


def test_verify_survives_a_W_whose_blocks_overflow(problem_file, tmp_path,
                                                   capsys):
    # every entry finite, but F W and W + W^T overflow to inf: bad input
    # named in one line, and no numpy warning on the way
    path, doc = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
    doc["W"] = [[1e308] * len(row) for row in doc["W"]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, captured = _verify(problem_file, path, doc, capsys)
    assert code == 2
    assert [str(w.message) for w in caught] == []
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: W:")
    assert "overflow" in lines[0]


class TestVerifyMalformedSolution:
    """A solution file with a missing or wrong-size field is bad input."""

    @pytest.mark.parametrize("key,value", [
        ("W", [[1.0]]), ("multiplier", [0.0, 0.0]), ("P", None),
        ("W", [[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ("P", [[float("inf"), 0.0]])])
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


    @pytest.mark.parametrize("vertices", [[1], [["A", "B2"]]])
    def test_vertex_that_is_not_an_object(self, tmp_path, capsys, vertices):
        doc = small_problem_doc()
        doc["vertices"] = vertices
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.run_command(["solve", "--problem", str(path),
                                "--gamma", "1.0",
                                "--out", str(tmp_path / "o")])
        assert code == 2
        assert "vertex 0" in capsys.readouterr().err
        with pytest.raises(InvalidInput, match="vertex 0"):
            cli.parse_problem(json.dumps(doc))

    def test_negative_gamma(self, problem_file, tmp_path, capsys):
        code = cli.run_command(["solve", "--problem", problem_file,
                                "--gamma", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,named", [
        ("--sigma0=1e-5", "sigma0"), ("--sigma0=-1", "sigma0"),
        ("--sigma0=nan", "sigma0"), ("--sigma-decay=1.5", "sigma_decay"),
        ("--sigma-decay=0", "sigma_decay"), ("--lambda=0", "prox_weight"),
        ("--max-outer=0", "max_outer"), ("--max-outer=-3", "max_outer"),
        ("--tol-eps1=-1 --max-outer=5", "eps1"),
        ("--tol-eps1=nan --max-outer=5", "eps1"),
        ("--tol-eps2=0", "eps2")])
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_bad_continuation_flags(self, problem_file, tmp_path, capsys,
                                    command, flag, named):
        # solver and continuation flags alike fail before any solve
        gamma = ["--gamma", "1"] if command == "solve" else ["--gammas", "1,2"]
        code = cli.run_command([command, "--problem", problem_file,
                                "--relaxation", "l0", *gamma, *flag.split(),
                                "--out", str(tmp_path / "o")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key,value", [
        ("n", 2.5), ("n", True), ("n", "2"), ("m", 1.5), ("m", True),
        ("forced_zeros", [[0.7, 1.2]]), ("forced_zeros", [[0, True]])])
    def test_non_integral_size_or_index(self, tmp_path, capsys, key, value):
        doc = small_problem_doc()
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = cli.run_command(["solve", "--problem", str(path),
                                "--gamma", "1.0",
                                "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{key}: expected an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_size_is_accepted(self):
        doc = small_problem_doc()
        doc["n"], doc["forced_zeros"] = 2.0, [[0.0, 1.0]]
        plant, forced = cli.parse_problem(json.dumps(doc))
        assert plant.A.shape == (2, 2)
        assert forced == ((0, 1),)

    def test_problem_is_a_directory(self, tmp_path, capsys):
        code = cli.run_command(["solve", "--problem", str(tmp_path),
                                "--gamma", "1.0",
                                "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_out_is_an_existing_file(self, problem_file, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = cli.run_command(["solve", "--problem", problem_file,
                                "--gamma", "1.0", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("gammas,named", [("50,-1", "gamma"),
                                              ("1,abc", "abc")])
    def test_bad_gamma_in_sweep(self, problem_file, tmp_path, capsys,
                                gammas, named):
        code = cli.run_command(["sweep", "--problem", problem_file,
                                "--gammas", gammas,
                                "--out", str(tmp_path / "o")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _changed(**changes):
    doc = small_problem_doc()
    doc.update(changes)
    return doc


def _solve_on(doc, *flags):
    """argv of a solve on the problem doc (a dict, or raw text)."""
    def argv(tmp_path, problem_file):
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        return ["solve", "--problem", str(path), "--gamma", "1",
                "--out", str(tmp_path / "o"), *flags]
    return argv


def _verify_bad_pq_params(tmp_path, problem_file):
    path, doc = _solve_and_load(problem_file, tmp_path, "--relaxation", "pq",
                                "--gamma", "0.5")
    doc["pq_params"] = [1.0, 1.0, 0.5, 1.0]
    path.write_text(json.dumps(doc))
    return ["verify", "--problem", problem_file, "--solution", str(path)]


# One bad input for each input-error type that InvalidInput replaced.
ONE_BAD_INPUT_PER_FORMER_TYPE = [
    pytest.param(_solve_on(_changed(B2=[1.0])), "B2", id="dimension"),
    pytest.param(_solve_on(_changed(C=[1.0, 0.0, 0.0, 1.0], D=[1.0, 0.0])),
                 "C^T D", id="assumption"),
    pytest.param(_solve_on(_changed(forced_zeros=[[0, 5]])), "forced_zeros",
                 id="forced_zero"),
    pytest.param(_verify_bad_pq_params, "pq_params", id="pq_params"),
    pytest.param(_solve_on(_changed(Q=[1.0])), "Q", id="unknown_key"),
    pytest.param(_solve_on("{not json"), "problem file", id="parse"),
    pytest.param(_solve_on({"n": 41, "m": 1, "A": (-np.eye(41)).ravel().tolist(),
                            "B2": [1.0] * 41}), "n = 41", id="too_large"),
    pytest.param(_solve_on(small_problem_doc(), "--max-outer", "0"),
                 "max_outer", id="solver_option")]


@pytest.mark.parametrize("make_argv,named", ONE_BAD_INPUT_PER_FORMER_TYPE)
def test_each_input_error_exits_2_naming_the_field(tmp_path, problem_file,
                                                   capsys, make_argv, named):
    argv = make_argv(tmp_path, problem_file)
    capsys.readouterr()
    assert cli.run_command(argv) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # through the library the same input raises one type, a ValueError
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(InvalidInput, match=re.escape(named)) as exc:
        args.func(args)
    assert isinstance(exc.value, ValueError)
    assert isinstance(exc.value, SparseLQError)


class TestSolutionRecord:
    """solution.json holds the Solution fields, in their order, and no
    timing, so two identical runs write the same bytes."""

    def test_two_runs_write_the_same_bytes(self, problem_file, tmp_path):
        written = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.run_command(["solve", "--problem", problem_file,
                                    "--gamma", "0.5", "--out", str(out)]) == 0
            written.append((out / "solution.json").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("relaxation", ["l1", "l0"])
    def test_keys_are_the_solution_fields_in_order(self, problem_file,
                                                   tmp_path, relaxation):
        _, doc = _solve_and_load(problem_file, tmp_path, "--relaxation",
                                 relaxation, "--gamma", "0.5",
                                 "--sigma0", "0.2", "--sigma-decay", "0.3")
        names = [f.name for f in dataclasses.fields(analysis.Solution)]
        assert list(doc) == [name for name in names
                             if name not in ("trace", "final_state")]
        keys = set(doc) | set(doc["feasibility"])
        assert not any("wall" in key or "time" in key or key.endswith("_ms")
                       for key in keys)
        assert "wall_ms" not in json.dumps(doc)


def _failing_run(*args):
    raise ValueError("worker failure")


_solve_run = cli._run_one


def _failure_at_gamma_half(error):
    def run(lifted, relaxation, gamma, *options):
        if gamma == 0.5:
            raise error("eigendecomposition failed")
        return _solve_run(lifted, relaxation, gamma, *options)
    return run


class TestSweep:
    def test_merge_keeps_input_order(self, problem_file, tmp_path):
        out = str(tmp_path / "sw")
        code = cli.run_command(["sweep", "--problem", problem_file,
                                "--gammas", "0.6,0.2", "--out", out])
        assert code == 0
        rows = json.loads((tmp_path / "sw" / "sweep.json").read_text())
        assert [row["gamma"] for row in rows] == [0.6, 0.2]
        with open(tmp_path / "sw" / "sweep.csv") as fh:
            table = list(csv.reader(fh))
        assert tuple(table[0]) == cli.SWEEP_COLUMNS
        assert len(table) == 3
        for row, line in zip(rows, table[1:]):
            assert line == [str(row[name]) for name in cli.SWEEP_COLUMNS]
        # the workers hand their rows back; nothing else is written
        assert sorted(p.name for p in (tmp_path / "sw").iterdir()) == [
            "sweep.csv", "sweep.json"]

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
        assert "parallel sweep unavailable" not in caplog.text


    def test_failed_gamma_keeps_the_other_rows(self, problem_file, tmp_path,
                                               monkeypatch):
        # a package error and numpy's LinAlgError alike
        for error in (EigFailure, np.linalg.LinAlgError):
            monkeypatch.setattr(cli, "_run_one", _failure_at_gamma_half(error))
            out = tmp_path / error.__name__
            code = cli.run_command(["sweep", "--problem", problem_file,
                                    "--gammas", "0.3,0.5", "--out", str(out)])
            assert code == 3
            rows = json.loads((out / "sweep.json").read_text())
            assert [row["gamma"] for row in rows] == [0.3, 0.5]
            assert rows[0]["status"] == "converged"
            assert rows[1]["status"] == "error"
            assert "eigendecomposition failed" in rows[1]["message"]
            assert rows[1]["J_upper"] is None
            assert rows[1]["iterations"] is None
            with open(out / "sweep.csv") as fh:
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

    @pytest.mark.parametrize("flags", [
        ["--dt", "0"], ["--horizon", "-1"], ["--horizon", "inf"],
        ["--horizon", "1e13"]])
    def test_bad_step_is_bad_input(self, problem_file, tmp_path, capsys,
                                   flags):
        # an infinite horizon, or one of more than MAX_SAMPLES samples,
        # is refused before any array is allocated
        path, _ = _solve_and_load(problem_file, tmp_path, "--gamma", "0.5")
        code = cli.run_command(["simulate", "--problem", problem_file,
                                "--solution", str(path), *flags,
                                "--out", str(tmp_path / "sim")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert flags[0][2:] in err[0]

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
    # without an installed console script, run the module it points at
    # from the source tree
    exe = shutil.which("sparselq")
    cmd, env = [exe, "--help"], None
    if exe is None:
        cmd = [sys.executable, "-m", "sparselq.cli", "--help"]
        env = source_env()
    res = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert res.returncode == 0
    assert "solve" in res.stdout and "sweep" in res.stdout
