"""Workloads: their inputs, their operations and the checks on the answers.

A workload builds its inputs in two steps.  The constructor makes
everything the benchmark itself needs (plant matrices for the checker,
file paths); ``setup`` then makes the calls into sparselq that a user pays
before the first solve (parsing, validate_plant, lift_plant) and is timed
as set-up.  ``run_round`` performs one round of operations and returns
an ``Op`` per operation.  The round seed only orders the operations, so
every round does the same work.
"""

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

import check

HERE = os.path.dirname(os.path.abspath(__file__))
PROBLEMS = os.path.join(HERE, "problems")


@dataclass
class Op:
    """One attempted operation: a solve or a verify."""

    op_id: str
    wall: float = 0.0                           # seconds in sparselq calls
    cpu: float = 0.0                            # CPU seconds in those calls
    failed: bool = False
    wrong: list = field(default_factory=list)   # independent checks failed
    error: str = ""
    answer: dict = field(default_factory=dict)  # fingerprint


def fingerprint(sol, sweeps):
    return {"status": sol.status, "certified": bool(sol.certified),
            "pattern": np.asarray(sol.pattern).astype(int).tolist(),
            "J_upper": float(f"{sol.J_upper:.4g}"),
            "iterations": int(sol.iterations), "sweeps": sweeps}


class SweepCounter:
    """Counts calls of inner.sgs_sweep for the answer fingerprint."""

    def __init__(self, inner):
        self.calls = 0
        self._fn = getattr(inner, "sgs_sweep", None)
        if self._fn is not None:
            fn = self._fn

            def counted(*args, **kwargs):
                self.calls += 1
                return fn(*args, **kwargs)
            inner.sgs_sweep = counted

    def take(self):
        """Sweeps since the last take, or None when the name is gone."""
        if self._fn is None:
            return None
        n, self.calls = self.calls, 0
        return n


def _timed(op, call):
    """call(), adding its wall and CPU seconds to op."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        return call()
    finally:
        op.wall += time.perf_counter() - t0
        op.cpu += time.process_time() - c0


def _solve(op, sl, counter, plant, call):
    """Run one solve; record failures, independent checks and fingerprint."""
    counter.take()
    try:
        sol = _timed(op, call)
    except sl.errors.NotConverged as exc:
        op.failed, op.error = True, f"NotConverged: {exc}"
        sol = exc.solution
    except Exception as exc:  # any raise is a failed operation
        op.failed, op.error = True, f"{type(exc).__name__}: {exc}"
        return None
    op.answer = fingerprint(sol, counter.take())
    if not sol.certified:
        op.failed = True
        op.error = op.error or "not certified"
    if not op.failed:
        op.wrong = check.check_solution(plant, check.solution_fields(sol))
        op.failed = bool(op.wrong)
    return sol


def _verify(sl, problem, solution):
    """sparselq verify through cli.run_command; returns (exit code, output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = sl.cli.run_command(["verify", "--problem", problem,
                                   "--solution", solution])
    return code, out.getvalue()


class _Ex1:
    """Workloads on ex1, read from its problem file by cli.load_problem."""

    def __init__(self):
        self.problem = os.path.join(PROBLEMS, "ex1.json")
        with open(self.problem, encoding="utf-8") as fh:
            self.plant = check.plant_from_problem(json.load(fh))

    def setup(self, sl):
        self.lifted = sl.cli.load_problem(self.problem)


class Frontier(_Ex1):
    """ex1 under l1 over the gamma grid, with write, verify and tampering."""

    name = "frontier"
    gammas = (1e-8, 1.0, 5.0, 10.0, 20.0, 50.0)
    tamper_factor = 10.0

    def run_round(self, sl, counter, rng, workdir):
        ops, points = [], []
        for gamma in rng.sample(self.gammas, len(self.gammas)):
            tag = f"gamma={gamma:g}"
            op = Op(f"solve l1 {tag}")
            sol = _solve(op, sl, counter, self.plant, lambda: sl.outer.solve_relaxed(
                self.lifted, sl.outer.regime_l1(gamma)))
            ops.append(op)
            if not op.failed:
                points.append((gamma, sol.J_upper))

            honest = Op(f"verify {tag}")
            tampered = Op(f"verify tampered J_upper {tag}")
            ops += [honest, tampered]
            if sol is None:
                honest.failed = tampered.failed = True
                honest.error = tampered.error = "no solution to verify"
                continue
            out_dir = os.path.join(workdir, tag)
            path = _timed(honest, lambda: sl.cli.write_solution(sol, out_dir))
            code, text = _timed(honest, lambda: _verify(sl, self.problem, path))
            honest.answer = {"exit_code": code}
            if code != 0:
                honest.failed, honest.error = True, f"exit {code}: {text.strip()}"

            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["J_upper"] *= self.tamper_factor
            bad_path = os.path.join(out_dir, "tampered.json")
            with open(bad_path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            code, text = _timed(tampered, lambda: _verify(sl, self.problem, bad_path))
            tampered.answer = {"exit_code": code}
            if code != 4:
                tampered.failed = True
                tampered.error = f"exit {code}, expected 4: tampered J_upper accepted"
        return ops, check.check_frontier(points)


class StiffPQ(_Ex1):
    """ex1 under pq at gamma 5: the accelerated schedule stiffens the dual."""

    name = "stiff_pq"
    gamma = 5.0

    def run_round(self, sl, counter, rng, workdir):
        op = Op(f"solve pq gamma={self.gamma:g}")
        _solve(op, sl, counter, self.plant, lambda: sl.outer.solve_relaxed(
            self.lifted, sl.outer.regime_pq(self.gamma)))
        return [op], []


def seeded_plant(seed, n=3, m=2, n_vertices=2, spread=0.1):
    """Uncertain plant: a stabilizable nominal pair and perturbed vertices.

    A = -diag(d) + B2 K0 is stabilized by K0, so a certificate exists for
    the nominal pair; the vertices perturb (A, B2) by ``spread``.  The
    cost weights are C = [I; 0], D = [0; I].
    """
    rng = np.random.default_rng(seed)
    d = 0.5 + rng.random(n)
    B2 = rng.standard_normal((n, m))
    A = -np.diag(d) + B2 @ rng.standard_normal((m, n))
    vertices = [(A + spread * rng.standard_normal((n, n)),
                 B2 + spread * rng.standard_normal((n, m)))
                for _ in range(n_vertices)]
    C = np.vstack([np.eye(n), np.zeros((m, n))])
    D = np.vstack([np.zeros((n, m)), np.eye(m)])
    return check.make_plant(A=A, B2=B2, B1=np.eye(n), C=C, D=D,
                            vertices=vertices)


class Ladder:
    """solve_l0 on a two-vertex plant down a halving sigma ladder."""

    name = "ladder"
    plant_seed = 4
    gamma = 0.8
    sigma0, sigma_min, sigma_decay = 1.0, 0.05, 0.5

    def __init__(self):
        self.plant = seeded_plant(self.plant_seed)

    def setup(self, sl):
        p = self.plant
        data = sl.model.PlantData(A=p["A"], B2=p["B2"], B1=p["B1"], C=p["C"],
                                  D=p["D"], vertices=p["vertices"])
        self.lifted = sl.model.lift_plant(sl.model.validate_plant(data))

    def run_round(self, sl, counter, rng, workdir):
        op = Op(f"solve l0 gamma={self.gamma:g}")
        ladder = sl.l0.ContinuationOptions(sigma0=self.sigma0,
                                           sigma_min=self.sigma_min,
                                           sigma_decay=self.sigma_decay)
        sol = _solve(op, sl, counter, self.plant, lambda: sl.l0.solve_l0(
            self.lifted, self.gamma, continuation=ladder))
        stage_fails = check.check_stage_trace(sol.stage_trace) if sol else []
        if stage_fails and not op.failed:
            op.wrong += stage_fails
            op.failed = True
        return [op], []


WORKLOADS = {w.name: w for w in (Frontier, StiffPQ, Ladder)}


def round_rng(seed, index):
    return random.Random(f"{seed}:{index}")
