"""Metamorphic relations: answers that must not change under an exact
symmetry of the problem.

Each relation transforms a plant in a way that leaves the synthesis
problem the same up to a known map, solves both, and compares.  The
bounds are fixed in advance, not fitted to what the solver gives:

- reversing the order of states and inputs: equal outer iterations, and
  K within 1e-9 (times max(1, max |K|)) after mapping back;
- swapping the two vertices of the ladder workload's plant, or listing
  one twice: J_upper within 1e-4 relative, the same pattern, certified;
- B1 -> B1 U and (C, D) -> V (C, D) for orthogonal U and V, which leave
  B1 B1', C'C and D'D unchanged, and the time scaling (A, B2) -> c (A, B2)
  with B1 -> sqrt(c) B1, which leaves the feasible (K, W1) unchanged:
  J_upper within 1e-4 relative and the same pattern;
- a forced zero on an entry the unforced solve already zeroes: J_upper
  within 1e-4 relative;
- J_upper does not decrease along the ex1 l1 gamma grid;
- the lift's congruence S_i of each vertex block, replaced by the
  identity, which leaves the problem as it is and changes only the
  inner solve's coordinates: the same pattern and J_upper within 1e-3
  relative, on the ladder plant and on ex2.

Only ex1, ex2 and the ladder plant are solved.  bench/workloads.py is loaded
by path, as in tests/test_answers.py, and not changed.
"""

import numpy as np
import pytest

from sparselq import model, outer
from sparselq.errors import NotConverged

from conftest import ex1_matrices, ex2_matrices, load_workloads

K_TOL = 1e-9
J_RTOL = 1e-4
CONGRUENCE_J_RTOL = 1e-3
GAMMAS = (1e-8, 1.0, 5.0, 10.0, 20.0, 50.0)


def _solve(plant, penalty, forced_zeros=()):
    lifted = model.lift_plant(model.validate_plant(plant), forced_zeros)
    try:
        return outer.solve_relaxed(lifted, penalty)
    except NotConverged as exc:
        return exc.solution


def _ex1(**replaced):
    """ex1 with the named matrices replaced."""
    mats = dict(zip(("A", "B2", "B1", "C", "D"), ex1_matrices()))
    return model.PlantData(**{**mats, **replaced})


def _orthogonal(rng, d):
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _same_cost(a, b):
    return abs(a.J_upper - b.J_upper) <= J_RTOL * abs(a.J_upper)


@pytest.fixture(scope="module")
def ladder_plant():
    workloads = load_workloads()
    return workloads.seeded_plant(workloads.Ladder.plant_seed)


def _ladder(p, vertices):
    return model.PlantData(A=p["A"], B2=p["B2"], B1=p["B1"], C=p["C"],
                           D=p["D"], vertices=vertices)


@pytest.mark.parametrize("penalty", [outer.regime_l1(5.0),
                                     outer.regime_pq(10.0)],
                         ids=["l1-5", "pq-10"])
def test_reversing_states_and_inputs(penalty):
    A, B2, B1, C, D = ex1_matrices()
    Pi = np.eye(A.shape[0])[::-1]
    Sigma = np.eye(B2.shape[1])[::-1]
    base = _solve(_ex1(), penalty)
    moved = _solve(model.PlantData(A=Pi @ A @ Pi.T, B2=Pi @ B2 @ Sigma.T,
                                   B1=Pi @ B1, C=C @ Pi.T, D=D @ Sigma.T),
                   penalty)
    assert base.certified and moved.certified
    assert moved.iterations == base.iterations
    K_back = Sigma.T @ moved.K @ Pi
    scale = max(1.0, float(np.max(np.abs(base.K))))
    assert np.max(np.abs(K_back - base.K)) <= K_TOL * scale


@pytest.mark.parametrize("order", [(1, 0), (0, 0, 1), (0, 1, 1)],
                         ids=["swapped", "first-twice", "second-twice"])
def test_vertex_order_and_duplicates(ladder_plant, order):
    penalty = outer.regime_l1(1.0)
    vertices = ladder_plant["vertices"]
    base = _solve(_ladder(ladder_plant, vertices), penalty)
    moved = _solve(_ladder(ladder_plant, [vertices[i] for i in order]),
                   penalty)
    assert base.certified and moved.certified
    assert _same_cost(base, moved)
    np.testing.assert_array_equal(moved.pattern, base.pattern)


def _rotated_B1(rng):
    B1 = ex1_matrices()[2]
    return _ex1(B1=B1 @ _orthogonal(rng, B1.shape[1]))


def _rotated_CD(rng):
    _, _, _, C, D = ex1_matrices()
    V = _orthogonal(rng, C.shape[0])
    return _ex1(C=V @ C, D=V @ D)


def _time_scaled(rng):
    A, B2, B1, _, _ = ex1_matrices()
    c = 2.0
    return _ex1(A=c * A, B2=c * B2, B1=np.sqrt(c) * B1)


@pytest.mark.parametrize("transform", [_rotated_B1, _rotated_CD,
                                       _time_scaled],
                         ids=["B1-rotated", "CD-rotated", "time-scaled"])
def test_transforms_that_keep_the_cost(transform):
    penalty = outer.regime_l1(5.0)
    base = _solve(_ex1(), penalty)
    moved = _solve(transform(np.random.default_rng(3)), penalty)
    assert base.certified and moved.certified
    assert _same_cost(base, moved)
    np.testing.assert_array_equal(moved.pattern, base.pattern)


def test_forcing_a_zero_the_solve_already_has():
    penalty = outer.regime_l1(5.0)
    base = _solve(_ex1(), penalty)
    zeros = np.argwhere(base.pattern == 0)
    assert zeros.size, "the unforced solve has no zero to force"
    forced = _solve(_ex1(), penalty, forced_zeros=[tuple(zeros[0])])
    assert forced.certified
    assert _same_cost(base, forced)


def test_cost_bound_does_not_decrease_along_the_gamma_grid():
    J = [_solve(_ex1(), outer.regime_l1(g)).J_upper for g in GAMMAS]
    assert all(b >= a for a, b in zip(J, J[1:])), J


@pytest.mark.parametrize("case", ["ladder-l1-0.8", "ex2-l1-10"])
def test_the_congruence_leaves_the_answer(ladder_plant, monkeypatch, case):
    plant, penalty = {
        "ladder-l1-0.8": (_ladder(ladder_plant, ladder_plant["vertices"]),
                          outer.regime_l1(0.8)),
        "ex2-l1-10": (model.PlantData(*ex2_matrices()),
                      outer.regime_l1(10.0))}[case]
    base = _solve(plant, penalty)
    monkeypatch.setattr(model, "_congruence",
                        lambda M: np.eye(M.shape[-1]))
    plain = _solve(plant, penalty)
    assert base.certified and plain.certified
    np.testing.assert_array_equal(plain.pattern, base.pattern)
    assert (abs(plain.J_upper - base.J_upper)
            <= CONGRUENCE_J_RTOL * abs(base.J_upper))
