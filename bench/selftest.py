"""Self-test of the independent checker: it must reject tampered answers.

    python3 bench/selftest.py

Solves ex1 under l1 at gamma 5, checks that the genuine solution passes
bench/check.py, then tampers with a copy in three ways and checks that
each is rejected by the check it targets.  Exits 0 when all hold.
"""

import json
import os
import sys

import run  # sets the BLAS thread count and finds sparselq under src/
import check
import workloads


def tampered(plant, fields):
    """(name, expected failure text, tampered copy) per tamper class."""
    costs = check.vertex_costs(plant, fields["K"])
    low = dict(fields, J_upper=0.5 * float(costs.max()))
    flipped = dict(fields, K=-fields["K"])
    W = fields["W"].copy()
    W[0, 1] += 0.05
    W[1, 0] += 0.05
    bent = dict(fields, W=W)
    return [("J_upper below the Lyapunov cost", "above J_upper", low),
            ("sign-flipped K", "K != P / diag(W1)", flipped),
            ("perturbed off-diagonal of W1", "W1 not diagonal", bent)]


def main():
    problem = os.path.join(workloads.PROBLEMS, "ex1.json")
    with open(problem, encoding="utf-8") as fh:
        plant = check.plant_from_problem(json.load(fh))
    sl = run.import_sparselq()
    lifted = sl.cli.load_problem(problem)
    sol = sl.outer.solve_relaxed(lifted, sl.outer.regime_l1(5.0))
    fields = check.solution_fields(sol)
    ok = True
    fails = check.check_solution(plant, fields)
    print(f"genuine solution: {'accepted' if not fails else fails}")
    ok &= not fails
    for name, expect, copy in tampered(plant, fields):
        fails = check.check_solution(plant, copy)
        hit = any(expect in msg for msg in fails)
        print(f"{name}: {'rejected' if hit else 'NOT rejected'} {fails}")
        ok &= hit
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
