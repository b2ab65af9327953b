"""One SHA-256 over the answers of a fixed set of solves.

Solves ex1 (bench/problems/ex1.json, read only) under l1 over the gamma
grid 1e-8, 1, 5, 10, 20, 50, under pq at gamma 5, by solve_l0 down one
short sigma ladder, and under l1 at gamma 1 with the gain entry (0, 1)
forced to zero; then the two-vertex plant of the benchmark's ladder
workload (bench/workloads.py, loaded by path) under l1 at gamma 0.8.  It
hashes each Solution's W, P, trace (every column but wall_ms) and stage
trace, bit for bit.  Two trees that give
the same digest gave the same answers to the last bit, which the
4-digit fingerprints of tests/answers.json cannot show.  It uses
whichever sparselq is importable, so

    PYTHONPATH=src python tools/answer_digest.py

digests the working tree, and the same command in another checkout
digests that one.  With --each it prints one "label digest" line per
solve instead, each digest over that solve's parts alone, so two trees
can be compared solve by solve.  It writes no file.
"""

import hashlib
import logging
import os
import sys

import numpy as np

from sparselq import analysis, cli, l0, model, outer
from sparselq.errors import NotConverged

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "bench")
PROBLEM = os.path.join(BENCH, "problems", "ex1.json")
L1_GAMMAS = (1e-8, 1.0, 5.0, 10.0, 20.0, 50.0)
PQ_GAMMA = 5.0
L0_GAMMA = 1.0
LADDER = l0.ContinuationOptions(sigma0=1.0, sigma_min=0.05, sigma_decay=0.5)
FORCED_GAMMA, FORCED_ZERO = 1.0, (0, 1)
VERTEX_GAMMA = 0.8


def _solve(call):
    try:
        return call()
    except NotConverged as exc:
        return exc.solution


def _rows(rows, skip=()):
    # float.hex is exact and reads the same for numpy and Python scalars
    return "\n".join(",".join(float(x).hex() for i, x in enumerate(row)
                              if i not in skip) for row in rows)


def solutions(lifted):
    """(label, Solution) of every solve the digest covers."""
    for gamma in L1_GAMMAS:
        yield f"l1 {gamma:g}", _solve(lambda: outer.solve_relaxed(
            lifted, outer.regime_l1(gamma)))
    yield f"pq {PQ_GAMMA:g}", _solve(lambda: outer.solve_relaxed(
        lifted, outer.regime_pq(PQ_GAMMA)))
    yield f"l0 {L0_GAMMA:g}", _solve(lambda: l0.solve_l0(
        lifted, L0_GAMMA, continuation=LADDER))
    forced = model.lift_plant(lifted.plant, forced_zeros=(FORCED_ZERO,))
    yield f"l1 {FORCED_GAMMA:g} forced {FORCED_ZERO}", _solve(
        lambda: outer.solve_relaxed(forced, outer.regime_l1(FORCED_GAMMA)))
    yield f"ladder l1 {VERTEX_GAMMA:g}", _solve(lambda: outer.solve_relaxed(
        ladder_plant(), outer.regime_l1(VERTEX_GAMMA)))


def ladder_plant():
    """The lifted two-vertex plant of the ladder workload."""
    # workloads.py imports its checker as the top-level module "check"
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    p = workloads.seeded_plant(workloads.Ladder.plant_seed)
    return model.lift_plant(model.validate_plant(model.PlantData(
        A=p["A"], B2=p["B2"], B1=p["B1"], C=p["C"], D=p["D"],
        vertices=p["vertices"])))


def main(argv):
    if argv not in ([], ["--each"]):
        print("usage: answer_digest.py [--each]", file=sys.stderr)
        return 2
    # the continuation's warnings are not hashed; keep them off stderr
    logging.getLogger("sparselq").setLevel(logging.ERROR)
    lifted = cli.load_problem(PROBLEM)
    wall = {analysis.TRACE_COLUMNS.index("wall_ms")}
    digest = hashlib.sha256()
    for label, sol in solutions(lifted):
        each = hashlib.sha256()
        for part in (label, np.ascontiguousarray(sol.W, dtype=float).tobytes(),
                     np.ascontiguousarray(sol.P, dtype=float).tobytes(),
                     _rows(sol.trace, wall), _rows(sol.stage_trace)):
            part = part.encode() if isinstance(part, str) else part
            digest.update(part)
            each.update(part)
        if argv:
            print(label, each.hexdigest())
    if not argv:
        print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
