"""How far default stops lie from tight references.

Each row of tools/accuracy_references.json names a plant, a relaxation
and a gamma, and may add forced zeros (entries of K pinned to zero) to
the plant's own.  The row is solved at the default SolverOptions, and one
line is printed with the outer iterations, the inner sweeps, the CPU
seconds, J_upper, the relative distance |J_upper - J_ref| / |J_ref| to
the row's reference, whether the sparsity pattern equals the
reference's, `certified`, and whether the stored multiplier passes the
stationarity check of `sparselq verify`.  The table ends with one line
per relaxation: its outer iterations and sweeps summed over its rows.
Then three solve_l0 lines follow, for the two-vertex plant of the
benchmark's ladder workload at gamma 0.8 on that workload's sigma
ladder, and for ex1 at gamma 1 with and without the forced zero (0, 1)
on the default ContinuationOptions.  Each gives the outer iterations and
sweeps summed over all subsolves, the passes, how many passes logged
"stage objective rose", how many curvature builds (calls of
inner._curvature) the solve made on the fresh lift the table builds for
it, J_upper, `certified` and the pattern.  The ladder plant is loaded
from bench/workloads.py by path.

A reference is a solve at eps1 = 1e-8 and eps2 = 1e-7 (at most 400,000
outer iterations).  Its J_upper, pattern and whether it converged are
pinned in the JSON file.  A row whose reference is null is solved at that
tolerance first and pinned in the file, so to pin a row again, set its
reference to null.  The plants are problem documents in the format of
`sparselq solve --problem`, held in the same file.  It uses whichever
sparselq is importable, so

    PYTHONPATH=src python tools/accuracy_table.py

measures the working tree, and the same command in another checkout
measures that one against the same references.  It takes no options.
"""

import contextlib
import json
import logging
import os
import sys
import time

from sparselq import analysis, cli, inner, l0, model, outer
from sparselq.errors import NotConverged

from answer_digest import LADDER, VERTEX_GAMMA, ladder_plant

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "accuracy_references.json")
TIGHT = outer.SolverOptions(eps1=1e-8, eps2=1e-7, max_outer=400000)
REGIMES = {"l1": outer.regime_l1, "pq": outer.regime_pq}


def lifted_plant(doc, row):
    doc = dict(doc, forced_zeros=doc.get("forced_zeros", [])
               + row.get("forced_zeros", []))
    plant, forced = cli.parse_problem(json.dumps(doc))
    return model.lift_plant(model.validate_plant(plant), forced_zeros=forced)


def solve(lifted, penalty, options=outer.SolverOptions()):
    """(Solution, converged, CPU seconds) of one solve."""
    t0 = time.process_time()
    try:
        sol, converged = outer.solve_relaxed(lifted, penalty, options), True
    except NotConverged as exc:
        sol, converged = exc.solution, False
    return sol, converged, time.process_time() - t0


def stationary(lifted, sol, penalty):
    # the check of cmd_verify, on the solution's own W and P
    cert = analysis.certify(lifted, sol.W, sol.P, sol.status)
    return analysis.stationary(cert, lifted, sol.multiplier, penalty)


def sweeps_of(sol):
    return sum(r[analysis.TRACE_COLUMNS.index("inner_sweeps")]
               for r in sol.trace)


@contextlib.contextmanager
def l0_counts():
    """Counts {"sweeps", "rises", "builds"} over every subsolve of the
    solve_l0 calls made inside, read from each subsolve's trace, from the
    continuation's "stage objective rose" warnings and from the calls of
    inner._curvature."""
    counts = {"sweeps": 0, "rises": 0, "builds": 0}
    relaxed, logger = outer.solve_relaxed, logging.getLogger("sparselq")
    build = inner._curvature

    def counted(*args, **kwargs):
        try:
            sol = relaxed(*args, **kwargs)
        except NotConverged as exc:
            counts["sweeps"] += sweeps_of(exc.solution)
            raise
        counts["sweeps"] += sweeps_of(sol)
        return sol

    def built(*args, **kwargs):
        counts["builds"] += 1
        return build(*args, **kwargs)

    class Rises(logging.Handler):
        def emit(self, record):
            counts["rises"] += "stage objective rose" in record.getMessage()

    # the warnings reach this handler alone, not stderr
    saved = logger.level, logger.propagate
    handler = Rises()
    outer.solve_relaxed, inner._curvature = counted, built
    logger.addHandler(handler)
    logger.setLevel(logging.WARNING)
    logger.propagate = False
    try:
        yield counts
    finally:
        outer.solve_relaxed, inner._curvature = relaxed, build
        logger.removeHandler(handler)
        logger.level, logger.propagate = saved


def l0_lines(ex1):
    """One line per solve_l0 solve, in the order of the module docstring,
    for the problem document ex1."""
    solves = (("ladder l0 0.8", ladder_plant(), VERTEX_GAMMA, LADDER),
              ("ex1 l0 1", lifted_plant(ex1, {}), 1.0,
               l0.ContinuationOptions()),
              ("ex1 l0 1 fz(0,1)",
               lifted_plant(ex1, {"forced_zeros": [[0, 1]]}), 1.0,
               l0.ContinuationOptions()))
    for name, lifted, gamma, ladder in solves:
        with l0_counts() as counts:
            try:
                sol = l0.solve_l0(lifted, gamma, continuation=ladder)
            except NotConverged as exc:
                sol = exc.solution
        yield (f"{name:<16} {sol.iterations:>7} {counts['sweeps']:>8} "
               f"passes {len(sol.stage_trace)} rises {counts['rises']} "
               f"builds {counts['builds']} "
               f"J_upper {sol.J_upper:.6f} "
               f"{'certified' if sol.certified else 'NOT certified'} "
               f"{sol.pattern.tolist()}")


def write_references(doc):
    # one problem and one row per line, so that a re-pinned row is a
    # one-line diff
    problems = ",\n".join(f"  {json.dumps(name)}: {json.dumps(p)}"
                           for name, p in doc["problems"].items())
    rows = ",\n".join(f"  {json.dumps(row)}" for row in doc["rows"])
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        fh.write('{\n "problems": {\n' + problems + '\n },\n'
                 ' "rows": [\n' + rows + "\n ]\n}\n")


def label(row):
    zeros = "".join(f" fz({i},{j})" for i, j in row.get("forced_zeros", []))
    return f"{row['problem']} {row['relaxation']} {row['gamma']:g}{zeros}"


def main():
    logging.getLogger("sparselq").setLevel(logging.ERROR)
    with open(REFERENCES, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = doc["rows"]
    plants = [lifted_plant(doc["problems"][row["problem"]], row)
              for row in rows]
    for row, lifted in zip(rows, plants):
        if row["reference"] is None:
            sol, converged, _ = solve(
                lifted, REGIMES[row["relaxation"]](row["gamma"]), TIGHT)
            row["reference"] = {"J_upper": round(float(sol.J_upper), 6),
                                "pattern": sol.pattern.tolist(),
                                "converged": converged}
            write_references(doc)
            print(f"pinned {label(row)}: {row['reference']}")

    print(f"{'row':<16} {'its':>7} {'sweeps':>8} {'cpu_s':>7} "
          f"{'J_upper':>11} {'distance':>9} pattern certified stationary")
    totals = {}
    for row, lifted in zip(rows, plants):
        ref = row["reference"]
        penalty = REGIMES[row["relaxation"]](row["gamma"])
        sol, converged, cpu = solve(lifted, penalty)
        sweeps = sweeps_of(sol)
        dist = abs(sol.J_upper - ref["J_upper"]) / abs(ref["J_upper"])
        same = "same" if sol.pattern.tolist() == ref["pattern"] else "DIFF"
        print(f"{label(row):<16} {sol.iterations:>7} {sweeps:>8} {cpu:>7.2f} "
              f"{sol.J_upper:>11.6f} {dist:>9.1e} {same:<7} "
              f"{'yes' if sol.certified else 'NO':<9} "
              f"{'ok' if stationary(lifted, sol, penalty) else 'FAILED'}"
              f"{'' if converged else ' (not converged)'}")
        total = totals.setdefault(row["relaxation"], [0, 0])
        total[0] += sol.iterations
        total[1] += sweeps
    for relaxation, (its, sweeps) in totals.items():
        print(f"{'total ' + relaxation:<16} {its:>7} {sweeps:>8}")
    for line in l0_lines(doc["problems"]["ex1"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
