"""Reference table, not a workload: lift time and outer-iteration cost vs n.

    python3 bench/scaling.py [n ...]

For each state dimension n (default 5 10 20 40) a seeded single-vertex
plant with m = 2 inputs is lifted and solved under l1 at gamma 1 for
ITERATIONS outer iterations, with the inner solver capped at MAX_SWEEPS
sweeps so that every n does comparable inner work.  Prints a markdown
table of the median lift_plant time over three lifts, the mean
milliseconds per outer iteration and per sweep.  The lift forms dense
n^2 x p^2 Kronecker products and the inner solver dense
n(n+1)/2 x p(p+1)/2 maps, so this records where they start to bite.
"""

import statistics
import sys
import time

import run  # sets the BLAS thread count and finds sparselq under src/
import workloads

ITERATIONS = 10
MAX_SWEEPS = 20


def measure(sl, n):
    p = workloads.seeded_plant(seed=n, n=n, m=2, n_vertices=1)
    data = sl.model.PlantData(A=p["A"], B2=p["B2"], B1=p["B1"], C=p["C"], D=p["D"])
    vplant = sl.model.validate_plant(data)
    lifts = []
    for _ in range(3):
        t0 = time.perf_counter()
        lifted = sl.model.lift_plant(vplant)
        lifts.append(time.perf_counter() - t0)
    options = sl.outer.SolverOptions(max_outer=ITERATIONS, max_sweeps=MAX_SWEEPS)
    t0 = time.perf_counter()
    try:
        sol = sl.outer.solve_relaxed(lifted, sl.outer.regime_l1(1.0), options)
    except sl.errors.NotConverged as exc:
        sol = exc.solution
    elapsed = time.perf_counter() - t0
    sweeps = sum(row[6] for row in sol.trace)
    return (statistics.median(lifts), 1e3 * elapsed / sol.iterations,
            sweeps / sol.iterations, 1e3 * elapsed / sweeps)


def main(argv):
    sl = run.import_sparselq()
    print("| n | p | lift_plant (s) | ms per outer iteration | sweeps per iteration | ms per sweep |")
    print("|---|---|---|---|---|---|")
    for n in [int(a) for a in argv] or [5, 10, 20, 40]:
        lift_s, ms_iter, sweeps, ms_sweep = measure(sl, n)
        print(f"| {n} | {n + 2} | {lift_s:.4f} | {ms_iter:.1f} | {sweeps:.1f} | "
              f"{ms_sweep:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
