"""Command line front end.

Four subcommands share a JSON problem format:

    solve     one penalty regime at one gamma, write solution + trace
    sweep     several gammas in parallel, merged summary
    simulate  closed-loop impulse responses of a stored solution
    verify    re-derive the certificates of a stored solution

The problem file holds flat row-major matrices:

    {"n": 3, "m": 2, "A": [...9 numbers...], "B2": [...6...],
     "B1": [...], "C": [...], "D": [...],
     "vertices": [{"A": [...], "B2": [...]}, ...],
     "forced_zeros": [[0, 2], ...]}

B1 (n x k) defaults to the identity; C (k x n) and D default to [I; 0]
and [0; I], the unit-weight quadratic cost.  Unknown keys, in the
problem, in each vertex and in a solution file that verify or simulate
reads, are rejected rather than ignored.  A solution file holds the
fields of solution.json; verify requires those it reads (W, P, regime,
status, the certified fields, and gamma for l1 and pq) and simulate
requires K.

verify derives analysis.CERTIFIED_FIELDS from the stored W and P with
analysis.certify, compares each stored copy, and requires the
certificate's conditions and, for l1 and pq, stationarity of the stored
multiplier.  It trusts status and iterations, and reads no dual_res:
the feasibility tolerance derives from the primal residual of (W, P).
A number read from either file must be a JSON number, not a string or
a boolean.  A stored copy must also hold the JSON kind of the derived
field (analysis.agrees): a bool for a flag, integers for a count or a
pattern, numbers for the rest.  W must equal its transpose exactly, as
every W that certify stores does.

simulate steps every disturbance channel at once with one matrix, the
degree-4 Taylor polynomial of exp(dt A_cl) that one classical RK4 step
of the linear closed loop applies.

solve and sweep build SolverOptions and ContinuationOptions once from
the flags, so a bad flag fails before any work.  sweep solves its gammas
in a process pool and merges the rows the workers return.

Exit codes: 0 success, 2 bad input (errors.InvalidInput; in verify also
a regime other than l1, pq or l0, a non-finite stored matrix, a W
that is not symmetric or whose products with the plant overflow, and a stored gamma, weights or
pq_params that penalties.Penalty rejects), a file that cannot be read
or written (OSError) or a numerical failure (also numpy's LinAlgError), 3
solver did not converge (in a sweep: some gamma did not converge or
failed with an error row), 4 verification failed.
"""

import argparse
import csv
import functools
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from . import analysis, l0 as l0mod, model, outer, penalties
from .errors import (InvalidInput, NotConverged, SparseLQError, is_number,
                     require_nonnegative)

log = logging.getLogger("sparselq")

# Solution fields that stay out of solution.json (trace.csv holds one).
_NOT_IN_DOCUMENT = ("trace", "final_state")
# Columns of sweep.csv; each row of sweep.json adds K (and, for a gamma
# that failed, message).
SWEEP_COLUMNS = ("gamma", "J_upper", "J_worst", "n_zeros", "iterations",
                 "status", "certified")


def _converted(convert, value, name):
    """convert(value), with a conversion error reported as bad input."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{name}: {exc}") from exc


def _number(value, name, kind=float):
    """value as a float, or as an int for kind int; what errors.is_number
    refuses (a bool, a string) or, for an int, a fraction is bad input
    (float() would take "1", int() would take true as 1 and truncate
    2.5).  An int may come as an integral float, as "n": 2.0."""
    if not is_number(value) or kind is int and value % 1:
        what = "an integer" if kind is int else "a number"
        raise InvalidInput(f"{name}: expected {what}, got {value!r}")
    return _converted(kind, value, name)


def _array(flat, name):
    """A float array of JSON numbers, nested in lists."""
    arr = _converted(lambda v: np.asarray(v, dtype=object), flat, name)
    return np.array([_number(v, name) for v in arr.flat]).reshape(arr.shape)


def _matrix(flat, rows, cols, name):
    """flat as a finite rows x cols array.  A dimension given as None is
    worked out from the entry count, rounded up, so that a count that is
    not a multiple of the other dimension fails the size check."""
    arr = _array(flat, name)
    rows = -(-arr.size // cols) if rows is None else rows
    cols = -(-arr.size // rows) if cols is None else cols
    if arr.size != rows * cols:
        raise InvalidInput(f"{name}: expected {rows * cols} entries "
                         f"({rows}x{cols}), got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput(f"{name}: entries must be finite")
    return arr.reshape(rows, cols)


def _json_document(text, what):
    """The JSON value in text; _keys checks that it is an object."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{what} file is not valid JSON: {exc}") from exc


def _keys(doc, required, optional, what):
    """Raise InvalidInput unless doc is a JSON object that holds every
    required key and no key outside required and optional."""
    if not isinstance(doc, dict):
        raise InvalidInput(f"{what} is not a JSON object")
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise InvalidInput(f"{what}: unrecognized keys {sorted(unknown)}")
    for key in required:
        if key not in doc:
            raise InvalidInput(f"{what} is missing {key!r}")


def parse_problem(text):
    """PlantData and forced zeros from the JSON problem format."""
    doc = _json_document(text, "problem")
    _keys(doc, ("n", "m", "A", "B2"),
          ("B1", "C", "D", "vertices", "forced_zeros"), "problem")
    n, m = _number(doc["n"], "n", int), _number(doc["m"], "m", int)
    if n < 1 or m < 1:
        raise InvalidInput("need n >= 1 and m >= 1")
    A = _matrix(doc["A"], n, n, "A")
    B2 = _matrix(doc["B2"], n, m, "B2")
    B1 = _matrix(doc["B1"], n, None, "B1") if "B1" in doc else np.eye(n)
    if ("C" in doc) != ("D" in doc):
        raise InvalidInput("C and D must be given together")
    if "C" in doc:
        C = _matrix(doc["C"], None, n, "C")
        D = _matrix(doc["D"], C.shape[0], m, "D")
    else:
        C = np.vstack([np.eye(n), np.zeros((m, n))])
        D = np.vstack([np.zeros((n, m)), np.eye(m)])
    vertices = None
    if "vertices" in doc:
        if not isinstance(doc["vertices"], list) or not doc["vertices"]:
            raise InvalidInput("vertices must be a nonempty list")
        vertices = []
        for idx, vert in enumerate(doc["vertices"]):
            _keys(vert, ("A", "B2"), (), f"vertex {idx}")
            vertices.append((_matrix(vert["A"], n, n, f"vertex {idx} A"),
                             _matrix(vert["B2"], n, m, f"vertex {idx} B2")))
    forced = _converted(
        lambda fz: tuple((_number(i, "forced_zeros", int),
                          _number(j, "forced_zeros", int)) for i, j in fz),
        doc.get("forced_zeros", ()), "forced_zeros")
    plant = model.PlantData(A=A, B2=B2, B1=B1, C=C, D=D,
                            vertices=vertices)
    return plant, forced


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        plant, forced = parse_problem(fh.read())
    vplant = model.validate_plant(plant)
    return model.lift_plant(vplant, forced_zeros=forced)


def _json_default(obj):
    """json's hook for what it cannot write: an array as a list, a numpy
    scalar as its Python value (np.float64 is a float, written as one)."""
    return obj.tolist() if isinstance(obj, np.ndarray) else obj.item()


def solution_document(sol):
    """The Solution fields in their order, for json.dump with
    default=_json_default; traces and timing stay out."""
    return {f.name: getattr(sol, f.name)
            for f in fields(sol) if f.name not in _NOT_IN_DOCUMENT}


def _write_csv(path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_solution(sol, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    sol_path = os.path.join(out_dir, "solution.json")
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(solution_document(sol), fh, indent=1, default=_json_default)
    for name, columns, rows in (
            ("trace.csv", analysis.TRACE_COLUMNS, sol.trace),
            ("stages.csv", analysis.STAGE_TRACE_COLUMNS, sol.stage_trace)):
        if rows:
            _write_csv(os.path.join(out_dir, name), columns, rows)
    return sol_path


def _options(args):
    """(SolverOptions, ContinuationOptions) from the flags given, which
    carry the names of the fields they set; a value out of range is
    InvalidInput naming its field."""
    return tuple(cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                        if getattr(args, f.name, None) is not None})
                 for cls in (outer.SolverOptions, l0mod.ContinuationOptions))


def _run_one(lifted, relaxation, gamma, options, continuation):
    """(exit code, Solution) of one solve; an unconverged solve gives 3
    and its best-effort solution."""
    try:
        if relaxation == "l0":
            return 0, l0mod.solve_l0(lifted, gamma, options, continuation)
        return 0, outer.solve_relaxed(
            lifted, penalties.Penalty(relaxation, gamma), options)
    except NotConverged as exc:
        log.warning("gamma=%g: %s", gamma, exc)
        return 3, exc.solution


def cmd_solve(args):
    require_nonnegative(args.gamma, "gamma")
    options = _options(args)
    code, sol = _run_one(load_problem(args.problem), args.relaxation,
                         args.gamma, *options)
    path = write_solution(sol, args.out)
    print(f"{args.relaxation} gamma={args.gamma:g}: status={sol.status} "
          f"J_upper={sol.J_upper:.6g} zeros={sol.n_zeros} "
          f"certified={sol.certified}")
    print(f"wrote {path}")
    return code


def _sweep_worker(payload):
    """(exit code, sweep.json row) of one gamma of a sweep."""
    problem_path, relaxation, gamma, options, continuation = payload
    lifted = load_problem(problem_path)
    try:
        code, sol = _run_one(lifted, relaxation, gamma, options, continuation)
    except (SparseLQError, np.linalg.LinAlgError) as exc:
        # this gamma failed inside the solve; the other rows still merge
        log.warning("gamma=%g: %s", gamma, exc)
        return 3, {**dict.fromkeys(SWEEP_COLUMNS), "gamma": gamma,
                   "status": "error", "certified": False, "K": None,
                   "message": str(exc)}
    row = {name: getattr(sol, name, None) for name in SWEEP_COLUMNS}
    row.update(gamma=gamma, J_worst=float(np.max(sol.J_vertex)), K=sol.K)
    return code, row


def cmd_sweep(args):
    gammas = [_converted(float, tok, "gammas")
              for tok in args.gammas.split(",") if tok.strip()]
    if not gammas:
        raise InvalidInput("empty gamma list")
    for gamma in gammas:
        require_nonnegative(gamma, "gamma")
    options = _options(args)
    payloads = [(args.problem, args.relaxation, g, *options) for g in gammas]
    # Only a pool that cannot start (OSError, NotImplementedError) solves in
    # this process; an error inside a worker surfaces from result() below.
    try:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(len(payloads),
                                                 os.cpu_count() or 1)) as ex:
            futures = [ex.submit(_sweep_worker, p) for p in payloads]
    except (OSError, NotImplementedError) as exc:
        log.warning("parallel sweep unavailable (%s); solving in this "
                    "process", exc)
        results = [_sweep_worker(p) for p in payloads]
    else:
        results = [f.result() for f in futures]
    rows = [row for _, row in results]

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "sweep.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1, default=_json_default)
    _write_csv(os.path.join(args.out, "sweep.csv"), SWEEP_COLUMNS,
               ([row[name] for name in SWEEP_COLUMNS] for row in rows))
    for row in rows:
        if row["status"] == "error":
            print(f"gamma={row['gamma']:g}: status=error {row['message']}")
        else:
            print(f"gamma={row['gamma']:g}: J_upper={row['J_upper']:.6g} "
                  f"zeros={row['n_zeros']} status={row['status']}")
    return max(code for code, _ in results)


def _read_solution(path, required):
    """The solution file at path, checked by _keys: every key in required
    and no key outside the fields of solution.json."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = _json_document(fh.read(), "solution")
    _keys(doc, required, [f.name for f in fields(analysis.Solution)
                          if f.name not in _NOT_IN_DOCUMENT], "solution")
    return doc


def cmd_simulate(args):
    lifted = load_problem(args.problem)
    doc = _read_solution(args.solution, ("K",))
    K = _matrix(doc["K"], lifted.m, lifted.n, "K")
    t, X = analysis.simulate_impulse(lifted.plant, K, args.horizon, args.dt)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "impulse.csv")
    _write_csv(path, ["channel", "t"] + [f"x{i}" for i in range(X.shape[2])],
               ([j, f"{t[s]:.10g}"] + [f"{val:.12g}" for val in X[j, s]]
                for j in range(X.shape[0]) for s in range(X.shape[1])))
    print(f"wrote {path} ({X.shape[0]} channels, {X.shape[1]} samples)")
    return 0


def _require_finite_products(lifted, W):
    """Raise InvalidInput naming W when finite entries overflow in what
    certify forms from W: <R, W>, |A vec(W)| and the vertex blocks."""
    W_vec = W.reshape(-1, order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        products = [lifted.vec_R() @ W_vec,
                    np.linalg.norm(W_vec[lifted.gain_cols])]
        products += [lifted.theta_block(W, i)
                     for i in range(lifted.n_vertices)]
    if not all(np.all(np.isfinite(x)) for x in products):
        raise InvalidInput("W: entries too large: <R, W>, |A vec(W)| or a "
                           "vertex block F_i W + W F_i' overflows")


def cmd_verify(args):
    lifted = load_problem(args.problem)
    doc = _read_solution(args.solution, ("W", "P", "regime", "status",
                                         *analysis.CERTIFIED_FIELDS))
    W = _matrix(doc["W"], lifted.p, lifted.p, "W")
    if not np.array_equal(W, W.T):
        raise InvalidInput("W: not symmetric; W must equal W' exactly")
    _require_finite_products(lifted, W)
    P = _matrix(doc["P"], lifted.m, lifted.n, "P")
    regime = doc["regime"]
    if regime not in ("l1", "pq", "l0"):
        raise InvalidInput(f"regime: expected l1, pq or l0, got {regime!r}")
    penalty = None
    if regime != "l0":
        weights, params = doc.get("weights"), doc.get("pq_params")
        penalty = penalties.Penalty(
            regime, _number(doc.get("gamma"), "gamma"),
            None if weights is None
            else _matrix(weights, lifted.m, lifted.n, "weights"),
            penalties.PQ_DEFAULT if params is None
            else _matrix(params, 1, 4, "pq_params")[0])
    lam = doc.get("multiplier")
    if lam is not None:
        lam = _matrix(lam, 1, lifted.m * lifted.n, "multiplier")[0]
    cert = analysis.certify(lifted, W, P, doc["status"])

    checks = {name: _converted(lambda v: analysis.agrees(cert, name, v),
                               doc[name], name)
              for name in analysis.CERTIFIED_FIELDS}
    checks.update(cert["conditions"])
    if penalty is not None and lam is not None:
        checks["stationarity"] = analysis.stationary(cert, lifted, lam,
                                                     penalty)
    for name, ok in checks.items():
        print(f"{name}: {'ok' if ok else 'FAILED'}")
    if "stationarity" not in checks:
        print("stationarity: not checked")
    print("status, iterations, dual_res: not derivable, not checked")
    if all(checks.values()):
        print("verification passed")
        return 0
    print("verification failed")
    return 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sparselq",
        description="Sparse static state feedback under quadratic cost.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True, help="problem JSON path")
        p.add_argument("--relaxation", choices=("l1", "pq", "l0"),
                       default="l1")
        p.add_argument("--out", required=True, help="output directory")
        # each dest is the name of the options field the flag sets
        p.add_argument("--tol-eps1", dest="eps1", type=float)
        p.add_argument("--tol-eps2", dest="eps2", type=float)
        p.add_argument("--max-outer", type=int)
        p.add_argument("--lambda", dest="prox_weight", metavar="LAMBDA",
                       type=float,
                       help="anchor weight of the continuation subproblems")
        p.add_argument("--sigma0", type=float)
        p.add_argument("--sigma-decay", type=float)

    p_solve = sub.add_parser("solve", help="solve at one gamma")
    common(p_solve)
    p_solve.add_argument("--gamma", type=float, required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve a comma-separated "
                                           "gamma list")
    common(p_sweep)
    p_sweep.add_argument("--gammas", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="impulse responses of a "
                                            "stored solution")
    p_sim.add_argument("--problem", required=True)
    p_sim.add_argument("--solution", required=True)
    p_sim.add_argument("--horizon", type=float, default=10.0)
    p_sim.add_argument("--dt", type=float, default=0.01)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="re-check a stored solution")
    p_ver.add_argument("--problem", required=True)
    p_ver.add_argument("--solution", required=True)
    p_ver.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser():
    # building the parser costs about half of a verify; do it once
    return build_parser()


def run_command(argv):
    # a level name gives its number; anything else reads as WARNING
    level = logging.getLevelName(os.environ.get("SPARSELQ_LOG", "").upper())
    logging.basicConfig(level=level if isinstance(level, int) else
                        logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SparseLQError, OSError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
