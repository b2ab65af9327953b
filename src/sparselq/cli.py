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

B1 defaults to the identity; C and D default to [I; 0] and [0; I], the
unit-weight quadratic cost.  Unknown keys are rejected rather than
ignored.  Exit codes: 0 success, 2 bad input, 3 solver did not converge,
4 verification failed.
"""

import argparse
import csv
import json
import logging
import os
import sys

import numpy as np

from . import analysis, l0 as l0mod, model, outer
from .errors import NotConverged, ParseError, SparseLQError, UnknownKey

log = logging.getLogger("sparselq")

_PROBLEM_KEYS = {"n", "m", "A", "B2", "B1", "C", "D", "vertices",
                 "forced_zeros"}


def _matrix(flat, rows, cols, name):
    arr = np.asarray(flat, dtype=float)
    if arr.size != rows * cols:
        raise ParseError(f"{name}: expected {rows * cols} entries "
                         f"({rows}x{cols}), got {arr.size}")
    return arr.reshape(rows, cols)


def parse_problem(text):
    """PlantData and forced zeros from the JSON problem format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"problem file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("problem file must hold a JSON object")
    unknown = set(doc) - _PROBLEM_KEYS
    if unknown:
        raise UnknownKey(f"unrecognized problem keys: {sorted(unknown)}")
    for key in ("n", "m", "A", "B2"):
        if key not in doc:
            raise ParseError(f"problem file is missing {key!r}")
    n, m = int(doc["n"]), int(doc["m"])
    if n < 1 or m < 1:
        raise ParseError("need n >= 1 and m >= 1")
    A = _matrix(doc["A"], n, n, "A")
    B2 = _matrix(doc["B2"], n, m, "B2")
    if "B1" in doc:
        arr = np.asarray(doc["B1"], dtype=float)
        if arr.size % n:
            raise ParseError(f"B1: length {arr.size} is not a multiple of n")
        B1 = arr.reshape(n, arr.size // n)
    else:
        B1 = np.eye(n)
    if ("C" in doc) != ("D" in doc):
        raise ParseError("C and D must be given together")
    if "C" in doc:
        arrC = np.asarray(doc["C"], dtype=float)
        if arrC.size % n:
            raise ParseError(f"C: length {arrC.size} is not a multiple of n")
        q = arrC.size // n
        C = arrC.reshape(q, n)
        D = _matrix(doc["D"], q, m, "D")
    else:
        C = np.vstack([np.eye(n), np.zeros((m, n))])
        D = np.vstack([np.zeros((n, m)), np.eye(m)])
    vertices = None
    if "vertices" in doc:
        if not isinstance(doc["vertices"], list) or not doc["vertices"]:
            raise ParseError("vertices must be a nonempty list")
        vertices = []
        for idx, vert in enumerate(doc["vertices"]):
            extra = set(vert) - {"A", "B2"}
            if extra:
                raise UnknownKey(f"vertex {idx}: unrecognized keys "
                                 f"{sorted(extra)}")
            if "A" not in vert or "B2" not in vert:
                raise ParseError(f"vertex {idx} needs both A and B2")
            vertices.append((_matrix(vert["A"], n, n, f"vertex {idx} A"),
                             _matrix(vert["B2"], n, m, f"vertex {idx} B2")))
    forced = tuple((int(i), int(j)) for i, j in doc.get("forced_zeros", ()))
    plant = model.PlantData(A=A, B2=B2, B1=B1, C=C, D=D,
                            vertices=vertices)
    return plant, forced


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        plant, forced = parse_problem(fh.read())
    vplant = model.validate_plant(plant)
    return model.lift_plant(vplant, forced_zeros=forced)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def solution_document(sol):
    """JSON-ready dict of a Solution; traces and timing stay out."""
    doc = {
        "regime": sol.regime,
        "gamma": sol.gamma,
        "status": sol.status,
        "iterations": sol.iterations,
        "J_upper": sol.J_upper,
        "J_vertex": sol.J_vertex,
        "K": sol.K,
        "P": sol.P,
        "W": sol.W,
        "pattern": sol.pattern,
        "n_zeros": sol.n_zeros,
        "stable": sol.stable,
        "primal_res": sol.primal_res,
        "dual_res": sol.dual_res,
        "certified": sol.certified,
        "feasibility": sol.feasibility,
        "multiplier": sol.multiplier,
        "stage_trace": sol.stage_trace,
    }
    return _jsonable(doc)


def write_solution(sol, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    sol_path = os.path.join(out_dir, "solution.json")
    with open(sol_path, "w", encoding="utf-8") as fh:
        json.dump(solution_document(sol), fh, indent=1)
    if sol.trace:
        with open(os.path.join(out_dir, "trace.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(analysis.TRACE_COLUMNS)
            writer.writerows(sol.trace)
    if sol.stage_trace:
        with open(os.path.join(out_dir, "stages.csv"), "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(analysis.STAGE_TRACE_COLUMNS)
            writer.writerows(sol.stage_trace)
    return sol_path


def _solver_options(args):
    kw = {}
    if args.tol_eps1 is not None:
        kw["eps1"] = args.tol_eps1
    if args.tol_eps2 is not None:
        kw["eps2"] = args.tol_eps2
    if args.max_outer is not None:
        kw["max_outer"] = args.max_outer
    return outer.SolverOptions(**kw)


def _run_one(lifted, relaxation, gamma, args):
    options = _solver_options(args)
    if relaxation == "l0":
        cont = {}
        if args.sigma0 is not None:
            cont["sigma0"] = args.sigma0
        if args.sigma_decay is not None:
            cont["sigma_decay"] = args.sigma_decay
        if args.lam is not None:
            cont["prox_weight"] = args.lam
        return l0mod.solve_l0(lifted, gamma, options,
                              l0mod.ContinuationOptions(**cont))
    if relaxation == "pq":
        regime = outer.regime_pq(gamma)
    else:
        regime = outer.regime_l1(gamma)
    return outer.solve_relaxed(lifted, regime, options)


def _check_gamma(gamma):
    if not (np.isfinite(gamma) and gamma >= 0):
        raise ParseError(f"gamma must be finite and >= 0, got {gamma:g}")


def cmd_solve(args):
    _check_gamma(args.gamma)
    lifted = load_problem(args.problem)
    try:
        sol = _run_one(lifted, args.relaxation, args.gamma, args)
        code = 0
    except NotConverged as exc:
        sol = exc.solution
        log.warning("%s", exc)
        code = 3
    path = write_solution(sol, args.out)
    print(f"{args.relaxation} gamma={args.gamma:g}: status={sol.status} "
          f"J_upper={sol.J_upper:.6g} zeros={sol.n_zeros} "
          f"certified={sol.certified}")
    print(f"wrote {path}")
    return code


def _sweep_worker(payload):
    problem_path, relaxation, gamma, args_dict, row_path = payload
    args = argparse.Namespace(**args_dict)
    lifted = load_problem(problem_path)
    try:
        sol = _run_one(lifted, relaxation, gamma, args)
        code = 0
    except NotConverged as exc:
        sol = exc.solution
        code = 3
    row = {"gamma": gamma, "status": sol.status, "J_upper": sol.J_upper,
           "J_worst": float(np.max(sol.J_vertex)), "n_zeros": sol.n_zeros,
           "iterations": sol.iterations, "certified": sol.certified,
           "K": sol.K.tolist()}
    tmp = row_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(row), fh)
    os.replace(tmp, row_path)
    return code


def cmd_sweep(args):
    gammas = [float(tok) for tok in args.gammas.split(",") if tok.strip()]
    if not gammas:
        raise ParseError("empty gamma list")
    for gamma in gammas:
        _check_gamma(gamma)
    os.makedirs(args.out, exist_ok=True)
    rows_dir = os.path.join(args.out, "rows")
    os.makedirs(rows_dir, exist_ok=True)
    passthrough = {"tol_eps1": args.tol_eps1, "tol_eps2": args.tol_eps2,
                   "max_outer": args.max_outer, "sigma0": args.sigma0,
                   "sigma_decay": args.sigma_decay, "lam": args.lam}
    payloads = [(args.problem, args.relaxation, g, passthrough,
                 os.path.join(rows_dir, f"row_{i:03d}.json"))
                for i, g in enumerate(gammas)]
    codes = None
    if not args.serial:
        # Only a pool that cannot start falls back to serial runs; an
        # error inside a worker surfaces from result() below.
        try:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=min(len(payloads),
                                                     os.cpu_count() or 1)) as ex:
                futures = [ex.submit(_sweep_worker, p) for p in payloads]
        except (OSError, ImportError) as exc:
            log.warning("parallel sweep unavailable (%s); running serially",
                        exc)
        else:
            codes = [f.result() for f in futures]
    if codes is None:
        codes = [_sweep_worker(p) for p in payloads]

    rows = []
    for _, _, g, _, row_path in payloads:
        with open(row_path, "r", encoding="utf-8") as fh:
            rows.append(json.load(fh))
    with open(os.path.join(args.out, "sweep.json"), "w",
              encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    with open(os.path.join(args.out, "sweep.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("gamma", "J_upper", "J_worst", "n_zeros",
                         "iterations", "status", "certified"))
        for row in rows:
            writer.writerow((row["gamma"], row["J_upper"], row["J_worst"],
                             row["n_zeros"], row["iterations"],
                             row["status"], row["certified"]))
    for row in rows:
        print(f"gamma={row['gamma']:g}: J_upper={row['J_upper']:.6g} "
              f"zeros={row['n_zeros']} status={row['status']}")
    return max(codes)


def cmd_simulate(args):
    lifted = load_problem(args.problem)
    with open(args.solution, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    K = np.asarray(doc["K"], dtype=float)
    t, X = analysis.simulate_impulse(lifted.plant, K, args.horizon, args.dt)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "impulse.csv")
    n = X.shape[2]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "t"] + [f"x{i}" for i in range(n)])
        for j in range(X.shape[0]):
            for s in range(X.shape[1]):
                writer.writerow([j, f"{t[s]:.10g}"]
                                + [f"{val:.12g}" for val in X[j, s]])
    print(f"wrote {path} ({X.shape[0]} channels, {X.shape[1]} samples)")
    return 0


def _subdifferential_check(doc, lifted, tol):
    """Multiplier rows on the gain block must lie in the penalty
    subdifferential at P; at nonzeros they must sit on the active face."""
    lam = np.asarray(doc["multiplier"], dtype=float)
    op = lifted.op
    gain_rows = slice(op.n_diag, op.n_diag + op.n_gain)
    lam_g = lam[gain_rows].reshape(lifted.m, lifted.n, order="F")
    P = np.asarray(doc["P"], dtype=float)
    gamma = float(doc["gamma"])
    if doc["regime"] == "pq":
        a1, a2, b1, b2 = 1.0, 1.0, -1.0, 1.0
        lo = np.where(P > 0, gamma * (a2 * P + b2),
                      np.where(P < 0, gamma * (a1 * P + b1), gamma * b1))
        hi = np.where(P > 0, gamma * (a2 * P + b2),
                      np.where(P < 0, gamma * (a1 * P + b1), gamma * b2))
    else:
        lo = np.where(P > 0, gamma, np.where(P < 0, -gamma, -gamma))
        hi = np.where(P > 0, gamma, np.where(P < 0, -gamma, gamma))
    viol = np.maximum(lo - lam_g, lam_g - hi)
    return float(np.max(viol, initial=0.0)) <= tol


def _agrees(stored, derived, rtol=1e-9):
    """Stored field equals the derived value to rtol of its magnitude."""
    stored = np.asarray(stored, dtype=float)
    derived = np.asarray(derived, dtype=float)
    if stored.shape != derived.shape:
        return False
    gap = float(np.max(np.abs(stored - derived), initial=0.0))
    return gap <= rtol * float(np.max(np.abs(derived), initial=0.0))


def cmd_verify(args):
    lifted = load_problem(args.problem)
    with open(args.solution, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"solution file is not valid JSON: {exc}") from exc
    W = np.asarray(doc["W"], dtype=float)
    P = np.asarray(doc["P"], dtype=float)
    # The certificate is re-derived from (W, P); stored K and J_upper
    # only have to agree with it.
    with np.errstate(divide="ignore", invalid="ignore"):
        K = P / np.diag(W[:lifted.n, :lifted.n])
    J_upper = float(lifted.vec_R() @ W.reshape(-1, order="F"))
    res_scale = sum(float(doc.get(k) or 0.0)
                    for k in ("primal_res", "dual_res"))
    tol = max(1e-4, 5.0 * res_scale)

    checks = {"J_upper": _agrees(doc["J_upper"], J_upper),
              "K": _agrees(doc["K"], K)}
    if np.all(np.isfinite(K)):
        margins = np.array([analysis.stability_check(Av, Bv, K)
                            for Av, Bv in lifted.plant.vertices])
        checks["margins"] = bool(np.all(margins < 0))
        try:
            J_vertex = analysis.h2_cost(lifted.plant, K)
            slack = 1e-3 * max(1.0, abs(J_upper))
            checks["cost_bound"] = bool(
                J_upper >= float(np.max(J_vertex)) - slack)
        except SparseLQError:
            checks["cost_bound"] = False
    else:
        checks["margins"] = checks["cost_bound"] = False
    rep = analysis.feasibility_report(lifted, W, P, tol=tol)
    checks["feasibility"] = bool(rep["feasible"])
    if doc["regime"] in ("l1", "pq") and doc.get("multiplier") is not None:
        checks["stationarity"] = _subdifferential_check(
            doc, lifted, tol=max(1e-3, 10.0 * res_scale))

    for name, ok in checks.items():
        print(f"{name}: {'ok' if ok else 'FAILED'}")
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
        p.add_argument("--tol-eps1", type=float, default=None)
        p.add_argument("--tol-eps2", type=float, default=None)
        p.add_argument("--max-outer", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="anchor weight of the continuation subproblems")
        p.add_argument("--sigma0", type=float, default=None)
        p.add_argument("--sigma-decay", type=float, default=None)

    p_solve = sub.add_parser("solve", help="solve at one gamma")
    common(p_solve)
    p_solve.add_argument("--gamma", type=float, required=True)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="solve a comma-separated "
                                           "gamma list")
    common(p_sweep)
    p_sweep.add_argument("--gammas", required=True)
    p_sweep.add_argument("--serial", action="store_true",
                         help="disable the process pool")
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


def run_command(argv):
    level = os.environ.get("SPARSELQ_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SparseLQError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
