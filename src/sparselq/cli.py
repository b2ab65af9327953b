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
ignored.

verify derives analysis.CERTIFIED_FIELDS from the stored W and P with
analysis.certify, compares each stored copy, and requires the
certificate's conditions and, for l1 and pq, stationarity of the stored
multiplier.  It trusts status, iterations and dual_res; dual_res
loosens the feasibility tolerance only up to analysis.TOL_CEILING.

Exit codes: 0 success, 2 bad input (in verify also a regime other than
l1, pq or l0), 3 solver did not converge (in a sweep: some gamma did
not converge or failed with an error row), 4 verification failed.
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


def _converted(convert, value, name):
    """convert(value), with a conversion error reported as bad input."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name}: {exc}") from exc


def _array(flat, name):
    return _converted(lambda v: np.asarray(v, dtype=float), flat, name)


def _matrix(flat, rows, cols, name):
    arr = _array(flat, name)
    if arr.size != rows * cols:
        raise ParseError(f"{name}: expected {rows * cols} entries "
                         f"({rows}x{cols}), got {arr.size}")
    return arr.reshape(rows, cols)


def _json_object(text, what):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} file must hold a JSON object")
    return doc


def parse_problem(text):
    """PlantData and forced zeros from the JSON problem format."""
    doc = _json_object(text, "problem")
    unknown = set(doc) - _PROBLEM_KEYS
    if unknown:
        raise UnknownKey(f"unrecognized problem keys: {sorted(unknown)}")
    for key in ("n", "m", "A", "B2"):
        if key not in doc:
            raise ParseError(f"problem file is missing {key!r}")
    n, m = _converted(int, doc["n"], "n"), _converted(int, doc["m"], "m")
    if n < 1 or m < 1:
        raise ParseError("need n >= 1 and m >= 1")
    A = _matrix(doc["A"], n, n, "A")
    B2 = _matrix(doc["B2"], n, m, "B2")
    if "B1" in doc:
        arr = _array(doc["B1"], "B1")
        if arr.size % n:
            raise ParseError(f"B1: length {arr.size} is not a multiple of n")
        B1 = arr.reshape(n, arr.size // n)
    else:
        B1 = np.eye(n)
    if ("C" in doc) != ("D" in doc):
        raise ParseError("C and D must be given together")
    if "C" in doc:
        arrC = _array(doc["C"], "C")
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
    forced = _converted(lambda fz: tuple((int(i), int(j)) for i, j in fz),
                        doc.get("forced_zeros", ()), "forced_zeros")
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
        "weights": sol.weights,
        "pq_params": sol.pq_params,
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
    except SparseLQError as exc:
        # this gamma failed inside the solve; the other rows still merge
        log.warning("gamma=%g: %s", gamma, exc)
        sol, code, message = None, 3, str(exc)
    if sol is None:
        row = {"gamma": gamma, "status": "error", "message": message,
               "J_upper": None, "J_worst": None, "n_zeros": None,
               "iterations": None, "certified": False, "K": None}
    else:
        row = {"gamma": gamma, "status": sol.status, "J_upper": sol.J_upper,
               "J_worst": float(np.max(sol.J_vertex)),
               "n_zeros": sol.n_zeros, "iterations": sol.iterations,
               "certified": sol.certified, "K": sol.K.tolist()}
    tmp = row_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(row), fh)
    os.replace(tmp, row_path)
    return code


def cmd_sweep(args):
    gammas = [_converted(float, tok, "gammas")
              for tok in args.gammas.split(",") if tok.strip()]
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
        if row["status"] == "error":
            print(f"gamma={row['gamma']:g}: status=error {row['message']}")
        else:
            print(f"gamma={row['gamma']:g}: J_upper={row['J_upper']:.6g} "
                  f"zeros={row['n_zeros']} status={row['status']}")
    return max(codes)


def _field(doc, key):
    if key not in doc:
        raise ParseError(f"solution file is missing {key!r}")
    return doc[key]


def cmd_simulate(args):
    lifted = load_problem(args.problem)
    with open(args.solution, "r", encoding="utf-8") as fh:
        doc = _json_object(fh.read(), "solution")
    K = _matrix(_field(doc, "K"), lifted.m, lifted.n, "K")
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


def cmd_verify(args):
    lifted = load_problem(args.problem)
    with open(args.solution, "r", encoding="utf-8") as fh:
        doc = _json_object(fh.read(), "solution")
    W = _matrix(_field(doc, "W"), lifted.p, lifted.p, "W")
    P = _matrix(_field(doc, "P"), lifted.m, lifted.n, "P")
    regime = _field(doc, "regime")
    if regime not in ("l1", "pq", "l0"):
        raise ParseError(f"regime: expected l1, pq or l0, got {regime!r}")
    lam = doc.get("multiplier")
    if lam is not None:
        lam = _matrix(lam, 1, lifted.op.n_rows, "multiplier")[0]
    cert = analysis.certify(
        lifted, W, P, _field(doc, "status"),
        _converted(float, doc.get("dual_res") or 0.0, "dual_res"))

    checks = {name: _converted(lambda v: analysis.agrees(cert, name, v),
                               _field(doc, name), name)
              for name in analysis.CERTIFIED_FIELDS}
    checks.update(cert["conditions"])
    if regime != "l0" and lam is not None:
        gamma = _converted(float, _field(doc, "gamma"), "gamma")
        weights = doc.get("weights")
        params = doc.get("pq_params") or (1.0, 1.0, -1.0, 1.0)
        checks["stationarity"] = analysis.stationary(
            cert, lifted, lam, gamma, None if weights is None
            else _matrix(weights, lifted.m, lifted.n, "weights"),
            _matrix(params, 1, 4, "pq_params")[0] if regime == "pq" else None)
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
