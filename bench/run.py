"""Solver benchmark: run one workload and print its metrics.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload frontier --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all

A run times set-up, then performs whole rounds of the workload's
operations until ``--seconds`` have passed (at least one round), checks
every answer, and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are run_cpu_s, setup_s and peak_rss_mb; with
``--trace 1`` the per-layer metrics of bench/tracer.py.  A result file
with the answer fingerprints (and, traced, the spans) is written to
bench/results/.  See bench/README.md.
"""

# Single-threaded BLAS: the workloads' matrices are of order 15 at most,
# where extra threads only add scheduling noise.  Set before numpy is imported.
import os
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
# Set-up is timed in this process and in this many fresh interpreters;
# setup_s is the median.
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def import_sparselq():
    """Import sparselq from the checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sparselq", "__init__.py")):
        raise SystemExit(f"error: no sparselq sources under {SRC}")
    sys.path.insert(0, SRC)
    sl = types.SimpleNamespace(**{
        name: importlib.import_module(f"sparselq.{name}")
        for name in ("cli", "model", "outer", "l0", "inner", "errors")})
    where = os.path.dirname(os.path.abspath(sl.cli.__file__))
    if where != os.path.join(SRC, "sparselq"):
        raise SystemExit(f"error: sparselq imported from {where}, not {SRC}")
    return sl


def timed_setup(workload_name, tracer=None):
    """Import sparselq and build the workload's inputs.

    Returns (sparselq modules, workload, CPU seconds of set-up).  The
    tracer, when given, is installed after the import and before the lifts.
    """
    t0 = time.process_time()
    sl = import_sparselq()
    t_import = time.process_time() - t0
    import workloads  # the benchmark's own code, outside the timed part
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload_name!r}; choose "
                         f"from {', '.join(workloads.WORKLOADS)} or all")
    wl = workloads.WORKLOADS[workload_name]()
    if tracer is not None:
        tracer.install("sparselq")
    t0 = time.process_time()
    wl.setup(sl)
    return sl, wl, t_import + time.process_time() - t0


def setup_in_child(workload_name):
    res = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload_name],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name, seed, seconds, trace):
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
    sl, wl, setup_s = timed_setup(name, tracer)
    import workloads
    setups = [setup_s]
    if not trace:
        setups += [setup_in_child(name) for _ in range(SETUP_SAMPLES - 1)]
    counter = workloads.SweepCounter(sl.inner)

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    rounds, answers, failures, rounds_agree = [], {}, [], True
    start = time.perf_counter()
    try:
        while True:
            rng = workloads.round_rng(seed, len(rounds))
            ops, round_fails = wl.run_round(sl, counter, rng, workdir)
            rounds.append(ops)
            failures += round_fails
            for op in ops:
                if op.op_id in answers and answers[op.op_id] != op.answer:
                    rounds_agree = False
                answers.setdefault(op.op_id, op.answer)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if tracer is not None:
            tracer.uninstall()

    all_ops = [op for ops in rounds for op in ops]
    wrong = [f"{op.op_id}: {msg}" for op in all_ops for msg in op.wrong]
    errors = sorted({f"{op.op_id}: {op.error}" for op in all_ops if op.error})
    round_cpu_s = [sum(op.cpu for op in ops) for ops in rounds]
    run_cpu_s = statistics.median(round_cpu_s)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(rounds), "round_cpu_s": round_cpu_s,
        "round_wall_s": [sum(op.wall for op in ops) for ops in rounds],
        "correct": not wrong and not failures,
        "attempted": len(all_ops),
        "failed": sum(op.failed for op in all_ops),
        "wrong_answers": wrong + failures, "errors": errors,
        "rounds_agree": rounds_agree, "answers": answers,
    }
    if trace:
        metrics, missing = tracing.layer_metrics(tracer, len(rounds))
        metrics["bench.traced_run_cpu_s"] = (run_cpu_s, "s")
        result["spans"] = tracer.records()
        result["missing_metrics"] = missing
        untraced = os.path.join(RESULTS, f"{name}-seed{seed}-trace0.json")
        if os.path.exists(untraced):
            with open(untraced, encoding="utf-8") as fh:
                base = json.load(fh)["metrics"]["run_cpu_s"]["value"]
            result["tracing_overhead_cpu_s"] = run_cpu_s - base
    else:
        metrics = {"run_cpu_s": (run_cpu_s, "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB")}
        result["setup_samples_s"] = setups
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(os.path.join(RESULTS, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def describe(result):
    metrics = ", ".join(f"{k} {m['value']:.4g} {m['unit']}"
                        for k, m in result["metrics"].items())
    return (f"{result['workload']}: {metrics}; attempted {result['attempted']}, "
            f"failed {result['failed']}, correct {result['correct']}")


def run_all(args):
    """Every workload in its own interpreter, one summary line each."""
    import workloads
    out = {}
    for name in workloads.WORKLOADS:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        out[name] = json.loads(res.stdout.strip().splitlines()[-1])
        print(describe(dict(out[name], workload=name)), flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in out.values()),
        "attempted": sum(r["attempted"] for r in out.values()),
        "failed": sum(r["failed"] for r in out.values()),
        "metrics": {f"{name}.{k}": m for name, r in out.items()
                    for k, m in r["metrics"].items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        print(timed_setup(args.workload)[2])
        return 0
    if args.workload == "all":
        run_all(args)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(describe(result), file=sys.stderr)
    if result.get("missing_metrics"):
        print("warning: missing metrics (wrapped names gone): "
              + ", ".join(result["missing_metrics"]), file=sys.stderr)
    if not result["rounds_agree"]:
        print("warning: answers differ between rounds", file=sys.stderr)
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
