"""Outside-in tracer: spans at the public functions of sparselq's modules.

The tracer replaces module attributes with timing wrappers, so a call
that looks the name up on its module at call time is traced; a name bound
at import (``from .vectorize import svec``) is not, and its time counts
toward the caller's self time.  Spans are aggregated in memory by
(name, parent) into count, total time and self time.  A name that the
program no longer has is recorded as missing instead of raising.
"""

import importlib
import time

# (module, attribute, span name).  Both prox maps share one span name.
WRAPPED = (
    ("model", "lift_plant", "model.lift_plant"),
    ("inner", "solve_inner", "inner.solve_inner"),
    ("inner", "assemble_dual_data", "inner.assemble_dual_data"),
    ("inner", "sgs_sweep", "inner.sgs_sweep"),
    ("inner", "dual_residual", "inner.dual_residual"),
    ("outer", "solve_relaxed", "outer.solve_relaxed"),
    ("outer", "outer_iteration", "outer.outer_iteration"),
    ("outer", "check_convergence", "outer.check_convergence"),
    ("outer", "restart_averages", "outer.restart_averages"),
    ("penalties", "prox_weighted_l1", "penalties.prox"),
    ("penalties", "prox_piecewise_quadratic", "penalties.prox"),
    ("analysis", "build_solution", "analysis.build_solution"),
    ("analysis", "feasibility_report", "analysis.feasibility_report"),
    ("l0", "solve_l0", "l0.solve_l0"),
    ("l0", "h_sigma_objective", "l0.h_sigma_objective"),
    ("cli", "write_solution", "cli.write_solution"),
    ("cli", "run_command", "cli.run_command"),
)


class Span:
    __slots__ = ("count", "total", "self_time")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span aggregates plus the counters read off return values."""

    def __init__(self):
        self.spans = {}          # (name, parent) -> Span
        self.missing = []        # "module.attr" names the program lacks
        self.curvature_rebuilds = 0
        self.capped = 0
        self.stop_rejections = 0
        self._stack = []         # [name, time covered by children]
        self._last_cache = None
        self._restore = []

    def install(self, package):
        """Wrap every name in WRAPPED found on the package's modules."""
        for mod_name, attr, span in WRAPPED:
            try:
                module = importlib.import_module(f"{package}.{mod_name}")
            except ImportError:
                module = None
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span))
            self._restore.append((module, attr, original))
        # The exception type behind the capped count, if it still exists.
        errors = importlib.import_module(f"{package}.errors")
        self._capped_type = getattr(errors, "MaxSweepsExceeded", None)
        if self._capped_type is None:
            self.missing.append("errors.MaxSweepsExceeded")

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._on_error(name, exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1][0] if stack else None
                span = spans.get((name, parent))
                if span is None:
                    span = spans[(name, parent)] = Span()
                span.count += 1
                span.total += dt
                span.self_time += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            self._on_result(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_result(self, name, result):
        if name == "inner.assemble_dual_data":
            cache = result[1]  # (data, cache)
            if cache is not self._last_cache:
                self.curvature_rebuilds += 1
                self._last_cache = cache
        elif (name == "analysis.feasibility_report" and self._stack
              and self._stack[-1][0] == "outer.solve_relaxed"
              and not result["feasible"]):
            self.stop_rejections += 1

    def _on_error(self, name, exc):
        if (name == "inner.solve_inner" and self._capped_type is not None
                and isinstance(exc, self._capped_type)):
            self.capped += 1

    # ------------------------------------------------------------ reading

    def total(self, name, parent=any):
        return sum(s.total for (n, p), s in self.spans.items()
                   if n == name and (parent is any or p == parent))

    def self_time(self, name):
        return sum(s.self_time for (n, _), s in self.spans.items() if n == name)

    def count(self, name, parent=any):
        return sum(s.count for (n, p), s in self.spans.items()
                   if n == name and (parent is any or p == parent))

    def records(self):
        return [{"name": n, "parent": p, "count": s.count,
                 "total_s": s.total, "self_s": s.self_time}
                for (n, p), s in sorted(self.spans.items(),
                                        key=lambda kv: -kv[1].total)]


# Per-layer metrics: (name, unit, wrapped names it reads, value for one
# round).  ``t`` is the Tracer and ``r`` the number of rounds traced.
_SWEEP_NAMES = ("inner.sgs_sweep",)
_SOLVE_NAMES = ("inner.solve_inner",)
METRICS = (
    ("model.lift_s", "s", ("model.lift_plant",),
     lambda t, r: t.total("model.lift_plant", parent=None)),
    ("inner.solves", "count", _SOLVE_NAMES,
     lambda t, r: t.count("inner.solve_inner") / r),
    ("inner.sweeps", "count", _SWEEP_NAMES,
     lambda t, r: t.count("inner.sgs_sweep") / r),
    ("inner.sweeps_per_solve", "count", _SWEEP_NAMES + _SOLVE_NAMES,
     lambda t, r: t.count("inner.sgs_sweep") / max(1, t.count("inner.solve_inner"))),
    ("inner.sweep_s", "s", _SWEEP_NAMES,
     lambda t, r: t.total("inner.sgs_sweep") / r),
    ("inner.sweep_us", "us", _SWEEP_NAMES,
     lambda t, r: 1e6 * t.total("inner.sgs_sweep") / max(1, t.count("inner.sgs_sweep"))),
    ("inner.residual_checks", "count", ("inner.dual_residual",),
     lambda t, r: t.count("inner.dual_residual") / r),
    ("inner.residual_s", "s", ("inner.dual_residual",),
     lambda t, r: t.total("inner.dual_residual") / r),
    ("inner.assemble_s", "s", ("inner.assemble_dual_data",),
     lambda t, r: t.total("inner.assemble_dual_data") / r),
    ("inner.curvature_rebuilds", "count", ("inner.assemble_dual_data",),
     lambda t, r: t.curvature_rebuilds / r),
    ("inner.capped", "count", _SOLVE_NAMES + ("errors.MaxSweepsExceeded",),
     lambda t, r: t.capped / r),
    ("inner.self_s", "s", _SOLVE_NAMES,
     lambda t, r: t.self_time("inner.solve_inner") / r),
    ("outer.iterations", "count", ("outer.outer_iteration",),
     lambda t, r: t.count("outer.outer_iteration") / r),
    ("outer.self_s", "s", ("outer.outer_iteration",),
     lambda t, r: t.self_time("outer.outer_iteration") / r),
    ("outer.check_s", "s", ("outer.check_convergence",),
     lambda t, r: t.total("outer.check_convergence") / r),
    ("outer.loop_self_s", "s", ("outer.solve_relaxed",),
     lambda t, r: t.self_time("outer.solve_relaxed") / r),
    ("outer.restarts", "count", ("outer.restart_averages",),
     lambda t, r: t.count("outer.restart_averages") / r),
    ("outer.stop_checks", "count", ("outer.check_convergence",),
     lambda t, r: t.count("outer.check_convergence") / r),
    ("outer.stop_rejections", "count",
     ("outer.solve_relaxed", "analysis.feasibility_report"),
     lambda t, r: t.stop_rejections / r),
    ("penalties.prox_calls", "count",
     ("penalties.prox_weighted_l1", "penalties.prox_piecewise_quadratic"),
     lambda t, r: t.count("penalties.prox") / r),
    ("penalties.prox_s", "s",
     ("penalties.prox_weighted_l1", "penalties.prox_piecewise_quadratic"),
     lambda t, r: t.total("penalties.prox") / r),
    ("analysis.certify_calls", "count", ("analysis.build_solution",),
     lambda t, r: t.count("analysis.build_solution") / r),
    ("analysis.certify_s", "s", ("analysis.build_solution",),
     lambda t, r: t.total("analysis.build_solution") / r),
    ("analysis.feas_s", "s", ("analysis.feasibility_report",),
     lambda t, r: t.total("analysis.feasibility_report") / r),
    ("l0.subsolves", "count", ("l0.solve_l0", "outer.solve_relaxed"),
     lambda t, r: t.count("outer.solve_relaxed", parent="l0.solve_l0") / r),
    ("l0.stage_s", "s", ("l0.h_sigma_objective",),
     lambda t, r: t.total("l0.h_sigma_objective") / r),
    ("l0.self_s", "s", ("l0.solve_l0",),
     lambda t, r: t.self_time("l0.solve_l0") / r),
    ("cli.write_s", "s", ("cli.write_solution",),
     lambda t, r: t.total("cli.write_solution") / r),
    ("cli.verify_s", "s", ("cli.run_command",),
     lambda t, r: t.total("cli.run_command") / r),
)


def layer_metrics(tracer, rounds):
    """Per-layer metrics for one round, from spans over ``rounds`` rounds.

    Set-up spans (model.lift_plant with no parent) happen once per run and
    are not divided.  Returns ({name: (value, unit)}, missing names): a
    metric that reads a name the program no longer has is missing, not 0.
    """
    gone = set(tracer.missing)
    values, missing = {}, []
    for name, unit, reads, value in METRICS:
        if gone.intersection(reads):
            missing.append(name)
        else:
            values[name] = (value(tracer, float(rounds)), unit)
    return values, missing
