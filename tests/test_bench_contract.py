"""The names bench/tracer.py and bench/workloads.py read off sparselq.

The tracer records a name the package no longer has as missing, and
every per-layer metric that reads it then reads "missing"; these tests
fail first.  bench/tracer.py is loaded by path and not changed.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from sparselq import inner, l0, outer

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_callable_of_the_package():
    tracer = _tracer()
    for module_name, attr, _ in tracer.WRAPPED:
        module = importlib.import_module(f"sparselq.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    errors = importlib.import_module("sparselq.errors")
    assert isinstance(errors.MaxSweepsExceeded, type)


def test_assemble_dual_data_returns_a_pair(ex1_lifted):
    lifted = ex1_lifted
    result = inner.assemble_dual_data(
        lifted, np.zeros(lifted.p * lifted.p), np.zeros(lifted.m * lifted.n),
        np.eye(lifted.p).reshape(-1, order="F"), 1.0, 1.0, 1.0)
    assert isinstance(result, tuple) and len(result) == 2


def test_workload_constructors_build():
    outer.regime_l1(5.0)
    outer.regime_pq(5.0)
    l0.ContinuationOptions(sigma0=1.0, sigma_min=0.05, sigma_decay=0.5)


def test_the_stop_check_feeds_the_rejection_count(ex1_lifted):
    # The stop certifies through analysis.certify, which the tracer does
    # not wrap, so feasibility_report's nearest traced caller is
    # solve_relaxed: the span outer.stop_rejections reads.
    tracer = _tracer().Tracer()
    tracer.install("sparselq")
    try:
        sol = outer.solve_relaxed(ex1_lifted, outer.regime_l1(5.0))
    finally:
        tracer.uninstall()
    assert sol.certified
    assert tracer.count("analysis.feasibility_report",
                        parent="outer.solve_relaxed") >= 1
    assert tracer.stop_rejections == 0
    assert tracer.count("analysis.build_solution") == 1
    assert tracer.count("outer.solve_relaxed") == 1
