"""No RuntimeWarning escapes the package's LAPACK kernels.

A failed LAPACK gufunc sets the floating-point invalid flag, on which
numpy warns; the errstate blocks of inner.assemble_dual_data,
inner.sgs_sweep and inner.dual_residual keep that inside.  Each test
runs with every warning turned into an error.
"""

import warnings

import numpy as np
import pytest

from sparselq import inner, l0, model, outer
from sparselq.errors import EigFailure

from conftest import dual_state, make_inner_instance


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def indefinite_start():
    """Dual data and a state whose blocks are all indefinite."""
    rng = np.random.default_rng(3)
    lifted, *args = make_inner_instance(rng, n=3, m=2)
    data, _ = inner.assemble_dual_data(lifted, *args)
    x0 = rng.standard_normal(lifted.svec_p.size)
    xs = [rng.standard_normal(lifted.svec_n.size) for _ in lifted.J_list]
    for x, maps in [(x0, lifted.svec_p)] + [(x, lifted.svec_n) for x in xs]:
        w = np.linalg.eigvalsh(inner.unsvec(x, maps))
        assert w[0] < 0 < w[-1]
    return data, dual_state(lifted, [x0, *xs])


def test_sweep_on_indefinite_blocks():
    data, state = indefinite_start()
    lifted = data.lifted
    for _ in range(5):
        state, _ = inner.sgs_sweep(state, data)
    # the sweep's output lies in the cones, so it clamped
    x0 = state.blocks()[0]
    assert np.linalg.eigvalsh(inner.unsvec(x0, lifted.svec_p))[0] > -1e-12


def test_dual_residual_on_indefinite_blocks():
    data, state = indefinite_start()
    assert inner.dual_residual(state, data) > 0.0


def test_assemble_dual_data_on_nan():
    # NaN curvature: a 1 x 1 vertex block gives a NaN rho and no inverse,
    # a 3 x 3 one fails in LAPACK, which comes out as EigFailure
    def nan_curvature(n):
        lifted, *args = make_inner_instance(np.random.default_rng(17), n, 1)
        lifted.gram_diag[:] = np.nan
        return lifted, args
    lifted, args = nan_curvature(1)
    data, rho_list = inner.assemble_dual_data(lifted, *args)
    assert np.isnan(rho_list).all() and data.hinv_list == [None]
    lifted, args = nan_curvature(2)
    with pytest.raises(EigFailure):
        inner.assemble_dual_data(lifted, *args)


def test_ex1_solve(ex1_lifted):
    sol = outer.solve_relaxed(ex1_lifted, outer.regime_l1(5.0))
    assert sol.certified


def test_ladder_solve():
    # the plant of the benchmark's ladder workload (seeded_plant(4))
    rng = np.random.default_rng(4)
    n, m = 3, 2
    d = 0.5 + rng.random(n)
    B2 = rng.standard_normal((n, m))
    A = -np.diag(d) + B2 @ rng.standard_normal((m, n))
    vertices = [(A + 0.1 * rng.standard_normal((n, n)),
                 B2 + 0.1 * rng.standard_normal((n, m))) for _ in range(2)]
    plant = model.PlantData(A=A, B2=B2, B1=np.eye(n),
                            C=np.vstack([np.eye(n), np.zeros((m, n))]),
                            D=np.vstack([np.zeros((n, m)), np.eye(m)]),
                            vertices=vertices)
    lifted = model.lift_plant(model.validate_plant(plant))
    ladder = l0.ContinuationOptions(sigma0=1.0, sigma_min=0.05,
                                    sigma_decay=0.5)
    sol = l0.solve_l0(lifted, 0.8, continuation=ladder)
    assert sol.certified
