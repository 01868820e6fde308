"""The numpy kernels: fixed-step RK4 order and adaptive-step failure."""

import numpy as np

from kcontract import _kernels


def test_rk4_fixed_order():
    # halving the step should cut the error ~16x on a smooth problem
    f = lambda t, x: np.array([np.cos(t) * x[0]])
    exact = np.exp(np.sin(2.0))
    errs = []
    for substeps in (8, 16):
        out = _kernels.rk4_fixed(f, np.array([1.0]), np.array([0.0, 2.0]), substeps=substeps)
        errs.append(abs(out[-1, 0] - exact))
    assert errs[0] / errs[1] > 10.0


def test_rk45_solve_reports_underflow():
    # a field that blows up in finite time forces step collapse
    f = lambda t, x: x * x
    status, _ = _kernels.rk45_solve(f, np.array([1.0]), np.array([0.0, 2.0]), 1e-10, 1e-10, np.inf)
    assert status == 1
