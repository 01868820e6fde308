"""The numpy kernels: fixed-step RK4 order, adaptive-step failure, the
lockstep Dormand-Prince stepper's per-row parity and its step record."""

import numpy as np
import pytest

from kcontract import _kernels
from kcontract.systems import STANDARD_INITIAL_CONDITIONS, lti, thomas, thomas_perturbed


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


def _lockstep_cases():
    rng = np.random.default_rng(8)
    starts = rng.uniform(-2.0, 2.0, (5, 3))
    a = np.array([[-0.3, 2.0, 0.0], [-2.0, -0.3, 0.5], [0.1, 0.0, -1.5]])
    return {
        "thomas": (thomas(), starts),
        "thomas_perturbed": (thomas_perturbed(), np.hstack([starts, np.ones((5, 1))])),
        "lti": (lti(a), starts * [1.0, 1e-3, 1e3]),
    }


@pytest.mark.parametrize("name", ["thomas", "thomas_perturbed", "lti"])
@pytest.mark.parametrize("horizon, n_out", [(0.5, 2), (6.0, 7), (12.0, 241)])
def test_lockstep_rows_equal_their_single_start_runs(name, horizon, n_out):
    # the starts need different step counts, so rows leave the batch at
    # different times; each row must still be bitwise its own B = 1 run
    sysm, starts = _lockstep_cases()[name]
    t_eval = np.linspace(0.0, horizon, n_out)
    status, states = _kernels.rk45_solve(sysm.f, starts, t_eval, 1e-10, 1e-10)
    assert states.shape == (starts.shape[0], n_out, starts.shape[1])
    assert status.tolist() == [0] * starts.shape[0]
    for start, row in zip(starts, states):
        single_status, single = _kernels.rk45_solve(sysm.f, start, t_eval, 1e-10, 1e-10)
        assert single_status == 0
        assert np.array_equal(row, single)


def test_lockstep_keeps_the_symmetric_start_on_the_diagonal():
    starts = STANDARD_INITIAL_CONDITIONS
    symmetric = int(np.flatnonzero((starts == 1.0).all(axis=1))[0])
    status, states = _kernels.rk45_solve(
        thomas().f, starts, np.linspace(0.0, 20.0, 201), 1e-10, 1e-10
    )
    assert not status.any()
    path = states[symmetric]
    assert np.array_equal(path[:, 0], path[:, 1]) and np.array_equal(path[:, 1], path[:, 2])


def test_lockstep_freezes_an_underflowing_row_and_runs_the_others():
    # x' = x^2 blows up at t = 1 from x = 1; the starts -1 and -0.5 decay
    f = lambda t, x: x * x
    starts = np.array([[-1.0], [1.0], [-0.5]])
    t_eval = np.linspace(0.0, 2.0, 21)
    status, states = _kernels.rk45_solve(f, starts, t_eval, 1e-10, 1e-10)
    assert status.tolist() == [0, 1, 0]
    for j in (0, 2):
        single_status, single = _kernels.rk45_solve(f, starts[j], t_eval, 1e-10, 1e-10)
        assert single_status == 0
        assert np.array_equal(states[j], single)


def test_recording_a_run_changes_nothing_and_lists_its_accepted_steps():
    sysm = thomas_perturbed()
    start, t_eval = np.array([0.5, -1.0, 1.5, 1.0]), np.linspace(0.0, 6.0, 13)
    steps = []
    status, states = _kernels.rk45_solve(sysm.f, start, t_eval, 1e-10, 1e-10, record=steps)
    plain_status, plain = _kernels.rk45_solve(sysm.f, start, t_eval, 1e-10, 1e-10)
    assert status == plain_status == 0 and np.array_equal(states, plain)
    t, h, hit, points = zip(*steps)
    assert all(len(p) == 7 for p in points)
    # the steps tile the horizon, each starting at the last one's 5th-order
    # solution (its seventh stage point, up to rounding), and the hits end
    # on the output times
    assert t[0] == 0.0 and sum(hit) == t_eval.size - 1
    assert np.allclose(np.add(t, h)[:-1], t[1:], rtol=0.0, atol=1e-15)
    assert max(np.abs(p[0] - q[6]).max() for p, q in zip(points[1:], points)) <= 1e-13
    assert np.array_equal([p[0] for p, ends in zip(points[1:], hit) if ends], states[1:-1])
    with pytest.raises(ValueError, match="one start"):
        _kernels.rk45_solve(sysm.f, np.stack([start, start]), t_eval, 1e-10, 1e-10, record=[])
