"""The numpy kernels: fixed-step RK4 order, adaptive-step failure, the
lockstep Dormand-Prince stepper's per-row parity across its numpy and
Python-float tails, its step record and its accuracy against an
independent solver."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from kcontract import _kernels
from kcontract.systems import (
    STANDARD_INITIAL_CONDITIONS,
    THOMAS_ALPHA,
    THOMAS_B,
    THOMAS_D,
    lti,
    lti_series_zeta,
    thomas,
    thomas_controlled,
    thomas_controller_gain,
    thomas_perturbed,
)


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
    status, _ = _kernels.rk45_solve(f, np.array([1.0]), np.array([0.0, 2.0]), 1e-10)
    assert status == 1


def _lockstep_cases():
    rng = np.random.default_rng(8)
    starts = rng.uniform(-2.0, 2.0, (5, 3))
    a = np.array([[-0.3, 2.0, 0.0], [-2.0, -0.3, 0.5], [0.1, 0.0, -1.5]])
    return {
        "thomas": (thomas(), starts),
        "thomas_perturbed": (thomas_perturbed(), np.hstack([starts, np.ones((5, 1))])),
        "lti": (lti(a), starts * [1.0, 1e-3, 1e3]),
        # the growth preset's shape: from the generators e1 and e3 the e^t
        # row outlives the other by about 400 attempts, taken as the only
        # live row
        "lti_series_zeta": (lti_series_zeta(-0.5).full_system(), np.eye(4)[[0, 2]]),
    }


@pytest.mark.parametrize("name", ["thomas", "thomas_perturbed", "lti", "lti_series_zeta"])
@pytest.mark.parametrize("horizon, n_out", [(0.5, 2), (6.0, 7), (12.0, 241), (20.0, 201)])
def test_lockstep_rows_equal_their_single_start_runs(name, horizon, n_out):
    # the starts need different step counts, so rows leave the batch at
    # different times; each row must still be bitwise its own B = 1 run
    sysm, starts = _lockstep_cases()[name]
    t_eval = np.linspace(0.0, horizon, n_out)
    status, states = _kernels.rk45_solve(sysm.f, starts, t_eval, 1e-10)
    assert states.shape == (starts.shape[0], n_out, starts.shape[1])
    assert status.tolist() == [0] * starts.shape[0]
    for start, row in zip(starts, states):
        single_status, single = _kernels.rk45_solve(sysm.f, start, t_eval, 1e-10)
        assert single_status == 0
        assert np.array_equal(row, single)


def test_lockstep_keeps_the_symmetric_start_on_the_diagonal():
    starts = STANDARD_INITIAL_CONDITIONS
    symmetric = int(np.flatnonzero((starts == 1.0).all(axis=1))[0])
    status, states = _kernels.rk45_solve(
        thomas().f, starts, np.linspace(0.0, 20.0, 201), 1e-10
    )
    assert not status.any()
    path = states[symmetric]
    assert np.array_equal(path[:, 0], path[:, 1]) and np.array_equal(path[:, 1], path[:, 2])


def test_lockstep_freezes_an_underflowing_row_and_runs_the_others():
    # x' = x^2 blows up at t = 1 from x = 1; the starts -1 and -0.5 decay
    f = lambda t, x: x * x
    starts = np.array([[-1.0], [1.0], [-0.5]])
    t_eval = np.linspace(0.0, 2.0, 21)
    status, states = _kernels.rk45_solve(f, starts, t_eval, 1e-10)
    assert status.tolist() == [0, 1, 0]
    for j in (0, 2):
        single_status, single = _kernels.rk45_solve(f, starts[j], t_eval, 1e-10)
        assert single_status == 0
        assert np.array_equal(states[j], single)


def test_recording_a_run_changes_nothing_and_lists_its_accepted_steps():
    sysm = thomas_perturbed()
    start, t_eval = np.array([0.5, -1.0, 1.5, 1.0]), np.linspace(0.0, 6.0, 13)
    steps = []
    status, states = _kernels.rk45_solve(sysm.f, start, t_eval, 1e-10, record=steps)
    plain_status, plain = _kernels.rk45_solve(sysm.f, start, t_eval, 1e-10)
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
        _kernels.rk45_solve(sysm.f, np.stack([start, start]), t_eval, 1e-10, record=[])


def test_lockstep_runs_match_an_independent_solver():
    # the fig3 shape: nine seeded starts, horizon 8, tol 1e-10, against
    # scipy's DOP853 at 1e-12 on x' = f(x) + b exp(alpha t), written out here
    # for all nine starts at once
    d, alpha, b = THOMAS_D, THOMAS_ALPHA, np.asarray(THOMAS_B, dtype=np.float64)
    c = thomas_controller_gain(d)
    starts = np.random.default_rng(3).uniform(-2.0, 2.0, (9, 3))
    t_eval = np.linspace(0.0, 8.0, 81)

    def forced(t, flat):
        x = flat.reshape(9, 3)
        out = np.sin(x[:, [1, 2, 0]]) - x * [d + c, d + c, d]
        return (out + b * np.exp(alpha * t)).ravel()

    ref = solve_ivp(forced, (0.0, 8.0), starts.ravel(), method="DOP853", rtol=1e-12, atol=1e-12)
    assert ref.success
    augmented = np.hstack([starts, np.ones((9, 1))])
    status, states = _kernels.rk45_solve(thomas_perturbed().f, augmented, t_eval, 1e-10)
    assert not status.any()
    assert np.abs(states[:, -1, :3] - ref.y[:, -1].reshape(9, 3)).max() <= 1e-7
    assert np.allclose(states[:, -1, 3], np.exp(alpha * 8.0), rtol=1e-9, atol=0.0)
    # the uncontrolled fig2 shape stays in the invariant box {d |x|_inf <= 1}
    status, states = _kernels.rk45_solve(thomas(d).f, starts, t_eval, 1e-10)
    assert not status.any()
    assert np.abs(states[:, -1]).max() <= (1.0 / d) * (1.0 + 1e-9)


def test_numpy_sums_fewer_than_eight_entries_left_to_right():
    # the premise of the stepper's float tail: numpy reduces fewer than 8
    # entries from its identity 0.0, one entry after another, along the
    # last axis and along the stage axis alike
    rng = np.random.default_rng(20)
    for n in range(1, 8):
        a = rng.normal(size=(200, n)) * 10.0 ** rng.integers(-8, 8, (200, n))
        for row, got in zip(a.tolist(), np.add.reduce(a, axis=-1).tolist()):
            total = 0.0
            for v in row:
                total += v
            assert got == total
        stages = a[:, None, :].repeat(5, axis=1) * rng.normal(size=(200, 5, 1))
        got = np.add.reduce(stages, axis=-2)
        total = 0.0
        for s in range(5):
            total = total + stages[:, s]
        assert np.array_equal(got, total)


def _widths(f):
    """``f`` and the list of live-row counts it sees, one per stage call."""
    seen = []

    def counted(t, x):
        seen.append(1 if x.ndim == 1 else x.shape[1])
        return f(t, x)

    return counted, seen


@pytest.mark.parametrize(
    "name, n, rows",
    [("thomas", 3, 4), ("thomas", 3, 5), ("thomas_perturbed", 4, 3), ("lti", 2, 5)],
)
def test_stacks_that_retire_into_the_float_tail_equal_their_single_start_runs(name, n, rows):
    # the rows need different step counts and retire one by one, so a stack
    # starts on the numpy tail and ends on the float tail, while each single
    # start runs on the float tail throughout; every row must still be
    # bitwise its own B = 1 run
    rng = np.random.default_rng(rows)
    sysm = {
        "thomas": thomas(),
        "thomas_perturbed": thomas_perturbed(),
        "lti": lti(np.array([[-0.5, 3.0], [-3.0, -0.5]])),
    }[name]
    starts = rng.uniform(-2.0, 2.0, (rows, n)) * 10.0 ** np.arange(rows)[:, None]
    if name == "thomas_perturbed":
        starts[:, 3] = 1.0
    t_eval = np.linspace(0.0, 5.0, 26)
    f, seen = _widths(sysm.f)
    status, states = _kernels.rk45_solve(f, starts, t_eval, 1e-10)
    assert not status.any()
    float_rows = _kernels._FLOAT_TAIL // n
    assert max(seen) == rows > float_rows >= min(seen)
    for start, row in zip(starts, states):
        single_status, single = _kernels.rk45_solve(sysm.f, start, t_eval, 1e-10)
        assert single_status == 0
        assert np.array_equal(row, single)


@pytest.mark.parametrize("n", [7, 8])
def test_lti_stacks_either_side_of_the_reduce_order_limit(n):
    # a row's squared errors are summed left to right only below 8 entries,
    # so one 7-state row takes the float tail and an 8-state row never does
    rng = np.random.default_rng(n)
    sysm = lti(rng.normal(size=(n, n)) - 3.0 * np.eye(n))
    starts = rng.normal(size=(3, n)) * [[1.0], [1e-3], [1e3]]
    t_eval = np.linspace(0.0, 4.0, 41)
    status, states = _kernels.rk45_solve(sysm.f, starts, t_eval, 1e-10)
    assert not status.any()
    for start, row in zip(starts, states):
        single_status, single = _kernels.rk45_solve(sysm.f, start, t_eval, 1e-10)
        assert single_status == 0
        assert np.array_equal(row, single)


def test_a_nan_start_fails_beside_a_finite_one_that_runs_unchanged():
    sysm = thomas_controlled()
    starts = np.array([[np.nan, 0.0, 0.0], [0.1, 0.2, 0.3]])
    t_eval = np.linspace(0.0, 2.0, 21)
    status, states = _kernels.rk45_solve(sysm.f, starts, t_eval, 1e-10)
    assert status.tolist() == [1, 0]
    single_status, single = _kernels.rk45_solve(sysm.f, starts[1], t_eval, 1e-10)
    assert single_status == 0
    assert np.array_equal(states[1], single)
