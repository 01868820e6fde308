import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from kcontract import dynamics, indexing
from kcontract.compounds import add_compound, mult_compound
from kcontract.dynamics import (
    IntegrationError,
    TrajectoryRecord,
    detect_equilibrium_convergence,
    fit_exponential_rate,
    gram_volume,
    integrate,
    integrate_many,
    parallelotope_volume,
    variational_flow,
    volume_growth_rate,
)
from kcontract.indexing import DimensionGuardError
from kcontract.systems import (
    THOMAS_ALPHA,
    THOMAS_B,
    THOMAS_D,
    Box,
    SystemModel,
    invariant_box,
    lti,
    lti_series,
    lti_series_zeta,
    remark2,
    thomas,
    thomas_controlled,
    thomas_controller_gain,
    thomas_perturbed,
    thomas_perturbed_field,
)

from .helpers import (
    brute_mult_compound,
    dopri_variational_flow,
    reference_variational_flow,
    rel_err,
    well_conditioned,
)


def test_scalar_linear_decay():
    rec = integrate(lti(np.array([[-1.0]])), [1.0], (0.0, 1.0), n_out=11)
    assert abs(rec.states[-1, 0] - np.exp(-1.0)) < 1e-9


def test_lti_matches_matrix_exponential():
    rng = np.random.default_rng(0)
    a = well_conditioned(rng, 4) - 2.0 * np.eye(4)
    x0 = rng.standard_normal(4)
    rec = integrate(lti(a), x0, (0.0, 5.0), n_out=26)
    for i, t in enumerate(rec.times):
        assert np.abs(rec.states[i] - sla.expm(a * t) @ x0).max() < 1e-8


def test_lti_series_first_axis_grows_exponentially():
    model = lti_series_zeta(-1.5)
    rec = integrate(model.full_system(), [1.0, 0.0, 0.0, 0.0], (0.0, 3.0), n_out=31)
    for i, t in enumerate(rec.times):
        assert abs(rec.states[i, 0] - np.exp(t)) < 1e-8 * np.exp(t)
        assert np.abs(rec.states[i, 1:]).max() < 1e-9


def test_thomas_trajectory_stays_in_invariant_box():
    sysm = thomas()
    box = invariant_box(0.193186)
    rec = integrate(sysm, [-0.5, 0.5, 0.5], (0.0, 100.0), n_out=1001)
    assert all(box.contains(s, slack=1e-7) for s in rec.states)


def test_perturbed_thomas_views_share_one_field_exactly():
    d, c, alpha, b = 0.2, 0.5, -0.3, np.array([0.1, -0.25, 0.4])
    augmented = thomas_perturbed(d, c, alpha, b)
    field = thomas_perturbed_field(d, c, alpha, b)
    controlled = thomas_controlled(d, c)
    rng = np.random.default_rng(3)
    for t, x in zip(rng.uniform(0.0, 50.0, 200), rng.uniform(-6.0, 6.0, (200, 3))):
        z = np.append(x, np.exp(alpha * t))
        assert np.array_equal(augmented.f(t, z)[:3], field(t, x))
        assert augmented.f(t, z)[3] == alpha * z[3]
        jac = augmented.jacobian(t, z)
        assert np.array_equal(jac[:3, :3], controlled.jacobian(t, x))
        assert np.array_equal(jac[:3, 3], b) and jac[3, 3] == alpha and not jac[3, :3].any()


def _builtin_systems():
    from kcontract.cli import _read_config, _system_from_config

    rng = np.random.default_rng(12)
    bounds = {"lo": (-np.ones((3, 3))).tolist(), "hi": np.ones((3, 3)).tolist()}
    series = lti_series(rng.standard_normal((2, 2)), rng.standard_normal((3, 2)),
                        rng.standard_normal((3, 3)))
    return {
        "thomas": thomas(),
        "thomas_controlled": thomas_controlled(),
        "thomas_perturbed": thomas_perturbed(),
        "lti": lti(rng.standard_normal((4, 4))),
        "lti_series": series.full_system(),
        "remark2": remark2(),
        "bounds": _system_from_config(
            _read_config({"system": "bounds", "bounds": bounds}, "simulate")
        ),
        "bounds_jacobian_from": _system_from_config(_read_config(
            {"system": "bounds", "bounds": bounds, "jacobian_from": {"system": "thomas"}}, "simulate"
        )),
    }


@pytest.mark.parametrize("name", list(_builtin_systems()))
def test_builtin_fields_compute_each_column_as_a_single_state(name):
    sysm = _builtin_systems()[name]
    rng = np.random.default_rng(4)
    for batch in (2, 3, 9):
        x = rng.uniform(-3.0, 3.0, (sysm.state_dim, batch))
        t = rng.uniform(0.0, 30.0, batch)
        columns = sysm.f(t, x)
        assert columns.shape == x.shape
        for j in range(batch):
            assert np.array_equal(columns[:, j], sysm.f(float(t[j]), x[:, j]))


@pytest.mark.parametrize("name", list(_builtin_systems()))
def test_builtin_jacobians_compute_each_column_as_a_single_state(name):
    sysm = _builtin_systems()[name]
    n = sysm.state_dim
    rng = np.random.default_rng(8)
    for batch in (1, 2, 3, 9):
        x = rng.uniform(-3.0, 3.0, (n, batch))
        t = rng.uniform(0.0, 30.0, batch)
        stack = sysm.jacobians(t, x)
        assert stack.shape == (batch, n, n)
        for j in range(batch):
            assert np.array_equal(stack[j], sysm.jacobian(float(t[j]), x[:, j]))
        if name != "bounds":  # built-ins take the stack in one call
            assert np.array_equal(sysm.jacobian(t, x), stack)


def test_perturbed_field_computes_each_column_as_a_single_state():
    field = thomas_perturbed_field()
    rng = np.random.default_rng(6)
    x, t = rng.uniform(-3.0, 3.0, (3, 9)), rng.uniform(0.0, 30.0, 9)
    columns = field(t, x)
    for j in range(9):
        assert np.array_equal(columns[:, j], field(float(t[j]), x[:, j]))


@pytest.mark.parametrize("params", [{}, {"d": 0.3, "c": 0.5, "alpha": -0.2, "b": [0.1, -0.4, 2.0]}])
def test_perturbed_field_is_bitwise_the_written_out_forced_field(params):
    # f_i(x) + b_i exp(alpha t), the field of the 3-state view written out
    d, alpha = params.get("d", THOMAS_D), params.get("alpha", THOMAS_ALPHA)
    c = params.get("c", thomas_controller_gain(d))
    b = np.asarray(params.get("b", THOMAS_B))
    field = thomas_perturbed_field(**params)
    rng = np.random.default_rng(7)
    x, t = rng.uniform(-3.0, 3.0, (3, 9)), rng.uniform(0.0, 30.0, 9)
    terms = (np.sin(x[1]) - (d + c) * x[0], np.sin(x[2]) - (d + c) * x[1], np.sin(x[0]) - d * x[2])
    expected = np.array(terms) + np.multiply.outer(b, np.exp(alpha * t))
    assert np.array_equal(field(t, x), expected)
    for j in range(9):
        assert np.array_equal(field(float(t[j]), x[:, j]), expected[:, j])


def _written_out_thomas_field(name, d, c, alpha, b):
    """The model and its field written out component by component on the
    scalars of one state, in the order of the paper's formulas."""

    def controlled(x, c):
        return [np.sin(x[1]) - (d + c) * x[0], np.sin(x[2]) - (d + c) * x[1],
                np.sin(x[0]) - d * x[2]]

    if name == "thomas":
        return thomas(d), lambda x: controlled(x, 0.0)
    if name == "thomas_controlled":
        return thomas_controlled(d, c), lambda x: controlled(x, c)

    def perturbed(z):
        f1, f2, f3 = controlled(z, c)
        y = z[3]
        return [f1 + b[0] * y, f2 + b[1] * y, f3 + b[2] * y, alpha * y]

    return thomas_perturbed(d, c, alpha, b), perturbed


def _state_layouts(rng, n):
    """One state as (n,) and as a list, then for A = 1, 2, 9 a C-contiguous
    (n, A) stack, the form the lockstep stepper passes, and the transposed
    view of a C-contiguous (A, n) stack."""
    def draw(*columns):
        # Thomas rows anywhere around the invariant box, an exponential row in (0, 1)
        return np.concatenate([rng.uniform(-6.0, 6.0, (3, *columns)),
                               rng.uniform(0.0, 1.0, (n - 3, *columns))])

    one = draw()
    yield one
    yield one.tolist()
    for width in (1, 2, 9):
        yield draw(width)
        yield np.ascontiguousarray(draw(width).T).T


@pytest.mark.parametrize("name", ["thomas", "thomas_controlled", "thomas_perturbed"])
@pytest.mark.parametrize("params", [{}, {"d": 0.3, "c": 0.5, "alpha": -0.2, "b": [0.1, -0.4, 2.0]}])
def test_thomas_fields_are_bitwise_the_written_out_formulas(name, params):
    d, alpha = params.get("d", THOMAS_D), params.get("alpha", THOMAS_ALPHA)
    c = params.get("c", thomas_controller_gain(d))
    b = np.asarray(params.get("b", THOMAS_B), dtype=np.float64)
    sysm, written = _written_out_thomas_field(name, d, c, alpha, b)
    rng = np.random.default_rng(21)
    for x in _state_layouts(rng, sysm.state_dim):
        arr = np.asarray(x)
        t = 1.5 if arr.ndim == 1 else rng.uniform(0.0, 30.0, arr.shape[1])
        out = sysm.f(t, x)
        assert out.dtype == np.float64 and out.shape == arr.shape
        columns = [arr] if arr.ndim == 1 else list(arr.T)
        outs = [out] if arr.ndim == 1 else list(out.T)
        for state, got in zip(columns, outs):
            expected = np.array(written(state), dtype=np.float64)
            assert got.tobytes() == expected.tobytes()


def test_lti_field_1d_is_bitwise_its_column_form():
    # the stepper hands a lone live row the 1-D state and several rows as
    # columns, so a row of a linear system must step the same either way
    rng = np.random.default_rng(34)
    for n in range(2, 11):
        for _ in range(20):
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, n))
            rows = rng.standard_normal((5, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (5, n))
            f = lti(a).f
            for columns in (rows.T, np.ascontiguousarray(rows.T), rows[:1].T):
                out = f(0.0, columns)
                assert out.shape == columns.shape
                for x, got in zip(columns.T, out.T):
                    single = f(0.0, np.array(x))
                    assert single.shape == (n,) and single.tobytes() == got.tobytes()


def test_integrate_many_gives_each_start_its_integrate_record():
    sysm = remark2()
    starts = [[0.5, 0.5], [-3.0, 1.0], [1.0, 0.2]]  # x1 = -3 blows up in finite time
    records = integrate_many(sysm, starts, (0.0, 5.0), n_out=51)
    assert records[1] is None
    for start, rec in zip(starts[::2], records[::2]):
        single = integrate(sysm, start, (0.0, 5.0), n_out=51)
        assert np.array_equal(rec.times, single.times)
        assert np.array_equal(rec.states, single.states)
    with pytest.raises(IntegrationError):
        integrate(sysm, starts[1], (0.0, 5.0), n_out=51)
    with pytest.raises(ValueError, match="dimension 3, expected 2"):
        integrate_many(sysm, [[1.0, 2.0, 3.0]], (0.0, 1.0))


def test_a_nan_start_fails_without_stopping_the_other_starts():
    # a NaN start gives a NaN step size, which fails the step-size test
    sysm = thomas_controlled()
    with pytest.raises(IntegrationError):
        integrate(sysm, [np.nan, 0.0, 0.0], (0.0, 0.1), n_out=2)
    start = [0.1, 0.2, 0.3]
    failed, rec = integrate_many(sysm, [[np.nan, 0.0, 0.0], start], (0.0, 5.0), n_out=51)
    assert failed is None
    assert np.array_equal(rec.states, integrate(sysm, start, (0.0, 5.0), n_out=51).states)


@pytest.mark.parametrize("factory", [thomas_perturbed, thomas_perturbed_field])
@pytest.mark.parametrize("b", [np.ones(2), np.ones(4)])
def test_perturbed_thomas_requires_a_three_component_input(factory, b):
    with pytest.raises(ValueError, match="3 components"):
        factory(b=b)


@pytest.mark.parametrize("t_span, t_eval", [
    ((0.0, np.inf), None),
    ((0.0, 1.0), [0.0, np.nan, 1.0]),
    ((0.0, 1.0), [0.0, 0.5, 0.5, 1.0]),
    ((0.0, 1.0), [0.0, 1.0, 0.5]),
])
def test_integrate_refuses_output_times_that_are_not_finite_and_increasing(t_span, t_eval):
    # an infinite horizon gives the grid [nan, inf, ...], which the stepper
    # never reaches; the field raises after 10 000 calls, so a stepper that
    # runs on fails this test at once instead of hanging it
    calls = 0

    def f(t, x):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("the stepper ran on")
        return -x

    sysm = SystemModel(state_dim=1, f=f, jacobian=lambda t, x: -np.ones((1, 1)))
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        integrate(sysm, [1.0], t_span, n_out=5, t_eval=t_eval)
    assert calls == 0


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan, np.inf, True, np.True_])
def test_integrators_refuse_a_tol_that_is_not_finite_and_positive(tol):
    # the field raises, so a call that runs before it refuses fails with a
    # RuntimeError, not the ValueError
    def f(t, x):
        raise RuntimeError("the field was called")

    sysm = SystemModel(state_dim=1, f=f, jacobian=lambda t, x: -np.ones((1, 1)))
    calls = [
        lambda: integrate(sysm, [1.0], (0.0, 1.0), tol, n_out=5),
        lambda: integrate_many(sysm, [[1.0], [2.0]], (0.0, 1.0), tol=tol, n_out=5),
        lambda: volume_growth_rate(sysm, [[1.0]], 1.0, 5, tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            call()
    # the old positional rtol, atol pair no longer runs
    with pytest.raises(TypeError):
        integrate(sysm, [1.0], (0.0, 1.0), 1e-10, 1e-10)


def test_escaping_declared_box_warns():
    growing = SystemModel(
        state_dim=1,
        f=lambda t, x: x,
        jacobian=lambda t, x: np.array([[1.0]]),
        domain=Box([-1.0], [1.0]),
        name="escaper",
    )
    with pytest.warns(UserWarning, match="invariant box"):
        integrate(growing, [0.5], (0.0, 2.0), n_out=21)


def test_box_contains_a_stack_of_states_like_its_rows():
    box = Box([-1.0, 0.0], [1.0, 2.0])
    rng = np.random.default_rng(5)
    for slack in (0.0, 1e-7):
        for _ in range(50):
            states = rng.uniform(-1.02, 2.02, (rng.integers(1, 6), 2))
            if rng.random() < 0.3:
                states[rng.integers(states.shape[0]), rng.integers(2)] = np.nan
            expected = all(box.contains(s, slack=slack) for s in states)
            assert box.contains(states, slack=slack) is expected
    edge = np.array([[1.0 + 5e-8, 2.0], [-1.0, 0.0]])
    assert not box.contains(edge) and box.contains(edge, slack=1e-7)


def test_staying_in_declared_box_does_not_warn():
    decaying = SystemModel(
        state_dim=1,
        f=lambda t, x: -x,
        jacobian=lambda t, x: np.array([[-1.0]]),
        domain=Box([-1.0], [1.0]),
        name="decayer",
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate(decaying, [0.9], (0.0, 2.0), n_out=21)


def test_variational_flow_refuses_a_dense_compound_flow_over_budget():
    n, k = 17, 8  # r = 24310: r x r doubles alone are 4.7 GB
    rec = TrajectoryRecord(np.array([0.0, 0.1]), np.zeros((2, n)))
    with pytest.raises(DimensionGuardError):
        variational_flow(lti(-np.eye(n)), rec, k)


def test_variational_flow_rejects_non_finite_jacobian():
    broken = SystemModel(
        state_dim=2,
        f=lambda t, x: -x,
        jacobian=lambda t, x: np.array([[-1.0, np.inf], [0.0, -1.0]]),
    )
    rec = TrajectoryRecord(np.array([0.0, 0.1]), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        variational_flow(broken, rec, 2)
    # a built-in's stacked Jacobians at a NaN state, and a misshapen stack
    sysm = thomas_controlled()
    rec = TrajectoryRecord(np.array([0.0, 0.1]), np.array([[np.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        variational_flow(sysm, rec, 2)
    flat = SystemModel(3, sysm.f, lambda t, x: np.ones(3))
    with pytest.raises(ValueError, match="shape"):
        variational_flow(flat, TrajectoryRecord(rec.times, np.zeros((2, 3))), 2)
    # finite stage matrices whose step matrices overflow
    huge = SystemModel(2, lambda t, x: -x, lambda t, x: np.array([[-1e300, 0.0], [0.0, -1.0]]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflow"):
        variational_flow(huge, TrajectoryRecord(np.array([0.0, 0.1]), np.ones((2, 2))), 2)


def _flow_cases():
    rng = np.random.default_rng(21)
    series = lti_series(rng.standard_normal((2, 2)) - 2.0 * np.eye(2), rng.standard_normal((2, 2)),
                        rng.standard_normal((2, 2)) - np.eye(2))
    return {
        "lti": (lti(well_conditioned(rng, 4) - 1.5 * np.eye(4)), rng.standard_normal(4)),
        "thomas_controlled": (thomas_controlled(), [-0.5, 0.5, 0.5]),
        "remark2": (remark2(), [1.0, 1.0]),
        "lti_series": (series.full_system(), [1.0, -0.5, 0.25, 1.0]),
    }


@pytest.mark.parametrize("name", list(_flow_cases()))
def test_variational_flow_matches_the_co_integrated_reference(name):
    # two samples make one output interval of every step of the run
    sysm, x0 = _flow_cases()[name]
    for n_out in (31, 2):
        rec = integrate(sysm, x0, (0.0, 3.0), n_out=n_out)
        for k in range(1, sysm.state_dim + 1):
            var = variational_flow(sysm, rec, k)
            _, flow, compound_flow = dopri_variational_flow(sysm, rec, k, var.substeps)
            assert np.array_equal(var.states, rec.states)
            assert rel_err(var.flow, flow) <= 1e-12
            assert rel_err(var.compound_flow, compound_flow) <= 1e-12


@pytest.mark.parametrize("name", list(_flow_cases()))
def test_variational_flow_is_accurate_against_a_fine_rk4_reference(name):
    # fixed-step RK4 at h <= 1e-3 of the stacked flows stands in for the
    # exact ones
    sysm, x0 = _flow_cases()[name]
    rec = integrate(sysm, x0, (0.0, 3.0), n_out=31)
    _, flow, compound_flows = reference_variational_flow(sysm, rec, max_step=1e-3)
    for k, compound_flow in enumerate(compound_flows, start=1):
        var = variational_flow(sysm, rec, k)
        assert rel_err(var.flow, flow) <= 1e-8
        assert rel_err(var.compound_flow, compound_flow) <= 1e-8


def test_variational_flow_states_are_the_trajectory_bitwise():
    rng = np.random.default_rng(11)
    sysm, bound = thomas_controlled(), 1.0 / THOMAS_D
    for x0 in rng.uniform(-bound, bound, (6, 3)):
        rec = integrate(sysm, x0, (0.0, 3.0), n_out=61)
        assert np.array_equal(variational_flow(sysm, rec, 2).states, rec.states)


def test_split_steps_keep_the_flows_accurate_where_the_state_has_settled():
    # remark2 has trace -1, so Psi = det Phi = exp(-t) exactly.  Its state
    # settles and the steps grow to the 0.25 output spacing, where one
    # Dormand-Prince step of y' = -y is off by h^6/3600: 4.7e-6 over t = 20
    sysm = remark2()
    rec = integrate(sysm, [1.0, 1.0], (0.0, 20.0), n_out=81)
    var = variational_flow(sysm, rec, 2)
    assert var.substeps.max() > 1
    assert np.abs(var.compound_flow[:, 0, 0] * np.exp(rec.times) - 1.0).max() <= 1e-8


def test_variational_flow_reports_the_compound_gap():
    sysm, x0 = _flow_cases()["lti_series"]
    rec = integrate(sysm, x0, (0.0, 3.0), n_out=31)
    for k in range(1, 5):
        var = variational_flow(sysm, rec, k)
        gaps = [
            np.linalg.norm(brute_mult_compound(phi, k) - psi) / np.linalg.norm(psi)
            for phi, psi in zip(var.flow, var.compound_flow)
        ]
        assert var.compound_gap == pytest.approx(max(gaps), rel=1e-6, abs=1e-15)
        if k == 1:
            assert var.compound_gap == 0.0  # the two routes are one computation
        if k == 2:
            assert var.compound_gap <= 1e-8


@pytest.mark.parametrize("chunk", [1, 3, 10])
def test_variational_flow_is_bitwise_the_same_in_small_batches(monkeypatch, chunk):
    # thomas at k = 2 counts 8 * 28 (3^2 + 3^2) bytes per step (seven stage
    # matrices and seven K stacks, twice for a split step); its intervals take one to three steps, and about half
    # its steps are split for the flows, so batches of one step, of three
    # steps (ending inside an interval) and of ten steps (several whole
    # intervals and parts of two) cover every layout; on a grid of two
    # samples every batch edge falls inside the one interval
    sysm = thomas_controlled()
    rec = integrate(sysm, [-0.5, 0.5, 0.5], (0.0, 3.0), n_out=61)
    closes = rec.steps.hit.tolist()
    ends = [closes[min(hi, len(closes)) - 1] for hi in range(chunk, len(closes) + chunk, chunk)]
    if chunk > 1:
        assert not all(ends)  # some batch ends inside an interval
    if chunk == 10:
        assert sum(closes[:chunk]) >= 2
    one_interval = integrate(sysm, [-0.5, 0.5, 0.5], (0.0, 3.0), n_out=2)
    whole = [variational_flow(sysm, r, 2) for r in (rec, one_interval)]
    monkeypatch.setattr(indexing, "BATCH_BYTES", chunk * 8 * 28 * 18 + 100)
    for r, want in zip((rec, one_interval), whole):
        _assert_same_flows(variational_flow(sysm, r, 2), want)


def test_variational_flow_batches_grow_no_faster_than_their_budget(monkeypatch):
    # thomas over t = 30 takes 323 steps, most of them split for the flows;
    # the peak grows with the batch budget by what a batch of steps holds,
    # which stays within the budget
    sysm = thomas_controlled()
    rec = integrate(sysm, [-0.5, 0.5, 0.5], (0.0, 30.0), n_out=2)
    peaks = []
    for budget in (64 << 10, 128 << 10):
        monkeypatch.setattr(indexing, "BATCH_BYTES", budget)
        tracemalloc.start()
        try:
            variational_flow(sysm, rec, 2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1.5 * (64 << 10)


@pytest.mark.parametrize("name", list(_flow_cases()))
def test_variational_flow_of_the_recorded_run_is_that_of_a_fresh_run(name):
    # the run kept on an integrate record is differentiated as is; a
    # hand-built record of the same samples gets the same run anew
    sysm, x0 = _flow_cases()[name]
    rec = integrate(sysm, x0, (0.0, 3.0), n_out=31)
    for k in range(1, sysm.state_dim + 1):
        fresh = variational_flow(sysm, TrajectoryRecord(rec.times, rec.states), k)
        _assert_same_flows(variational_flow(sysm, rec, k), fresh)


def _assert_same_flows(got, want):
    for name in ("states", "flow", "compound_flow", "substeps", "compound_gap"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_variational_flow_integrates_nothing_again(monkeypatch):
    sysm, x0 = _flow_cases()["thomas_controlled"]
    rec = integrate(sysm, x0, (0.0, 3.0), n_out=31)

    def refuse(*args, **kwargs):
        raise AssertionError("the state was integrated again")

    monkeypatch.setattr(dynamics, "rk45_solve", refuse)
    var = variational_flow(sysm, rec, 2)
    assert var.states is rec.states


def test_variational_flow_of_another_run_is_that_of_the_default_run():
    sysm, x0 = _flow_cases()["thomas_controlled"]
    rec = integrate(sysm, x0, (0.0, 3.0), n_out=31)
    want = variational_flow(sysm, rec, 2)
    for other in ({"tol": 1e-8},):
        run = integrate(sysm, x0, (0.0, 3.0), n_out=31, **other)
        assert run.steps.h.size != rec.steps.h.size
        _assert_same_flows(variational_flow(sysm, run, 2), want)
    (row,) = integrate_many(sysm, [x0], (0.0, 3.0), n_out=31)
    assert row.steps is None
    _assert_same_flows(variational_flow(sysm, row, 2), want)
    single = TrajectoryRecord(rec.times[:1], rec.states[:1])
    assert np.array_equal(variational_flow(sysm, single, 2).flow, np.eye(3)[None])


@pytest.mark.parametrize("name", list(_flow_cases()))
def test_integrate_keeps_its_accepted_steps(name):
    sysm, x0 = _flow_cases()[name]
    rec = integrate(sysm, x0, (0.0, 3.0), n_out=31)
    steps = rec.steps
    size = steps.h.size
    assert steps.t.shape == (size,) and steps.hit.shape == (size,) and steps.hit.dtype == bool
    assert steps.stages.shape == (size, 7, sysm.state_dim)
    assert steps.tol == 1e-10
    assert np.count_nonzero(steps.hit) == rec.times.size - 1
    # each step starts where the one before it ended: at t + h, or on the
    # output time it reached, from the state sampled there
    ends = rec.times[1:][np.cumsum(steps.hit) - 1]
    assert steps.t[0] == rec.times[0] and steps.hit[-1] and ends[-1] == rec.times[-1]
    assert np.all(steps.h > 0)
    assert np.abs(steps.t + steps.h - ends)[steps.hit].max() <= 1e-14
    after = np.where(steps.hit, ends, steps.t + steps.h)
    assert np.array_equal(steps.t[1:], after[:-1])
    starts = np.flatnonzero(np.concatenate([[True], steps.hit[:-1]]))
    assert np.array_equal(steps.stages[starts, 0], rec.states[:-1])


def test_variational_flow_constant_jacobian():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) - 1.5 * np.eye(3)
    sysm = lti(a)
    rec = integrate(sysm, rng.standard_normal(3), (0.0, 2.0), n_out=21)
    var = variational_flow(sysm, rec, 2)
    for i, t in enumerate(var.times):
        assert np.abs(var.flow[i] - sla.expm(a * t)).max() < 1e-8
        assert np.abs(var.compound_flow[i] - sla.expm(add_compound(a, 2).data * t)).max() < 1e-8


def test_compound_flow_consistency_nonlinear():
    sysm = thomas_controlled()
    rec = integrate(sysm, [-0.5, 0.5, 0.5], (0.0, 10.0), n_out=51)
    var = variational_flow(sysm, rec, 2)
    for i in range(0, 51, 10):
        direct = mult_compound(var.flow[i], 2).data
        scale = max(1.0, np.abs(direct).max())
        assert np.abs(direct - var.compound_flow[i]).max() / scale < 1e-6


def test_full_order_flow_is_liouville_determinant():
    sysm = thomas_controlled()
    rec = integrate(sysm, [0.2, -0.4, 0.6], (0.0, 5.0), n_out=26)
    var = variational_flow(sysm, rec, 3)
    for i in (5, 15, 25):
        det_phi = np.linalg.det(var.flow[i])
        assert abs(var.compound_flow[i][0, 0] - det_phi) < 1e-8 * max(1.0, abs(det_phi))


def test_parallelotope_volume_examples():
    e = np.eye(5)
    assert parallelotope_volume(e[:, :3]) == pytest.approx(1.0)
    dependent = np.column_stack([e[:, 0], 2.0 * e[:, 0]])
    assert parallelotope_volume(dependent) <= 1e-12
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 2))
    assert abs(parallelotope_volume(x) - gram_volume(x)) < 1e-10


def test_volume_growth_rates_for_cascade():
    x0 = np.zeros((4, 2))
    x0[0, 0] = 1.0  # e1
    x0[2, 1] = 1.0  # e3
    fit = volume_growth_rate(lti_series_zeta(-1.5).full_system(), x0, 20.0)
    assert abs(fit.rate - (-0.5)) < 1e-3
    fit2 = volume_growth_rate(lti_series_zeta(-0.5).full_system(), x0, 20.0)
    assert abs(fit2.rate - 0.5) < 1e-3


def test_growth_volumes_are_bitwise_the_per_time_volumes():
    x0 = np.array([[1.0, 0.2], [0.0, 0.0], [0.3, 1.0], [0.0, -0.4]])
    sysm = lti_series_zeta(-1.5).full_system()
    fit = volume_growth_rate(sysm, x0, 20.0, n_out=41)
    runs = integrate_many(sysm, x0.T, (0.0, 20.0), 1e-10, t_eval=fit.times)
    columns = np.stack([rec.states for rec in runs], axis=-1)
    assert np.array_equal(fit.volumes, [parallelotope_volume(c) for c in columns])


def test_volume_growth_rejects_bad_generators():
    for bad in (np.ones((2, 3)), np.ones((3, 0))):
        with pytest.raises(ValueError, match="n x k"):
            volume_growth_rate(lti(-np.eye(bad.shape[0])), bad, 1.0)
    # C(25, 12) = 5 200 300 compound rows, refused before anything is integrated
    with pytest.raises(DimensionGuardError):
        volume_growth_rate(lti(-np.eye(25)), np.eye(25)[:, :12], 1.0)


def test_volume_is_bitwise_the_numpy_norm_of_the_compound_column():
    rng = np.random.default_rng(39)
    for shape in [(3, 2), (4, 2), (5, 3), (6, 6), (9, 4)]:
        x = rng.standard_normal(shape)
        want = float(np.linalg.norm(mult_compound(x, shape[1]).data.ravel()))
        assert parallelotope_volume(x).hex() == want.hex()


def test_volume_growth_raises_when_a_generator_column_fails():
    columns = np.array([[0.5, -3.0], [0.5, 1.0]])  # x1 = -3 blows up in finite time
    with pytest.raises(IntegrationError):
        volume_growth_rate(remark2(), columns, 5.0, n_out=51)


def test_volume_growth_scalar_decay():
    fit = volume_growth_rate(lti(np.array([[-1.0]])), np.array([[0.7]]), 20.0)
    assert abs(fit.rate - (-1.0)) < 1e-3


def test_volume_growth_along_nonlinear_trajectory():
    sysm = remark2()
    base = integrate(sysm, [1.0, 1.0], (0.0, 12.0), n_out=201)
    flow = variational_flow(sysm, base, 1).flow
    fit = fit_exponential_rate(base.times, [parallelotope_volume(phi) for phi in flow])
    # variational area contracts at the constant trace rate -1
    assert abs(fit.rate - (-1.0)) < 1e-3


def test_volume_routes_agree_along_flow():
    sysm = thomas_controlled()
    rec = integrate(sysm, [-0.5, 0.5, 0.5], (0.0, 15.0), n_out=31)
    var = variational_flow(sysm, rec, 2)
    x0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    for i in range(0, 31, 5):
        cols = var.flow[i] @ x0
        v1 = parallelotope_volume(cols)
        v2 = gram_volume(cols)
        assert abs(v1 - v2) <= 1e-6 * max(1.0, v2)


def test_fit_truncates_underflow():
    t = np.linspace(0.0, 10.0, 11)
    v = np.exp(-60.0 * t)
    v[8:] = 0.0
    fit = fit_exponential_rate(t, v)
    assert fit.times.size == fit.volumes.size == 8
    assert abs(fit.rate + 60.0) < 1e-6


def test_fit_refuses_a_series_with_no_positive_volume():
    with pytest.raises(ValueError, match="not enough positive volume samples"):
        fit_exponential_rate(np.linspace(0.0, 1.0, 5), np.zeros(5))


def test_integrate_refuses_an_empty_output_grid():
    sysm = thomas_controlled()
    with pytest.raises(ValueError, match="output grid is empty"):
        integrate(sysm, [0.1, 0.2, 0.3], (0.0, 1.0), n_out=0)
    with pytest.raises(ValueError, match="output grid is empty"):
        integrate_many(sysm, [[0.1, 0.2, 0.3]], (0.0, 1.0), t_eval=[])


def test_detect_convergence_scalar():
    sysm = lti(np.array([[-1.0]]))
    recs = [integrate(sysm, [x0], (0.0, 40.0), n_out=201) for x0 in (1.0, -2.0, 0.5)]
    summary = detect_equilibrium_convergence(recs, sysm.f, tol=1e-6)
    assert summary.all_converged
    assert summary.n_clusters == 1
    assert np.abs(summary.clusters[0][0]).max() < 1e-6


def test_detect_convergence_of_no_records_is_neither_all_nor_some():
    summary = detect_equilibrium_convergence([], thomas().f)
    assert not summary.all_converged
    assert summary.none_converged
    assert summary.n_clusters == 0


def test_detect_no_convergence_on_attractor():
    sysm = thomas()
    rec = integrate(sysm, [-0.5, 0.5, 0.5], (0.0, 100.0), n_out=501)
    summary = detect_equilibrium_convergence([rec], sysm.f, tol=1e-6)
    assert not summary.converged[0]


def test_coppel_decay_along_certified_trajectory():
    sysm = thomas_controlled()
    rec = integrate(sysm, [-0.5, 0.5, 0.5], (0.0, 10.0), n_out=51)
    var = variational_flow(sysm, rec, 2)
    eta = 0.1
    for i, t in enumerate(var.times):
        norm1 = np.abs(var.compound_flow[i]).sum(axis=0).max()
        assert norm1 <= np.exp(-eta * t) * (1.0 + 1e-6)


def test_trajectory_record_validation():
    with pytest.raises(ValueError):
        TrajectoryRecord(np.array([0.0, 0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        integrate(lti(np.eye(2)), [1.0], (0.0, 1.0))
