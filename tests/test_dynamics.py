import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from kcontract import indexing
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
from kcontract._kernels import rk45_solve
from kcontract.indexing import DimensionGuardError
from kcontract.systems import (
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
    from kcontract.cli import _system_from_config

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
        "bounds": _system_from_config({"system": "bounds", "bounds": bounds}),
        "bounds_jacobian_from": _system_from_config(
            {"system": "bounds", "bounds": bounds, "jacobian_from": {"system": "thomas"}}
        ),
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


@pytest.mark.parametrize("factory", [thomas_perturbed, thomas_perturbed_field])
@pytest.mark.parametrize("b", [np.ones(2), np.ones(4)])
def test_perturbed_thomas_requires_a_three_component_input(factory, b):
    with pytest.raises(ValueError, match="3 components"):
        factory(b=b)


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
    sysm, x0 = _flow_cases()[name]
    rec = integrate(sysm, x0, (0.0, 3.0), n_out=31)
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


def _dopri_steps(sysm, rec):
    steps = []
    rk45_solve(sysm.f, rec.states[0], rec.times, 1e-10, 1e-10, record=steps)
    return [step[2] for step in steps]


@pytest.mark.parametrize("chunk", [1, 3, 10])
def test_variational_flow_is_bitwise_the_same_in_small_batches(monkeypatch, chunk):
    # thomas at k = 2 holds 56 (3^2 + 3^2) bytes of stage matrices per step
    # (seven stages); its intervals take one to three steps, and about half
    # its steps are split for the flows, so batches of one step, of three
    # steps (ending inside an interval) and of ten steps (several whole
    # intervals and parts of two) cover every layout
    sysm = thomas_controlled()
    rec = integrate(sysm, [-0.5, 0.5, 0.5], (0.0, 3.0), n_out=61)
    closes = _dopri_steps(sysm, rec)
    ends = [closes[min(hi, len(closes)) - 1] for hi in range(chunk, len(closes) + chunk, chunk)]
    if chunk > 1:
        assert not all(ends)  # some batch ends inside an interval
    if chunk == 10:
        assert sum(closes[:chunk]) >= 2
    whole = variational_flow(sysm, rec, 2)
    monkeypatch.setattr(indexing, "BATCH_BYTES", chunk * 56 * 18 + 100)
    part = variational_flow(sysm, rec, 2)
    assert np.array_equal(part.states, whole.states)
    assert np.array_equal(part.flow, whole.flow)
    assert np.array_equal(part.compound_flow, whole.compound_flow)


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
    runs = integrate_many(sysm, x0.T, (0.0, 20.0), 1e-10, 1e-10, t_eval=fit.times)
    columns = np.stack([rec.states for rec in runs], axis=-1)
    assert np.array_equal(fit.volumes, [parallelotope_volume(c) for c in columns])
    # along a trajectory the columns are Phi(t) x0 of the variational flow
    sysm, t_eval = remark2(), np.linspace(0.0, 6.0, 31)
    fit = volume_growth_rate(sysm, np.eye(2), 6.0, n_out=31, base_point=[1.0, 1.0])
    base = integrate(sysm, [1.0, 1.0], (0.0, 6.0), 1e-10, 1e-10, t_eval=t_eval)
    flow = variational_flow(sysm, base, k=1).flow
    assert np.array_equal(fit.volumes, [parallelotope_volume(phi) for phi in flow])


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
    x0 = np.eye(2)
    fit = volume_growth_rate(sysm, x0, 12.0, base_point=[1.0, 1.0])
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
    assert fit.n_used == 8
    assert abs(fit.rate + 60.0) < 1e-6


def test_detect_convergence_scalar():
    sysm = lti(np.array([[-1.0]]))
    recs = [integrate(sysm, [x0], (0.0, 40.0), n_out=201) for x0 in (1.0, -2.0, 0.5)]
    summary = detect_equilibrium_convergence(recs, sysm.f, tol=1e-6)
    assert summary.all_converged
    assert summary.n_clusters == 1
    assert np.abs(summary.clusters[0][0]).max() < 1e-6


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
