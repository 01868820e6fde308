import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kcontract import certificates, indexing
from kcontract.certificates import (
    PASS_THRESHOLD,
    certify_exp_input,
    certify_k_contraction,
    certify_series,
    certify_skew_feedback,
    lift_diagonal_scaling,
    series_conjugated_compound_measure,
    worst_case_compound_measure,
)
from kcontract.compounds import add_compound_interval
from kcontract.measures import L1, L2, MeasureKind, compound_measure, matrix_measure, parse_kind
from kcontract.systems import (
    Box,
    EntryBounds,
    FeedbackModel,
    SeriesModel,
    SystemModel,
    lti,
    lti_series,
    lti_series_zeta,
    remark2,
    thomas_controlled,
    thomas_controller_gain,
    jacobian_stack,
)

from .helpers import meshgrid_box_grid, scaled_entry_bounds

D = 0.193186
C_GAIN = thomas_controller_gain(D)  # 1.1 - 2d


def test_thomas_closed_loop_analytic_pass():
    rep = certify_k_contraction(thomas_controlled(D, C_GAIN), 2, kind=L1)
    assert rep.verdict == "pass"
    assert rep.method == "analytic-bounds"
    assert abs(rep.conditions[0].margin - 0.1) < 1e-12


def test_thomas_measure_search_prefers_passing_kind():
    rep = certify_k_contraction(thomas_controlled(D, C_GAIN), 2)
    assert rep.verdict == "pass"
    assert rep.conditions[0].measure == "L1"


def test_remark2_trace_certificate():
    rep = certify_k_contraction(remark2(), 2)
    assert rep.verdict == "pass"
    assert rep.conditions[0].margin == pytest.approx(1.0)


def test_remark2_first_order_not_certifiable():
    rep = certify_k_contraction(remark2(), 1, kind=L1)
    assert rep.verdict == "fail"
    assert rep.conditions[0].bound == np.inf


def test_positive_diagonal_linear_system_fails():
    rep = certify_k_contraction(lti(np.diag([1.0, -2.0])), 1)
    assert rep.verdict == "fail"
    assert rep.conditions[0].bound >= 1.0


def test_l2_rejected_on_genuine_intervals():
    with pytest.raises(ValueError):
        certify_k_contraction(thomas_controlled(D, C_GAIN), 2, kind=L2)


def test_grid_mode_is_inconclusive_not_pass():
    rep = certify_k_contraction(thomas_controlled(D, C_GAIN), 2, kind=L1, method="grid", grid_points=5)
    assert rep.verdict == "inconclusive"
    assert "sampled" in " ".join(rep.notes)
    # the sampled max can only be below the analytic worst case
    assert rep.conditions[0].bound <= -0.1 + 1e-12


def test_grid_mode_witnesses_failure():
    base = lti(np.diag([1.0, -2.0]))
    boxed = SystemModel(
        state_dim=2,
        f=base.f,
        jacobian=base.jacobian,
        domain=Box([-1.0, -1.0], [1.0, 1.0]),
        name="unstable-lti",
    )
    rep = certify_k_contraction(boxed, 1, method="grid", grid_points=3)
    assert rep.verdict == "fail"
    assert rep.conditions[0].bound >= 1.0


def test_grid_mode_requires_finite_box():
    with pytest.raises(ValueError):
        certify_k_contraction(remark2(), 2, method="grid")


def test_series_certificate_passes_and_reports_conditions():
    rep = certify_series(lti_series_zeta(-1.5), 2, per_i_kinds=L1)
    assert rep.verdict == "pass"
    assert [c.index for c in rep.conditions] == [0, 1, 2]
    assert [c.bound for c in rep.conditions] == pytest.approx([-1.0, -0.5, -3.5])
    assert rep.rate == pytest.approx(0.25)
    assert rep.epsilon_star is not None


def test_series_counterexample_fails_at_middle_split():
    rep = certify_series(lti_series_zeta(-0.5), 2, per_i_kinds=L1)
    assert rep.verdict == "fail"
    failed = [c for c in rep.conditions if not c.passed]
    assert len(failed) == 1 and failed[0].index == 1
    assert failed[0].bound == pytest.approx(0.5)


def test_series_k1_reduces_to_both_subsystems_contracting():
    rep = certify_series(lti_series_zeta(-1.5), 1, per_i_kinds=L1)
    # sub1 = diag(1, -2) is not contracting, so the k=1 cascade fails at i=0
    assert rep.verdict == "fail"
    assert not rep.conditions[0].passed
    good = lti_series(np.diag([-1.0, -2.0]), np.zeros((2, 2)), np.diag([-1.5, -2.0]))
    rep2 = certify_series(good, 1, per_i_kinds=L1)
    assert rep2.verdict == "pass"
    assert [c.bound for c in rep2.conditions] == pytest.approx([-1.0, -1.5])


def test_series_compound_level_bounds_fail_instead_of_raising():
    # L2 is not tried on a term that has compound-level bounds for its order
    j22 = np.diag([-1.0, -4.0])
    bounds = EntryBounds(j22, j22, compound={2: ([[0.5]], [[1.0]])})
    model = SeriesModel(
        sub1=lti(np.diag([-2.0, -3.0])),
        dim2=2,
        f2=lambda t, x1, x2: j22 @ x2,
        j22=lambda t, x1, x2: j22,
        j21=lambda t, x1, x2: np.zeros((2, 2)),
        j21_mag=np.zeros((2, 2)),
        sub2_bounds=bounds,
    )
    rep = certify_series(model, 2)
    assert rep.verdict == "fail"
    assert [c.index for c in rep.conditions if not c.passed] == [2]
    single = certify_k_contraction(SystemModel(2, None, None, entry_bounds=bounds), 2)
    assert single.verdict == "fail"
    assert rep.conditions[-1].bound == single.conditions[0].bound == 1.0


def test_series_measure_search_falls_back_per_condition():
    rep = certify_series(lti_series_zeta(-1.5), 2)
    assert rep.verdict == "pass"
    assert all(c.passed for c in rep.conditions)


def test_split_certifiers_refuse_scaled_kinds_up_front():
    # the hierarchic norm of the series proof measures each block in a plain
    # Lp norm, so a scaled kind is refused whether the conditions would pass
    # (c = -2) or fail (c = 3), and before any Jacobian is sampled
    scaled = MeasureKind("1", np.diag([1.0, 2.0]))
    for c in (-2.0, 3.0):
        model = lti_series(np.diag([-1.0, -2.0]), 0.1 * np.eye(2), np.diag([c, -2.0]))
        for method in ("analytic", "grid"):
            with pytest.raises(ValueError, match="scaled kinds are refused"):
                certify_series(model, 2, per_i_kinds=scaled, method=method)
    with pytest.raises(ValueError, match="scaled kinds are refused"):
        certify_exp_input(lti(np.diag([-1.0, -2.0])), 0.5, -1.0, 2, kinds=scaled)


def _nonlinear_series():
    sub1 = SystemModel(
        state_dim=2,
        f=lambda t, x: np.array([-2.0 * x[0] + 0.3 * np.sin(x[1]), -2.5 * x[1]]),
        jacobian=lambda t, x: np.array([[-2.0, 0.3 * np.cos(x[1])], [0.0, -2.5]]),
        domain=Box([-2.0, -2.0], [2.0, 2.0]),
        entry_bounds=EntryBounds(
            np.array([[-2.0, -0.3], [0.0, -2.5]]), np.array([[-2.0, 0.3], [0.0, -2.5]])
        ),
        name="sat-driver",
    )
    j22 = np.diag([-3.0, -2.0])
    return SeriesModel(
        sub1=sub1,
        dim2=2,
        f2=lambda t, x1, x2: j22 @ x2 + np.array([0.4 * np.tanh(x1[0]), 0.2 * np.sin(x1[1])]),
        j22=lambda t, x1, x2: j22,
        j21=lambda t, x1, x2: np.array(
            [[0.4 * (1.0 - np.tanh(x1[0]) ** 2), 0.0], [0.0, 0.2 * np.cos(x1[1])]]
        ),
        j21_mag=np.array([[0.4, 0.0], [0.0, 0.2]]),
        sub2_bounds=EntryBounds(j22, j22),
        sub2_domain=Box([-2.0, -2.0], [2.0, 2.0]),
        name="saturating-cascade",
    )


def test_full_system_of_a_hand_built_series_stacks_its_blocks():
    model = _nonlinear_series()
    full = model.full_system()
    assert full is model.full_system()
    assert (full.state_dim, full.name) == (4, model.name)
    zeros = np.zeros((2, 2))
    for t, x in zip((0.0, 0.7, 2.5), np.random.default_rng(11).uniform(-2.0, 2.0, (3, 4))):
        x1, x2 = x[:2], x[2:]
        f = np.concatenate([model.sub1.f(t, x1), model.f2(t, x1, x2)])
        jac = np.block(
            [[model.sub1.jacobian(t, x1), zeros], [model.j21(t, x1, x2), model.j22(t, x1, x2)]]
        )
        assert np.array_equal(full.f(t, x), f)
        assert np.array_equal(full.jacobian(t, x), jac)


def test_saturating_cascade_coupling_stays_inside_its_magnitude_bounds():
    # the premise of epsilon_star: |J21| <= j21_mag entrywise over both domains
    model = _nonlinear_series()
    rng = np.random.default_rng(26)
    x1s = rng.uniform(model.sub1.domain.lo, model.sub1.domain.hi, (500, 2))
    x2s = rng.uniform(model.sub2_domain.lo, model.sub2_domain.hi, (500, 2))
    for t, x1, x2 in zip(rng.uniform(0.0, 10.0, 500), x1s, x2s):
        assert (np.abs(model.j21(t, x1, x2)) <= model.j21_mag).all()


def test_nonlinear_series_certificate_and_epsilon_star_audit():
    model = _nonlinear_series()
    rep = certify_series(model, 2, per_i_kinds=L1)
    assert rep.verdict == "pass"
    assert [c.bound for c in rep.conditions] == pytest.approx([-4.5, -4.0, -5.0])
    eps = rep.epsilon_star
    assert eps is not None and eps > 0
    target = -min(c.margin for c in rep.conditions) / 2.0
    rng = np.random.default_rng(0)
    kinds = [L1, L1, L1]
    for _ in range(300):
        x = rng.uniform(-2, 2, size=4)
        val = series_conjugated_compound_measure(model, 2, kinds, eps, 0.0, x)
        assert val <= target + 1e-9


def test_epsilon_star_audit_holds_for_every_reported_kind():
    # seeded random constant cascades: every passing certificate, whatever
    # kinds its conditions chose, audits below -rate at epsilon_star
    rng = np.random.default_rng(0)
    passes = mixed = 0
    for _ in range(40):
        n, m = (int(v) for v in rng.integers(1, 4, size=2))
        a = rng.uniform(-1, 1, (n, n)) - rng.uniform(0.5, 3.0) * np.eye(n)
        b = rng.uniform(-1, 1, (m, n))
        c = rng.uniform(-1, 1, (m, m)) - rng.uniform(0.5, 3.0) * np.eye(m)
        model = lti_series(a, b, c)
        for k in range(1, n + m + 1):
            rep = certify_series(model, k)
            if rep.verdict != "pass":
                continue
            kinds = [parse_kind(cond.measure) for cond in rep.conditions]
            passes += 1
            mixed += len({kind.p for kind in kinds}) > 1
            audit = series_conjugated_compound_measure(
                model, k, kinds, rep.epsilon_star, 0.0, np.zeros(n + m)
            )
            assert audit <= -rep.rate + 1e-9
    assert passes > 100 and mixed > 0


def test_certifiers_refuse_an_order_out_of_range_a_negative_g_bound_and_an_unknown_method():
    series, pair = lti_series_zeta(-1.5), _skew_pair(4.0, [[0.7, -1.1], [0.4, 0.2]])
    sysm = lti(np.diag([-1.0, -2.0]))
    for k in (0, 5):
        with pytest.raises(ValueError, match=f"k must satisfy 1 <= k <= 4, got {k}"):
            certify_series(series, k)
        with pytest.raises(ValueError, match=f"k must satisfy 1 <= k <= 4, got {k}"):
            certify_skew_feedback(pair, k)
    for k in (0, 3):
        with pytest.raises(ValueError, match=f"k must satisfy 1 <= k <= 2, got {k}"):
            certify_exp_input(sysm, 0.5, -1.0, k)
    with pytest.raises(ValueError, match="g_jacobian_bound must be a finite nonnegative"):
        certify_exp_input(sysm, -0.5, -1.0, 1)
    with pytest.raises(ValueError, match="unknown certification method 'newton'"):
        certify_k_contraction(sysm, 1, method="newton")


def test_analytic_worst_case_dominates_samples():
    sysm = thomas_controlled(D, C_GAIN)
    bound = worst_case_compound_measure(sysm.entry_bounds, 2, L1)
    rng = np.random.default_rng(1)
    lo, hi = sysm.domain.lo, sysm.domain.hi
    for _ in range(1000):
        x = rng.uniform(lo, hi)
        sampled = compound_measure(sysm.jacobian(0.0, x), 2, L1)
        assert sampled <= bound + 1e-12


def test_scale_invariance_of_verdicts():
    sysm = thomas_controlled(D, C_GAIN)
    s = np.array([2.0, 0.5, 1.5])
    scaled_bounds = scaled_entry_bounds(sysm.entry_bounds, s)
    scaled_sys = SystemModel(
        state_dim=3,
        f=sysm.f,
        jacobian=sysm.jacobian,
        entry_bounds=scaled_bounds,
        name="scaled",
    )
    # compensating state-space scaling (lifted internally) restores the measure
    compensate = MeasureKind("1", np.diag(1.0 / s))
    assert np.allclose(lift_diagonal_scaling(1.0 / s, 2), [1.0, 1.0 / 3.0, 4.0 / 3.0])
    base = certify_k_contraction(sysm, 2, kind=L1)
    comp = certify_k_contraction(scaled_sys, 2, kind=compensate)
    assert comp.verdict == base.verdict == "pass"
    assert comp.conditions[0].bound == pytest.approx(base.conditions[0].bound, abs=1e-12)
    # a failing verdict is preserved the same way
    bad = lti(np.diag([1.0, -2.0]))
    bad_scaled = SystemModel(
        state_dim=2,
        f=bad.f,
        jacobian=bad.jacobian,
        entry_bounds=scaled_entry_bounds(bad.entry_bounds, [3.0, 0.25]),
        name="scaled-bad",
    )
    comp_bad = certify_k_contraction(
        bad_scaled, 1, kind=MeasureKind("1", np.diag(1.0 / np.array([3.0, 0.25])))
    )
    assert comp_bad.verdict == certify_k_contraction(bad, 1, kind=L1).verdict == "fail"


def test_scale_invariance_with_compound_level_bounds():
    sysm = remark2()
    s = np.array([3.0, 0.4])
    scaled = SystemModel(
        state_dim=2,
        f=sysm.f,
        jacobian=sysm.jacobian,
        entry_bounds=scaled_entry_bounds(sysm.entry_bounds, s),
        name="remark2-scaled",
    )
    # trace cancellation survives: the 2-compound is 1x1, lift ratio is 1
    rep = certify_k_contraction(scaled, 2, kind=L1)
    assert rep.verdict == "pass"
    assert rep.conditions[0].margin == pytest.approx(1.0)


def _skew_pair(c: float, r12):
    j11 = -2.0 * np.eye(2)
    j22 = -3.0 * np.eye(2)
    r12 = np.asarray(r12, dtype=float)

    def f(t, x):
        top = j11 @ x[:2] + r12 @ x[2:]
        bottom = -c * r12.T @ x[:2] + j22 @ x[2:]
        return np.concatenate([top, bottom])

    return FeedbackModel(
        dim1=2,
        dim2=2,
        f=f,
        j11=lambda t, x: j11,
        j12=lambda t, x: r12,
        j22=lambda t, x: j22,
        c=c,
        bounds1=EntryBounds(j11, j11),
        bounds2=EntryBounds(j22, j22),
        name="skew-linear",
    )


def test_skew_feedback_linear_pass():
    pair = _skew_pair(4.0, [[0.7, -1.1], [0.4, 0.2]])
    rep = certify_skew_feedback(pair, 2)
    assert rep.verdict == "pass"
    assert [c_.bound for c_ in rep.conditions] == pytest.approx([-4.0, -5.0, -6.0])
    assert rep.rate == pytest.approx(4.0)
    assert all(c_.measure == "L2" for c_ in rep.conditions)


def test_skew_feedback_coupling_violation_rejected():
    r12 = np.array([[0.7, -1.1], [0.4, 0.2]])
    pair = _skew_pair(4.0, r12)
    x = np.array([0.3, -0.2, 0.5, 0.1])
    # the coupling is derived from J12 and c: no other J21 can be supplied
    assert np.array_equal(pair.j21(0.0, x), -4.0 * r12.T)
    assert "skew coupling" in certify_skew_feedback(pair, 2).notes[0]
    with pytest.raises(TypeError, match="j21"):
        FeedbackModel(2, 2, pair.f, pair.j11, pair.j12, pair.j22, 4.0, j21=pair.j21)
    for gain in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="skew gain"):
            _skew_pair(gain, r12)


def test_skew_feedback_full_order_trace_condition():
    pair = _skew_pair(1.0, [[0.3, 0.0], [0.0, 0.3]])
    rep = certify_skew_feedback(pair, 4)
    assert len(rep.conditions) == 1
    assert rep.conditions[0].bound == pytest.approx(-10.0)  # trace(J11)+trace(J22)
    assert rep.verdict == "pass"


def _nonlinear_skew_pair():
    r12 = lambda x: np.array([[0.5 * np.cos(x[2]), 0.1], [0.0, 0.3]])

    def j11(t, x):
        return np.diag([-2.0 - 0.1 * x[0] ** 2, -2.0])

    return FeedbackModel(
        dim1=2,
        dim2=2,
        f=lambda t, x: np.zeros(4),
        j11=j11,
        j12=lambda t, x: r12(x),
        j22=lambda t, x: np.diag([-3.0 + 0.2 * np.sin(x[3] + t), -3.0]),
        c=2.0,
        domain=Box([-1.0] * 4, [1.0] * 4),
        name="skew-nonlinear",
    )


def test_skew_feedback_grid_mode_nonlinear():
    rep = certify_skew_feedback(_nonlinear_skew_pair(), 2, method="grid", grid_points=3)
    assert rep.verdict == "inconclusive"
    assert all(cnd.passed for cnd in rep.conditions)
    assert any("sampled" in n for n in rep.notes)


def test_exp_input_grid_mode():
    sub1 = _nonlinear_series().sub1
    rep = certify_exp_input(
        sub1, 0.5, alpha=-1.0, k=2, kinds=(L1, L1), method="grid", grid_points=5
    )
    assert rep.verdict == "inconclusive"
    by_index = {c.index: c for c in rep.conditions}
    assert by_index[2].bound == pytest.approx(-4.5)
    assert by_index[1].bound == pytest.approx(-3.0)


def test_exp_input_k1_needs_contraction_and_negative_alpha():
    stable = lti(np.diag([-3.0, -4.0]))
    rep = certify_exp_input(stable, 0.5, alpha=-1.0, k=1, kinds=(L1, L1))
    assert rep.verdict == "pass"
    assert [c.index for c in rep.conditions] == [0, 1]
    assert rep.conditions[0].bound == pytest.approx(-1.0)  # alpha condition
    assert rep.conditions[1].bound == pytest.approx(-3.0)
    rep2 = certify_exp_input(stable, 0.5, alpha=0.2, k=1, kinds=(L1, L1))
    assert rep2.verdict == "fail"


def test_exp_input_thomas_second_condition_fails_under_l1():
    sysm = thomas_controlled(D, C_GAIN)
    rep = certify_exp_input(sysm, g_jacobian_bound=0.125, alpha=-0.1, k=2, kinds=(L1, L1))
    assert rep.verdict == "fail"
    by_index = {c.index: c for c in rep.conditions}
    assert by_index[2].passed and by_index[2].margin == pytest.approx(0.1, abs=1e-12)
    assert not by_index[1].passed
    assert by_index[1].bound == pytest.approx(1.0 - D - 0.1, abs=1e-9)  # 0.706814


def test_exp_input_diagonal_pass_with_note():
    sysm = lti(np.diag([-3.0, -4.0]))
    rep = certify_exp_input(sysm, 0.5, alpha=-1.0, k=2, kinds=(L1, L1))
    assert rep.verdict == "pass"
    by_index = {c.index: c for c in rep.conditions}
    assert by_index[2].bound == pytest.approx(-7.0)
    assert by_index[1].bound == pytest.approx(-4.0)  # mu1(diag) + alpha = -3 - 1
    assert any("set of equilibria" in n for n in rep.notes)
    assert rep.epsilon_star is not None and rep.epsilon_star > 0


def test_series_margins_match_block_measure_when_uncoupled():
    # condition i is the paper's sum mu(A^[2-i]) + mu(B^[i]), bit for bit
    a, b = np.diag([1.0, -2.0]), np.diag([-1.5, -2.0])
    rep = certify_series(lti_series_zeta(-1.5), 2, per_i_kinds=L1)
    sums = [compound_measure(a, 2 - i, L1) + compound_measure(b, i, L1) for i in range(3)]
    assert [c.index for c in rep.conditions] == [0, 1, 2]
    assert [c.bound for c in rep.conditions] == sums
    assert abs(max(sums) - max(c.bound for c in rep.conditions)) < 1e-9


def test_series_grid_mode_samples_nonlinear_cascade():
    model = _nonlinear_series()
    rep = certify_series(model, 2, per_i_kinds=L1, method="grid", grid_points=4)
    assert rep.verdict == "inconclusive"
    assert all(c.passed for c in rep.conditions)
    # sampled bounds cannot exceed the analytic worst case
    analytic = certify_series(model, 2, per_i_kinds=L1)
    for sampled, proved in zip(rep.conditions, analytic.conditions):
        assert sampled.bound <= proved.bound + 1e-12


def test_report_serialization_is_deterministic():
    import json

    rep = certify_series(lti_series_zeta(-1.5), 2, per_i_kinds=L1)
    d1 = json.dumps(rep.to_dict())
    d2 = json.dumps(certify_series(lti_series_zeta(-1.5), 2, per_i_kinds=L1).to_dict())
    assert d1 == d2
    text = rep.to_text()
    assert "PASS" in text and "epsilon_star" in text


def test_pass_threshold_blocks_certification_on_noise():
    borderline = lti(np.array([[-PASS_THRESHOLD / 10.0]]))
    rep = certify_k_contraction(borderline, 1, kind=L1)
    assert rep.verdict == "fail"


def _counting(fn, counter, key):
    def wrapped(*args):
        counter[key] = counter.get(key, 0) + 1
        return fn(*args)

    return wrapped


def test_grid_certificates_sample_each_jacobian_once():
    calls = {}
    sysm = thomas_controlled(D, C_GAIN)
    sysm.jacobian = _counting(sysm.jacobian, calls, "single")
    samples = len(sysm.domain.grid(4))
    certify_k_contraction(sysm, 2, method="grid", grid_points=4, time_grid=[0.0, 1.0])
    assert calls["single"] == 2 * samples  # once per (t, x), not per candidate kind
    certify_exp_input(sysm, 0.5, alpha=-1.0, k=2, method="grid", grid_points=4)
    assert calls["single"] == 3 * samples

    model = _nonlinear_series()
    model.sub1.jacobian = _counting(model.sub1.jacobian, calls, "j11")
    model.j22 = _counting(model.j22, calls, "j22")
    per_block = len(model.sub1.domain.grid(3))
    certify_series(model, 2, method="grid", grid_points=3)
    assert calls["j11"] == per_block and calls["j22"] == per_block**2

    pair = _nonlinear_skew_pair()
    pair = replace(
        pair, j11=_counting(pair.j11, calls, "skew j11"), j22=_counting(pair.j22, calls, "skew j22")
    )
    samples = len(pair.domain.grid(3))
    certify_skew_feedback(pair, 2, method="grid", grid_points=3, time_grid=[0.0, 1.0])
    assert calls["skew j11"] == calls["skew j22"] == 2 * samples


def test_box_grid_is_the_meshgrid_lattice_then_its_midpoints():
    rng = np.random.default_rng(15)
    for d in range(1, 5):
        for g in range(1, 9):
            for _ in range(8):
                lo = rng.uniform(-3.0, 1.0, d)
                hi = lo + rng.uniform(0.0, 4.0, d)
                flat = rng.random(d) < 0.3
                hi[flat] = lo[flat]  # zero-width axes
                signed = rng.random(d) < 0.2
                lo[signed], hi[signed] = -0.0, rng.choice([-0.0, 0.0, 1.5], signed.sum())
                got = Box(lo, hi).grid(g)
                assert got.shape == (g**d + (g - 1) ** d, d)
                assert got.tobytes() == meshgrid_box_grid(lo, hi, g).tobytes()
    assert np.array_equal(Box([-1.0, 2.0], [3.0, 4.0]).grid(1), [[-1.0, 2.0]])


def test_grid_sample_set_is_refused_before_it_is_allocated():
    # 35 points at each of 10^6 times: 1.1 GB of sample columns
    sysm = thomas_controlled(D, C_GAIN)
    times = np.linspace(0.0, 1.0, 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(indexing.DimensionGuardError, match="grid sample set"):
            certify_k_contraction(sysm, 2, method="grid", grid_points=3, time_grid=times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_grid_batches_give_the_same_reports(monkeypatch):
    model = _nonlinear_series()
    sysm = thomas_controlled(D, C_GAIN)
    pair = _nonlinear_skew_pair()

    def reports():
        return [
            certify_series(model, 2, method="grid", grid_points=3, time_grid=[0.0, 0.5]).to_dict(),
            certify_k_contraction(sysm, 2, method="grid", grid_points=5).to_dict(),
            certify_exp_input(sysm, 0.5, alpha=-1.0, k=2, method="grid", grid_points=4).to_dict(),
            certify_skew_feedback(pair, 2, method="grid", grid_points=3, time_grid=[0.5]).to_dict(),
        ]

    whole = reports()
    monkeypatch.setattr(indexing, "BATCH_BYTES", 200)  # a few matrices per batch
    assert reports() == whole


def test_grid_batches_hold_the_crossed_columns_within_the_budget(monkeypatch):
    # a 3 + 1 series crosses every row with the second box's grid: J22 reads
    # 1 + 3 + 1 floats of columns (t, x1, x2) a sample, against the one
    # float of its Jacobian, so a batch counts them with the Jacobians
    model = lti_series(np.diag([-1.0, -2.0, -3.0]), np.ones((1, 3)), [[-2.0]])
    model.sub1.domain, model.sub2_domain = Box([-1.0] * 3, [1.0] * 3), Box([-1.0], [1.0])
    whole = certify_series(model, 2, per_i_kinds=L1, method="grid", grid_points=4).to_dict()
    held = []  # floats of each batch: the J11 stack, then J22's columns and stack
    j11 = model.sub1.jacobians

    def spy11(t, x):
        stack = j11(t, x)
        held.append(stack.size)
        return stack

    def spy22(jacobian, t, *columns):
        stack = jacobian_stack(jacobian, t, *columns)
        held[-1] += t.size + sum(c.size for c in columns) + stack.size
        return stack

    model.sub1.jacobians = spy11
    monkeypatch.setattr(certificates, "jacobian_stack", spy22)
    monkeypatch.setattr(indexing, "BATCH_BYTES", 4096)
    rep = certify_series(model, 2, per_i_kinds=L1, method="grid", grid_points=4)
    assert rep.to_dict() == whole
    assert len(held) > 1 and 8 * max(held) <= 4096


def test_grid_batches_hold_the_per_sample_measures_within_the_budget(monkeypatch):
    # each (order, kind) of a block keeps one measure a sample, and J22 is
    # sampled once per crossed column, so a batch counts those measures with
    # the Jacobians: the peak grows by what a batch holds, within the budget
    def j22(t, x1, x2):
        return np.full((t.size, 1, 1), -2.0)

    j22._column_form = True
    model = SeriesModel(
        sub1=thomas_controlled(D, C_GAIN),
        dim2=1,
        f2=lambda t, x1, x2: -2.0 * x2,
        j22=j22,
        j21=lambda t, x1, x2: np.ones((1, 3)),
        j21_mag=np.ones((1, 3)),
        sub2_domain=Box([-1.0], [1.0]),
    )
    peaks = []
    for budget in (256 << 10, 1 << 20):
        monkeypatch.setattr(indexing, "BATCH_BYTES", budget)
        tracemalloc.start()
        try:
            certify_series(model, 2, method="grid", grid_points=20)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 1.5 * ((1 << 20) - (256 << 10))


def test_analytic_mode_refuses_entry_bounds_of_another_dimension():
    # bounds of a smaller block passed as a proof for the block they do not
    # describe: -2 for a 3-state system from 2 x 2 bounds, and [-1, -3] for a
    # cascade whose 2-state J22 = 5 I carries 1 x 1 bounds
    single = SystemModel(
        3, lambda t, x: -x, lambda t, x: -np.eye(3), entry_bounds=EntryBounds(-np.eye(2), -np.eye(2))
    )
    with pytest.raises(ValueError, match="dimension of their block"):
        certify_k_contraction(single, 2)
    j22 = 5.0 * np.eye(2)
    series = SeriesModel(
        sub1=lti(np.diag([-1.0, -2.0])),
        dim2=2,
        f2=lambda t, x1, x2: j22 @ x2,
        j22=lambda t, x1, x2: j22,
        j21=lambda t, x1, x2: np.zeros((2, 2)),
        j21_mag=np.zeros((2, 2)),
        sub2_bounds=EntryBounds([[-3.0]], [[-3.0]]),
    )
    with pytest.raises(ValueError, match="dimension of their block"):
        certify_series(series, 1)
    pair = replace(_skew_pair(4.0, [[0.7, -1.1], [0.4, 0.2]]), bounds1=EntryBounds([[-2.0]], [[-2.0]]))
    with pytest.raises(ValueError, match="dimension of their block"):
        certify_skew_feedback(pair, 2)


def test_grid_certificate_copies_a_reused_jacobian_buffer():
    base = thomas_controlled(D, C_GAIN)
    buffer = np.empty((3, 3))

    def in_place(t, x):
        buffer[...] = base.jacobian(t, x)
        return buffer

    reusing = SystemModel(3, base.f, in_place, domain=base.domain, name=base.name)
    expected = certify_k_contraction(base, 2, kind=L1, method="grid", grid_points=4).to_dict()
    assert certify_k_contraction(reusing, 2, kind=L1, method="grid", grid_points=4).to_dict() == expected
    flat = SystemModel(3, base.f, lambda t, x: np.ones(3), domain=base.domain)
    with pytest.raises(ValueError, match="shape"):
        certify_k_contraction(flat, 2, kind=L1, method="grid", grid_points=2)


def test_an_empty_time_grid_is_refused_before_any_jacobian_is_sampled():
    calls = {}
    unit = Box([-1.0, -1.0], [1.0, 1.0])
    sysm = thomas_controlled(D, C_GAIN)
    sysm.jacobian = _counting(sysm.jacobian, calls, "single")
    model = lti_series_zeta(-1.5)
    model.sub1.domain = model.sub2_domain = unit
    model.sub1.jacobian = _counting(model.sub1.jacobian, calls, "j11")
    pair = _skew_pair(4.0, [[0.7, -1.1], [0.4, 0.2]])
    pair = replace(pair, domain=Box([-1.0] * 4, [1.0] * 4), j11=_counting(pair.j11, calls, "pair"))
    runs = [
        lambda: certify_k_contraction(sysm, 2, method="grid", time_grid=[]),
        lambda: certify_series(model, 2, per_i_kinds=L1, method="grid", time_grid=[]),
        lambda: certify_skew_feedback(pair, 2, method="grid", time_grid=[]),
        lambda: certify_exp_input(sysm, 0.5, alpha=-1.0, k=2, method="grid", time_grid=[]),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="time_grid is empty"):
            run()
    assert calls == {}


def test_a_series_grid_without_a_second_block_domain_is_refused_before_sampling():
    calls = {}
    model = _nonlinear_series()
    model.sub2_domain = None
    model.sub1.jacobian = _counting(model.sub1.jacobian, calls, "j11")
    model.j22 = _counting(model.j22, calls, "j22")
    with pytest.raises(ValueError, match="finite box domain"):
        certify_series(model, 2, per_i_kinds=L1, method="grid", grid_points=3)
    assert calls == {}


def _boxed_lti(a):
    sysm = lti(a)
    sysm.domain = Box([-1.0] * len(a), [1.0] * len(a))
    return sysm


def test_grid_and_analytic_modes_read_a_state_scaling_alike():
    # every sample of an lti is A, so the sampled bound is the exact one: the
    # measure under the lifted (compound-space) diagonal of the state scaling
    a = np.random.default_rng(27).normal(size=(4, 4)) - 2.0 * np.eye(4)
    s = np.array([1.0, 2.0, 3.0, 4.0])
    sysm, kind = _boxed_lti(a), MeasureKind("1", np.diag(s))
    analytic = certify_k_contraction(sysm, 2, kind=kind).conditions[0].bound
    grid = certify_k_contraction(sysm, 2, kind=kind, method="grid", grid_points=2)
    assert grid.conditions[0].bound == analytic
    lifted = MeasureKind("1", np.diag(lift_diagonal_scaling(s, 2)))
    assert analytic == compound_measure(a, 2, lifted)


def test_exact_and_interval_bounds_read_a_state_scaling_alike():
    # n = 3, k = 2: C(3, 2) = n, and a 3 x 3 scaling is still a state scaling
    a = np.random.default_rng(0).normal(size=(3, 3)) - 4.0 * np.eye(3)
    s = np.array([1.0, 2.0, 3.0])
    kind = MeasureKind("1", np.diag(s))
    lifted = compound_measure(a, 2, MeasureKind("1", np.diag(lift_diagonal_scaling(s, 2))))
    exact = worst_case_compound_measure(EntryBounds(a, a), 2, kind)
    boxed = EntryBounds(a, a, compound={2: add_compound_interval(a, a, 2)})
    assert exact == pytest.approx(lifted)
    assert worst_case_compound_measure(boxed, 2, kind) == pytest.approx(lifted)


def test_a_full_state_scaling_runs_at_order_one_in_both_modes():
    sysm = _boxed_lti(np.array([[-2.0, 1.0], [0.5, -3.0]]))
    kind = MeasureKind("1", np.array([[1.0, 0.5], [0.0, 2.0]]))
    want = matrix_measure(sysm.entry_bounds.lo, kind)
    for method in ("analytic", "grid"):
        rep = certify_k_contraction(sysm, 1, kind=kind, method=method, grid_points=2)
        assert rep.conditions[0].bound == pytest.approx(want)


def test_a_scaling_of_neither_size_is_refused_in_both_modes():
    sysm = _boxed_lti(-np.eye(4) + 0.1)
    for method in ("analytic", "grid"):
        with pytest.raises(ValueError, match="matches neither"):
            certify_k_contraction(sysm, 2, kind=MeasureKind("1", np.eye(5)), method=method)
        with pytest.raises(ValueError, match="must be diagonal"):
            certify_k_contraction(sysm, 2, kind=MeasureKind("inf", np.eye(4) + 0.1), method=method)
        with pytest.raises(ValueError, match="must be positive"):
            certify_k_contraction(sysm, 2, kind=MeasureKind("inf", -np.eye(4)), method=method)
