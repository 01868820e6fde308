"""Acceptance gate.

Each test exercises one numbered criterion at its stated tolerance and prints
a single verdict line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Criteria 7 and 8 assert convergence classifications for the
attractor presets at tolerances that exact integration of the stated systems
cannot meet; the assertion messages carry the measured values.
"""

import itertools
import time

import numpy as np
import scipy.linalg as sla

import kcontract as kc
from kcontract.certificates import series_conjugated_compound_measure, series_norm_data

from .helpers import eig_match_error, triangular4_third_compound, rel_err, well_conditioned
from .test_certificates import _nonlinear_series

D = kc.THOMAS_D
KINDS = (kc.L1, kc.L2, kc.LINF)


def _verdict(num: int, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_compound_algebra_suite():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    checked = 0
    worst_alg = 0.0
    worst_eig = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        p = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, m, p) + 1))
        b = rng.standard_normal((n, m))
        c = rng.standard_normal((m, p))
        cb = rel_err(
            kc.mult_compound(b @ c, k).data,
            kc.mult_compound(b, k).data @ kc.mult_compound(c, k).data,
        )
        a = rng.standard_normal((n, n))
        kk = int(rng.integers(1, n + 1))
        tr = rel_err(kc.mult_compound(a.T, kk).data, kc.mult_compound(a, kk).data.T)
        w = well_conditioned(rng, n)
        inv = rel_err(
            np.linalg.inv(kc.mult_compound(w, kk).data),
            kc.mult_compound(np.linalg.inv(w), kk).data,
        )
        eigs = np.linalg.eigvals(a)
        prods = np.array([np.prod(cmb) for cmb in itertools.combinations(eigs, kk)])
        sums = np.array([np.sum(cmb) for cmb in itertools.combinations(eigs, kk)])
        eig_mult = eig_match_error(prods, np.linalg.eigvals(kc.mult_compound(a, kk).data))
        eig_add = eig_match_error(sums, np.linalg.eigvals(kc.add_compound(a, kk).data))
        scaled = a / (2.0 * max(1.0, np.abs(eigs).max()))
        expr = rel_err(
            kc.mult_compound(sla.expm(scaled), kk).data,
            sla.expm(kc.add_compound(scaled, kk).data),
        )
        worst_alg = max(worst_alg, cb, tr, inv, expr)
        worst_eig = max(worst_eig, eig_mult, eig_add)
        checked += 1
    elapsed = time.monotonic() - t0
    ok = checked >= 200 and worst_alg < 1e-9 and worst_eig < 1e-7 and elapsed < 30.0
    _verdict(
        1,
        ok,
        f"{checked} matrices, worst algebraic {worst_alg:.2e} (tol 1e-9), "
        f"worst eigen {worst_eig:.2e} (tol 1e-7), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_02_triangular_closed_form():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        a = np.triu(rng.uniform(-1, 1, (4, 4)))
        got = kc.mult_compound(a, 3).data
        worst = max(worst, float(np.abs(got - triangular4_third_compound(a)).max()))
    _verdict(2, worst < 1e-12, f"100 draws, worst entry error {worst:.2e} (tol 1e-12)")


def test_criterion_03_block_diagonal_decomposition():
    rng = np.random.default_rng(103)
    worst = 0.0
    count = 0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, n + m + 1))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((m, m))
        c = np.zeros((n + m, n + m))
        c[:n, :n], c[n:, n:] = a, b
        dm = kc.block_diag_mult_decompose(a, b, k).reconstruct()
        da = kc.block_diag_add_decompose(a, b, k).reconstruct()
        worst = max(
            worst,
            rel_err(dm, kc.mult_compound(c, k).data),
            rel_err(da, kc.add_compound(c, k).data),
        )
        count += 1
    lam = np.array([2.0, 3.0, 5.0, 7.0, 11.0])
    dec = kc.block_diag_mult_decompose(np.diag(lam[:3]), np.diag(lam[3:]), 2)
    listed = [
        lam[0] * lam[1],
        lam[0] * lam[2],
        lam[1] * lam[2],
        lam[0] * lam[3],
        lam[0] * lam[4],
        lam[1] * lam[3],
        lam[1] * lam[4],
        lam[2] * lam[3],
        lam[2] * lam[4],
        lam[3] * lam[4],
    ]
    exact = np.array_equal(np.diag(dec.block_diagonal()), listed) and np.array_equal(
        dec.reconstruct(), kc.mult_compound(np.diag(lam), 2).data
    )
    _verdict(
        3,
        count >= 100 and worst < 1e-9 and exact,
        f"{count} random (n,m,k), worst reconstruction {worst:.2e} (tol 1e-9), "
        f"diagonal products exact: {exact}",
    )


def _split_max(a, b, k, kinds) -> float:
    """max_i mu_i(A^[k-i]) + mu_i(B^[i]): the largest condition bound of the
    series certificate of the uncoupled cascade diag(A, B)."""
    model = kc.lti_series(a, np.zeros((b.shape[0], a.shape[0])), b)
    return max(c.bound for c in kc.certify_series(model, k, per_i_kinds=kinds).conditions)


def test_criterion_04_block_measure_equality():
    rng = np.random.default_rng(104)
    worst = 0.0
    lower_ok = True
    count = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + m + 1))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((m, m))
        i1, i2 = max(0, k - n), min(m, k)
        kinds = [KINDS[int(rng.integers(0, 3))] for _ in range(i1, i2 + 1)]
        value = _split_max(a, b, k, kinds)
        lower = -_split_max(-a, -b, k, kinds)  # (-A)^[j] = -A^[j]
        c = np.zeros((n + m, n + m))
        c[:n, :n], c[n:, n:] = a, b
        perm, spec = series_norm_data(n, m, k, kinds)
        lo_b, up_b, _ = kc.hierarchic_measure_bounds(
            perm.conjugate(kc.add_compound(c, k).data), spec
        )
        scale = max(1.0, abs(value))
        worst = max(worst, abs(value - up_b) / scale, abs(value - lo_b) / scale)
        lower_ok = lower_ok and lower <= value + 1e-12
        count += 1
    _verdict(
        4,
        count >= 100 and worst < 1e-9 and lower_ok,
        f"{count} pairs, worst equality error {worst:.2e} (tol 1e-9), "
        f"lower bound never above value: {lower_ok}",
    )


def test_criterion_05_series_certificate_and_volume_counterexample():
    contracting = kc.certify_series(kc.lti_series_zeta(-1.5), 2, per_i_kinds=kc.L1)
    failing = kc.certify_series(kc.lti_series_zeta(-0.5), 2, per_i_kinds=kc.L1)
    failed_at = [c.index for c in failing.conditions if not c.passed]
    x0 = np.zeros((4, 2))
    x0[0, 0] = 1.0
    x0[2, 1] = 1.0
    fits = {
        z: kc.volume_growth_rate(kc.lti_series_zeta(z).full_system(), x0, 20.0)
        for z in (-1.5, -0.5)
    }
    rate_ok = all(abs(fits[z].rate - (1.0 + z)) < 1e-3 for z in fits)
    ok = (
        contracting.verdict == "pass"
        and failing.verdict == "fail"
        and failed_at == [1]
        and rate_ok
    )
    _verdict(
        5,
        ok,
        f"zeta1=-1.5 verdict {contracting.verdict}; zeta1=-0.5 fails at i={failed_at}; "
        f"rates {fits[-1.5].rate:+.5f}/{fits[-0.5].rate:+.5f} vs -0.5/+0.5 (tol 1e-3)",
    )


def test_criterion_06_thomas_margin():
    rep = kc.certify_k_contraction(kc.thomas_controlled(D, 1.1 - 2 * D), 2, kind=kc.L1)
    err = abs(rep.conditions[0].margin - 0.1)
    _verdict(
        6,
        rep.verdict == "pass" and err < 1e-12,
        f"verdict {rep.verdict}, margin {rep.conditions[0].margin:.15f} "
        f"(|margin-0.1| = {err:.2e}, tol 1e-12)",
    )


def test_criterion_07_perturbed_thomas_reproduction():
    sysm = kc.thomas_perturbed(D)
    field = kc.thomas_perturbed_field(D)
    t0 = time.monotonic()
    records = []
    for x0 in kc.STANDARD_INITIAL_CONDITIONS:
        rec = kc.integrate(sysm, np.concatenate([x0, [1.0]]), (0.0, 100.0), n_out=1001)
        records.append(kc.TrajectoryRecord(rec.times, rec.states[:, :3], system=sysm.name))
    summary = kc.detect_equilibrium_convergence(records, field, tol=1e-6)
    elapsed = time.monotonic() - t0
    ok = summary.all_converged and summary.n_clusters >= 2 and elapsed < 60.0
    _verdict(
        7,
        ok,
        f"converged {sum(summary.converged)}/9 at tol 1e-6 "
        f"(field residuals {min(summary.residuals):.2e}..{max(summary.residuals):.2e}; "
        f"the exponential forcing floor |b|exp(-10) ~ 5.7e-6 exceeds the stated tol), "
        f"clusters {summary.n_clusters} (need >= 2), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_08_uncontrolled_thomas_reproduction():
    sysm = kc.thomas(D)
    box = kc.invariant_box(D)
    records = [
        kc.integrate(sysm, x0, (0.0, 100.0), n_out=1001)
        for x0 in kc.STANDARD_INITIAL_CONDITIONS
    ]
    in_box = all(
        box.contains(s, slack=1e-7) for rec in records for s in rec.states
    )
    summary = kc.detect_equilibrium_convergence(records, sysm.f, tol=1e-6)
    converged_idx = [i for i, c in enumerate(summary.converged) if c]
    ok = summary.none_converged and in_box
    _verdict(
        8,
        ok,
        f"converged {sum(summary.converged)}/9 (need 0; the symmetric start (1,1,1) "
        f"stays on the invariant diagonal and reaches the symmetric equilibrium, "
        f"indices {converged_idx}), inside invariant box: {in_box}",
    )


def test_criterion_09_coppel_bound_audit():
    runs = []
    sysm = kc.thomas_controlled(D)
    for x0 in ([-0.5, 0.5, 0.5], [1.0, -1.0, 1.0], [0.5, 0.25, 0.0]):
        rep = kc.certify_k_contraction(sysm, 2, kind=kc.L1)
        runs.append((sysm, x0, 2, rep.conditions[0].margin, "l1", None))
    rep = kc.certify_k_contraction(kc.remark2(), 2)
    runs.append((kc.remark2(), [1.0, 1.0], 2, rep.conditions[0].margin, "l1", None))
    series = kc.lti_series_zeta(-1.5)
    rep_s = kc.certify_series(series, 2, per_i_kinds=kc.L1)
    runs.append(
        (series.full_system(), [1.0, 1.0, 1.0, 1.0], 2, min(c.margin for c in rep_s.conditions), "hier", series)
    )
    worst = 0.0
    for model, x0, k, eta, norm_tag, series_model in runs:
        rec = kc.integrate(model, x0, (0.0, 20.0), n_out=81)
        var = kc.variational_flow(model, rec, k)
        for i, t in enumerate(var.times):
            psi = var.compound_flow[i]
            if norm_tag == "l1":
                nrm = float(np.abs(psi).sum(axis=0).max())
            else:
                perm, spec = series_norm_data(series_model.dim1, series_model.dim2, k, [kc.L1] * 3)
                nrm = kc.hierarchic_operator_norm_upper(perm.conjugate(psi), spec)
            worst = max(worst, nrm / np.exp(-eta * t))
    _verdict(
        9,
        worst <= 1.0 + 1e-6,
        f"5 certified trajectories, worst ||Psi(t)||/exp(-eta t) = {worst:.9f} (<= 1+1e-6)",
    )


def test_criterion_10_epsilon_star_audit():
    rng = np.random.default_rng(110)
    cases = []
    zero_coupling = kc.lti_series_zeta(-1.5)
    cases.append((zero_coupling, kc.certify_series(zero_coupling, 2, per_i_kinds=kc.L1)))
    coupled = kc.lti_series(
        np.diag([1.0, -2.0]), np.array([[0.3, -0.2], [0.1, 0.05]]), np.diag([-1.5, -2.0])
    )
    cases.append((coupled, kc.certify_series(coupled, 2, per_i_kinds=kc.L1)))
    nonlinear = _nonlinear_series()
    cases.append((nonlinear, kc.certify_series(nonlinear, 2, per_i_kinds=kc.L1)))
    worst_gap = -np.inf
    for model, rep in cases:
        assert rep.verdict == "pass"
        target = -min(c.margin for c in rep.conditions) / 2.0
        kinds = [kc.L1] * len(rep.conditions)
        for _ in range(1000):
            x = rng.uniform(-2.0, 2.0, size=model.state_dim)
            val = series_conjugated_compound_measure(
                model, 2, kinds, rep.epsilon_star, 0.0, x
            )
            worst_gap = max(worst_gap, val - target)
    _verdict(
        10,
        worst_gap <= 1e-9,
        f"3 certified series, 1000 samples each, worst (measure + min eta/2) = "
        f"{worst_gap:.2e} (<= 1e-9)",
    )
