"""k-contraction certificates.

Four certifiers share one evaluation core:

* a single system is k-contracting when the measure of the k-th additive
  compound of its Jacobian is uniformly negative over the domain;
* a series interconnection needs the per-order conditions
  mu_i(J11^[k-i]) + mu_i(J22^[i]) <= -eta_i for every feasible split i,
  and on success a concrete scaling epsilon* realizing the proof's scaled
  norm is reported together with the certified rate min_i eta_i / 2;
* skew-symmetric feedback reduces to the same split conditions under the
  L2 measure once the coupling identity J21 = -c J12^T is verified;
* an exponentially decaying input is the special case of a scalar driver.

Analytic-bounds mode evaluates worst cases from entry-wise Jacobian bounds
(diagonal entries at their upper bound, off-diagonal entries at their largest
magnitude), which is sound because the L1/Linf formulas are monotone in those
quantities; degenerate (constant) bounds are evaluated exactly for any
measure.  Grid sampling never proves anything and is reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import indexing
from .compounds import add_compound, add_compound_interval, lift_diagonal_scaling
from .indexing import BlockPermutation, block_range, build_permutation
from .measures import (
    L1,
    L2,
    LINF,
    HierarchicNormSpec,
    MeasureKind,
    compound_measure,
    compound_measures,
    hierarchic_measure_bounds,
    induced_norm,
    interval_measure_upper,
    matrix_measure,
)
from .systems import Box, EntryBounds, FeedbackModel, SeriesModel, SystemModel, jacobian_stack

#: A condition passes only when its bound is at most -PASS_THRESHOLD, so a
#: certificate never rests on floating-point noise.
PASS_THRESHOLD = 1e-9


@dataclass
class ConditionRecord:
    index: int
    measure: str
    bound: float
    margin: float
    passed: bool


@dataclass
class CertificateReport:
    verdict: str  # "pass" | "fail" | "inconclusive"
    k: int
    conditions: list[ConditionRecord]
    method: str
    system: str = ""
    epsilon_star: Optional[float] = None
    rate: Optional[float] = None
    notes: list[str] = field(default_factory=list)

    @property
    def margins(self) -> list[float]:
        return [c.margin for c in self.conditions]

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "verdict": self.verdict,
            "k": self.k,
            "method": self.method,
            "rate": self.rate,
            "epsilon_star": self.epsilon_star,
            "conditions": [
                {
                    "i": c.index,
                    "measure": c.measure,
                    "bound": c.bound,
                    "margin": c.margin,
                    "passed": c.passed,
                }
                for c in self.conditions
            ],
            "notes": list(self.notes),
        }

    def to_text(self) -> str:
        lines = [
            f"certificate for {self.system}",
            f"  verdict: {self.verdict.upper()}   (k = {self.k}, method = {self.method})",
            "  conditions:",
        ]
        for c in self.conditions:
            status = "ok " if c.passed else "VIOLATED"
            lines.append(
                f"    i={c.index:<3d} {c.measure:<11s} bound = {c.bound:.6g}"
                f"   margin = {c.margin:.6g}   [{status}]"
            )
        if self.rate is not None:
            lines.append(f"  certified rate: {self.rate:.6g}")
        if self.epsilon_star is not None:
            lines.append(f"  epsilon_star: {self.epsilon_star:.6g}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


def _passes(bound: float) -> bool:
    return bound <= -PASS_THRESHOLD


def _analytic_scale_vector(kind: MeasureKind, n: int, k: int) -> Optional[np.ndarray]:
    if kind.scaling is None:
        return None
    t = kind.scaling
    d = np.diag(t).copy()
    if not np.array_equal(t, np.diag(d)) or np.any(d <= 0):
        raise ValueError("analytic-bounds mode supports only positive diagonal scalings")
    if t.shape[0] == n:
        return lift_diagonal_scaling(d, k)
    if t.shape[0] == comb(n, k):
        return d
    raise ValueError(
        f"scaling dimension {t.shape[0]} matches neither the state ({n}) nor "
        f"the order-{k} compound ({comb(n, k)})"
    )


def worst_case_compound_measure(bounds: EntryBounds, k: int, kind: MeasureKind) -> float:
    """Sound upper bound of sup mu(J^[k]) over all Jacobians inside ``bounds``.

    Degenerate bounds (lo == hi, no interval compound data) evaluate exactly
    for any measure; genuine intervals are restricted to L1/Linf, whose
    worst case is attained entry by entry.
    """
    if k == 0:
        return 0.0
    explicit = bounds.compound is not None and k in bounds.compound
    if bounds.is_constant and not explicit:
        if kind.scaling is None or kind.scaling.shape[0] == comb(bounds.dim, k):
            return compound_measure(bounds.constant_matrix(), k, kind)
        # state-space scaling on a constant matrix: lift to the compound space
        scale = _analytic_scale_vector(kind, bounds.dim, k)
        return compound_measure(bounds.constant_matrix(), k, MeasureKind(kind.p, np.diag(scale)))
    lo, hi = bounds.compound_interval(k)
    if kind.scaling is None and np.array_equal(lo, hi) and np.isfinite(lo).all():
        return matrix_measure(lo, kind)
    if kind.p == "2":
        raise ValueError(
            "the L2 measure is not monotone in entry magnitudes; analytic bounds "
            "support L1/Linf (or degenerate bounds)"
        )
    scale = _analytic_scale_vector(kind, bounds.dim, k)
    return interval_measure_upper(lo, hi, kind.p, scale_diag=scale)


def _candidate_kinds(fixed: Optional[MeasureKind], exact_ok: bool) -> list[MeasureKind]:
    if fixed is not None:
        return [fixed]
    return [L1, L2, LINF] if exact_ok else [L1, LINF]


def _best_condition(index, candidates, evaluate) -> tuple[ConditionRecord, MeasureKind]:
    """First passing measure wins; otherwise report the least-bad attempt."""
    best = None
    for cand in candidates:
        bound = float(evaluate(cand))
        if best is None or bound < best[0]:
            best = (bound, cand)
        if _passes(bound):
            break
    bound, kind = best
    rec = ConditionRecord(index, kind.label(), float(bound), float(-bound), _passes(bound))
    return rec, kind


def _grid_samples(
    domain: Optional[Box], grid_points: int, time_grid
) -> tuple[np.ndarray, np.ndarray]:
    if domain is None or not domain.is_finite:
        raise ValueError("grid sampling needs a finite box domain")
    times = np.atleast_1d(np.asarray(time_grid if time_grid is not None else [0.0], float))
    return domain.grid(grid_points), times


def _columns(times, points) -> tuple[np.ndarray, np.ndarray]:
    """Every (t, x) pair of the times and the points (P, n), time-major, as
    a (T P,) array of times and the states as columns (n, T P)."""
    return np.repeat(times, len(points)), np.tile(points.T, len(times))


def _sampled_measures(jacobians, samples: tuple, dim: int, keys) -> dict:
    """Per-sample compound measures of sampled Jacobians, for grid certificates.

    ``samples`` holds the sample times (S,) and the state arguments as
    columns, (d, S) each, and ``jacobians(t, *x)`` takes them as
    ``jacobian_stack`` does.  Returns, for every (order, kind) in ``keys``,
    the array of mu_kind(J(sample)^[order]) over the samples.  Each sample's
    Jacobian is evaluated once whatever the number of keys; Jacobians are
    stacked at most BATCH_BYTES at a time, one ``jacobians`` call per stack,
    and each key takes one batched closed-form call per stack.
    """
    size = samples[0].size
    out = {key: np.empty(size) for key in keys}
    step = max(1, indexing.BATCH_BYTES // (8 * dim * dim))
    for lo in range(0, size, step):
        stack = np.asarray(jacobians(*(c[..., lo : lo + step] for c in samples)), dtype=np.float64)
        expected = (min(step, size - lo), dim, dim)
        if stack.shape != expected:
            raise ValueError(f"Jacobian stack has shape {stack.shape}, expected {expected}")
        for (order, kind), values in out.items():
            values[lo : lo + step] = compound_measures(stack, order, kind)
    return out


# ---------------------------------------------------------------------------
# Single system (sufficient condition via the compound measure)
# ---------------------------------------------------------------------------


def certify_k_contraction(
    sys: SystemModel,
    k: int,
    kind: Optional[MeasureKind] = None,
    method: str = "analytic",
    grid_points: int = 21,
    time_grid=None,
) -> CertificateReport:
    """Certify k-contraction of a single system.

    ``analytic`` mode proves sup mu(J^[k]) <= -eta from entry bounds; ``grid``
    mode only samples the domain and therefore reports at best an
    inconclusive (sampled) certificate.
    """
    n = sys.state_dim
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if method == "analytic":
        if sys.entry_bounds is None:
            raise ValueError("analytic-bounds certification requires entry bounds")
        exact_ok = sys.entry_bounds.is_constant and not (
            sys.entry_bounds.compound is not None and k in sys.entry_bounds.compound
        )
        cond, _ = _best_condition(
            k,
            _candidate_kinds(kind, exact_ok),
            lambda c: worst_case_compound_measure(sys.entry_bounds, k, c),
        )
        verdict = "pass" if cond.passed else "fail"
        return CertificateReport(
            verdict,
            k,
            [cond],
            "analytic-bounds",
            sys.name,
            rate=cond.margin if cond.passed else None,
        )
    if method != "grid":
        raise ValueError(f"unknown certification method {method!r}")
    points, times = _grid_samples(sys.domain, grid_points, time_grid)
    candidates = _candidate_kinds(kind, True)
    keys = [(k, c) for c in candidates]
    values = _sampled_measures(sys.jacobians, _columns(times, points), n, keys)
    cond, _ = _best_condition(k, candidates, lambda c: values[k, c].max())
    verdict = "inconclusive" if cond.passed else "fail"
    notes = ["sampled (not a proof): bound is the maximum over sampled domain points"]
    return CertificateReport(
        verdict,
        k,
        [cond],
        f"grid-sampling({grid_points})",
        sys.name,
        rate=cond.margin if cond.passed else None,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Series interconnection
# ---------------------------------------------------------------------------


def series_norm_data(
    n: int, m: int, k: int, kinds: Sequence[MeasureKind]
) -> tuple[BlockPermutation, HierarchicNormSpec]:
    """Permutation and hierarchic norm underlying a series certificate."""
    i1, i2 = block_range(k, n, m)
    partition = [comb(n, k - i) * comb(m, i) for i in range(i1, i2 + 1)]
    perm = build_permutation(k, n, m)
    return perm, HierarchicNormSpec(partition, list(kinds), outer="inf")


def _block_norm_upper(mat: np.ndarray, p_from: str, p_to: str) -> float:
    try:
        return induced_norm(mat, p_from, p_to)
    except ValueError:
        # entry-mass bound; valid between any pair of Lp norms
        return float(np.abs(mat).sum())


def _series_epsilon_star(
    model_mag: np.ndarray, n: int, m: int, k: int, kinds, margins
) -> tuple[float, list[str]]:
    """Concrete epsilon for the scaled norm T(eps) = diag(I_n, eps I_m).

    The conjugated compound is the block part plus eps times the compound of
    the coupling-only matrix; eps* = min_i eta_i / (2 ||E^[k]||) with the
    operator norm taken (as an upper bound) in the certificate's hierarchic
    norm at worst-case coupling magnitudes.
    """
    notes = []
    if not np.isfinite(model_mag).all():
        raise ValueError("series coupling block must be uniformly bounded")
    if np.all(model_mag == 0):
        return 1.0, ["coupling block vanishes; any positive scaling realizes the rate"]
    e_hi = np.zeros((n + m, n + m))
    e_hi[n:, :n] = model_mag
    clo, chi = add_compound_interval(-e_hi, e_hi, k)
    mag_comp = np.maximum(np.abs(clo), np.abs(chi))
    perm, spec = series_norm_data(n, m, k, kinds)
    f = perm.conjugate(mag_comp)
    offs = spec.offsets()
    rho = 0.0
    for i, (a, b) in enumerate(offs):
        row = 0.0
        for j, (c, d) in enumerate(offs):
            row += _block_norm_upper(f[a:b, c:d], spec.block_measures[j].p, spec.block_measures[i].p)
        rho = max(rho, row)
    if rho == 0.0:
        return 1.0, notes
    eps = float(min(margins) / (2.0 * rho))
    notes.append(
        f"scaled norm uses T(eps) = diag(I_{n}, eps I_{m}) with eps_star = {eps:.6g}"
    )
    return eps, notes


def certify_series(
    model: SeriesModel,
    k: int,
    per_i_kinds=None,
    method: str = "analytic",
    grid_points: int = 9,
    time_grid=None,
) -> CertificateReport:
    """Certify k-contraction of a series interconnection.

    Checks, for every feasible split i, that the chosen Lp measures satisfy
    mu_i(J11^[k-i]) + mu_i(J22^[i]) <= -eta_i; measures may differ per i and
    are searched (L1, then L2 where exact, then Linf) when not fixed.  On a
    pass the report carries epsilon_star realizing the scaled norm of the
    construction and the certified rate min_i eta_i / 2.
    """
    n, m = model.dim1, model.dim2
    if not 1 <= k <= n + m:
        raise ValueError(f"k must satisfy 1 <= k <= {n + m}, got {k}")
    i1, i2 = block_range(k, n, m)
    idxs = list(range(i1, i2 + 1))
    fixed = _normalize_kinds(per_i_kinds, len(idxs))

    def candidates(pos):
        return _candidate_kinds(fixed[pos] if fixed else None, exact_ok)

    if method == "analytic":
        b1, b2 = model.sub1.entry_bounds, model.sub2_bounds
        if b1 is None or b2 is None:
            raise ValueError("analytic series certification requires entry bounds for both blocks")
        exact_ok = b1.is_constant and b2.is_constant

        def make_eval(i):
            return lambda c: (
                worst_case_compound_measure(b1, k - i, c)
                + worst_case_compound_measure(b2, i, c)
            )

        method_label = "analytic-bounds"
    else:
        if method != "grid":
            raise ValueError(f"unknown certification method {method!r}")
        sub1_domain = model.sub1.domain
        sub2_domain = model.sub2_domain
        if sub1_domain is None or sub2_domain is None:
            raise ValueError("grid series certification requires box domains for both blocks")
        pts1, times = _grid_samples(sub1_domain, grid_points, time_grid)
        pts2, _ = _grid_samples(sub2_domain, grid_points, time_grid)
        exact_ok = True
        pairs = [(i, c) for pos, i in enumerate(idxs) for c in candidates(pos)]
        worst = _series_grid_maxima(model, k, times, pts1, pts2, pairs)

        def make_eval(i):
            return lambda c: worst[i, c]

        method_label = f"grid-sampling({grid_points})"

    conditions = []
    used_kinds = []
    for pos, i in enumerate(idxs):
        cond, kind = _best_condition(i, candidates(pos), make_eval(i))
        conditions.append(cond)
        used_kinds.append(kind)

    all_pass = all(c.passed for c in conditions)
    notes = []
    eps = None
    rate = None
    if all_pass:
        margins = [c.margin for c in conditions]
        eps, eps_notes = _series_epsilon_star(
            model.j21_magnitude_bounds(), n, m, k, used_kinds, margins
        )
        notes.extend(eps_notes)
        rate = min(margins) / 2.0
        notes.append("outer norm of the hierarchic construction defaults to Linf")
        verdict = "pass" if method == "analytic" else "inconclusive"
        if method != "analytic":
            notes.append("sampled (not a proof): bounds are maxima over sampled domain points")
    else:
        verdict = "fail"
        worst = min(conditions, key=lambda c: c.margin)
        notes.append(f"condition violated at i={worst.index} (bound {worst.bound:.6g})")
    return CertificateReport(
        verdict, k, conditions, method_label, model.name, epsilon_star=eps, rate=rate, notes=notes
    )


def _series_grid_maxima(model: SeriesModel, k: int, times, pts1, pts2, conditions) -> dict:
    """max over (t, x1, x2) of mu_c(J11^[k-i]) + mu_c(J22^[i]) per (i, c).

    J11 is sampled once per (t, x1) and J22 once per (t, x1, x2).  The
    product grid is walked a block of (t, x1) rows at a time, so the stacked
    J22 samples stay within BATCH_BYTES.
    """
    row_t, row_x1 = _columns(times, pts1)
    keys1 = {(k - i, c) for i, c in conditions}
    m1 = _sampled_measures(model.sub1.jacobians, (row_t, row_x1), model.dim1, keys1)
    per_row = len(pts2)
    step = max(1, indexing.BATCH_BYTES // (8 * model.dim2 * model.dim2 * per_row))
    worst = dict.fromkeys(conditions, -np.inf)
    j22 = partial(jacobian_stack, model.j22)
    for lo in range(0, row_t.size, step):
        t, x1 = row_t[lo : lo + step], row_x1[:, lo : lo + step]
        block = (np.repeat(t, per_row), np.repeat(x1, per_row, axis=1), np.tile(pts2.T, t.size))
        m2 = _sampled_measures(j22, block, model.dim2, conditions)
        for i, c in conditions:
            total = m1[k - i, c][lo : lo + step, None] + m2[i, c].reshape(-1, per_row)
            worst[i, c] = max(worst[i, c], total.max())
    return worst


def _normalize_kinds(kinds, count: int):
    if kinds is None:
        return None
    if isinstance(kinds, MeasureKind):
        return [kinds] * count
    kinds = list(kinds)
    if len(kinds) != count:
        raise ValueError(f"expected {count} measure kinds, got {len(kinds)}")
    return kinds


def series_conjugated_compound_measure(
    model: SeriesModel, k: int, kinds, eps: float, t: float, x
) -> float:
    """Certified upper bound of the scaled-norm measure of the full compound
    at one sample point: the block upper bound applied to the conjugated
    compound T(eps) J T(eps)^{-1} in block-ordered coordinates."""
    n, m = model.dim1, model.dim2
    x = np.asarray(x, dtype=np.float64).ravel()
    x1, x2 = model.split(x)
    j = np.zeros((n + m, n + m))
    j[:n, :n] = model.sub1.jacobian(t, x1)
    j[n:, :n] = eps * model.j21(t, x1, x2)
    j[n:, n:] = model.j22(t, x1, x2)
    comp = add_compound(j, k).data
    i1, i2 = block_range(k, n, m)
    kinds = _normalize_kinds(kinds, i2 - i1 + 1)
    perm, spec = series_norm_data(n, m, k, kinds)
    return hierarchic_measure_bounds(perm.conjugate(comp), spec)[1]


# ---------------------------------------------------------------------------
# Skew-symmetric feedback
# ---------------------------------------------------------------------------

_DEFAULT_PROBE = (0.0, 0.37, -0.61, 0.5, -0.25, 0.73)


def _probe_points(domain: Optional[Box], dim: int, grid_points: int) -> list[np.ndarray]:
    if domain is not None and domain.is_finite:
        return list(domain.grid(min(grid_points, 3), refine_midpoints=False))
    base = np.array(_DEFAULT_PROBE)
    points = [np.zeros(dim)] + [np.full(dim, v) for v in base[1:]] + [np.resize(base, dim)]
    if domain is not None:
        points = [np.clip(p, domain.lo, domain.hi) for p in points]
    return points


def certify_skew_feedback(
    pair: FeedbackModel,
    k: int,
    c: float,
    method: str = "analytic",
    grid_points: int = 5,
    time_grid=None,
    coupling_tol: float = 1e-9,
) -> CertificateReport:
    """Certify k-contraction of a feedback interconnection with
    J21 = -c J12^T (verified on sampled points first); measures are fixed
    to L2, under which the skew coupling cancels in the symmetric part."""
    if c <= 0:
        raise ValueError("the skew gain c must be positive")
    n, m = pair.dim1, pair.dim2
    if not 1 <= k <= n + m:
        raise ValueError(f"k must satisfy 1 <= k <= {n + m}, got {k}")
    times = np.atleast_1d(np.asarray(time_grid if time_grid is not None else [0.0], float))
    probes = _probe_points(pair.domain, n + m, grid_points)
    worst_dev = 0.0
    scale = 1.0
    for t in times:
        for x in probes:
            j12 = pair.j12(t, x)
            j21 = pair.j21(t, x)
            dev = float(np.abs(j21 + c * j12.T).max(initial=0.0))
            scale = max(scale, float(np.abs(j21).max(initial=0.0)))
            worst_dev = max(worst_dev, dev)
    if worst_dev > coupling_tol * scale:
        raise ValueError(
            f"skew coupling identity J21 = -c J12^T violated: max deviation "
            f"{worst_dev:.3e} at gain c = {c:g}"
        )
    i1, i2 = block_range(k, n, m)
    idxs = list(range(i1, i2 + 1))
    if method == "analytic":
        b1, b2 = pair.bounds1, pair.bounds2
        if b1 is None or b2 is None:
            raise ValueError("analytic skew certification requires entry bounds for both blocks")

        def make_eval(i):
            return lambda _: (
                worst_case_compound_measure(b1, k - i, L2)
                + worst_case_compound_measure(b2, i, L2)
            )

        method_label = "analytic-bounds"
    elif method == "grid":
        points, times = _grid_samples(pair.domain, grid_points, time_grid)
        samples = _columns(times, points)
        j11, j22 = partial(jacobian_stack, pair.j11), partial(jacobian_stack, pair.j22)
        m1 = _sampled_measures(j11, samples, n, [(k - i, L2) for i in idxs])
        m2 = _sampled_measures(j22, samples, m, [(i, L2) for i in idxs])

        def make_eval(i):
            return lambda _: (m1[k - i, L2] + m2[i, L2]).max()

        method_label = f"grid-sampling({grid_points})"
    else:
        raise ValueError(f"unknown certification method {method!r}")

    conditions = []
    for i in idxs:
        cond, _ = _best_condition(i, [L2], make_eval(i))
        conditions.append(cond)
    all_pass = all(cnd.passed for cnd in conditions)
    notes = [f"skew coupling verified on {len(probes)} sample points (c = {c:g})"]
    if method != "analytic" and all_pass:
        notes.append("sampled (not a proof)")
        verdict = "inconclusive"
    else:
        verdict = "pass" if all_pass else "fail"
    rate = min(cnd.margin for cnd in conditions) if all_pass else None
    return CertificateReport(verdict, k, conditions, method_label, pair.name, rate=rate, notes=notes)


# ---------------------------------------------------------------------------
# Exponentially decaying input
# ---------------------------------------------------------------------------


def certify_exp_input(
    sys: SystemModel,
    g_jacobian_bound: float,
    alpha: float,
    k: int,
    kinds=None,
    method: str = "analytic",
    grid_points: int = 21,
    time_grid=None,
) -> CertificateReport:
    """Certify k-contraction of dx = f(x) + g(u) driven by u(t) = exp(alpha t),
    through the time-invariant augmentation with the scalar exponential state.

    The two conditions are mu(Jf^[k]) <= -eta and mu(Jf^[k-1]) + alpha <= -eta
    (indices i = k and i = k-1 of the series split, the driver being scalar).
    ``kinds`` may be a pair (kind for the k-condition, kind for the k-1
    condition); the per-condition search applies otherwise.
    """
    n = sys.state_dim
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if not np.isfinite(g_jacobian_bound) or g_jacobian_bound < 0:
        raise ValueError("g_jacobian_bound must be a finite nonnegative number")
    if kinds is not None:
        kind_k, kind_km1 = kinds if not isinstance(kinds, MeasureKind) else (kinds, kinds)
    else:
        kind_k = kind_km1 = None

    if method == "analytic":
        b2 = sys.entry_bounds
        if b2 is None:
            raise ValueError("analytic-bounds certification requires entry bounds")
        exact_ok = b2.is_constant and b2.compound is None

        def eval_k(c):
            return worst_case_compound_measure(b2, k, c)

        def eval_km1(c):
            return worst_case_compound_measure(b2, k - 1, c) + alpha

        method_label = "analytic-bounds"
    elif method == "grid":
        points, times = _grid_samples(sys.domain, grid_points, time_grid)
        exact_ok = True
        keys = [(k, c) for c in _candidate_kinds(kind_k, exact_ok)]
        keys += [(k - 1, c) for c in _candidate_kinds(kind_km1, exact_ok)]
        values = _sampled_measures(sys.jacobians, _columns(times, points), n, keys)

        def eval_k(c):
            return values[k, c].max()

        def eval_km1(c):
            return alpha + values[k - 1, c].max()

        method_label = f"grid-sampling({grid_points})"
    else:
        raise ValueError(f"unknown certification method {method!r}")

    cond_k, used_k = _best_condition(k, _candidate_kinds(kind_k, exact_ok), eval_k)
    cond_km1, used_km1 = _best_condition(k - 1, _candidate_kinds(kind_km1, exact_ok), eval_km1)
    conditions = [cond_km1, cond_k]
    all_pass = cond_k.passed and cond_km1.passed
    notes = [
        f"i={k}: open-loop condition on the {k}-compound; "
        f"i={k - 1}: {k - 1}-compound plus input rate alpha = {alpha:g}",
        f"driver coupling |dg/du| bounded by {g_jacobian_bound:g}",
    ]
    eps = None
    rate = None
    if all_pass:
        margins = [cond_km1.margin, cond_k.margin]
        mag = np.full((n, 1), float(g_jacobian_bound))
        eps, eps_notes = _series_epsilon_star(mag, 1, n, k, [used_km1, used_k], margins)
        notes.extend(eps_notes)
        rate = min(margins) / 2.0
        if k == 2:
            notes.append(
                "k = 2: every bounded trajectory of the closed loop converges to "
                "the set of equilibria of the augmented time-invariant system"
            )
        verdict = "pass" if method == "analytic" else "inconclusive"
        if method != "analytic":
            notes.append("sampled (not a proof)")
    else:
        verdict = "fail"
    return CertificateReport(
        verdict, k, conditions, method_label, sys.name, epsilon_star=eps, rate=rate, notes=notes
    )
