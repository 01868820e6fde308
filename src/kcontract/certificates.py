"""k-contraction certificates.

Every certifier states split conditions, and one core, ``_certify``,
evaluates them: for each split index i, the measures of compounds of the
diagonal blocks must sum to at most -eta_i.

* a single system is k-contracting when the measure of the k-th additive
  compound of its Jacobian is uniformly negative over the domain;
* a series interconnection needs the per-order conditions
  mu_i(J11^[k-i]) + mu_i(J22^[i]) <= -eta_i for every feasible split i,
  and on success a concrete scaling epsilon* realizing the proof's scaled
  norm is reported together with the certified rate min_i eta_i / 2;
* skew-symmetric feedback reduces to the same split conditions under the
  L2 measure, since a ``FeedbackModel`` derives J21 = -c J12^T from J12 and
  so satisfies the coupling identity by construction;
* an exponentially decaying input is the same split with a scalar driver
  block, the constant input rate alpha.

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
from .compounds import add_compound, lift_diagonal_scaling
from .indexing import BlockPermutation, block_range, build_permutation
from .measures import (
    L1,
    L2,
    LINF,
    HierarchicNormSpec,
    MeasureKind,
    _broadcast_kinds,
    compound_measure,
    compound_measures,
    hierarchic_measure_bounds,
    hierarchic_operator_norm_upper,
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


def _exact(bounds: EntryBounds, k: int) -> bool:
    """True when ``bounds`` give mu(J^[k]) exactly, for any measure: k = 0,
    or constant bounds with no compound-level bounds for order k."""
    return k == 0 or (bounds.is_constant and k not in (bounds.compound or {}))


def worst_case_compound_measure(bounds: EntryBounds, k: int, kind: MeasureKind) -> float:
    """Sound upper bound of sup mu(J^[k]) over all Jacobians inside ``bounds``.

    Degenerate bounds (lo == hi, no interval compound data) evaluate exactly
    for any measure; genuine intervals are restricted to L1/Linf, whose
    worst case is attained entry by entry.
    """
    if k == 0:
        return 0.0
    if _exact(bounds, k):
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
# The evaluation core
# ---------------------------------------------------------------------------


def _certify(
    name: str,
    k: int,
    method: str,
    grid_points: int,
    indices: Sequence[int],
    kinds,
    blocks: tuple,
    sample,
    coupling: Optional[tuple] = None,
    notes: Sequence[str] = (),
) -> CertificateReport:
    """Evaluate the split conditions of one certificate.

    Condition i bounds mu(J^[i]) for one block and mu(J1^[k-i]) + mu(J2^[i])
    for two, and passes at a bound of -eta_i.  ``analytic`` mode bounds
    each term from the ``blocks``' entry bounds; ``grid`` mode calls
    ``sample(pairs)``, which returns the sampled maximum of every
    (i, kind) pair.  ``kinds`` is None, one kind, or one kind per index; an
    index without a fixed kind searches L1, L2, Linf, where L2 is tried only
    when every term of order >= 1 is evaluated exactly (``_exact``).  With
    two blocks every fixed kind must be plain, since the hierarchic norm
    measures each block in a plain Lp norm.  ``coupling`` = (magnitudes, n,
    m) of a series coupling block: a pass then reports epsilon_star and the
    rate min_i eta_i / 2, and otherwise the rate min_i eta_i.  The notes are
    ``notes`` and then those of epsilon_star.
    """
    if method not in ("analytic", "grid"):
        raise ValueError(f"unknown certification method {method!r}")
    analytic = method == "analytic"
    if analytic and any(b is None for b in blocks):
        raise ValueError("analytic-bounds certification requires entry bounds")

    def terms(i):
        return zip(blocks, (i,) if len(blocks) == 1 else (k - i, i))

    fixed = [None] * len(indices) if kinds is None else _broadcast_kinds(kinds, len(indices))
    if len(blocks) == 2 and any(kind is not None and kind.scaling is not None for kind in fixed):
        raise ValueError("split certificates take plain Lp measures; scaled kinds are refused")
    candidates = {
        i: _candidate_kinds(kind, not analytic or all(_exact(b, order) for b, order in terms(i)))
        for i, kind in zip(indices, fixed)
    }
    if analytic:

        def bound(i, kind):
            values = [worst_case_compound_measure(b, order, kind) for b, order in terms(i)]
            return sum(values[1:], values[0])

        label = "analytic-bounds"
    else:
        worst = sample([(i, c) for i in indices for c in candidates[i]])

        def bound(i, kind):
            return worst[i, kind]

        label = f"grid-sampling({grid_points})"

    conditions, used = [], []
    for i in indices:
        cond, kind = _best_condition(i, candidates[i], partial(bound, i))
        conditions.append(cond)
        used.append(kind)
    margins = [c.margin for c in conditions]
    passed = all(c.passed for c in conditions)
    notes = list(notes)
    eps = rate = None
    if passed and coupling is None:
        rate = min(margins)
    elif passed:
        eps, eps_notes = _series_epsilon_star(*coupling, k, used, margins)
        notes.extend(eps_notes)
        rate = min(margins) / 2.0
    verdict = ("pass" if analytic else "inconclusive") if passed else "fail"
    return CertificateReport(
        verdict, k, conditions, label, name, epsilon_star=eps, rate=rate, notes=notes
    )


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

    def sample(pairs):
        points, times = _grid_samples(sys.domain, grid_points, time_grid)
        values = _sampled_measures(sys.jacobians, _columns(times, points), n, pairs)
        return {key: v.max() for key, v in values.items()}

    rep = _certify(sys.name, k, method, grid_points, [k], kind, (sys.entry_bounds,), sample)
    if method == "grid":
        rep.notes.append("sampled (not a proof): bound is the maximum over sampled domain points")
    return rep


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


def _series_epsilon_star(
    model_mag: np.ndarray, n: int, m: int, k: int, kinds, margins
) -> tuple[float, list[str]]:
    """Concrete epsilon for the scaled norm T(eps) = diag(I_n, eps I_m).

    The conjugated compound is the block part plus eps times the compound of
    the coupling-only matrix; eps* = min_i eta_i / (2 ||E^[k]||) with the
    operator norm taken (as an upper bound) in the certificate's hierarchic
    norm at worst-case coupling magnitudes.  Each off-diagonal entry of E^[k]
    is a signed entry of E and its diagonal is 0, so |E^[k]| at E = the
    magnitude bounds dominates the compound of every admissible coupling.
    """
    notes = []
    if not np.isfinite(model_mag).all():
        raise ValueError("series coupling block must be uniformly bounded")
    if np.all(model_mag == 0):
        return 1.0, ["coupling block vanishes; any positive scaling realizes the rate"]
    e = np.zeros((n + m, n + m))
    e[n:, :n] = model_mag
    perm, spec = series_norm_data(n, m, k, kinds)
    rho = hierarchic_operator_norm_upper(perm.conjugate(np.abs(add_compound(e, k).data)), spec)
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

    def sample(pairs):
        if model.sub1.domain is None or model.sub2_domain is None:
            raise ValueError("grid series certification requires box domains for both blocks")
        pts1, times = _grid_samples(model.sub1.domain, grid_points, time_grid)
        pts2, _ = _grid_samples(model.sub2_domain, grid_points, time_grid)
        return _series_grid_maxima(model, k, times, pts1, pts2, pairs)

    rep = _certify(
        model.name,
        k,
        method,
        grid_points,
        range(i1, i2 + 1),
        per_i_kinds,
        (model.sub1.entry_bounds, model.sub2_bounds),
        sample,
        coupling=(model.j21_magnitude_bounds(), n, m),
    )
    if rep.verdict == "fail":
        worst = min(rep.conditions, key=lambda c: c.margin)
        rep.notes.append(f"condition violated at i={worst.index} (bound {worst.bound:.6g})")
        return rep
    rep.notes.append("outer norm of the hierarchic construction defaults to Linf")
    if rep.verdict == "inconclusive":
        rep.notes.append("sampled (not a proof): bounds are maxima over sampled domain points")
    return rep


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


def series_conjugated_compound_measure(
    model: SeriesModel, k: int, kinds, eps: float, t: float, x
) -> float:
    """Certified upper bound of the scaled-norm measure of the full compound
    at one sample point: the block upper bound applied to the conjugated
    compound T(eps) J T(eps)^{-1} in block-ordered coordinates."""
    n, m = model.dim1, model.dim2
    j = model.jacobian_full(t, np.asarray(x, dtype=np.float64).ravel())
    j[n:, :n] *= eps
    comp = add_compound(j, k).data
    i1, i2 = block_range(k, n, m)
    kinds = _broadcast_kinds(kinds, i2 - i1 + 1)
    perm, spec = series_norm_data(n, m, k, kinds)
    return hierarchic_measure_bounds(perm.conjugate(comp), spec)[1]


# ---------------------------------------------------------------------------
# Skew-symmetric feedback
# ---------------------------------------------------------------------------


def certify_skew_feedback(
    pair: FeedbackModel,
    k: int,
    method: str = "analytic",
    grid_points: int = 5,
    time_grid=None,
) -> CertificateReport:
    """Certify k-contraction of a feedback interconnection with
    J21 = -c J12^T, which ``FeedbackModel`` holds by construction; measures
    are fixed to L2, under which the skew coupling cancels in the symmetric
    part."""
    n, m = pair.dim1, pair.dim2
    if not 1 <= k <= n + m:
        raise ValueError(f"k must satisfy 1 <= k <= {n + m}, got {k}")
    i1, i2 = block_range(k, n, m)

    def sample(pairs):
        points, times = _grid_samples(pair.domain, grid_points, time_grid)
        samples = _columns(times, points)
        j11, j22 = partial(jacobian_stack, pair.j11), partial(jacobian_stack, pair.j22)
        m1 = _sampled_measures(j11, samples, n, [(k - i, c) for i, c in pairs])
        m2 = _sampled_measures(j22, samples, m, pairs)
        return {(i, c): (m1[k - i, c] + m2[i, c]).max() for i, c in pairs}

    rep = _certify(
        pair.name,
        k,
        method,
        grid_points,
        range(i1, i2 + 1),
        L2,
        (pair.bounds1, pair.bounds2),
        sample,
        notes=[f"skew coupling J21 = -c J12^T holds by construction (c = {pair.c:g})"],
    )
    if rep.verdict == "inconclusive":
        rep.notes.append("sampled (not a proof)")
    return rep


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
    (indices i = k and i = k-1 of the series split, the driver being the
    scalar block alpha).  ``kinds`` may be a pair (kind for the k-condition,
    kind for the k-1 condition); the per-condition search applies otherwise.
    """
    n = sys.state_dim
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if not np.isfinite(g_jacobian_bound) or g_jacobian_bound < 0:
        raise ValueError("g_jacobian_bound must be a finite nonnegative number")

    def sample(pairs):
        points, times = _grid_samples(sys.domain, grid_points, time_grid)
        values = _sampled_measures(sys.jacobians, _columns(times, points), n, pairs)
        return {(i, c): v.max() + alpha if i < k else v.max() for (i, c), v in values.items()}

    rep = _certify(
        sys.name,
        k,
        method,
        grid_points,
        (k - 1, k),
        None if kinds is None else _broadcast_kinds(kinds, 2)[::-1],
        (EntryBounds([[alpha]], [[alpha]]), sys.entry_bounds),
        sample,
        coupling=(np.full((n, 1), float(g_jacobian_bound)), 1, n),
        notes=[
            f"i={k}: open-loop condition on the {k}-compound; "
            f"i={k - 1}: {k - 1}-compound plus input rate alpha = {alpha:g}",
            f"driver coupling |dg/du| bounded by {g_jacobian_bound:g}",
        ],
    )
    if rep.verdict != "fail" and k == 2:
        rep.notes.append(
            "k = 2: every bounded trajectory of the closed loop converges to "
            "the set of equilibria of the augmented time-invariant system"
        )
    if rep.verdict == "inconclusive":
        rep.notes.append("sampled (not a proof)")
    return rep
