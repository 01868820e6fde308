"""k-contraction certificates.

Every certifier states its diagonal blocks, and one core, ``_certify``,
evaluates their split conditions: for each split index i, the measures of
compounds of the blocks must sum to at most -eta_i.

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
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .compounds import add_compound, lift_diagonal_scaling
from .indexing import BlockPermutation, batches, block_range, build_permutation, check_dense_guard
from .measures import (
    L1,
    L2,
    LINF,
    HierarchicNormSpec,
    MeasureKind,
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
    """Condition ``index`` holds with ``bound`` under ``kind``, the measure
    that won its search; its label, margin and verdict follow from them."""

    index: int
    kind: MeasureKind
    bound: float

    @property
    def measure(self) -> str:
        return self.kind.label()

    @property
    def margin(self) -> float:
        return -self.bound

    @property
    def passed(self) -> bool:
        return self.bound <= -PASS_THRESHOLD


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

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "verdict": self.verdict,
            "k": self.k,
            "method": self.method,
            "rate": self.rate,
            "epsilon_star": self.epsilon_star,
            "conditions": [
                dict(i=c.index, measure=c.measure, bound=c.bound, margin=c.margin, passed=c.passed)
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
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def _kind_at_order(kind: MeasureKind, n: int, k: int) -> MeasureKind:
    """``kind`` read at compound order k of an n-state system: unchanged when
    plain or at k = 1; an n x n scaling at k >= 2 is a state scaling, which
    must be diagonal and is lifted by ``lift_diagonal_scaling`` (which refuses
    a non-positive one); a C(n, k)-square one belongs to the compound space;
    other sizes are refused."""
    t = kind.scaling
    if t is None:
        return kind
    if t.shape[0] == n and k > 1:
        if not np.array_equal(t, np.diag(np.diag(t))):
            raise ValueError(f"a state scaling read at order {k} must be diagonal")
        return MeasureKind(kind.p, np.diag(lift_diagonal_scaling(np.diag(t), k)))
    if t.shape[0] == comb(n, k):
        return kind
    raise ValueError(
        f"scaling dimension {t.shape[0]} matches neither the state ({n}) nor "
        f"the order-{k} compound ({comb(n, k)})"
    )


def _broadcast_kinds(kinds, count: int) -> list[MeasureKind]:
    if isinstance(kinds, MeasureKind):
        return [kinds] * count
    kinds = list(kinds)
    if len(kinds) != count:
        raise ValueError(f"expected {count} measure kinds, got {len(kinds)}")
    return kinds


def _exact(bounds: EntryBounds, k: int) -> bool:
    """True when ``bounds`` give mu(J^[k]) exactly, for any measure: k = 0,
    or constant bounds with no compound-level bounds for order k."""
    return k == 0 or (bounds.is_constant and k not in (bounds.compound or {}))


def worst_case_compound_measure(bounds: EntryBounds, k: int, kind: MeasureKind) -> float:
    """Sound upper bound of sup mu(J^[k]) over all Jacobians inside ``bounds``.

    A scaled ``kind`` is read at order k (``_kind_at_order``): an n x n
    scaling at k >= 2 is a positive diagonal state scaling, lifted to the
    compound space, and a C(n, k)-square one is used as given.  Degenerate
    bounds (lo == hi, no interval compound data) evaluate exactly for any
    measure; genuine intervals take L1/Linf and diagonal scalings only.
    """
    if k == 0:
        return 0.0
    kind = _kind_at_order(kind, bounds.dim, k)
    if _exact(bounds, k):
        return compound_measure(bounds.lo, k, kind)
    lo, hi = bounds.compound_interval(k)
    if kind.scaling is None and np.array_equal(lo, hi) and np.isfinite(lo).all():
        return matrix_measure(lo, kind)
    if kind.p == "2":
        raise ValueError(
            "the L2 measure is not monotone in entry magnitudes; analytic bounds "
            "support L1/Linf (or degenerate bounds)"
        )
    scale = None if kind.scaling is None else np.diag(kind.scaling)
    if scale is not None and not np.array_equal(kind.scaling, np.diag(scale)):
        raise ValueError("interval bounds take only diagonal scalings")
    return interval_measure_upper(lo, hi, kind.p, scale_diag=scale)


def _candidate_kinds(fixed: Optional[MeasureKind], exact_ok: bool) -> list[MeasureKind]:
    if fixed is not None:
        return [fixed]
    return [L1, L2, LINF] if exact_ok else [L1, LINF]


def _best_condition(index, candidates, evaluate) -> ConditionRecord:
    """First passing measure wins; otherwise report the least-bad attempt."""
    tried = []
    for kind in candidates:
        tried.append(ConditionRecord(index, kind, float(evaluate(kind))))
        if tried[-1].passed:
            break
    return min(tried, key=lambda rec: rec.bound)


def _grid_samples(
    domain: Optional[Box], grid_points: int, time_grid
) -> tuple[np.ndarray, np.ndarray]:
    """The domain's grid (P, n) and the sample times (T,).  A missing box
    (``Box.grid`` refuses an infinite one), an empty time grid, and rows
    (T P times, n T P states) that would exceed MAX_DENSE_BYTES, are
    refused before they are built."""
    if domain is None:
        raise ValueError("grid sampling requires a finite box domain; none is declared")
    times = np.atleast_1d(np.asarray(time_grid if time_grid is not None else [0.0], float))
    if times.size == 0:
        raise ValueError("time_grid is empty; grid sampling needs at least one sample time")
    points = domain.grid(grid_points)
    check_dense_guard(times.size * (points.size + len(points)), "grid sample set")
    return points, times


class _Block(NamedTuple):
    """One diagonal block of a certificate: its entry bounds (analytic mode),
    its dimension, and ``jacobians(t, *cols)``, its Jacobians at sampled
    columns in ``jacobian_stack`` form (grid mode)."""

    bounds: Optional[EntryBounds]
    dim: int
    jacobians: Callable


def _grid_maxima(blocks, domains, grid_points: int, time_grid, pairs: dict) -> dict:
    """The sampled maximum of sum_b mu_c(J_b^[o_b]) for every (i, c) in
    ``pairs``, which maps it to the orders o_b, one per block.

    Every box is checked by ``_grid_samples`` before any Jacobian is sampled.
    The rows are the times x the first box's grid, time-major.  A second
    box's grid is crossed with every row and read only by the last block,
    as J22(t, x1, x2); every other block is sampled once per row.  The rows
    are walked BATCH_BYTES of Jacobians, their measures and crossed columns
    at a time: each sample's Jacobian is evaluated once, each stack's shape
    checked once, and each (order, kind) of a block keeps one measure a
    sample from one ``compound_measures`` call per stack, the kind read at
    that order by ``_kind_at_order``.
    """
    grids = [_grid_samples(box, grid_points, time_grid) for box in domains]
    (points, times), tail = grids[0], grids[1][0] if len(grids) == 2 else None
    reps = 1 if tail is None else len(tail)
    kinds = [
        {(o[b], c): _kind_at_order(c, block.dim, o[b]) for (_, c), o in pairs.items()}
        for b, block in enumerate(blocks)
    ]
    row_t, row_x = np.repeat(times, len(points)), np.tile(points.T, len(times))
    cross = 0 if tail is None else 1 + points.shape[1] + tail.shape[1]  # J22's (t, x1, x2)
    sample = [b.dim**2 + len(keys) for b, keys in zip(blocks, kinds)]  # a Jacobian, its measures
    width = sum(sample[:-1]) + (sample[-1] + cross) * reps  # floats
    worst = dict.fromkeys(pairs, -np.inf)
    for part in batches(row_t.size, width):
        t, x = row_t[part], row_x[:, part]
        cols = [(t, x)] * len(blocks)
        if tail is not None:
            cols[-1] = (np.repeat(t, reps), np.repeat(x, reps, axis=1), np.tile(tail.T, t.size))
        measures = []
        for block, args, keys in zip(blocks, cols, kinds):
            stack = np.asarray(block.jacobians(*args), dtype=np.float64)
            expected = (args[0].size, block.dim, block.dim)
            if stack.shape != expected:
                raise ValueError(f"Jacobian stack has shape {stack.shape}, expected {expected}")
            measures.append({key: compound_measures(stack, key[0], c) for key, c in keys.items()})
        for (i, c), o in pairs.items():
            terms = [m[order, c].reshape(t.size, -1) for m, order in zip(measures, o)]
            worst[i, c] = max(worst[i, c], sum(terms[1:], terms[0]).max())
    return worst


# ---------------------------------------------------------------------------
# The evaluation core
# ---------------------------------------------------------------------------


def _certify(
    name: str,
    k: int,
    method: str,
    grid_points: int,
    time_grid,
    kinds,
    blocks: tuple,
    domains: tuple,
    coupling: Optional[np.ndarray] = None,
    notes: Sequence[str] = (),
) -> CertificateReport:
    """Evaluate the split conditions of the diagonal ``blocks`` (``_Block``)
    of one certificate.

    An order k outside 1..(the sum of the block dimensions) is refused.
    One block has the one condition i = k, bounding mu(J^[k]); two blocks
    of dimensions n and m have i in ``block_range(k, n, m)``, condition i
    bounding mu(J1^[k-i]) + mu(J2^[i]).  A condition passes at a bound of
    -eta_i.  ``analytic`` mode bounds each term from the blocks' entry
    bounds; ``grid`` mode takes the maximum over the samples of the
    ``domains`` (one box, or one per block) and ``time_grid``
    (``_grid_maxima``).  ``kinds`` is None, one kind, or one kind per index;
    an index without a fixed kind searches L1, L2, Linf, where L2 is tried
    only when every term of order >= 1 is evaluated exactly (``_exact``).
    With two blocks every fixed kind must be plain, since the hierarchic
    norm measures each block in a plain Lp norm.  ``coupling``, the m x n
    matrix bounding a series coupling block |J21| entry by entry, makes a
    pass report epsilon_star and the rate min_i eta_i / 2, and otherwise the
    rate is min_i eta_i.  The notes are ``notes``, then on such a pass
    those of epsilon_star and the outer norm, then in grid mode the sampled
    note.
    """
    dim = sum(b.dim for b in blocks)
    if not 1 <= k <= dim:
        raise ValueError(f"k must satisfy 1 <= k <= {dim}, got {k}")
    if method not in ("analytic", "grid"):
        raise ValueError(f"unknown certification method {method!r}")
    analytic = method == "analytic"
    bounds = [b.bounds for b in blocks]
    if analytic and any(b is None for b in bounds):
        raise ValueError("analytic-bounds certification requires entry bounds")
    if len(blocks) == 1:
        orders = {k: (k,)}
    else:
        i1, i2 = block_range(k, blocks[0].dim, blocks[1].dim)
        orders = {i: (k - i, i) for i in range(i1, i2 + 1)}
    fixed = [None] * len(orders) if kinds is None else _broadcast_kinds(kinds, len(orders))
    if len(blocks) == 2 and any(kind is not None and kind.scaling is not None for kind in fixed):
        raise ValueError("split certificates take plain Lp measures; scaled kinds are refused")
    candidates = {
        i: _candidate_kinds(kind, not analytic or all(map(_exact, bounds, orders[i])))
        for i, kind in zip(orders, fixed)
    }
    if analytic:

        def bound(i, kind):
            values = [worst_case_compound_measure(b, o, kind) for b, o in zip(bounds, orders[i])]
            return sum(values[1:], values[0])

        label = "analytic-bounds"
    else:
        pairs = {(i, c): orders[i] for i in orders for c in candidates[i]}
        worst = _grid_maxima(blocks, domains, grid_points, time_grid, pairs)

        def bound(i, kind):
            return worst[i, kind]

        label = f"grid-sampling({grid_points})"

    conditions = [_best_condition(i, candidates[i], partial(bound, i)) for i in orders]
    passed = all(c.passed for c in conditions)
    notes = list(notes)
    eps = rate = None
    if passed:
        rate = min(c.margin for c in conditions)
    if passed and coupling is not None:
        eps, eps_notes = _series_epsilon_star(coupling, k, conditions)
        notes.extend(eps_notes)
        notes.append("outer norm of the hierarchic construction defaults to Linf")
        rate /= 2.0
    if not analytic:
        notes.append("sampled (not a proof): bound is the maximum over sampled domain points")
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
    inconclusive (sampled) certificate.  Both modes read a scaled ``kind``
    alike: an n x n scaling at k >= 2 is a positive diagonal state scaling,
    lifted to the compound space, and a C(n, k)-square one is used as given.
    """
    block = _Block(sys.entry_bounds, sys.state_dim, sys.jacobians)
    return _certify(sys.name, k, method, grid_points, time_grid, kind, (block,), (sys.domain,))


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
    return perm, HierarchicNormSpec(partition, list(kinds))


def _series_epsilon_star(model_mag: np.ndarray, k: int, conditions) -> tuple[float, list[str]]:
    """Concrete epsilon for the scaled norm T(eps) = diag(I_n, eps I_m).

    The conjugated compound is the block part plus eps times the compound of
    the coupling-only matrix; eps* = min_i eta_i / (2 ||E^[k]||) with the
    operator norm taken (as an upper bound) in the certificate's hierarchic
    norm at worst-case coupling magnitudes.  Each off-diagonal entry of E^[k]
    is a signed entry of E and its diagonal is 0, so |E^[k]| at E = the
    magnitude bounds dominates the compound of every admissible coupling.
    """
    notes = []
    m, n = model_mag.shape
    if np.all(model_mag == 0):
        return 1.0, ["coupling block vanishes; any positive scaling realizes the rate"]
    e = np.zeros((n + m, n + m))
    e[n:, :n] = model_mag
    perm, spec = series_norm_data(n, m, k, [c.kind for c in conditions])
    rho = hierarchic_operator_norm_upper(perm.conjugate(np.abs(add_compound(e, k).data)), spec)
    if rho == 0.0:
        return 1.0, notes
    eps = float(min(c.margin for c in conditions) / (2.0 * rho))
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
    blocks = (
        _Block(model.sub1.entry_bounds, model.dim1, model.sub1.jacobians),
        _Block(model.sub2_bounds, model.dim2, partial(jacobian_stack, model.j22)),
    )
    domains = (model.sub1.domain, model.sub2_domain)
    return _certify(
        model.name, k, method, grid_points, time_grid, per_i_kinds, blocks, domains, model.j21_mag
    )


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
    blocks = (
        _Block(pair.bounds1, pair.dim1, partial(jacobian_stack, pair.j11)),
        _Block(pair.bounds2, pair.dim2, partial(jacobian_stack, pair.j22)),
    )
    note = f"skew coupling J21 = -c J12^T holds by construction (c = {pair.c:g})"
    return _certify(
        pair.name, k, method, grid_points, time_grid, L2, blocks, (pair.domain,), notes=[note]
    )


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
    1-dim block with the constant Jacobian alpha).  ``kinds`` may be a pair
    (kind for the k-condition, kind for the k-1 condition); the
    per-condition search applies otherwise.
    """
    n = sys.state_dim
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if not np.isfinite(g_jacobian_bound) or g_jacobian_bound < 0:
        raise ValueError("g_jacobian_bound must be a finite nonnegative number")

    driver = _Block(
        EntryBounds([[alpha]], [[alpha]]), 1, lambda t, x: np.full((t.size, 1, 1), alpha)
    )
    rep = _certify(
        sys.name,
        k,
        method,
        grid_points,
        time_grid,
        None if kinds is None else _broadcast_kinds(kinds, 2)[::-1],
        (driver, _Block(sys.entry_bounds, n, sys.jacobians)),
        (sys.domain,),
        coupling=np.full((n, 1), float(g_jacobian_bound)),
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
    return rep
