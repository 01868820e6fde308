"""ODE integration, variational and compound flows, and parallelotope volumes.

The integrator is an adaptive Dormand-Prince 5(4) pair (default tolerances
1e-10) sampled exactly at the requested output times.  ``integrate_many``
moves many starts in lockstep, each with its own step size and step
control, and calls the vector field once per stage for all of them with the
states as columns (see ``systems``); every start gets bitwise the result of
its own ``integrate`` run.

Variational and compound flows use a fixed-step RK4, so that repeated runs
are bit-for-bit reproducible.  The state is stepped alone; the stage
Jacobians along it are then evaluated in one stacked call, and the flows
advance by the exact RK4 step matrices of the linear systems y' = J(t) y and
y' = J(t)^[k] y, built for all steps at once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import ceil, comb, sqrt
from typing import Callable, Optional, Sequence

import numpy as np

from . import indexing
from ._kernels import minor_dets, rk4_fixed, rk45_solve
from .compounds import mult_compound
from .indexing import check_dense_guard, check_dimension_guard, compound_index
from .systems import SystemModel


class IntegrationError(RuntimeError):
    """Adaptive stepping failed (step-size underflow)."""


@dataclass
class TrajectoryRecord:
    """Sampled solution, optionally with fundamental/compound flows and volumes."""

    times: np.ndarray
    states: np.ndarray
    flow: Optional[np.ndarray] = None  # (n_out, n, n) fundamental matrices
    compound_flow: Optional[np.ndarray] = None  # (n_out, r, r)
    volumes: Optional[np.ndarray] = None
    system: str = ""

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.states.shape[0] != self.times.size:
            raise ValueError("states and times length mismatch")

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def integrate(
    sys: SystemModel,
    x0,
    t_span,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    n_out: int = 1001,
    t_eval=None,
    max_step: float = np.inf,
) -> TrajectoryRecord:
    """Integrate the system from one start over ``t_span`` and sample at
    ``t_eval``: ``integrate_many`` with a single start.

    Escaping a declared invariant box triggers a warning, not a failure;
    a step-size underflow raises ``IntegrationError``.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    (rec,) = integrate_many(sys, x0[None], t_span, rtol, atol, n_out, t_eval, max_step)
    if rec is None:
        raise IntegrationError(f"step-size underflow while integrating {sys.name}")
    return rec


def integrate_many(
    sys: SystemModel,
    x0s,
    t_span,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    n_out: int = 1001,
    t_eval=None,
    max_step: float = np.inf,
) -> list[Optional[TrajectoryRecord]]:
    """Integrate the system from each row of ``x0s`` (shape (B, n)) in
    lockstep over ``t_span`` and sample at ``t_eval``.

    ``sys.f`` must take states as columns.  Returns one record per start,
    or None for a start whose step size underflowed; the other starts are
    not affected by it.  Escaping a declared invariant box triggers a
    warning, not a failure.
    """
    x0s = np.asarray(x0s, dtype=np.float64)
    if x0s.ndim != 2:
        raise ValueError("initial states must be a (B, n) stack, one start per row")
    if x0s.shape[1] != sys.state_dim:
        raise ValueError(f"initial state has dimension {x0s.shape[1]}, expected {sys.state_dim}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if t_eval is None:
        t_eval = np.linspace(t0, t1, n_out)
    t_eval = np.asarray(t_eval, dtype=np.float64)
    status, states = rk45_solve(sys.f, x0s, t_eval, rtol, atol, max_step=max_step)
    records: list[Optional[TrajectoryRecord]] = []
    for x0, failed, path in zip(x0s, status, states):
        if failed:
            records.append(None)
            continue
        if sys.domain is not None and sys.domain.contains(x0, slack=1e-9):
            slack = 1e-7 * max(1.0, float(np.abs(path).max()))
            if not sys.domain.contains(path, slack=slack):
                warnings.warn(f"trajectory of {sys.name} left its declared invariant box")
        records.append(TrajectoryRecord(t_eval, path, system=sys.name))
    return records


def variational_flow(
    sys: SystemModel,
    trajectory: TrajectoryRecord,
    k: int,
    max_step: float = 0.005,
) -> TrajectoryRecord:
    """The fundamental matrix and its k-compound counterpart along the
    trajectory's time grid, by fixed-step RK4 on
        dx/dt   = f(t, x)
        dPhi/dt = J(t, x) Phi,        Phi(0) = I_n
        dPsi/dt = J(t, x)^[k] Psi,    Psi(0) = I_r
    so that Phi(t)^(k) and Psi(t) agree up to integration error.

    The state is stepped alone and every RK4 stage's (t, x) recorded.  The
    flows then advance by propagators: with stage matrices A_1..A_4 of one
    step of size h, K1 = A1, K2 = A2 (I + h/2 K1), K3 = A3 (I + h/2 K2),
    K4 = A4 (I + h K3) and the step matrix M = I + h/6 (K1 + 2 K2 + 2 K3 + K4)
    is exactly the RK4 step of y' = A(t) y.  Step matrices are built as
    stacks, kept as M - I, and multiplied into one product per output
    interval, BATCH_BYTES of stage matrices at a time; the chunking does not
    change any bit.
    """
    n = sys.state_dim
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    r = comb(n, k)
    check_dimension_guard(r)
    check_dense_guard(trajectory.times.size * r * r, "compound flow")
    index = compound_index(n, k)
    times = trajectory.times
    dt = float(np.max(np.diff(times)))
    per = max(1, ceil(dt / max_step))

    stage_t, stage_x = [], []

    def f(t, x):
        stage_t.append(t)
        stage_x.append(x)
        return sys.f(t, x)

    states = rk4_fixed(f, trajectory.states[0], times, substeps=per)
    stage_t = np.array(stage_t)
    stage_x = np.stack(stage_x, axis=1)
    h = np.repeat(np.diff(times) / per, per)

    flow = np.empty((times.size, n, n))
    compound_flow = np.empty((times.size, r, r))
    flow[0], compound_flow[0] = np.eye(n), np.eye(r)
    # a chunk of steps is whole output intervals, or part of one when one
    # interval's stage matrices (4 per step) exceed the budget
    chunk = max(1, indexing.BATCH_BYTES // (32 * (n * n + r * r)))
    if chunk >= per:
        edges = list(range(0, h.size, chunk - chunk % per))
    else:
        edges = [lo for i in range(0, h.size, per) for lo in range(i, i + per, chunk)]
    carry = None  # product increments of the current interval's earlier steps
    for lo, hi in zip(edges, edges[1:] + [h.size]):
        jac = sys.jacobians(stage_t[4 * lo : 4 * hi], stage_x[:, 4 * lo : 4 * hi])
        expected = (4 * (hi - lo), n, n)
        if np.shape(jac) != expected:
            raise ValueError(f"Jacobian stack has shape {np.shape(jac)}, expected {expected}")
        if not np.isfinite(jac).all():
            raise ValueError("Jacobian contains non-finite entries")
        steps = min(per, hi - lo)
        carry = [
            _chain(_step_increments(a, h[lo:hi]).reshape(-1, steps, d, d), part)
            for a, d, part in zip((jac, index.additive(jac)), (n, r), carry or (None, None))
        ]
        if hi % per == 0:
            first = lo // per
            for j in range(carry[0].shape[0]):
                for out, e in zip((flow, compound_flow), carry):
                    out[first + j + 1] = out[first + j] + e[j] @ out[first + j]
            carry = None
    return TrajectoryRecord(
        times, states, flow=flow, compound_flow=compound_flow, system=trajectory.system
    )


def _step_increments(stages: np.ndarray, h: np.ndarray) -> np.ndarray:
    """M - I for the RK4 step matrices M of y' = A(t) y, from the stage
    matrices of S steps, ``stages`` (4 S, d, d) in step order, with step sizes
    ``h`` (S,).  Kept apart from I, whose rounding would swallow the low bits
    of every step."""
    a = stages.reshape(h.size, 4, *stages.shape[1:])
    eye = np.eye(a.shape[-1])
    half = (0.5 * h)[:, None, None]
    k1 = a[:, 0]
    k2 = a[:, 1] @ (eye + half * k1)
    k3 = a[:, 2] @ (eye + half * k2)
    k4 = a[:, 3] @ (eye + h[:, None, None] * k3)
    return (h / 6.0)[:, None, None] * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _chain(d: np.ndarray, carry: Optional[np.ndarray]) -> np.ndarray:
    """P - I for P = (I + D_s) ... (I + D_1) (I + C), for each row of a
    (q, s, d, d) stack of step increments D, with C = ``carry`` the product
    increment of earlier steps of the same interval (or none)."""
    e = d[:, 0] if carry is None else carry + d[:, 0] + d[:, 0] @ carry
    for j in range(1, d.shape[1]):
        e = e + d[:, j] + d[:, j] @ e
    return e


def _generator_matrix(generators) -> np.ndarray:
    """The generators as an n x k matrix of columns, 1 <= k <= n."""
    x = np.asarray(generators, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if not 1 <= x.shape[1] <= x.shape[0]:
        raise ValueError("generator matrix must be n x k with 1 <= k <= n")
    return x


def _norm(col: np.ndarray) -> float:
    """Euclidean norm of a compound column, by the formula np.linalg.norm
    uses for a vector (the square root of its dot product), bitwise the same
    without its argument handling."""
    v = col.ravel()
    return sqrt(v.dot(v))


def parallelotope_volume(generators) -> float:
    """Volume of the parallelotope spanned by the columns of an n x k matrix,
    i.e. the Euclidean norm of the k-th multiplicative compound (a column)."""
    x = _generator_matrix(generators)
    return _norm(mult_compound(x, x.shape[1]).data)


def gram_volume(generators) -> float:
    """Independent volume route: sqrt(det(X^T X))."""
    x = np.asarray(generators, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    g = x.T @ x
    return float(np.sqrt(max(np.linalg.det(g), 0.0)))


@dataclass
class VolumeFit:
    """Least-squares exponential rate of a volume series."""

    rate: float
    intercept: float
    residual: float  # max |log v - fit| over the points used
    n_used: int
    times: np.ndarray = field(repr=False, default=None)
    volumes: np.ndarray = field(repr=False, default=None)


def fit_exponential_rate(times, volumes) -> VolumeFit:
    """Slope of log(volume) against time, truncated at underflow (1e-300)."""
    times = np.asarray(times, dtype=np.float64)
    volumes = np.asarray(volumes, dtype=np.float64)
    valid = volumes > 1e-300
    if valid.any() and not valid.all():
        cut = int(np.argmin(valid))  # first invalid index
        times, volumes = times[:cut], volumes[:cut]
    if times.size < 2:
        raise ValueError("not enough positive volume samples to fit a rate")
    logv = np.log(volumes)
    a = np.vstack([times, np.ones_like(times)]).T
    coef, *_ = np.linalg.lstsq(a, logv, rcond=None)
    resid = float(np.max(np.abs(logv - a @ coef)))
    return VolumeFit(float(coef[0]), float(coef[1]), resid, times.size, times, volumes)


def volume_growth_rate(
    sys: SystemModel,
    generators,
    horizon: float,
    n_out: int = 201,
    rtol: float = 1e-10,
    atol: float = 1e-10,
    base_point=None,
    max_step: float = 0.005,
) -> VolumeFit:
    """Fitted exponential growth rate of a k-parallelotope volume.

    By default each generator column evolves as a solution of the system
    (the right object for linear systems, where solutions and variational
    vectors coincide); the columns move in lockstep through one
    ``integrate_many`` call, so ``sys.f`` takes states as columns, and a
    column whose step size underflows raises ``IntegrationError``.  Passing
    ``base_point`` instead evolves the columns under the variational flow
    along the trajectory from that point.
    """
    x0 = _generator_matrix(generators)
    n, k = x0.shape
    check_dimension_guard(comb(n, k))
    t_eval = np.linspace(0.0, float(horizon), n_out)
    if base_point is not None:
        base = integrate(sys, base_point, (0.0, horizon), rtol, atol, t_eval=t_eval)
        var = variational_flow(sys, base, k=1, max_step=max_step)
        columns = np.einsum("tij,jk->tik", var.flow, x0)
    else:
        runs = integrate_many(sys, x0.T, (0.0, horizon), rtol, atol, t_eval=t_eval)
        if any(rec is None for rec in runs):
            raise IntegrationError(f"step-size underflow while integrating {sys.name}")
        columns = np.stack([rec.states for rec in runs], axis=-1)
    if not np.isfinite(columns).all():
        raise ValueError("matrix contains non-finite entries")
    # one stacked call; each time's minors, and so its norm, are bitwise
    # those parallelotope_volume gives the columns at that time
    minors = minor_dets(columns, compound_index(n, k).seqs, compound_index(k, k).seqs)
    volumes = np.array([_norm(col) for col in minors])
    return fit_exponential_rate(t_eval, volumes)


@dataclass
class ConvergenceSummary:
    """Per-trajectory convergence verdicts and equilibrium clusters."""

    converged: list[bool]
    residuals: list[float]
    increments: list[float]
    clusters: list[tuple[np.ndarray, int]]
    tol: float

    @property
    def all_converged(self) -> bool:
        return all(self.converged)

    @property
    def none_converged(self) -> bool:
        return not any(self.converged)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


def detect_equilibrium_convergence(
    records: Sequence[TrajectoryRecord],
    f: Callable[[float, np.ndarray], np.ndarray],
    tol: float = 1e-6,
) -> ConvergenceSummary:
    """Classify final states as converged and cluster the distinct equilibria.

    A record counts as converged when both the field residual |f(T, x(T))|
    and the last state increment stay within ``tol`` (max norm); converged
    finals further apart than 10 tol count as distinct equilibria.
    """
    converged, residuals, increments = [], [], []
    finals = []
    for rec in records:
        if rec.times.size < 2:
            raise ValueError("convergence classification needs at least two samples")
        t_end = float(rec.times[-1])
        x_end = rec.states[-1]
        resid = float(np.abs(f(t_end, x_end)).max())
        step = float(np.abs(x_end - rec.states[-2]).max())
        ok = resid <= tol and step <= tol
        converged.append(ok)
        residuals.append(resid)
        increments.append(step)
        if ok:
            finals.append(x_end)
    clusters: list[list[np.ndarray]] = []
    for x in finals:
        for cl in clusters:
            if np.linalg.norm(x - cl[0]) <= 10.0 * tol:
                cl.append(x)
                break
        else:
            clusters.append([x])
    summary_clusters = [(cl[0].copy(), len(cl)) for cl in clusters]
    return ConvergenceSummary(converged, residuals, increments, summary_clusters, tol)
