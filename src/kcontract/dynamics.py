"""ODE integration, variational and compound flows, and parallelotope volumes.

The integrator is an adaptive Dormand-Prince 5(4) pair (default tolerances
1e-10) sampled exactly at the requested output times.  ``integrate_many``
moves many starts in lockstep, each with its own step size and step
control, and calls the vector field once per stage for all of them with the
states as columns (see ``systems``); every start gets bitwise the result of
its own ``integrate`` run.  Variational and compound flows are co-integrated
with a fixed-step RK4 so that repeated runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import ceil, comb
from typing import Callable, Optional, Sequence

import numpy as np

from ._kernels import rk4_fixed, rk45_solve
from .compounds import as_matrix, compound_index, mult_compound, require_square
from .indexing import check_dense_guard, check_dimension_guard
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
    """Co-integrate the fundamental matrix and its k-compound counterpart.

    Along the trajectory's time grid this solves, with fixed-step RK4,
        dx/dt   = f(t, x)
        dPhi/dt = J(t, x) Phi,        Phi(0) = I_n
        dPsi/dt = J(t, x)^[k] Psi,    Psi(0) = I_r
    so that Phi(t)^(k) and Psi(t) agree up to integration error.
    """
    n = sys.state_dim
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    r = comb(n, k)
    check_dimension_guard(r)
    check_dense_guard(trajectory.times.size * r * r, "compound flow")
    index = compound_index(n, k)
    x0 = trajectory.states[0]
    u0 = np.concatenate([x0, np.eye(n).ravel(), np.eye(r).ravel()])

    def rhs(t, u):
        x = u[:n]
        phi = u[n : n + n * n].reshape(n, n)
        psi = u[n + n * n :].reshape(r, r)
        j = require_square(as_matrix(sys.jacobian(t, x)))
        jk = index.additive(j)
        return np.concatenate([sys.f(t, x), (j @ phi).ravel(), (jk @ psi).ravel()])

    times = trajectory.times
    dt = float(np.max(np.diff(times)))
    substeps = max(1, ceil(dt / max_step))
    sol = rk4_fixed(rhs, u0, times, substeps=substeps)
    states = sol[:, :n]
    flow = sol[:, n : n + n * n].reshape(-1, n, n)
    compound_flow = sol[:, n + n * n :].reshape(-1, r, r)
    return TrajectoryRecord(
        times, states, flow=flow, compound_flow=compound_flow, system=trajectory.system
    )


def parallelotope_volume(generators) -> float:
    """Volume of the parallelotope spanned by the columns of an n x k matrix,
    i.e. the Euclidean norm of the k-th multiplicative compound (a column)."""
    x = np.asarray(generators, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    k = x.shape[1]
    if not 1 <= k <= x.shape[0]:
        raise ValueError("generator matrix must be n x k with 1 <= k <= n")
    col = mult_compound(x, k).data
    return float(np.linalg.norm(col.ravel()))


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
    vectors coincide).  Passing ``base_point`` instead evolves the columns
    under the variational flow along the trajectory from that point.
    """
    x0 = np.asarray(generators, dtype=np.float64)
    if x0.ndim == 1:
        x0 = x0.reshape(-1, 1)
    t_eval = np.linspace(0.0, float(horizon), n_out)
    if base_point is not None:
        base = integrate(sys, base_point, (0.0, horizon), rtol, atol, t_eval=t_eval)
        var = variational_flow(sys, base, k=1, max_step=max_step)
        columns = np.einsum("tij,jk->tik", var.flow, x0)
    else:
        sols = [
            integrate(sys, x0[:, j], (0.0, horizon), rtol, atol, t_eval=t_eval).states
            for j in range(x0.shape[1])
        ]
        columns = np.stack(sols, axis=-1)
    volumes = np.array([parallelotope_volume(columns[i]) for i in range(n_out)])
    return fit_exponential_rate(t_eval, volumes)


@dataclass
class ConvergenceSummary:
    """Per-trajectory convergence verdicts and equilibrium clusters."""

    converged: list[bool]
    residuals: list[float]
    increments: list[float]
    clusters: list[tuple[np.ndarray, int]]
    tol: float
    cluster_radius: float

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
    cluster_radius: Optional[float] = None,
) -> ConvergenceSummary:
    """Classify final states as converged and cluster the distinct equilibria.

    A record counts as converged when both the field residual |f(T, x(T))|
    and the last state increment stay within ``tol`` (max norm); converged
    finals further apart than ``cluster_radius`` (default 10 tol) count as
    distinct equilibria.
    """
    if cluster_radius is None:
        cluster_radius = 10.0 * tol
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
            if np.linalg.norm(x - cl[0]) <= cluster_radius:
                cl.append(x)
                break
        else:
            clusters.append([x])
    summary_clusters = [(cl[0].copy(), len(cl)) for cl in clusters]
    return ConvergenceSummary(converged, residuals, increments, summary_clusters, tol, cluster_radius)
