"""ODE integration, variational and compound flows, and parallelotope volumes.

The integrator is an adaptive Dormand-Prince 5(4) pair (default tolerance
1e-10) sampled exactly at the requested output times.  ``integrate_many``
moves many starts in lockstep, each with its own step size and step
control, and calls the vector field once per stage for all of them with the
states as columns (see ``systems``); every start gets bitwise the result of
its own ``integrate`` run.

A trajectory from ``integrate`` carries the accepted steps of its run
(``TrajectoryRecord.steps``).  Variational and compound flows are the exact
derivatives of that run: the stage Jacobians along it are evaluated in one
stacked call, and the flows advance by the Dormand-Prince step matrices of
the linear systems y' = J(t) y and y' = J(t)^[k] y, built for all steps at
once.  So the state is integrated once: the flows of a trajectory from
``integrate`` at its default tolerance reuse its run and its states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import sqrt
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import indexing
from ._kernels import _DP_A, _DP_B5, _DP_C, _DP_E, minor_dets, rk45_solve
from .compounds import mult_compound
from .indexing import check_dense_guard, compound_index
from .systems import SystemModel


class IntegrationError(RuntimeError):
    """Adaptive stepping failed (step-size underflow, or a NaN step size)."""


class StepRecord(NamedTuple):
    """The accepted steps of one Dormand-Prince run, in order, and the
    tolerance it was taken at: S steps reach the last output time, and the
    steps with ``hit`` set end on the n_out - 1 later output times."""

    t: np.ndarray  # (S,) start time of each step
    h: np.ndarray  # (S,) step size
    hit: np.ndarray  # (S,) bool: the step ended on an output time
    stages: np.ndarray  # (S, 7, n) states where the field was evaluated, stages 1..7
    tol: float


@dataclass
class TrajectoryRecord:
    """Sampled solution, optionally with fundamental/compound flows.  A
    record from ``integrate`` also keeps the accepted steps of its run as
    ``steps``, which ``variational_flow`` differentiates."""

    times: np.ndarray
    states: np.ndarray
    flow: Optional[np.ndarray] = None  # (n_out, n, n) fundamental matrices
    compound_flow: Optional[np.ndarray] = None  # (n_out, r, r)
    system: str = ""
    compound_gap: Optional[float] = None  # max_t |Phi^(k) - Psi|_F / |Psi|_F
    substeps: Optional[np.ndarray] = None  # flow steps within each accepted state step
    # the run that produced the states, set by ``integrate``
    steps: Optional[StepRecord] = field(default=None, repr=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.states = np.asarray(self.states, dtype=np.float64)
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if self.states.shape[0] != self.times.size:
            raise ValueError("states and times length mismatch")


def integrate(
    sys: SystemModel,
    x0,
    t_span,
    tol: float = 1e-10,
    *,
    n_out: int = 1001,
    t_eval=None,
) -> TrajectoryRecord:
    """Integrate the system from one start over ``t_span`` and sample at
    ``t_eval``: ``integrate_many`` with a single start, whose accepted steps
    the record keeps as ``steps``.

    Escaping a declared invariant box triggers a warning, not a failure;
    a step-size underflow (or a NaN start) raises ``IntegrationError``.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()
    steps = []
    (rec,) = _integrate(sys, x0[None], t_span, tol, n_out, t_eval, steps)
    if rec is None:
        raise IntegrationError(f"step-size underflow while integrating {sys.name}")
    # one flat copy of all stage states (none for a run of no steps)
    points = [p for step in steps for p in step[3]] or [np.empty(0)]
    rec.steps = StepRecord(
        np.array([step[0] for step in steps]),
        np.array([step[1] for step in steps]),
        np.array([step[2] for step in steps], dtype=bool),
        np.concatenate(points).reshape(-1, 7, x0.size),
        float(tol),
    )
    return rec


def integrate_many(
    sys: SystemModel,
    x0s,
    t_span,
    tol: float = 1e-10,
    *,
    n_out: int = 1001,
    t_eval=None,
) -> list[Optional[TrajectoryRecord]]:
    """Integrate the system from each row of ``x0s`` (shape (B, n)) in
    lockstep over ``t_span`` and sample at ``t_eval``, with ``tol`` > 0 as
    both the relative and the absolute tolerance.

    ``sys.f`` must take states as columns: it gets the A live starts as a
    C-contiguous (n, A) array and their times as an (A,) array, or one
    start as an (n,) state and a float time (see ``rk45_solve``).  Returns
    one record per start, or None for a start whose step size underflowed;
    the other starts are not affected by it.  Escaping a declared invariant
    box triggers a warning, not a failure.
    """
    return _integrate(sys, x0s, t_span, tol, n_out, t_eval)


def _integrate(sys, x0s, t_span, tol, n_out, t_eval, record=None):
    """``integrate_many``, appending the accepted steps of a single start to
    the list ``record`` if one is given (see ``rk45_solve``).  A ``tol`` that
    is not a finite number > 0 is refused before the field is called."""
    if isinstance(tol, (bool, np.bool_)) or not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    x0s = np.asarray(x0s, dtype=np.float64)
    if x0s.ndim != 2:
        raise ValueError("initial states must be a (B, n) stack, one start per row")
    if x0s.shape[1] != sys.state_dim:
        raise ValueError(f"initial state has dimension {x0s.shape[1]}, expected {sys.state_dim}")
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if t_eval is None:
        check_dense_guard(n_out * x0s.size, "output grid")  # the sampled states
        with np.errstate(invalid="ignore"):  # an infinite t1 gives NaN times, refused below
            t_eval = np.linspace(t0, t1, n_out)
    t_eval = np.asarray(t_eval, dtype=np.float64)
    if t_eval.size == 0:
        raise ValueError("the output grid is empty")
    # the stepper runs until it reaches the last output time: a NaN or an
    # infinite one (linspace to an infinite t1) would never end it
    if not (np.isfinite(t_eval).all() and (np.diff(t_eval) > 0).all()):
        raise ValueError("output times must be finite and strictly increasing")
    status, states = rk45_solve(sys.f, x0s, t_eval, tol, record=record)
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


#: ``integrate``'s default tol, which the flows' run and their error
#: control use.
_TOL = 1e-10


def variational_flow(sys: SystemModel, trajectory: TrajectoryRecord, k: int) -> TrajectoryRecord:
    """The fundamental matrix and its k-compound counterpart along the
    trajectory's time grid, as derivatives of the Dormand-Prince run that
    produces the state (internal numerical differentiation: Bock 1981;
    Hairer, Norsett and Wanner, *Solving ODEs I*, section II.6):
        dx/dt   = f(t, x)
        dPhi/dt = J(t, x) Phi,        Phi(0) = I_n
        dPsi/dt = J(t, x)^[k] Psi,    Psi(0) = I_r
    so that Phi(t)^(k) and Psi(t) agree up to discretisation error.

    The run differentiated is ``trajectory.steps`` when it was taken at
    ``integrate``'s default tol (1e-10), and the returned states are
    then ``trajectory.states``: the state is not integrated again.  Any
    other trajectory (a hand-built record, a row of ``integrate_many``,
    another tol) gets that run from ``integrate`` from its first state
    on its time grid, so the flows are always those of the default run.
    With the stage matrices A_1..A_7 of one step of size h, K_1 = A_1 and
    K_s = A_s (I + h sum_{j<s} a_sj K_j), the step matrix
    M = I + h sum_s b_s K_s is exactly the Dormand-Prince step of
    y' = A(t) y with the step size held fixed.

    The state's step control does not see the flows, so each step's
    embedded error estimate of M is measured, applied to the columns of I,
    in ``integrate``'s norm and tolerance.  A step whose flows miss the
    tolerance by the ratio e > 1 (long steps where the state has settled,
    say) is split for the flows into m = ceil(e^(1/5)) equal steps along
    the state stepped again from that step's start, all such steps in
    lockstep; ``substeps`` holds each step's m.  So ``sys.f`` takes states
    as columns, as for ``integrate_many``, once a step is split.

    Step matrices are built as stacks, BATCH_BYTES at a time, and kept as
    D = M - I; a step counts 28 matrices of each flow, its 7 stage matrices
    and 7 K stacks, and as many again if it is split.  The steps are then
    taken in order, and the product P of the open output interval's steps
    is kept as E = P - I: E <- D at its first step, E <- E + D + D E at
    each further one, and Y <- Y + E Y moves Phi and Psi at the step that
    ends on an output time.  An interval may span batches, so the chunking
    does not change any bit.
    ``compound_gap`` is max_t |Phi(t)^(k) - Psi(t)|_F / |Psi(t)|_F over the
    samples where Psi has not underflowed: how far the two routes to the
    compound flow drift apart.
    """
    n = sys.state_dim
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    index = compound_index(n, k)
    r = index.r
    check_dense_guard(trajectory.times.size * r * r, "compound flow")
    times, states, run = trajectory.times, trajectory.states, trajectory.steps
    if not np.isfinite(states[0]).all():
        raise ValueError("initial state contains non-finite entries")
    if run is None or run.tol != _TOL:
        # the time grid alone sets the horizon, which may be its one sample
        rec = integrate(sys, states[0], (times[0], np.inf), t_eval=times)
        states, run = rec.states, rec.steps
    t0, h, closes = run.t, run.h, run.hit
    stage_t = (t0[:, None] + _DP_C * h[:, None]).ravel()
    stage_x = run.stages.reshape(-1, n).T
    substeps = np.ones(h.size, dtype=np.int64)

    flow = np.empty((times.size, n, n))
    compound_flow = np.empty((times.size, r, r))
    flow[0], compound_flow[0] = np.eye(n), np.eye(r)
    chunk = max(1, indexing.BATCH_BYTES // (8 * 28 * (n * n + r * r)))
    product = None  # P - I of Phi and of Psi over the open interval's steps so far
    j = 0  # the output time the open interval starts from
    for lo in range(0, h.size, chunk):
        hi = min(lo + chunk, h.size)
        stages = stage_t[7 * lo : 7 * hi], stage_x[:, 7 * lo : 7 * hi]
        increments, err = _flow_steps(sys, index, *stages, h[lo:hi])
        split = np.flatnonzero(err > 1.0)
        if split.size:
            at = lo + split
            substeps[at] = np.ceil(err[split] ** 0.2)
            parts = _split_steps(sys, index, t0[at], h[at], stage_x[:, 7 * at], substeps[at])
            for inc, part in zip(increments, parts):
                inc[split] = part
        for ds, hit in zip(zip(*increments), closes[lo:hi]):
            product = ds if product is None else [e + d + d @ e for e, d in zip(product, ds)]
            if hit:
                for out, e in zip((flow, compound_flow), product):
                    out[j + 1] = out[j] + e @ out[j]
                product = None
                j += 1
    phi_k = minor_dets(flow, index.seqs, index.seqs)
    gap = np.sqrt(np.add.reduce((phi_k - compound_flow) ** 2, axis=(1, 2)))
    size = np.sqrt(np.add.reduce(compound_flow**2, axis=(1, 2)))
    gap = np.divide(gap, size, out=np.zeros_like(gap), where=size > 0)
    return TrajectoryRecord(
        times,
        states,
        flow=flow,
        compound_flow=compound_flow,
        system=trajectory.system,
        compound_gap=float(gap.max()),
        substeps=substeps,
    )


def _flow_steps(sys, index, stage_t, stage_x, h):
    """The step increments of Phi and of Psi, and the steps' error ratios
    (the larger of the two), for S steps from their stage times (7 S,) and
    stage states (n, 7 S) in step order, with step sizes ``h`` (S,)."""
    n = index.n
    jac = sys.jacobians(stage_t, stage_x)
    expected = (7 * h.size, n, n)
    if np.shape(jac) != expected:
        raise ValueError(f"Jacobian stack has shape {np.shape(jac)}, expected {expected}")
    if not np.isfinite(jac).all():
        raise ValueError("Jacobian contains non-finite entries")
    (d_phi, e_phi), (d_psi, e_psi) = (_step_increments(a, h) for a in (jac, index.additive(jac)))
    err = np.maximum(e_phi, e_psi)
    if not np.isfinite(err).all():
        raise ValueError("flow step matrices overflow")
    return [d_phi, d_psi], err


def _step_increments(stages: np.ndarray, h: np.ndarray):
    """M - I for the Dormand-Prince step matrices M of y' = A(t) y, and each
    step's error ratio, from the stage matrices of S steps, ``stages``
    (7 S, d, d) in step order, with step sizes ``h`` (S,).  M - I is kept
    apart from I, whose rounding would swallow the low bits of every step.
    The error ratio is the embedded error estimate of M applied to the
    columns of I, in ``integrate``'s RMS norm: above 1 the step is too long
    for the flows."""
    a = stages.reshape(h.size, 7, *stages.shape[1:])
    eye = np.eye(a.shape[-1])
    hc = h[:, None, None]
    ks = [a[:, 0]]
    for s in range(1, 6):
        ks.append(a[:, s] @ (eye + hc * _combine(_DP_A[s], ks)))
    d = hc * _combine(_DP_B5, ks)
    ks.append(a[:, 6] @ (eye + d))  # the seventh stage sits at the step's end
    scale = _TOL + _TOL * np.maximum(eye, np.abs(eye + d))
    ratio = np.sqrt(np.add.reduce((hc * _combine(_DP_E, ks) / scale) ** 2, axis=(1, 2)) / eye.size)
    return d, ratio


def _combine(coefs, terms):
    """sum_j coefs[j] terms[j] over the terms given and the nonzero
    coefficients, left to right (b_2 = 0, e_2 = 0)."""
    return sum(c * term for c, term in zip(coefs, terms) if c)


def _split_steps(sys, index, t, h, x, m):
    """The product increments of Phi and of Psi over steps i = 0..R-1 of
    sizes h, each taken as m[i] equal Dormand-Prince steps of the state from
    x[:, i] at time t[i] and of the flows along them.  The rows move in
    lockstep, the longest first, through one stage stack per sub-step; the
    field is called with the states as columns."""
    order = np.argsort(-m, kind="stable")
    t, h, x, m = t[order], h[order] / m[order], x[:, order], m[order]
    product = None
    for j in range(int(m[0])):
        live = int(np.count_nonzero(m > j))
        t, h, x = t[:live], h[:live], x[:, :live]
        points = [x]
        ks = []
        for s in range(1, 7):
            ks.append(sys.f(t + _DP_C[s - 1] * h, points[-1]))
            points.append(x + h * _combine(_DP_A[s], ks))
        stage_t = (t[:, None] + _DP_C * h[:, None]).ravel()
        stage_x = np.stack(points, axis=2).reshape(x.shape[0], -1)
        increments, _ = _flow_steps(sys, index, stage_t, stage_x, h)
        if product is None:
            product = increments
        else:
            for e, d in zip(product, increments):
                e[:live] = e[:live] + d + d @ e[:live]
        t, x = t + h, points[6]
    out = [np.empty_like(e) for e in product]
    for o, e in zip(out, product):
        o[order] = e
    return out


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
    x = _generator_matrix(generators)
    g = x.T @ x
    return float(np.sqrt(max(np.linalg.det(g), 0.0)))


@dataclass
class VolumeFit:
    """Least-squares exponential rate of a volume series, fitted to the
    points ``times``, ``volumes`` it kept."""

    rate: float
    intercept: float
    residual: float  # max |log v - fit| over the points used
    times: np.ndarray = field(repr=False)
    volumes: np.ndarray = field(repr=False)


def fit_exponential_rate(times, volumes) -> VolumeFit:
    """Slope of log(volume) against time, truncated at underflow (1e-300)."""
    times = np.asarray(times, dtype=np.float64)
    volumes = np.asarray(volumes, dtype=np.float64)
    valid = volumes > 1e-300
    if not valid.all():
        cut = int(np.argmin(valid))  # first invalid index
        times, volumes = times[:cut], volumes[:cut]
    if times.size < 2:
        raise ValueError("not enough positive volume samples to fit a rate")
    logv = np.log(volumes)
    a = np.vstack([times, np.ones_like(times)]).T
    coef, *_ = np.linalg.lstsq(a, logv, rcond=None)
    resid = float(np.max(np.abs(logv - a @ coef)))
    return VolumeFit(float(coef[0]), float(coef[1]), resid, times, volumes)


def volume_growth_rate(
    sys: SystemModel, generators, horizon: float, n_out: int = 201, tol: float = 1e-10
) -> VolumeFit:
    """Fitted exponential growth rate of a k-parallelotope volume.

    Each generator column evolves as a solution of the system (the right
    object for linear systems, where solutions and variational vectors
    coincide); the columns move in lockstep through one ``integrate_many``
    call at ``tol``, so ``sys.f`` takes states as columns, and a column
    whose step size underflows raises ``IntegrationError``.  For the
    variational flow along one trajectory, fit the volumes of
    ``variational_flow(sys, rec, 1).flow`` applied to the generators.
    """
    x0 = _generator_matrix(generators)
    n, k = x0.shape
    index = compound_index(n, k)
    runs = integrate_many(sys, x0.T, (0.0, horizon), tol, n_out=n_out)
    if any(rec is None for rec in runs):
        raise IntegrationError(f"step-size underflow while integrating {sys.name}")
    t_eval = runs[0].times
    columns = np.stack([rec.states for rec in runs], axis=-1)
    if not np.isfinite(columns).all():
        raise ValueError("matrix contains non-finite entries")
    # one stacked call; each time's minors, and so its norm, are bitwise
    # those parallelotope_volume gives the columns at that time
    minors = minor_dets(columns, index.seqs, compound_index(k, k).seqs)
    volumes = np.array([_norm(col) for col in minors])
    return fit_exponential_rate(t_eval, volumes)


@dataclass
class ConvergenceSummary:
    """Per-trajectory convergence verdicts and equilibrium clusters."""

    converged: list[bool]
    residuals: list[float]
    increments: list[float]
    clusters: list[tuple[np.ndarray, int]]

    @property
    def all_converged(self) -> bool:
        """Whether there are records and every one converged."""
        return bool(self.converged) and all(self.converged)

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
    return ConvergenceSummary(converged, residuals, increments, summary_clusters)
