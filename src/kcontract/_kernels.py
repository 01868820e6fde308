"""Hot numeric kernels: minor determinants (Laplace recursion, or LU where
the recursion would do more work), the adaptive Dormand-Prince stepper that
moves many starts in lockstep (vector fields called with the states as
columns) and can record the accepted steps of one start, and fixed-step RK4
(a test reference).

Everything here is plain numpy; performance is measured with the benchmark
described in ``perfbench/README.md``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod, sqrt
from typing import NamedTuple, Optional

import numpy as np

from .indexing import MAX_COMPOUND_DIM, MAX_DENSE_BYTES, batches, check_dense_guard, compound_index

# ---------------------------------------------------------------------------
# Minor determinants
# ---------------------------------------------------------------------------


class _Level(NamedTuple):
    """How the l-minors of one shape are read from its (l-1)-minors.

    Rows are the l-sequences over the last n - k + l row indices, the only
    ones the expansion of a k-minor reaches; columns are all l-sequences.
    Row alpha takes its first entry ``head[alpha]`` of m and row
    ``tail[alpha]`` of the level below; term j of column beta takes entry
    ``col[j][beta]`` of m and column ``drop[j][beta]`` of the level below.
    ``col`` and ``drop`` hold one view per term j into the cached column
    table's ``seqs`` and ``drop_rank``.
    """

    head: np.ndarray
    tail: np.ndarray
    col: tuple[np.ndarray, ...]
    drop: tuple[np.ndarray, ...]


class _Plan(NamedTuple):
    rows: np.ndarray  # the k-sequences over n and over p: the result's lex order
    cols: np.ndarray
    levels: tuple[_Level, ...]  # l = 2..k
    largest: int  # entries of the largest level


@lru_cache(maxsize=64)
def _laplace_plan(n: int, p: int, k: int) -> Optional[_Plan]:
    """The gather plan of the k-minors of an n x p matrix, read from the
    compound index tables (lex order and drop-one ranks).

    None where LU is the route: a level's row or column table exceeds
    ``MAX_COMPOUND_DIM``, a level exceeds the dense guard, or the recursion
    multiplies more often, sum_l l C(n - k + l, l) C(p, l), than LU's
    C(n, k) C(p, k) k^3 / 3.  For k <= 3 the recursion is always the cheaper.
    """
    slack = n - k
    sizes = [(comb(slack + l, l), comb(p, l)) for l in range(2, k + 1)]
    work = sum(l * r * c for l, (r, c) in enumerate(sizes, start=2))
    if (
        max((max(size) for size in sizes), default=0) > MAX_COMPOUND_DIM
        or 8 * max((r * c for r, c in sizes), default=0) > MAX_DENSE_BYTES
        or 3 * work > comb(n, k) * comb(p, k) * k**3
    ):
        return None
    levels = []
    for l in range(2, k + 1):
        # the rows are the table over slack + l indices, shifted by k - l;
        # removing its first entry leaves a sequence that starts at 1 or
        # later, past the C(slack + l - 1, l - 2) that start at 0
        rows, cols = compound_index(slack + l, l), compound_index(p, l)
        levels.append(
            _Level(
                head=rows.seqs[:, 0] + (k - l),
                tail=rows.drop_rank[0] - comb(slack + l - 1, l - 2),
                col=tuple(cols.seqs.T),
                drop=tuple(cols.drop_rank),
            )
        )
    largest = max((r * c for r, c in sizes), default=0)
    return _Plan(compound_index(n, k).seqs, compound_index(p, k).seqs, tuple(levels), largest)


def minor_dets(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Determinants of the k x k minors of ``m`` on the given row and column
    sequences.

    ``m`` is one (n, p) matrix or a stack (..., n, p); ``rows`` (R, k) and
    ``cols`` (C, k) hold 0-based increasing sequences.  Returns (..., R, C)
    with entry (a, b) = det(m[rows[a]][:, cols[b]]); each matrix of a stack
    gets bitwise the result of its own call.

    The route depends on (n, p, k) alone (``_laplace_plan``).  The Laplace
    recursion builds the l-minors from the (l-1)-minors for l = 2..k by
    expansion along the first row, the terms summed left to right:

        M_l[R, C] = sum_j (-1)^j m[R_0, C_j] M_{l-1}[R - R_0, C - C_j].

    For k <= 3 this is exactly the written-out expansion of a 2 x 2 and a
    3 x 3 determinant, and no LAPACK routine is called, so those results do
    not depend on the BLAS/LAPACK build.  The rounding error of a minor M is
    at most gamma_{2k} per(|M|), gamma_q = q u / (1 - q u) (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 14).  The
    bound is relative to the permanent of |M|, not to |det M|: a nearly
    singular minor may carry a larger relative error than an LU determinant
    gives it.  The recursion computes the complete lex table of m's
    k-minors, each level's rows in chunks of ``BATCH_BYTES`` (chunking
    changes no bit), and reads ``rows`` and ``cols`` from it by lex rank.

    Where the recursion would multiply more often than LU, or pass through a
    level too large to hold (from p = 20 columns on, every k > p/2), each
    minor is an LU determinant (``np.linalg.det``) instead, in chunks of
    ``BATCH_BYTES`` of gathered minors.
    """
    m = np.asarray(m, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    lead, (n, p) = m.shape[:-2], m.shape[-2:]
    k = rows.shape[1]
    if k == 0:
        return np.ones(lead + (rows.shape[0], cols.shape[0]))
    width = max(1, prod(lead))
    plan = _laplace_plan(n, p, k)
    if plan is None:
        return _lu_minors(m, rows, cols, width)
    top_rows, top_cols, levels, largest = plan
    check_dense_guard(width * largest, "minor table")
    minors = m[..., k - 1 :, :] if levels else m.copy()
    for head, tail, col, drop in levels:
        out = np.empty(lead + (head.size, col[0].size))
        for part in batches(head.size, width * col[0].size):
            # one (..., c, C) term at a time, summed left to right into out
            m_head = m.take(head[part], axis=-2)
            m_tail = minors.take(tail[part], axis=-2)
            acc = np.multiply(
                m_head.take(col[0], axis=-1),
                m_tail.take(drop[0], axis=-1),
                out=out[..., part, :],
            )
            for j in range(1, len(col)):
                term = m_head.take(col[j], axis=-1)
                term *= m_tail.take(drop[j], axis=-1)
                if j % 2:
                    acc -= term
                else:
                    acc += term
        minors = out
    if rows is not top_rows and not np.array_equal(rows, top_rows):
        minors = minors.take(compound_index(n, k).rank(rows), axis=-2)
    if cols is not top_cols and not np.array_equal(cols, top_cols):
        minors = minors.take(compound_index(p, k).rank(cols), axis=-1)
    return minors


def _lu_minors(m: np.ndarray, rows: np.ndarray, cols: np.ndarray, width: int) -> np.ndarray:
    """``minor_dets`` by one LU determinant per minor, the gathered minors
    walked in row chunks of ``BATCH_BYTES``."""
    k = rows.shape[1]
    check_dense_guard(width * rows.shape[0] * cols.shape[0], "minor table")
    out = np.empty(m.shape[:-2] + (rows.shape[0], cols.shape[0]))
    for part in batches(rows.shape[0], width * cols.shape[0] * k * k):
        sub = rows[part]
        # gather -> (..., c, C, k, k)
        out[..., part, :] = np.linalg.det(
            m[..., sub[:, None, :, None], cols[None, :, None, :]]
        )
    return out


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) adaptive integration
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.zeros((7, 7))
_DP_A[1, 0] = 1 / 5
_DP_A[2, :2] = (3 / 40, 9 / 40)
_DP_A[3, :3] = (44 / 45, -56 / 15, 32 / 9)
_DP_A[4, :4] = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_DP_A[5, :5] = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_DP_A[6, :6] = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4


#: Row s of the tableau restricted to the s earlier stages and the nodes as
#: floats: the stepper reads them once per stage.  The nodes as a column give
#: all stage times of many rows in one product.  The stages with a nonzero
#: 5th-order weight, and those weights (repeated over n entries per solve),
#: give the 5th-order increment as one product and one sum over the stage
#: axis.
_DP_ROWS = tuple(_DP_A[s, :s] for s in range(7))
_DP_NODES = tuple(_DP_C.tolist())
_DP_C_COL = _DP_C[:, None]
_B5_STAGES = np.flatnonzero(_DP_B5)
_B5_WEIGHTS = tuple(_DP_B5[_B5_STAGES].tolist())

#: The most error entries (live rows times n) whose attempt ``rk45_solve``
#: finishes on Python floats, the crossover measured against the numpy tail.
_FLOAT_TAIL = 9


def _live_layout(x, k):
    """The live rows' states and stage stack, without the row axis when one
    row is live, plus the per-stage views k[..., :s, :] and k[..., s, :]."""
    if x.shape[0] == 1:
        x, k = x[0], k[0]
    return x, k, [k[..., :s, :] for s in range(7)], [k[..., s, :] for s in range(7)]


def rk45_solve(f, x0, t_eval, tol, *, record=None):
    """Adaptive Dormand-Prince 5(4) runs of B starts in lockstep, each
    sampled exactly at ``t_eval``.

    ``x0`` is one start, shape (n,), or a stack of starts, shape (B, n).  Each
    row keeps its own time, step size, accept/reject decision and output
    index.  ``f`` is called once per stage for all A live rows with the
    states as columns: ``f(t, x)`` with ``x`` a C-contiguous (n, A) copy of
    the live rows' (A, n) stack and ``t`` of shape (A,), returning (n, A).
    While one row is live it gets the 1-D (n,) state and a float ``t``.  So
    a row's result is bitwise the same
    as its own B = 1 run whenever ``f`` computes each column as it computes a
    1-D state, as the built-in fields do: each is one whole-array expression
    that takes either form (the linear field is one gemv per column).

    ``tol`` > 0 is both the relative and the absolute tolerance: a step's
    error in each entry is measured against tol + tol * max(|x|, |xnew|),
    a scale that is never zero.

    The stepper's own arithmetic drops the row axis too while one row is
    live, and stays bitwise that of a stack's row: a stage point is
    ``row.dot(lead)``, the gemv ``row @ lead`` runs on each row of a stack,
    then scaled by h and added to x in place (IEEE * and + commute, so this
    is x + h * sum to the bit); the 5th-order solution is one product of
    the weighted stages and one sum over the stage axis, added in stage
    order for one row and for a stack alike; and |x| for the error scale is
    the accepted step's |xnew|, not computed again.

    On a stack the field gets a contiguous copy of the stage states, each
    row's h is repeated over its n entries once per attempt, so that the
    stage points, the 5th-order solution and the error estimate are scaled
    by an array of their own shape, and the 5th-order weights are repeated
    over n entries once per solve.  On arrays this small numpy's strided and
    broadcast inner loops cost more than those copies; the operands and
    their order are unchanged, so every bit is too.

    While the live rows hold at most ``_FLOAT_TAIL`` = 9 error entries (rows
    times n) and n < 8, the attempt's tail, the 5th-order solution and the
    error norm, runs on Python floats, and its bits are those of the numpy
    tail.  The gemv ``_DP_E @ k`` stays numpy's; the rest is numpy's
    elementwise operations done one entry at a time, in numpy's order: *, /
    and + round correctly in both; the 5th-order sum starts from 0.0, as
    numpy's reduction starts from the identity, and adds the five stages in
    order; max(|x|, |xnew|) is NaN when either is, as ``np.maximum``; and a
    row's squared errors are added left to right, which is numpy's order
    only below 8 entries (from 8 on it sums pairwise), hence n < 8.  The
    float tail saves about ten numpy calls per attempt and pays a few Python
    operations per entry.  On whole runs whose rows all stay live (medians
    of 60 interleaved pairs, 2-CPU Xeon) it ran 1.17-1.25x on one row of
    3, 4 or 7 states, 1.09x on two rows of 3, 1.04-1.06x at 8 entries and
    1.035x on three rows of 3, and 0.96-1.02x from 10 to 14 entries, 0.97x
    on four rows of 4 and 0.84-0.87x on the nine-row ``simulate`` stacks,
    which therefore keep the numpy tail.

    Returns (status, states); status 0 = ok, 1 = step-size underflow or a
    step size that is not a number (a start, or the field at it, with a NaN
    entry).  For a 1-D ``x0`` the status is an int and ``states`` has shape
    (n_out, n); for a stack they have shapes (B,) and (B, n_out, n).  A row
    with status 1 is frozen, its samples after the last one reached are
    undefined, and the other rows go on.

    A list ``record`` (one start only) gets one entry per accepted step,
    in order: (t, h, hit, points) with the step's start time and size,
    whether it ended on an output time, and the list of its seven stage
    states, the (n,) points where ``f`` was evaluated for stages 1..7 (the
    first is the step's start state, the last its 5th-order solution, up to
    rounding).  Recording changes no result.
    """
    t_eval = np.ascontiguousarray(t_eval, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    x = np.array(x0, ndmin=2)  # states of the live rows, (A, n)
    n_rows, n = x.shape
    if record is not None and n_rows != 1:
        raise ValueError("only a run of one start can record its steps")
    out_times = t_eval.tolist()
    n_out = len(out_times)
    states = np.empty((n_rows, n_out, n))
    states[:, 0] = x
    status = np.zeros(n_rows, dtype=np.int64)
    live = list(range(n_rows))  # the start each live row belongs to
    t = [out_times[0]] * n_rows
    idx = [1] * n_rows
    k = np.empty((n_rows, 7, n))  # stage derivatives of the live rows
    # a row whose states overflow or turn NaN ends with status 1, which
    # reports it; numpy's warnings about it would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        k[:, 0] = f(t[0], x[0]) if n_rows == 1 else f(np.array(t), x.T.copy()).T
        scale = tol + tol * np.abs(x)
        d0 = np.sqrt(np.add.reduce((x / scale) ** 2, axis=1) / n).tolist()
        d1 = np.sqrt(np.add.reduce((k[:, 0] / scale) ** 2, axis=1) / n).tolist()
        h_rec = [1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b for a, b in zip(d0, d1)]
        x, k, lead, stage = _live_layout(x, k)
        ax = np.abs(x)  # |x| of the live rows, carried over from an accepted |xnew|
        # while at most this many rows are live, an attempt ends on Python floats
        float_rows = _FLOAT_TAIL // n if n < 8 else 0
        b0, b2, b3, b4, b5 = _B5_WEIGHTS
        b5_rows = np.array(_B5_WEIGHTS).repeat(n).reshape(5, n)
        while True:
            # retire finished and underflowed rows; size the next step of the rest
            h, hit, drop = [], [], []
            for j, tj in enumerate(t):
                i = idx[j]
                if i == n_out or not h_rec[j] >= 1e-14 * max(1.0, abs(tj)):
                    if i < n_out:
                        status[live[j]] = 1
                    drop.append(j)
                    continue
                dt_out = out_times[i] - tj
                hit.append(h_rec[j] >= dt_out)
                h.append(min(h_rec[j], dt_out))
            n_live = len(h)
            if n_live == 0:
                break
            if drop:
                keep = [j for j in range(len(t)) if j not in drop]
                x, k, lead, stage = _live_layout(x[keep], k[keep])
                ax = np.abs(x)
                live, t, h_rec, idx = ([v[j] for j in keep] for v in (live, t, h_rec, idx))
            one = n_live == 1
            if one:
                h_x = h[0]
                ts = [t[0] + c * h_x for c in _DP_NODES]
            else:
                h_now = np.array(h)
                h_x = h_now.repeat(n).reshape(n_live, n)  # each row's h, per entry
                ts = np.array(t) + _DP_C_COL * h_now  # (7, A): row s is stage s's times
            points = [x]
            for s in range(1, 7):
                # x + h * (row . lead), the product scaled and shifted in place
                xs = _DP_ROWS[s].dot(lead[s]) if one else _DP_ROWS[s] @ lead[s]
                xs *= h_x
                xs += x
                stage[s][...] = f(ts[s], xs) if one else f(ts[s], xs.T.copy()).T
                if record is not None:
                    points.append(xs)
            # stage 6 evaluation point is the 5th-order solution itself:
            # x + h * (b0 k0 + b2 k2 + b3 k3 + b4 k4 + b5 k5), summed in that order;
            # a small attempt finishes it and the error norm on Python floats
            if n_live <= float_rows:
                q, ks, xl = (_DP_E @ k).tolist(), k.tolist(), x.tolist()
                if one:
                    q, ks, xl = [q], [ks], [xl]
                sums, rows = [], []
                for hj, xr, qr, (k0, _, k2, k3, k4, k5, _) in zip(h, xl, q, ks):
                    v, row = 0.0, []
                    for xi, qi, a0, a2, a3, a4, a5 in zip(xr, qr, k0, k2, k3, k4, k5):
                        yi = (((((0.0 + b0 * a0) + b2 * a2) + b3 * a3) + b4 * a4) + b5 * a5) * hj + xi
                        m, mn = abs(xi), abs(yi)
                        if not m >= mn and m == m:
                            m = mn
                        r = qi * hj / (tol + tol * m)
                        v += r * r
                        row.append(yi)
                    sums.append(v)
                    rows.append(row)
                xnew = ax_new = None
            else:
                xnew = np.add.reduce(b5_rows * k.take(_B5_STAGES, -2), axis=-2)
                xnew *= h_x
                xnew += x
                ax_new = np.abs(xnew)
                q = _DP_E @ k
                q *= h_x
                q /= tol + tol * np.maximum(ax, ax_new)
                q *= q
                # each row's RMS norm finished on Python floats: / and sqrt are
                # correctly rounded in both, so the bits are numpy's
                sums = np.add.reduce(q, axis=-1).tolist()
                if one:
                    sums = [sums]
            accepted, reached = [], []
            for j, v in enumerate(sums):
                e = sqrt(v / n)
                # the step factor on Python floats: numpy's vectorised pow rounds
                # differently from the scalar pow
                factor = 5.0 if e == 0.0 else min(5.0, max(0.2, 0.9 * e ** -0.2))
                if e <= 1.0:
                    accepted.append(j)
                    if record is not None:
                        record.append((t[j], h[j], hit[j], points))
                    if hit[j]:
                        t[j] = out_times[idx[j]]
                        reached.append(j)
                        h_rec[j] = max(h_rec[j], h[j] * factor)
                    else:
                        t[j] = t[j] + h[j]
                        h_rec[j] = h[j] * factor
                else:
                    h_rec[j] = h[j] * factor
            if xnew is None and accepted:
                xnew = np.array(rows[0] if one else rows)
            if len(accepted) == n_live:
                x, ax = xnew, ax_new
                stage[0][...] = stage[6]
            elif accepted:
                x[accepted] = xnew[accepted]
                k[accepted, 0] = k[accepted, 6]
                ax = np.abs(x)
            for j in reached:
                states[live[j], idx[j]] = x if one else x[j]
                idx[j] += 1
    if x0.ndim == 1:
        return int(status[0]), states[0]
    return status, states


def rk4_fixed(f, x0, t_grid, substeps=1):
    """Classic fixed-step RK4 over ``t_grid`` with ``substeps`` per interval.

    The library integrates with ``rk45_solve`` alone; this kernel remains as
    the fine fixed-step reference the tests check variational flows against.
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    x = np.array(x0, dtype=np.float64)
    out = np.empty((t_grid.size, x.size))
    out[0] = x
    for i in range(t_grid.size - 1):
        h = (t_grid[i + 1] - t_grid[i]) / substeps
        t = t_grid[i]
        for _ in range(substeps):
            k1 = f(t, x)
            k2 = f(t + 0.5 * h, x + 0.5 * h * k1)
            k3 = f(t + 0.5 * h, x + 0.5 * h * k2)
            k4 = f(t + h, x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        out[i + 1] = x
    return out
