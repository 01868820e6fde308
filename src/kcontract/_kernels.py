"""Hot numeric kernels: batched minor determinants, the adaptive
Dormand-Prince stepper that moves many starts in lockstep (vector fields
called with the states as columns), and fixed-step RK4.

Everything here is plain numpy; performance is measured with the benchmark
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# Batched minor determinants
# ---------------------------------------------------------------------------

# Keep gathered submatrix batches below ~4M floats when chunking.
_CHUNK_BUDGET = 4_000_000


def minor_dets(m: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Determinants of all |rows| x |cols| index-selected k x k minors.

    ``rows`` has shape (R, k) and ``cols`` (C, k), both 0-based.  Returns an
    (R, C) array with entry (a, b) = det(m[rows[a]][:, cols[b]]).
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    cols = np.ascontiguousarray(cols, dtype=np.int64)
    m = np.ascontiguousarray(m, dtype=np.float64)
    nr, k = rows.shape
    nc = cols.shape[0]
    if k == 0:
        return np.ones((nr, nc))
    out = np.empty((nr, nc))
    chunk = max(1, _CHUNK_BUDGET // max(1, nc * k * k))
    for start in range(0, nr, chunk):
        rsel = rows[start : start + chunk]
        # gather -> (r_chunk, C, k, k)
        sub = m[rsel[:, None, :, None], cols[None, :, None, :]]
        if k == 1:
            out[start : start + chunk] = sub[:, :, 0, 0]
        elif k == 2:
            out[start : start + chunk] = (
                sub[:, :, 0, 0] * sub[:, :, 1, 1] - sub[:, :, 0, 1] * sub[:, :, 1, 0]
            )
        elif k == 3:
            out[start : start + chunk] = (
                sub[:, :, 0, 0]
                * (sub[:, :, 1, 1] * sub[:, :, 2, 2] - sub[:, :, 1, 2] * sub[:, :, 2, 1])
                - sub[:, :, 0, 1]
                * (sub[:, :, 1, 0] * sub[:, :, 2, 2] - sub[:, :, 1, 2] * sub[:, :, 2, 0])
                + sub[:, :, 0, 2]
                * (sub[:, :, 1, 0] * sub[:, :, 2, 1] - sub[:, :, 1, 1] * sub[:, :, 2, 0])
            )
        else:
            out[start : start + chunk] = np.linalg.det(sub)
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


#: Row s of the tableau restricted to the s earlier stages, the nodes and the
#: 5th-order weights as floats: the stepper reads them once per stage.
_DP_ROWS = tuple(_DP_A[s, :s] for s in range(7))
_DP_NODES = tuple(_DP_C.tolist())
_B5 = tuple(_DP_B5.tolist())


def _live_layout(x, k):
    """The live rows' states and stage stack, without the row axis when one
    row is live, plus the per-stage views k[..., :s, :] and k[..., s, :]."""
    if x.shape[0] == 1:
        x, k = x[0], k[0]
    return x, k, [k[..., :s, :] for s in range(7)], [k[..., s, :] for s in range(7)]


def rk45_solve(f, x0, t_eval, rtol, atol, max_step=np.inf):
    """Adaptive Dormand-Prince 5(4) runs of B starts in lockstep, each
    sampled exactly at ``t_eval``.

    ``x0`` is one start, shape (n,), or a stack of starts, shape (B, n).  Each
    row keeps its own time, step size, accept/reject decision and output
    index.  ``f`` is called once per stage for all A live rows with the
    states as columns: ``f(t, x)`` with ``x`` of shape (n, A) and ``t`` of
    shape (A,), returning (n, A).  While one row is live it gets the 1-D
    state and a float ``t``.  So a row's result is bitwise the same as its own
    B = 1 run whenever ``f`` computes each column as it computes a 1-D state.

    Returns (status, states); status 0 = ok, 1 = step-size underflow.  For a
    1-D ``x0`` the status is an int and ``states`` has shape (n_out, n); for a
    stack they have shapes (B,) and (B, n_out, n).  A row that underflows is
    frozen, its samples after the last one reached are undefined, and the
    other rows go on.
    """
    t_eval = np.ascontiguousarray(t_eval, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    x = np.array(x0, ndmin=2)  # states of the live rows, (A, n)
    n_rows, n = x.shape
    out_times = t_eval.tolist()
    n_out = len(out_times)
    states = np.empty((n_rows, n_out, n))
    states[:, 0] = x
    status = np.zeros(n_rows, dtype=np.int64)
    live = list(range(n_rows))  # the start each live row belongs to
    t = [out_times[0]] * n_rows
    idx = [1] * n_rows
    k = np.empty((n_rows, 7, n))  # stage derivatives of the live rows
    k[:, 0] = f(t[0], x[0]) if n_rows == 1 else f(np.array(t), x.T).T
    scale = atol + rtol * np.abs(x)
    d0 = np.sqrt(np.add.reduce((x / scale) ** 2, axis=1) / n).tolist()
    d1 = np.sqrt(np.add.reduce((k[:, 0] / scale) ** 2, axis=1) / n).tolist()
    h_rec = [1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b for a, b in zip(d0, d1)]
    x, k, lead, stage = _live_layout(x, k)
    while True:
        # retire finished and underflowed rows; size the next step of the rest
        h, hit, drop = [], [], []
        for j, tj in enumerate(t):
            i = idx[j]
            if i == n_out or h_rec[j] < 1e-14 * max(1.0, abs(tj)):
                if i < n_out:
                    status[live[j]] = 1
                drop.append(j)
                continue
            attempt = min(h_rec[j], max_step)
            dt_out = out_times[i] - tj
            hit.append(attempt >= dt_out)
            h.append(min(attempt, dt_out))
        n_live = len(h)
        if n_live == 0:
            break
        if drop:
            keep = [j for j in range(len(t)) if j not in drop]
            x, k, lead, stage = _live_layout(x[keep], k[keep])
            live, t, h_rec, idx = ([v[j] for j in keep] for v in (live, t, h_rec, idx))
        one = n_live == 1
        if one:
            t_now, h_now = t[0], h[0]
            h_col = h_now
        else:
            t_now, h_now = np.array(t), np.array(h)
            h_col = h_now[:, None]
        for s in range(1, 7):
            xs = x + h_col * (_DP_ROWS[s] @ lead[s])
            ts = t_now + _DP_NODES[s] * h_now
            stage[s][...] = f(ts, xs) if one else f(ts, xs.T).T
        # stage 6 evaluation point is the 5th-order solution itself
        xnew = x + h_col * (
            _B5[0] * stage[0] + _B5[2] * stage[2] + _B5[3] * stage[3] + _B5[4] * stage[4]
            + _B5[5] * stage[5]
        )
        xe = h_col * (_DP_E @ k)
        sc = atol + rtol * np.maximum(np.abs(x), np.abs(xnew))
        err = np.sqrt(np.add.reduce((xe / sc) ** 2, axis=-1) / n).reshape(-1).tolist()
        accepted, reached = [], []
        for j, e in enumerate(err):
            # the step factor on Python floats: numpy's vectorised pow rounds
            # differently from the scalar pow
            factor = 5.0 if e == 0.0 else min(5.0, max(0.2, 0.9 * e ** -0.2))
            if e <= 1.0:
                accepted.append(j)
                if hit[j]:
                    t[j] = out_times[idx[j]]
                    reached.append(j)
                    h_rec[j] = max(h_rec[j], h[j] * factor)
                else:
                    t[j] = t[j] + h[j]
                    h_rec[j] = h[j] * factor
            else:
                h_rec[j] = h[j] * factor
        if len(accepted) == n_live:
            x = xnew
            stage[0][...] = stage[6]
        elif accepted:
            x[accepted] = xnew[accepted]
            k[accepted, 0] = k[accepted, 6]
        for j in reached:
            states[live[j], idx[j]] = x if one else x[j]
            idx[j] += 1
    if x0.ndim == 1:
        return int(status[0]), states[0]
    return status, states


def rk4_fixed(f, x0, t_grid, substeps=1):
    """Classic fixed-step RK4 over ``t_grid`` with ``substeps`` per interval.

    Deterministic workhorse for the state along which variational and
    compound flows are taken, where reproducibility matters more than step
    control.
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
