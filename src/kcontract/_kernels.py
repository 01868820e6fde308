"""Hot numeric kernels: batched minor determinants and the ODE steppers.

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


def rk45_solve(f, x0, t_eval, rtol, atol, max_step=np.inf):
    """Adaptive Dormand-Prince 5(4) run, sampled exactly at ``t_eval``.

    Returns (status, states); status 0 = ok, 1 = step-size underflow.
    """
    t_eval = np.ascontiguousarray(t_eval, dtype=np.float64)
    x0 = np.ascontiguousarray(x0, dtype=np.float64)
    a, b5, err_w, c_nodes = _DP_A, _DP_B5, _DP_E, _DP_C
    n = x0.shape[0]
    n_out = t_eval.shape[0]
    states = np.empty((n_out, n))
    t = t_eval[0]
    x = x0.copy()
    states[0] = x
    k = np.empty((7, n))
    k[0] = f(t, x)
    scale = atol + rtol * np.abs(x)
    d0 = np.sqrt(np.mean((x / scale) ** 2))
    d1 = np.sqrt(np.mean((k[0] / scale) ** 2))
    h_rec = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    idx = 1
    while idx < n_out:
        if h_rec < 1e-14 * max(1.0, abs(t)):
            return 1, states
        dt_out = t_eval[idx] - t
        attempt = min(h_rec, max_step)
        hit_output = attempt >= dt_out
        h = dt_out if hit_output else attempt
        for s in range(1, 7):
            xs = x + h * (a[s, :s] @ k[:s])
            k[s] = f(t + c_nodes[s] * h, xs)
        # stage 6 evaluation point is the 5th-order solution itself
        xnew = x + h * (b5[0] * k[0] + b5[2] * k[2] + b5[3] * k[3] + b5[4] * k[4] + b5[5] * k[5])
        xe = h * (err_w @ k)
        sc = atol + rtol * np.maximum(np.abs(x), np.abs(xnew))
        err = np.sqrt(np.mean((xe / sc) ** 2))
        factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        if err <= 1.0:
            x = xnew
            k[0] = k[6]
            if hit_output:
                t = t_eval[idx]
                states[idx] = x
                idx += 1
                h_rec = max(h_rec, h * factor)
            else:
                t = t + h
                h_rec = h * factor
        else:
            h_rec = h * factor
    return 0, states


def rk4_fixed(f, x0, t_grid, substeps=1):
    """Classic fixed-step RK4 over ``t_grid`` with ``substeps`` per interval.

    Deterministic workhorse for co-integrating variational and compound
    flows, where reproducibility matters more than step control.
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
