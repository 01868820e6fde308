"""Independent oracles shared across the test suite.

These deliberately avoid the library's own code paths: minors are taken one
determinant at a time with numpy, additive compounds come from a
finite-difference limit of the exponential's compound, and closed forms are
written out longhand.  The variational-flow reference co-integrates the
state and both flows as one vector through the library's RK4 kernel, one
Jacobian call per stage.
"""

import itertools
from math import ceil, comb, prod

import numpy as np
import scipy.linalg as sla


def brute_mult_compound(m, k):
    """All k x k minors, one np.linalg.det call each."""
    m = np.asarray(m, dtype=float)
    rows = list(itertools.combinations(range(m.shape[0]), k))
    cols = list(itertools.combinations(range(m.shape[1]), k))
    out = np.empty((len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            out[i, j] = np.linalg.det(m[np.ix_(r, c)])
    return out


def _entry_rule(n, k):
    """Yield (row, col, i, j, sign): entry (row, col) of A^[k] is sign * a[i, j].

    Row sequence alpha meets column sequence beta when beta replaces the s-th
    element of alpha by some j outside alpha; the sign is (-1)^(s+t) with t
    the position of j within beta.
    """
    seqs = list(itertools.combinations(range(n), k))
    pos = {s: i for i, s in enumerate(seqs)}
    for row, alpha in enumerate(seqs):
        for s, v in enumerate(alpha):
            for j in range(n):
                if j in alpha:
                    continue
                beta = tuple(sorted(set(alpha) - {v} | {j}))
                yield row, pos[beta], v, j, 1.0 if (s + beta.index(j)) % 2 == 0 else -1.0


def brute_add_compound(a, k):
    """A^[k] by the entry rule, one entry at a time."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    seqs = list(itertools.combinations(range(n), k))
    out = np.zeros((len(seqs), len(seqs)))
    for i, alpha in enumerate(seqs):
        out[i, i] = sum(a[v, v] for v in alpha)
    for row, col, i, j, sign in _entry_rule(n, k):
        out[row, col] = sign * a[i, j]
    return out


def brute_add_compound_interval(lo, hi, k):
    """Entrywise enclosure of A^[k] over lo <= A <= hi, one entry at a time."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n = lo.shape[0]
    seqs = list(itertools.combinations(range(n), k))
    out_lo, out_hi = np.zeros((len(seqs), len(seqs))), np.zeros((len(seqs), len(seqs)))
    for i, alpha in enumerate(seqs):
        out_lo[i, i] = sum(lo[v, v] for v in alpha)
        out_hi[i, i] = sum(hi[v, v] for v in alpha)
    for row, col, i, j, sign in _entry_rule(n, k):
        if sign > 0:
            out_lo[row, col], out_hi[row, col] = lo[i, j], hi[i, j]
        else:
            out_lo[row, col], out_hi[row, col] = -hi[i, j], -lo[i, j]
    return out_lo, out_hi


def brute_lift(s, k):
    """Product of the scaling factors over each increasing k-sequence."""
    seqs = itertools.combinations(range(len(s)), k)
    return np.array([prod(s[v] for v in alpha) for alpha in seqs], dtype=float)


def brute_compound_measure(a, k, p):
    """L1 ('1') or Linf ('inf') measure of A^[k] by its closed form, one
    sequence at a time: diagonal entries of alpha plus the absolute column
    [row] mass the indices outside alpha contribute."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    absa, diag = np.abs(a), np.diag(a)
    best = -np.inf
    for alpha in itertools.combinations(range(n), k):
        idx = list(alpha)
        outside = np.ones(n, dtype=bool)
        outside[idx] = False
        block = absa[np.ix_(outside, idx)] if p == "1" else absa[np.ix_(idx, outside)]
        best = max(best, float(diag[idx].sum() + block.sum()))
    return best


def fd_add_compound(a, k, h1=1e-5, h2=1e-6):
    """Richardson-extrapolated finite difference of t -> (exp(At))^(k) at 0."""
    a = np.asarray(a, dtype=float)
    r = comb(a.shape[0], k)

    def slope(h):
        return (brute_mult_compound(sla.expm(a * h), k) - np.eye(r)) / h

    g1, g2 = slope(h1), slope(h2)
    return (h1 * g2 - h2 * g1) / (h1 - h2)


def triangular4_third_compound(a):
    """Closed form of the third multiplicative compound of an upper-triangular
    4 x 4 matrix, written out entry by entry."""
    a11, a12, a13, a14 = a[0]
    a22, a23, a24 = a[1, 1:]
    a33, a34 = a[2, 2:]
    a44 = a[3, 3]
    return np.array(
        [
            [
                a11 * a22 * a33,
                a11 * a22 * a34,
                a11 * (a23 * a34 - a24 * a33),
                a14 * a22 * a33 - a12 * a24 * a33 - a13 * a22 * a34 + a12 * a23 * a34,
            ],
            [0.0, a11 * a22 * a44, a11 * a23 * a44, a12 * a23 * a44 - a13 * a22 * a44],
            [0.0, 0.0, a11 * a33 * a44, a12 * a33 * a44],
            [0.0, 0.0, 0.0, a22 * a33 * a44],
        ]
    )


def sorted_eigs(m):
    return np.sort_complex(np.linalg.eigvals(m))


def eig_match_error(expected, got):
    """Worst distance under the optimal pairing of two eigenvalue multisets.

    Robust against the order flips that lexicographic complex sorting
    suffers when real parts tie to rounding.
    """
    from scipy.optimize import linear_sum_assignment

    expected = np.asarray(expected)
    got = np.asarray(got)
    cost = np.abs(expected[:, None] - got[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def well_conditioned(rng, n, spread=(0.5, 2.0)):
    """Random matrix with singular values inside ``spread``."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = rng.uniform(*spread, size=n)
    return q1 @ np.diag(s) @ q2


def rel_err(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    return float(np.abs(actual - expected).max(initial=0.0)) / scale


def reference_variational_flow(sysm, trajectory, k, max_step=0.005):
    """States, Phi and Psi along the trajectory's grid by fixed-step RK4 on
    the stacked vector (x, Phi, Psi), with a per-stage right-hand side."""
    from kcontract._kernels import rk4_fixed

    n = sysm.state_dim
    r = comb(n, k)
    u0 = np.concatenate([trajectory.states[0], np.eye(n).ravel(), np.eye(r).ravel()])

    def rhs(t, u):
        x = u[:n]
        phi = u[n : n + n * n].reshape(n, n)
        psi = u[n + n * n :].reshape(r, r)
        j = np.array(sysm.jacobian(t, x), dtype=float)
        jk = brute_add_compound(j, k)
        return np.concatenate([sysm.f(t, x), (j @ phi).ravel(), (jk @ psi).ravel()])

    times = trajectory.times
    substeps = max(1, ceil(float(np.max(np.diff(times))) / max_step))
    sol = rk4_fixed(rhs, u0, times, substeps=substeps)
    flow = sol[:, n : n + n * n].reshape(-1, n, n)
    return sol[:, :n], flow, sol[:, n + n * n :].reshape(-1, r, r)
