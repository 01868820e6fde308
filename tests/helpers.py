"""Independent oracles shared across the test suite.

These deliberately avoid the library's own code paths: minors are taken one
determinant at a time with numpy, additive compounds come from a
finite-difference limit of the exponential's compound, and closed forms are
written out longhand.  The variational-flow references integrate the state
and both flows as one vector, one Jacobian call per stage: by the library's
RK4 kernel at a small fixed step, and by the Dormand-Prince tableau at the
step sizes of the library's own run.
"""

import itertools
from fractions import Fraction
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


def closed_form_minors(m, k):
    """All k x k minors of m for k = 1, 2, 3 by the expansions along the first
    row written out over one gathered (R, C, k, k) stack, each minor's terms
    summed left to right: the expressions the minors kernel used to special-case."""
    m = np.asarray(m, dtype=float)
    rows = np.array(list(itertools.combinations(range(m.shape[0]), k)))
    cols = np.array(list(itertools.combinations(range(m.shape[1]), k)))
    sub = m[rows[:, None, :, None], cols[None, :, None, :]]
    if k == 1:
        return sub[:, :, 0, 0]
    if k == 2:
        return sub[:, :, 0, 0] * sub[:, :, 1, 1] - sub[:, :, 0, 1] * sub[:, :, 1, 0]
    if k == 3:
        return (
            sub[:, :, 0, 0]
            * (sub[:, :, 1, 1] * sub[:, :, 2, 2] - sub[:, :, 1, 2] * sub[:, :, 2, 1])
            - sub[:, :, 0, 1]
            * (sub[:, :, 1, 0] * sub[:, :, 2, 2] - sub[:, :, 1, 2] * sub[:, :, 2, 0])
            + sub[:, :, 0, 2]
            * (sub[:, :, 1, 0] * sub[:, :, 2, 1] - sub[:, :, 1, 1] * sub[:, :, 2, 0])
        )
    raise ValueError(f"closed forms exist for k = 1, 2, 3 only, got {k}")


def exact_det_and_permanent(sub):
    """det(S) and per(|S|) of a float matrix S exactly, as Fractions: the
    entries scaled by one power of two to integers, then summed over all
    permutations."""
    entries = [[Fraction(v) for v in row] for row in np.asarray(sub, dtype=float).tolist()]
    k = len(entries)
    scale = max((x.denominator for row in entries for x in row), default=1)
    ints = [[int(x * scale) for x in row] for row in entries]
    det = per = 0
    for perm in itertools.permutations(range(k)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = prod(ints[i][j] for i, j in enumerate(perm))
        det += -term if inversions % 2 else term
        per += abs(term)
    return Fraction(det, scale**k), Fraction(per, scale**k)


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


def hierarchic_block_diag_norm(m, spec, tol=1e-12):
    """Exact hierarchic operator norm of a block-diagonal matrix: the
    largest induced Lp norm of its diagonal blocks.  Refuses a matrix with
    off-diagonal block mass above ``tol`` max(1, max |m|)."""
    from kcontract.measures import induced_norm

    a = np.asarray(m, dtype=float)
    offs = spec.offsets()
    off_mass = sum(
        float(np.abs(a[lo:hi, c:d]).max(initial=0.0))
        for i, (lo, hi) in enumerate(offs)
        for j, (c, d) in enumerate(offs)
        if i != j
    )
    if off_mass > tol * max(1.0, float(np.abs(a).max())):
        raise ValueError("matrix is not block-diagonal under this partition")
    kinds = spec.block_measures
    return max(induced_norm(a[lo:hi, lo:hi], kind.p) for (lo, hi), kind in zip(offs, kinds))


def _stacked_flow(sysm, trajectory, ks):
    """The start (x0, I_n, I_r, ...) and right-hand side of the stacked
    vector (x, Phi, Psi_k for each k in ``ks``), with one Jacobian call per
    evaluation and each J^[k] taken by the entry rule (brute_add_compound of
    each unit matrix, applied as one linear map), and the split of a
    solution back into states, Phi and the list of Psi_k."""
    n = sysm.state_dim
    sizes = [comb(n, k) for k in ks]
    unit = np.eye(n * n).reshape(-1, n, n)
    entry_maps = [np.array([brute_add_compound(e, k).ravel() for e in unit]).T for k in ks]
    at = np.cumsum([n, n * n] + [r * r for r in sizes])

    def rhs(t, u):
        x = u[:n]
        j = np.array(sysm.jacobian(t, x), dtype=float)
        parts = [sysm.f(t, x), (j @ u[n : at[1]].reshape(n, n)).ravel()]
        for m, r, lo, hi in zip(entry_maps, sizes, at[1:], at[2:]):
            parts.append(((m @ j.ravel()).reshape(r, r) @ u[lo:hi].reshape(r, r)).ravel())
        return np.concatenate(parts)

    def split(sol):
        psi = [sol[:, lo:hi].reshape(-1, r, r) for r, lo, hi in zip(sizes, at[1:], at[2:])]
        return sol[:, :n], sol[:, n : at[1]].reshape(-1, n, n), psi

    eyes = [np.eye(d).ravel() for d in [n] + sizes]
    u0 = np.concatenate([trajectory.states[0]] + eyes)
    return u0, rhs, split


def reference_variational_flow(sysm, trajectory, max_step):
    """States, Phi and the list of Psi_k for k = 1..n along the trajectory's
    grid by fixed-step RK4 on the stacked vector (x, Phi, Psi_1, ..., Psi_n):
    the tight independent reference."""
    from kcontract._kernels import rk4_fixed

    u0, rhs, split = _stacked_flow(sysm, trajectory, range(1, sysm.state_dim + 1))
    times = trajectory.times
    substeps = max(1, ceil(float(np.max(np.diff(times))) / max_step))
    return split(rk4_fixed(rhs, u0, times, substeps=substeps))


def dopri_variational_flow(sysm, trajectory, k, substeps):
    """States, Phi and Psi along the trajectory's grid by the Dormand-Prince
    tableau applied to the stacked vector (x, Phi, Psi), one stage at a
    time, over the accepted steps of the library's run from the
    trajectory's start (rtol = atol = 1e-10): step i is taken as
    ``substeps[i]`` equal steps from its recorded start state, Phi and Psi
    carried over."""
    from kcontract._kernels import _DP_A, _DP_B5, _DP_C, rk45_solve

    steps = []
    rk45_solve(sysm.f, trajectory.states[0], trajectory.times, 1e-10, 1e-10, record=steps)
    u, rhs, split = _stacked_flow(sysm, trajectory, [k])
    out = [u]
    for (t, h, hit, points), m in zip(steps, substeps):
        u = np.concatenate([points[0], u[sysm.state_dim :]])
        h = h / m
        for _ in range(m):
            ks = []
            for s in range(6):
                ks.append(rhs(t + _DP_C[s] * h, u + h * sum(a * kj for a, kj in zip(_DP_A[s], ks))))
            u = u + h * sum(b * kj for b, kj in zip(_DP_B5, ks))
            t = t + h
        if hit:
            out.append(u)
    states, flow, (compound_flow,) = split(np.array(out))
    return states, flow, compound_flow
