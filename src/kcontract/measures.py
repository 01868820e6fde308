"""Matrix measures (logarithmic norms), compound-measure closed forms and
hierarchic-norm bounds.

Measures induced by L1 / L2 / Linf are computed by their classical closed
forms; a measure may carry a similarity scaling T, meaning the measure of
T M T^{-1}.  The compound-measure closed forms avoid assembling the compound
matrix; the hierarchic machinery implements the block lower/upper bounds and
their equality on block-diagonal matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from math import comb

from . import indexing
from .compounds import _interval_matrix, add_compound, as_matrix, require_square
from .indexing import block_range, check_dimension_guard, compound_index


@dataclass(frozen=True, eq=False)
class MeasureKind:
    """A vector-norm choice among L1/L2/Linf, optionally similarity-scaled.

    With ``scaling`` T, norms become |y|_T = |T y| and measures become
    mu(T M T^{-1}).  T must match the dimension of the measured matrix.
    """

    p: str
    scaling: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.p not in ("1", "2", "inf"):
            raise ValueError(f"unsupported norm tag {self.p!r}; use '1', '2' or 'inf'")
        if self.scaling is not None:
            t = require_square(as_matrix(self.scaling, "scaling"), "scaling")
            if np.linalg.cond(t) > 1e12:
                raise ValueError("scaling matrix is singular or near-singular")
            object.__setattr__(self, "scaling", t)

    def label(self) -> str:
        base = {"1": "L1", "2": "L2", "inf": "Linf"}[self.p]
        return base if self.scaling is None else base + "-scaled"


L1 = MeasureKind("1")
L2 = MeasureKind("2")
LINF = MeasureKind("inf")


def parse_kind(text: str) -> MeasureKind:
    key = text.strip().lower()
    table = {"1": L1, "l1": L1, "2": L2, "l2": L2, "inf": LINF, "linf": LINF, "oo": LINF}
    if key not in table:
        raise ValueError(f"unknown measure kind {text!r}")
    return table[key]


def _apply_scaling(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    if t.shape[0] != m.shape[0]:
        raise ValueError(
            f"scaling dimension {t.shape[0]} does not match matrix dimension {m.shape[0]}"
        )
    return np.linalg.solve(t.T, (t @ m).T).T  # T M T^{-1}


def matrix_measure(m, kind: MeasureKind = L2) -> float:
    """Matrix measure of a square matrix under the chosen norm."""
    a = require_square(as_matrix(m))
    if kind.scaling is not None:
        a = _apply_scaling(a, kind.scaling)
    if kind.p == "1":
        off = np.abs(a).sum(axis=0) - np.abs(np.diag(a))
        return float(np.max(np.diag(a) + off))
    if kind.p == "inf":
        off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        return float(np.max(np.diag(a) + off))
    return float(np.linalg.eigvalsh((a + a.T) / 2.0)[-1])


def induced_norm(m, p_from: str, p_to: Optional[str] = None) -> float:
    """Operator norm of a (possibly rectangular) matrix from Lp to Lq.

    Exact closed forms exist for (1->1), (2->2), (inf->inf), (1->inf),
    (1->2) and (2->inf); the remaining mixed pairs are rejected so bounds
    built from these norms stay sound.
    """
    a = as_matrix(m)
    q = p_from if p_to is None else p_to
    pair = (p_from, q)
    if pair == ("1", "1"):
        return float(np.abs(a).sum(axis=0).max())
    if pair == ("inf", "inf"):
        return float(np.abs(a).sum(axis=1).max())
    if pair == ("2", "2"):
        return float(np.linalg.svd(a, compute_uv=False)[0]) if a.size else 0.0
    if pair == ("1", "inf"):
        return float(np.abs(a).max())
    if pair == ("1", "2"):
        return float(np.sqrt((a * a).sum(axis=0).max()))
    if pair == ("2", "inf"):
        return float(np.sqrt((a * a).sum(axis=1).max()))
    raise ValueError(f"no exact closed form for the L{p_from} -> L{q} induced norm")


def compound_measures(mats, k: int, kind: MeasureKind) -> np.ndarray:
    """Measures of the k-th additive compounds of a stack of matrices.

    ``mats`` has shape (B, n, n); returns the B measures.  For L1 [Linf] each
    maximizes, over increasing k-sequences alpha, the sum of the selected
    diagonal entries plus the absolute column [row] mass that the remaining
    indices contribute; no compound is formed.  For L2 it is the sum of the k
    largest eigenvalues of the symmetric part.  Scaled kinds assemble each
    compound.  By convention the 0-th compound has measure 0.
    """
    a = np.asarray(mats, dtype=np.float64)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    n = a.shape[1]
    if not 0 <= k <= n:
        raise ValueError(f"k must satisfy 0 <= k <= {n}, got {k}")
    if k == 0:
        return np.zeros(a.shape[0])
    check_dimension_guard(comb(n, k))
    if kind.scaling is not None:
        return np.array([matrix_measure(add_compound(m, k).data, kind) for m in a])
    if kind.p == "2":
        eig = np.linalg.eigvalsh((a + np.swapaxes(a, 1, 2)) / 2.0)
        return np.ascontiguousarray(eig[:, n - k :]).sum(axis=1)
    index = compound_index(n, k)
    inside, outside = index.seqs, index.complement
    if kind.p == "1":  # column mass: rows outside alpha, columns in alpha
        rows, cols = outside[:, :, None], inside[:, None, :]
    else:
        rows, cols = inside[:, :, None], outside[:, None, :]
    diag = np.diagonal(a, axis1=1, axis2=2)
    out = np.empty(a.shape[0])
    step = max(1, indexing.BATCH_BYTES // (8 * index.r * max(1, k * (n - k))))
    for lo in range(0, a.shape[0], step):
        absa = np.abs(a[lo : lo + step])
        # Gathers made C-contiguous, so that each sum runs over one
        # sequence's entries in the same pairwise order as a 1-D .sum()
        diag_sum = np.ascontiguousarray(diag[lo : lo + step][:, inside]).sum(axis=2)
        block = np.ascontiguousarray(absa[:, rows, cols]).reshape(absa.shape[0], index.r, -1)
        out[lo : lo + step] = (diag_sum + block.sum(axis=2)).max(axis=1)
    return out


def compound_measure(m, k: int, kind: MeasureKind) -> float:
    """Measure of the k-th additive compound of one matrix, via the closed
    forms of ``compound_measures``."""
    a = require_square(as_matrix(m))
    return float(compound_measures(a[None], k, kind)[0])


def interval_measure_upper(lo, hi, p: str, scale_diag=None) -> float:
    """Worst-case L1/Linf measure over the entrywise interval [lo, hi].

    Diagonal entries enter at their upper bounds and off-diagonal entries at
    their largest magnitude, which the L1/Linf measure formulas are monotone
    in; an optional positive diagonal scaling s maps entry (i, j) to
    s_i/s_j * m_ij.  Exact when lo == hi; infinite bounds yield +inf.
    """
    lo = _interval_matrix(lo, "lo")
    hi = _interval_matrix(hi, "hi")
    if p not in ("1", "inf"):
        raise ValueError("interval worst-case measures support only L1 and Linf")
    if np.any(lo > hi):
        raise ValueError("entry bounds must satisfy lo <= hi")
    n = lo.shape[0]
    mag = np.maximum(np.abs(lo), np.abs(hi))
    diag_hi = np.diag(hi).copy()
    if scale_diag is not None:
        s = np.asarray(scale_diag, dtype=np.float64).ravel()
        if s.size != n or np.any(s <= 0):
            raise ValueError("scale_diag must be a positive vector of matching size")
        mag = mag * np.outer(s, 1.0 / s)
    off = mag.copy()
    np.fill_diagonal(off, 0.0)
    if p == "1":
        return float(np.max(diag_hi + off.sum(axis=0)))
    return float(np.max(diag_hi + off.sum(axis=1)))


# ---------------------------------------------------------------------------
# Hierarchic norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HierarchicNormSpec:
    """Partition of R^s into blocks with per-block Lp norms and an outer
    monotonic norm combining the block norms (Linf by default)."""

    partition: Sequence[int]
    block_measures: Sequence[MeasureKind]
    outer: str = "inf"

    def __post_init__(self):
        if len(self.partition) != len(self.block_measures):
            raise ValueError("partition and block_measures must have the same length")
        if any(s <= 0 for s in self.partition):
            raise ValueError("block sizes must be positive")
        if self.outer not in ("1", "2", "inf"):
            raise ValueError("outer norm must be one of '1', '2', 'inf'")
        for kind in self.block_measures:
            if kind.scaling is not None:
                raise ValueError("hierarchic blocks must use plain Lp measures")

    @property
    def size(self) -> int:
        return int(sum(self.partition))

    def offsets(self) -> list[tuple[int, int]]:
        out = []
        at = 0
        for s in self.partition:
            out.append((at, at + s))
            at += s
        return out


def _blocks_of(m: np.ndarray, spec: HierarchicNormSpec):
    offs = spec.offsets()
    return [[m[a:b, c:d] for (c, d) in offs] for (a, b) in offs]


def _block_norms(m: np.ndarray, spec: HierarchicNormSpec, diagonal: bool = True) -> np.ndarray:
    """The r x r upper bounds of the block norms |M_ij| from L{p_j} to L{p_i}.

    ``induced_norm`` gives them where it has a closed form; the remaining
    pairs (inf->1, 2->1, inf->2) take the entry mass sum |M_ij|, which
    bounds the operator norm between any two Lp norms.  Zero blocks are 0,
    and so is the diagonal without ``diagonal``.  ``m`` must be finite, so
    ``induced_norm`` refuses a block only for its pair.
    """
    ps = [kind.p for kind in spec.block_measures]
    out = np.zeros((len(ps), len(ps)))
    for i, row in enumerate(_blocks_of(m, spec)):
        for j, block in enumerate(row):
            if (i == j and not diagonal) or not np.any(block):
                continue
            try:
                out[i, j] = induced_norm(block, ps[j], ps[i])
            except ValueError:
                out[i, j] = np.abs(block).sum()
    return out


def hierarchic_measure_bounds(m, spec: HierarchicNormSpec):
    """Lower and upper bounds for the measure under the hierarchic norm.

    Returns (lower, upper, C) where C holds the block measures mu_i(M_ii) on
    its diagonal and the block-norm bounds of ``_block_norms`` off it (the
    entry mass where a pair has no closed form, so every pair of plain Lp
    blocks is accepted); lower = max_i mu_i(M_ii), upper = mu_outer(C).  The
    two coincide for block-diagonal input.
    """
    a = require_square(as_matrix(m))
    if a.shape[0] != spec.size:
        raise ValueError(f"partition sums to {spec.size}, matrix has size {a.shape[0]}")
    c = _block_norms(a, spec, diagonal=False)
    for i, (lo, hi) in enumerate(spec.offsets()):
        c[i, i] = matrix_measure(a[lo:hi, lo:hi], spec.block_measures[i])
    lower = float(np.max(np.diag(c)))
    upper = matrix_measure(c, MeasureKind(spec.outer))
    return lower, upper, c


def hierarchic_vector_norm(x, spec: HierarchicNormSpec) -> float:
    v = np.asarray(x, dtype=np.float64).ravel()
    if v.size != spec.size:
        raise ValueError("vector does not match the partition")
    parts = []
    for (a, b), kind in zip(spec.offsets(), spec.block_measures):
        seg = v[a:b]
        if kind.p == "1":
            parts.append(np.abs(seg).sum())
        elif kind.p == "2":
            parts.append(np.sqrt((seg * seg).sum()))
        else:
            parts.append(np.abs(seg).max() if seg.size else 0.0)
    parts = np.array(parts)
    if spec.outer == "1":
        return float(parts.sum())
    if spec.outer == "2":
        return float(np.sqrt((parts * parts).sum()))
    return float(parts.max())


def hierarchic_operator_norm_upper(m, spec: HierarchicNormSpec) -> float:
    """Upper bound for the operator norm induced by the hierarchic norm:
    the outer-induced norm of the nonnegative matrix of block-norm bounds."""
    return induced_norm(_block_norms(require_square(as_matrix(m)), spec), spec.outer)


def block_diag_compound_measure(a, b, k: int, per_i_kinds) -> tuple[float, float]:
    """Measure of diag(A, B)^[k] under the permuted hierarchic norm.

    Equals max_i { mu_i(A^[k-i]) + mu_i(B^[i]) } over the block range, with
    the matching lower bound min_i { -mu_i(-A^[k-i]) - mu_i(-B^[i]) }.
    ``per_i_kinds`` is one MeasureKind per i in i1..i2, or a single kind.
    """
    a = require_square(as_matrix(a, "A"), "A")
    b = require_square(as_matrix(b, "B"), "B")
    n, m = a.shape[0], b.shape[0]
    if not 1 <= k <= n + m:
        raise ValueError(f"k must satisfy 1 <= k <= {n + m}, got {k}")
    i1, i2 = block_range(k, n, m)
    kinds = _broadcast_kinds(per_i_kinds, i2 - i1 + 1)
    value = -np.inf
    lower = np.inf
    for kind, i in zip(kinds, range(i1, i2 + 1)):
        if kind.scaling is not None:
            raise ValueError("per-block measures must be plain Lp measures")
        value = max(value, compound_measure(a, k - i, kind) + compound_measure(b, i, kind))
        lower = min(lower, -compound_measure(-a, k - i, kind) - compound_measure(-b, i, kind))
    return float(value), float(lower)


def _broadcast_kinds(kinds, count: int) -> list[MeasureKind]:
    if isinstance(kinds, MeasureKind):
        return [kinds] * count
    kinds = list(kinds)
    if len(kinds) != count:
        raise ValueError(f"expected {count} measure kinds, got {len(kinds)}")
    return kinds
