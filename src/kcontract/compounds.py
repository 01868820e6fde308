"""Multiplicative and additive matrix compounds, Kronecker algebra and the
block-diagonal compound decomposition.

The k-th multiplicative compound collects all k x k minors in lexicographic
order; the k-th additive compound is its derivative along the matrix
exponential at t = 0 and is assembled here by the standard entry rule
(single-entry off-diagonals with alternating sign, diagonal sums on the
diagonal), read from one cached ``CompoundIndex`` table per (n, k) that
every compound-space operation shares.  0-th compounds follow the
convention M^(0) = [1], M^[0] = [0], which the k = 0 table's one empty
sequence gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .indexing import (
    BlockPermutation,
    block_range,
    build_permutation,
    check_dense_guard,
    compound_index,
)


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and return a dense 2-D float array with finite entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _interval_matrix(m, name: str) -> np.ndarray:
    """Validate a square bound matrix: entries may be +/-inf but never NaN."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array")
    if np.isnan(a).any():
        raise ValueError(f"{name} contains NaN entries")
    return a


def require_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class CompoundMatrix:
    """A k-th compound's matrix."""

    data: np.ndarray


#: The table cache under its former name: perfbench's traced runs read
#: ``cache_info()`` from it as the ``compounds.entry_table`` metrics.
_add_compound_entries = compound_index


def mult_compound(m, k: int) -> CompoundMatrix:
    """k-th multiplicative compound: entry (a, b) is det(m[rows_a | cols_b]).

    Rows and columns are indexed by the increasing k-sequences over the row
    and column index sets, in lexicographic order.  The minors come from
    ``_kernels.minor_dets``: Laplace expansion along the first row, each
    k-minor from the cached (k-1)-minors.  For k <= 3 the entries are
    bitwise the written-out 2 x 2 and 3 x 3 expansions; no LAPACK routine is
    called, so results do not depend on the LAPACK build.  Each entry's
    rounding error is at most gamma_2k per(|minor|); a nearly singular minor
    can have a larger error relative to its own size than an LU determinant.
    Shapes where the recursion would do more work than LU, or pass through
    levels above the guards (k > p/2 from p = 20 columns on), take one LU
    determinant per minor.
    """
    a = as_matrix(m)
    rows, cols = a.shape
    if not 0 <= k <= min(rows, cols):
        raise ValueError(f"k must satisfy 0 <= k <= {min(rows, cols)}, got {k}")
    row_index, col_index = compound_index(rows, k), compound_index(cols, k)
    check_dense_guard(row_index.r * col_index.r)
    return CompoundMatrix(_kernels.minor_dets(a, row_index.seqs, col_index.seqs))


def add_compound(m, k: int) -> CompoundMatrix:
    """k-th additive compound of a square matrix."""
    a = require_square(as_matrix(m))
    index = compound_index(a.shape[0], k)
    check_dense_guard(index.r**2)
    return CompoundMatrix(index.additive(a))


def add_compound_interval(lo, hi, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise interval enclosure of A^[k] over all A with lo <= A <= hi.

    Sound because every compound entry is either a sum of diagonal entries
    or a signed copy of a single entry of A.
    """
    lo = require_square(as_matrix(lo, "lo"))
    hi = require_square(as_matrix(hi, "hi"))
    if lo.shape != hi.shape:
        raise ValueError("lo and hi must have identical shapes")
    if np.any(lo > hi):
        raise ValueError("entry bounds must satisfy lo <= hi")
    index = compound_index(lo.shape[0], k)
    check_dense_guard(index.r**2)
    return index.additive_interval(lo, hi)


def lift_diagonal_scaling(s, k: int) -> np.ndarray:
    """Compound-space diagonal induced by a positive diagonal state scaling:
    the entry for an increasing sequence is the product of its factors."""
    s = np.asarray(s, dtype=np.float64).ravel()
    if np.any(s <= 0):
        raise ValueError("state scaling must be positive")
    return compound_index(s.size, k).lift(s)


def kron_product(a, b) -> np.ndarray:
    """Kronecker product A (x) B."""
    return np.kron(as_matrix(a), as_matrix(b))


def kron_sum(a, b) -> np.ndarray:
    """Kronecker sum A (+) B = A (x) I_m + I_n (x) B for square A, B."""
    a = require_square(as_matrix(a, "A"), "A")
    b = require_square(as_matrix(b, "B"), "B")
    n, m = a.shape[0], b.shape[0]
    return np.kron(a, np.eye(m)) + np.kron(np.eye(n), b)


@dataclass(frozen=True)
class BlockDecomposition:
    """Compound of diag(A, B) as a permutation-conjugated block diagonal.

    ``blocks`` lists (i, block) for i = i1..i2 of ``block_range``, where
    block i couples the (k-i)-compound of A with the i-compound of B
    (Kronecker product for the multiplicative case, Kronecker sum for the
    additive case).  k and the sizes n of A and m of B are the permutation's.
    """

    kind: str
    permutation: BlockPermutation
    blocks: list[tuple[int, np.ndarray]]

    def block_diagonal(self) -> np.ndarray:
        sizes = [b.shape[0] for _, b in self.blocks]
        r = sum(sizes)
        out = np.zeros((r, r))
        at = 0
        for (_, b), s in zip(self.blocks, sizes):
            out[at : at + s, at : at + s] = b
            at += s
        return out

    def reconstruct(self) -> np.ndarray:
        """P diag(blocks) P^{-1}, the compound of diag(A, B) in standard order."""
        return self.permutation.unconjugate(self.block_diagonal())

    def partition(self) -> list[int]:
        return [b.shape[0] for _, b in self.blocks]


def _block_decompose(a, b, k: int, kind: str) -> BlockDecomposition:
    a = require_square(as_matrix(a, "A"), "A")
    b = require_square(as_matrix(b, "B"), "B")
    n, m = a.shape[0], b.shape[0]
    perm = build_permutation(k, n, m)
    check_dense_guard(perm.size**2)
    i1, i2 = block_range(k, n, m)
    blocks = []
    for i in range(i1, i2 + 1):
        if kind == "mult":
            blk = kron_product(mult_compound(a, k - i).data, mult_compound(b, i).data)
        else:
            blk = kron_sum(add_compound(a, k - i).data, add_compound(b, i).data)
        blocks.append((i, blk))
    return BlockDecomposition(kind, perm, blocks)


def block_diag_mult_decompose(a, b, k: int) -> BlockDecomposition:
    """diag(A, B)^(k) = P diag_i(A^(k-i) (x) B^(i)) P^{-1}."""
    return _block_decompose(a, b, k, "mult")


def block_diag_add_decompose(a, b, k: int) -> BlockDecomposition:
    """diag(A, B)^[k] = P diag_i(A^[k-i] (+) B^[i]) P^{-1}."""
    return _block_decompose(a, b, k, "add")
