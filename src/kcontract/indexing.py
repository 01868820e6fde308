"""Increasing index sequences, block-lexicographic order and the block permutation.

Sequences are 1-based tuples at the interface; anything 0-based is internal.
The block-lexicographic order on sequences over {1..n+m} groups sequences by
how many entries point past the first n indices, which is what diagonalizes
compounds of two-block block-diagonal matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

#: Refuse compound-space dimensions beyond this (desk-scale guard).
MAX_COMPOUND_DIM = 100_000

#: Refuse dense float64 compound-space arrays larger than this many bytes.
#: Paths that never form an r x r array (the closed-form compound measures)
#: are limited by MAX_COMPOUND_DIM alone.
MAX_DENSE_BYTES = 1 << 29


class DimensionGuardError(ValueError):
    """Raised when a compound dimension exceeds MAX_COMPOUND_DIM or a dense
    compound-space array would exceed MAX_DENSE_BYTES."""


def check_dimension_guard(r: int) -> None:
    if r > MAX_COMPOUND_DIM:
        raise DimensionGuardError(
            f"compound dimension {r} exceeds the supported maximum {MAX_COMPOUND_DIM}"
        )


def check_dense_guard(entries: int, what: str = "compound") -> None:
    """Refuse a dense float64 allocation of ``entries`` values before it happens."""
    if 8 * entries > MAX_DENSE_BYTES:
        raise DimensionGuardError(
            f"dense {what} of {entries} entries ({8 * entries / 2**30:.1f} GiB) exceeds "
            f"the supported maximum of {MAX_DENSE_BYTES / 2**30:g} GiB"
        )


def _sequences(k: int, n: int) -> list[tuple[int, ...]]:
    """All increasing k-sequences from {1..n}, lexicographic; allows k = 0."""
    return list(combinations(range(1, n + 1), k))


def enumerate_sequences(k: int, n: int) -> list[tuple[int, ...]]:
    """All increasing sequences of k integers from {1..n} in lexicographic order."""
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    check_dimension_guard(comb(n, k))
    return _sequences(k, n)


@dataclass(frozen=True)
class BlockSplit:
    """Decomposition of a sequence over {1..n+m} at the first entry past n.

    ``s_alpha`` is the 1-based position of the first entry exceeding n
    (k+1 when none does), ``head`` the entries <= n and ``tail`` the
    remaining entries shifted down by n.
    """

    s_alpha: int
    head: tuple[int, ...]
    tail: tuple[int, ...]


def split_index(seq: tuple[int, ...], n: int) -> BlockSplit:
    """Split ``seq`` into its {1..n} head and its shifted-down tail."""
    s_alpha = len(seq) + 1
    for pos, v in enumerate(seq, start=1):
        if v > n:
            s_alpha = pos
            break
    head = tuple(seq[: s_alpha - 1])
    tail = tuple(v - n for v in seq[s_alpha - 1 :])
    return BlockSplit(s_alpha, head, tail)


def block_range(k: int, n: int, m: int) -> tuple[int, int]:
    """Inclusive range (i1, i2) of tail lengths occurring in Q(k, n, m)."""
    return max(0, k - n), min(m, k)


def block_lex_order(k: int, n: int, m: int) -> list[tuple[int, ...]]:
    """Sequences over {1..n+m} sorted block-lexicographically.

    Primary key: position of the first entry past n, descending (equivalently
    ascending number of tail entries); secondary key: standard lexicographic.
    """
    if not 1 <= k <= n + m:
        raise ValueError(f"k must satisfy 1 <= k <= {n + m}, got {k}")
    if n < 1 or m < 1:
        raise ValueError("block sizes n and m must be positive")
    check_dimension_guard(comb(n + m, k))
    i1, i2 = block_range(k, n, m)
    out: list[tuple[int, ...]] = []
    for i in range(i1, i2 + 1):
        for head in _sequences(k - i, n):
            for tail in _sequences(i, m):
                out.append(head + tuple(v + n for v in tail))
    return out


@dataclass(frozen=True)
class BlockPermutation:
    """Position map between standard-lex Q(k, n+m) and block-lex Q(k, n, m).

    ``positions[j]`` is the 0-based standard-lex position of the j-th
    block-lex sequence.  The associated permutation matrix P satisfies
    ``P[positions[j], j] = 1``, so that conjugating a compound of a
    block-diagonal matrix by P reveals the Kronecker blocks.
    """

    k: int
    n: int
    m: int
    positions: np.ndarray

    @property
    def size(self) -> int:
        return self.positions.size

    def matrix(self) -> np.ndarray:
        p = np.zeros((self.size, self.size))
        p[self.positions, np.arange(self.size)] = 1.0
        return p

    def apply(self, items: list) -> list:
        """Reorder a standard-lex list into block-lex order."""
        return [items[j] for j in self.positions]

    def conjugate(self, m: np.ndarray) -> np.ndarray:
        """P^{-1} M P: rewrite a compound-space matrix in block-lex coordinates."""
        return m[np.ix_(self.positions, self.positions)]

    def unconjugate(self, d: np.ndarray) -> np.ndarray:
        """P D P^{-1}: back from block-lex coordinates to standard-lex."""
        out = np.empty_like(d)
        out[np.ix_(self.positions, self.positions)] = d
        return out

    def inverse_positions(self) -> np.ndarray:
        inv = np.empty_like(self.positions)
        inv[self.positions] = np.arange(self.size)
        return inv


def _lex_rank(seq: tuple[int, ...], n: int) -> int:
    """0-based position of a 1-based increasing sequence in lex order."""
    k = len(seq)
    rank = 0
    prev = 0
    for pos, v in enumerate(seq):
        for w in range(prev + 1, v):
            rank += comb(n - w, k - pos - 1)
        prev = v
    return rank


def build_permutation(k: int, n: int, m: int) -> BlockPermutation:
    """Permutation taking standard-lex positions to block-lex positions.

    Within the block of sequences having i tail entries, position j (0-based)
    pairs head number j // binom(m, i) in Q(k-i, n) with tail number
    j % binom(m, i) in Q(i, m), matching Kronecker-product index order.
    """
    if not 1 <= k <= n + m:
        raise ValueError(f"k must satisfy 1 <= k <= {n + m}, got {k}")
    check_dimension_guard(comb(n + m, k))
    positions = np.empty(comb(n + m, k), dtype=np.int64)
    j = 0
    for seq in block_lex_order(k, n, m):
        positions[j] = _lex_rank(seq, n + m)
        j += 1
    return BlockPermutation(k, n, m, positions)
