"""Increasing index sequences, the compound index table, block-lexicographic
order and the block permutation.

Sequences are 1-based tuples at the interface; anything 0-based is internal.
Every sequence list is read from the one cached ``CompoundIndex`` table of
its (n, k).  The block-lexicographic order on sequences over {1..n+m}
groups sequences by how many entries point past the first n indices, which
is what diagonalizes compounds of two-block block-diagonal matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb

import numpy as np

#: Refuse compound-space dimensions beyond this (desk-scale guard).
MAX_COMPOUND_DIM = 100_000

#: Refuse dense float64 compound-space arrays larger than this many bytes.
#: Paths that never form an r x r array (the closed-form compound measures)
#: are limited by MAX_COMPOUND_DIM alone.
MAX_DENSE_BYTES = 1 << 29

#: Bytes of stacked matrices one batched call holds at once: the sampled
#: Jacobians of a grid certificate, the gathered |A| blocks of a compound
#: measure, and the stage and step matrices of a variational flow.  Longer
#: stacks are walked in chunks, each giving bitwise the same values.
BATCH_BYTES = 1 << 24


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


class CompoundIndex:
    """Index table of the k-th compound space over n indices.

    Compound rows and columns are indexed by the increasing k-sequences alpha
    in lexicographic order.  The table holds them 0-based, ``seqs`` (r, k),
    with each one's remaining indices in ``complement`` (r, n - k), and the
    additive compound's entry rule (Muldowney 1990) as a flat scatter: entry
    ``dest`` of the flattened r x r compound is ``sign * A.flat[src]``, and
    diagonal entry alpha is ``0 + A.flat[diag_src[0, alpha]] + ...`` summed
    left to right over the rows of ``diag_src`` (k, r).  Row alpha meets
    column beta off the diagonal when beta replaces the s-th element of alpha
    by some j outside alpha; the sign is (-1)^(s+t) with t the position of j
    within beta.

    ``rank`` maps sequences to their lex positions (the combinatorial number
    system), and ``drop_rank`` (k, r) holds, for each entry position j and
    each sequence, the position of the sequence without its j-th entry in the
    (k-1)-table: the gather indices of the Laplace recursion for minors.

    Build tables through ``compound_index``, which caches them.  The scatter
    and the drop-one ranks are built on first use, so the closed forms, which
    need only the sequences, never pay for them.  All arrays are read-only.
    """

    def __init__(self, n: int, k: int):
        if not 0 <= k <= n:
            raise ValueError(f"k must satisfy 0 <= k <= {n}, got {k}")
        self.n, self.k, self.r = n, k, comb(n, k)
        seqs = np.array(list(combinations(range(n), k)), dtype=np.int64).reshape(self.r, k)
        outside = np.ones((self.r, n), dtype=bool)
        outside[np.arange(self.r)[:, None], seqs] = False
        self.seqs = _frozen(seqs)
        self.complement = _frozen(np.nonzero(outside)[1].reshape(self.r, n - k))
        self.diag_src = _frozen(np.ascontiguousarray(seqs.T) * (n + 1))
        self.diag_dest = _frozen(np.arange(self.r) * (self.r + 1))

    @cached_property
    def _binom(self) -> np.ndarray:
        # every term the rank sums is below r, so clipping the table there is exact
        return np.array(
            [[min(comb(a, b), self.r) for b in range(self.k + 1)] for a in range(self.n)],
            dtype=np.int64,
        ).reshape(self.n, self.k + 1)

    def rank(self, seqs: np.ndarray) -> np.ndarray:
        """Lex ranks in this table of the 0-based increasing k-sequences in
        the last axis of ``seqs``: r - 1 - sum_p C(n-1-c[k-1-p], p+1)."""
        n, k, binom = self.n, self.k, self._binom
        rank = np.full(seqs.shape[:-1], self.r - 1, dtype=np.int64)
        for p in range(k):
            rank -= binom[n - 1 - seqs[..., k - 1 - p], p + 1]
        return rank

    @cached_property
    def drop_rank(self) -> np.ndarray:
        """(k, r): entry (j, alpha) is the lex rank, in the (k-1)-table, of
        alpha with its j-th entry removed."""
        lower = compound_index(self.n, self.k - 1)
        return _frozen(np.stack([lower.rank(rest) for rest in _drop_one(self.seqs)]))

    @cached_property
    def _scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n, k, r = self.n, self.k, self.r
        seqs, comp = self.seqs, self.complement
        dest, src, sign = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)], [np.zeros(0)]
        for s, rest in enumerate(_drop_one(seqs)):
            rest = rest[:, None, :]  # (r, 1, k-1)
            j = comp[:, :, None]  # (r, n-k, 1)
            beta = np.sort(
                np.concatenate([np.broadcast_to(rest, (r, n - k, k - 1)), j], axis=2), axis=2
            )
            t = (rest < j).sum(axis=2)
            dest.append((np.arange(r)[:, None] * r + self.rank(beta)).ravel())
            src.append((seqs[:, s, None] * n + comp).ravel())
            sign.append(np.where((s + t) % 2 == 0, 1.0, -1.0).ravel())
        return tuple(_frozen(np.concatenate(parts)) for parts in (dest, src, sign))

    @cached_property
    def dest(self) -> np.ndarray:
        return self._scatter[0]

    @cached_property
    def src(self) -> np.ndarray:
        return self._scatter[1]

    @cached_property
    def sign(self) -> np.ndarray:
        return self._scatter[2]

    def _diagonal_sums(self, flat: np.ndarray) -> np.ndarray:
        out = np.zeros(flat.shape[:-1] + (self.r,))
        for row in self.diag_src:
            out += flat[..., row]
        return out

    def additive(self, a: np.ndarray) -> np.ndarray:
        """A^[k] of an n x n matrix, or of each matrix of an (S, n, n) stack,
        every slice bitwise the compound of that matrix alone."""
        lead = a.shape[:-2]
        flat = a.reshape(lead + (self.n * self.n,))
        out = np.zeros(lead + (self.r * self.r,))
        out[..., self.dest] = self.sign * flat[..., self.src]
        out[..., self.diag_dest] = self._diagonal_sums(flat)
        return out.reshape(lead + (self.r, self.r))

    def additive_interval(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entrywise enclosure of A^[k] over lo <= A <= hi: a negative-sign
        entry ranges over [-hi, -lo] of its source."""
        lo, hi = lo.ravel(), hi.ravel()
        plus = self.sign > 0
        out = []
        for low, high in ((lo, hi), (hi, lo)):  # the lower, then the upper bound
            flat = np.zeros(self.r * self.r)
            flat[self.dest] = np.where(plus, low[self.src], -high[self.src])
            flat[self.diag_dest] = self._diagonal_sums(low)
            out.append(flat.reshape(self.r, self.r))
        return out[0], out[1]

    def lift(self, s: np.ndarray) -> np.ndarray:
        """Compound-space diagonal of a diagonal state scaling diag(s): the
        product of s over each sequence, multiplied left to right."""
        out = np.ones(self.r)
        for p in range(self.k):
            out *= s[self.seqs[:, p]]
        return out


def _drop_one(seqs: np.ndarray) -> list[np.ndarray]:
    """Item j holds the sequences (rows) with their j-th entry removed."""
    return [np.delete(seqs, j, axis=1) for j in range(seqs.shape[1])]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=64)
def compound_index(n: int, k: int) -> CompoundIndex:
    """The cached index table of the k-th compound space over n indices."""
    return CompoundIndex(n, k)


def _as_tuples(seqs: np.ndarray) -> list[tuple[int, ...]]:
    """0-based sequence rows as 1-based tuples."""
    return [tuple(row) for row in (seqs + 1).tolist()]


def enumerate_sequences(k: int, n: int) -> list[tuple[int, ...]]:
    """All increasing sequences of k integers from {1..n} in lexicographic order."""
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    check_dimension_guard(comb(n, k))
    return _as_tuples(compound_index(n, k).seqs)


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


def _check_split(k: int, n: int, m: int) -> None:
    if not 1 <= k <= n + m:
        raise ValueError(f"k must satisfy 1 <= k <= {n + m}, got {k}")
    if n < 1 or m < 1:
        raise ValueError("block sizes n and m must be positive")
    check_dimension_guard(comb(n + m, k))


def block_lex_order(k: int, n: int, m: int) -> list[tuple[int, ...]]:
    """Sequences over {1..n+m} sorted block-lexicographically.

    Primary key: position of the first entry past n, descending (equivalently
    ascending number of tail entries); secondary key: standard lexicographic.
    """
    _check_split(k, n, m)
    return _as_tuples(compound_index(n + m, k).seqs[_block_lex_positions(k, n, m)])


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


@lru_cache(maxsize=64)
def _block_lex_positions(k: int, n: int, m: int) -> np.ndarray:
    """Standard-lex positions of the block-lex sequences, read-only.

    Sequences with the same number i of entries past n all share the head
    length k - i, so their lexicographic order already runs head-major and
    tail-minor, the Kronecker order of their block: block-lex order is the
    standard-lex table stably sorted by i.
    """
    tails = (compound_index(n + m, k).seqs >= n).sum(axis=1)
    return _frozen(np.argsort(tails, kind="stable"))


def build_permutation(k: int, n: int, m: int) -> BlockPermutation:
    """Permutation taking standard-lex positions to block-lex positions.

    Within the block of sequences having i tail entries, position j (0-based)
    pairs head number j // binom(m, i) in Q(k-i, n) with tail number
    j % binom(m, i) in Q(i, m), matching Kronecker-product index order.
    """
    _check_split(k, n, m)
    return BlockPermutation(k, n, m, _block_lex_positions(k, n, m))
