import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcontract.indexing import (
    DimensionGuardError,
    block_lex_order,
    block_range,
    build_permutation,
    compound_index,
    enumerate_sequences,
    split_index,
)


def test_q34_matches_display():
    assert enumerate_sequences(3, 4) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_singletons_in_order():
    assert enumerate_sequences(1, 3) == [(1,), (2,), (3,)]


def test_q25_against_exhaustive_enumeration():
    got = enumerate_sequences(2, 5)
    assert got == list(itertools.combinations(range(1, 6), 2))
    assert len(got) == 10
    assert got[0] == (1, 2) and got[-1] == (4, 5)


def test_ranks_and_drop_one_ranks_against_enumeration():
    for n in range(0, 9):
        for k in range(0, n + 1):
            table = compound_index(n, k)
            assert np.array_equal(table.rank(table.seqs), np.arange(table.r))
            if k == 0:
                continue
            lower = {s: i for i, s in enumerate(itertools.combinations(range(n), k - 1))}
            seqs = itertools.combinations(range(n), k)
            want = [[lower[s[:j] + s[j + 1 :]] for j in range(k)] for s in seqs]
            assert np.array_equal(table.drop_rank, np.array(want).reshape(table.r, k).T)
            assert not table.drop_rank.flags.writeable


@pytest.mark.parametrize("k", [0, 5, -1])
def test_enumerate_rejects_out_of_range_k(k):
    with pytest.raises(ValueError):
        enumerate_sequences(k, 4)


@given(st.integers(1, 8), st.integers(1, 8))
def test_enumerate_cardinality(k, n):
    if k > n:
        return
    assert len(enumerate_sequences(k, n)) == comb(n, k)


def test_block_lex_232_matches_display():
    assert block_lex_order(2, 3, 2) == [
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 4),
        (1, 5),
        (2, 4),
        (2, 5),
        (3, 4),
        (3, 5),
        (4, 5),
    ]


def test_block_lex_223_is_plain_lex():
    assert block_lex_order(2, 2, 3) == enumerate_sequences(2, 5)


def test_block_lex_full_order_single_sequence():
    assert block_lex_order(5, 3, 2) == [(1, 2, 3, 4, 5)]


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 10))
@settings(max_examples=80)
def test_block_lex_is_permutation_of_lex(n, m, k):
    if k > n + m:
        return
    blocked = block_lex_order(k, n, m)
    plain = enumerate_sequences(k, n + m)
    assert sorted(blocked) == plain
    assert len(set(blocked)) == len(blocked)


@given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 14))
def test_vandermonde_identity(n, m, k):
    if k > n + m:
        return
    i1, i2 = block_range(k, n, m)
    assert sum(comb(n, k - i) * comb(m, i) for i in range(i1, i2 + 1)) == comb(n + m, k)


def test_split_examples():
    s = split_index((1, 4), 3)
    assert (s.s_alpha, s.head, s.tail) == (2, (1,), (1,))
    s = split_index((4, 5), 3)
    assert (s.s_alpha, s.head, s.tail) == (1, (), (1, 2))
    s = split_index((1, 2, 3), 3)
    assert (s.s_alpha, s.head, s.tail) == (4, (1, 2, 3), ())


def test_permutation_k1_is_identity():
    perm = build_permutation(1, 4, 3)
    assert np.array_equal(perm.positions, np.arange(7))


def test_permutation_full_order_is_scalar():
    perm = build_permutation(5, 3, 2)
    assert perm.size == 1
    assert np.array_equal(perm.matrix(), np.eye(1))


def test_permutation_reorders_standard_list():
    perm = build_permutation(2, 3, 2)
    assert perm.apply(enumerate_sequences(2, 5)) == block_lex_order(2, 3, 2)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 8))
@settings(max_examples=60)
def test_permutation_inverse_composition(n, m, k):
    if k > n + m:
        return
    perm = build_permutation(k, n, m)
    assert np.array_equal(perm.positions[perm.inverse_positions()], np.arange(perm.size))
    p = perm.matrix()
    assert np.array_equal(p @ p.T, np.eye(perm.size))


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 10))
@settings(max_examples=80)
def test_permutation_matches_head_tail_enumeration(n, m, k):
    if k > n + m:
        return
    lex = {s: i for i, s in enumerate(itertools.combinations(range(1, n + m + 1), k))}
    i1, i2 = block_range(k, n, m)
    blocked = [
        head + tuple(v + n for v in tail)
        for i in range(i1, i2 + 1)
        for head in itertools.combinations(range(1, n + 1), k - i)
        for tail in itertools.combinations(range(1, m + 1), i)
    ]
    assert build_permutation(k, n, m).positions.tolist() == [lex[s] for s in blocked]
    assert block_lex_order(k, n, m) == blocked


def test_permutation_positions_are_cached_read_only():
    first, again = build_permutation(4, 5, 5), build_permutation(4, 5, 5)
    assert first.positions is again.positions
    assert not first.positions.flags.writeable


@pytest.mark.parametrize("n, m", [(0, 3), (3, 0)])
def test_permutation_rejects_empty_block(n, m):
    with pytest.raises(ValueError, match="positive"):
        build_permutation(1, n, m)
    with pytest.raises(ValueError, match="positive"):
        block_lex_order(1, n, m)


def test_permutation_matrix_conjugation_consistency():
    perm = build_permutation(2, 3, 2)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((10, 10))
    p = perm.matrix()
    assert np.allclose(perm.conjugate(m), np.linalg.inv(p) @ m @ p)
    assert np.allclose(perm.unconjugate(perm.conjugate(m)), m)


def test_dimension_guard():
    with pytest.raises(DimensionGuardError):
        enumerate_sequences(10, 40)
    with pytest.raises(DimensionGuardError):
        build_permutation(10, 20, 20)
