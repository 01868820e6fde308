import ast
import itertools
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcontract import indexing
from kcontract.compounds import lift_diagonal_scaling
from kcontract.indexing import (
    DimensionGuardError,
    batches,
    block_range,
    build_permutation,
    compound_index,
)


def _sequences(k, n):
    """Q(k, n) from the index table, as 1-based tuples."""
    return [tuple(row) for row in (compound_index(n, k).seqs + 1).tolist()]


def _lex(k, n):
    """Q(k, n) by itertools, the independent oracle."""
    return list(itertools.combinations(range(1, n + 1), k))


def _block_lex(k, n, m):
    """Q(k, n, m): the table of Q(k, n + m) read in block-lex positions."""
    seqs = compound_index(n + m, k).seqs[build_permutation(k, n, m).positions]
    return [tuple(row) for row in (seqs + 1).tolist()]


def test_q34_matches_display():
    assert _sequences(3, 4) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_singletons_in_order():
    assert _sequences(1, 3) == [(1,), (2,), (3,)]


def test_q25_against_exhaustive_enumeration():
    got = _sequences(2, 5)
    assert got == _lex(2, 5)
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


@pytest.mark.parametrize("k", [5, -1])
def test_compound_index_rejects_out_of_range_k(k):
    with pytest.raises(ValueError, match="k must satisfy"):
        compound_index(4, k)


def test_a_float_k_is_refused_with_the_int_tables_cached():
    compound_index(4, 2)
    build_permutation(2, 2, 3)
    with pytest.raises(TypeError):
        compound_index(4, 2.0)
    with pytest.raises(TypeError):
        build_permutation(2.0, 2, 3)


@given(st.integers(1, 8), st.integers(1, 8))
def test_enumerate_cardinality(k, n):
    if k > n:
        return
    table = compound_index(n, k)
    assert table.r == comb(n, k) and table.seqs.shape == (comb(n, k), k)


def test_block_lex_232_matches_display():
    assert _block_lex(2, 3, 2) == [
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
    assert _block_lex(2, 2, 3) == _lex(2, 5)


def test_block_lex_full_order_single_sequence():
    assert _block_lex(5, 3, 2) == [(1, 2, 3, 4, 5)]


@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 10))
@settings(max_examples=80)
def test_block_lex_is_permutation_of_lex(n, m, k):
    if k > n + m:
        return
    blocked = _block_lex(k, n, m)
    assert sorted(blocked) == _lex(k, n + m)
    assert len(set(blocked)) == len(blocked)


@given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 14))
def test_vandermonde_identity(n, m, k):
    if k > n + m:
        return
    i1, i2 = block_range(k, n, m)
    assert sum(comb(n, k - i) * comb(m, i) for i in range(i1, i2 + 1)) == comb(n + m, k)


def test_permutation_k1_is_identity():
    perm = build_permutation(1, 4, 3)
    assert np.array_equal(perm.positions, np.arange(7))


def test_permutation_full_order_is_scalar():
    perm = build_permutation(5, 3, 2)
    assert perm.size == 1
    assert np.array_equal(perm.positions, [0])


def test_permutation_reorders_standard_list():
    perm = build_permutation(2, 3, 2)
    assert [_lex(2, 5)[j] for j in perm.positions] == _block_lex(2, 3, 2)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 8))
@settings(max_examples=60)
def test_permutation_inverse_composition(n, m, k):
    if k > n + m:
        return
    perm = build_permutation(k, n, m)
    assert np.array_equal(np.sort(perm.positions), np.arange(perm.size))


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
    assert _block_lex(k, n, m) == blocked


def test_permutation_positions_are_cached_read_only():
    first, again = build_permutation(4, 5, 5), build_permutation(4, 5, 5)
    assert first.positions is again.positions
    assert not first.positions.flags.writeable


@pytest.mark.parametrize("n, m", [(0, 3), (3, 0)])
def test_permutation_rejects_empty_block(n, m):
    with pytest.raises(ValueError, match="positive"):
        build_permutation(1, n, m)


def test_permutation_matrix_conjugation_consistency():
    perm = build_permutation(2, 3, 2)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((10, 10))
    p = np.zeros((perm.size, perm.size))
    p[perm.positions, np.arange(perm.size)] = 1.0  # P[positions[j], j] = 1
    assert np.allclose(perm.conjugate(m), np.linalg.inv(p) @ m @ p)
    assert np.allclose(perm.unconjugate(perm.conjugate(m)), m)


def test_dimension_guard():
    # C(40, 10) ~ 8.5e8 sequences: each call is refused before the table
    # lists any of them
    tracemalloc.start()
    try:
        with pytest.raises(DimensionGuardError):
            compound_index(40, 10)
        with pytest.raises(DimensionGuardError):
            lift_diagonal_scaling(np.ones(40), 10)
        with pytest.raises(DimensionGuardError):
            build_permutation(10, 20, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("count, floats", [(0, 3), (1, 1 << 30), (10, 1), (10, 3), (7, 4)])
def test_batches_cover_the_range_within_the_budget(monkeypatch, count, floats):
    monkeypatch.setattr(indexing, "BATCH_BYTES", 96)  # 12 floats
    parts = batches(count, floats)
    assert [i for part in parts for i in range(count)[part]] == list(range(count))
    step = max(1, 12 // floats)
    assert [part.stop - part.start for part in parts[:-1]] == [step] * (len(parts) - 1)
    assert all(0 < part.stop - part.start <= step for part in parts)


def test_only_indexing_reads_the_batch_budget():
    # every batched loop takes its chunks from indexing.batches: no other
    # module reads or imports BATCH_BYTES (docstrings may name it)
    readers = set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "kcontract").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == "BATCH_BYTES":
                readers.add(path.name)
    assert readers == {"indexing.py"}
