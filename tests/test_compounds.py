from fractions import Fraction
from math import comb

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcontract import _kernels, indexing

from kcontract.compounds import (
    add_compound,
    add_compound_interval,
    block_diag_add_decompose,
    block_diag_mult_decompose,
    kron_product,
    kron_sum,
    lift_diagonal_scaling,
    mult_compound,
)
from kcontract.dynamics import parallelotope_volume
from kcontract.indexing import (
    MAX_DENSE_BYTES,
    CompoundIndex,
    DimensionGuardError,
    compound_index,
    enumerate_sequences,
)

from .helpers import (
    brute_add_compound,
    brute_add_compound_interval,
    brute_lift,
    brute_mult_compound,
    closed_form_minors,
    exact_det_and_permanent,
    fd_add_compound,
    rel_err,
    sorted_eigs,
    triangular4_third_compound,
    well_conditioned,
)


def test_identity_compound():
    assert np.array_equal(mult_compound(np.eye(4), 2).data, np.eye(6))


def test_first_compound_is_the_matrix():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 5))
    assert np.array_equal(mult_compound(m, 1).data, m)


def test_full_compound_is_determinant():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 4))
    assert rel_err(mult_compound(m, 4).data[0, 0], np.linalg.det(m)) < 1e-12


_FINITE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-1e3, 1e3)
_SIGNED_INF = st.sampled_from([np.inf, -np.inf])


@st.composite
def _low_order_case(draw):
    n, p = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k = draw(st.integers(1, min(3, n, p)))
    elements = _FINITE | _SIGNED_INF if draw(st.booleans()) else _FINITE
    return draw(hnp.arrays(np.float64, (n, p), elements=elements)), k


@given(_low_order_case())
def test_low_order_minors_are_bitwise_the_closed_forms(case):
    m, k = case
    n, p = m.shape
    with np.errstate(invalid="ignore"):  # inf * 0 and inf - inf give nan
        want = closed_form_minors(m, k)
        got = _kernels.minor_dets(m, compound_index(n, k).seqs, compound_index(p, k).seqs)
    assert _same_bits(got, want)
    if np.isfinite(m).all():  # mult_compound refuses non-finite input
        assert _same_bits(mult_compound(m, k).data, want)


def _hilbert(n):
    return 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)


def _graded(n):
    return np.random.default_rng(31).standard_normal((n, n)) * np.logspace(-6, 6, n)


def _near_rank(n, rank):
    rng = np.random.default_rng(32)
    low = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
    return low + 1e-9 * rng.standard_normal((n, n))


@pytest.mark.parametrize(
    "m, k, sample",
    [(_hilbert(8), 4, None), (_graded(10), 4, 400), (_near_rank(7, 3), 5, None)],
    ids=["hilbert8_k4", "graded10_k4", "near_rank3_7_k5"],
)
def test_minor_rounding_error_within_permanent_bound(m, k, sample):
    # Laplace expansion: |computed - det M| <= gamma_2k per(|M|), with the
    # determinant and the permanent computed exactly
    u = Fraction(1, 2**53)
    gamma = 2 * k * u / (1 - 2 * k * u)
    got = mult_compound(m, k).data
    rows = cols = compound_index(m.shape[0], k).seqs
    pairs = [(a, b) for a in range(rows.shape[0]) for b in range(cols.shape[0])]
    if sample is not None:
        chosen = np.random.default_rng(33).choice(len(pairs), sample, replace=False)
        pairs = [pairs[i] for i in chosen]
    for a, b in pairs:
        det, per = exact_det_and_permanent(m[np.ix_(rows[a], cols[b])])
        assert abs(Fraction(got[a, b]) - det) <= gamma * per


@pytest.mark.parametrize(
    "shape, k", [((6, 6), 1), ((6, 5), 2), ((7, 7), 4), ((5, 8), 5), ((8, 6), 6)]
)
def test_minors_are_bitwise_the_same_in_small_chunks(monkeypatch, shape, k):
    m = np.random.default_rng(34).standard_normal((3,) + shape)
    rows, cols = compound_index(shape[0], k).seqs, compound_index(shape[1], k).seqs
    whole = _kernels.minor_dets(m, rows, cols)
    for budget in (1, 8 * 3 * 40):  # one row per chunk; a few rows per chunk
        monkeypatch.setattr(indexing, "BATCH_BYTES", budget)
        assert _same_bits(_kernels.minor_dets(m, rows, cols), whole)


@pytest.mark.parametrize("shape, k", [((4, 2), 2), ((5, 5), 3), ((6, 7), 4), ((5, 5), 5)])
def test_stacked_minors_are_bitwise_per_matrix(shape, k):
    m = _signed_zero_matrix(np.random.default_rng(35), max(shape))[: shape[0], : shape[1]]
    stack = np.stack([m, 2.0 * m, -m[::-1], np.zeros(shape)]).reshape((2, 2) + shape)
    rows, cols = compound_index(shape[0], k).seqs, compound_index(shape[1], k).seqs
    got = _kernels.minor_dets(stack, rows, cols)
    assert got.shape == (2, 2, rows.shape[0], cols.shape[0])
    for i in range(2):
        for j in range(2):
            assert _same_bits(got[i, j], _kernels.minor_dets(stack[i, j], rows, cols))
            assert _same_bits(got[i, j], mult_compound(stack[i, j], k).data)


def test_minors_on_chosen_sequences_are_read_from_the_lex_table():
    rng = np.random.default_rng(36)
    m = rng.standard_normal((6, 7))
    rows, cols = compound_index(6, 3).seqs, compound_index(7, 3).seqs
    full = _kernels.minor_dets(m, rows, cols)
    pick_r, pick_c = rng.permutation(rows.shape[0])[:5], rng.permutation(cols.shape[0])[:9]
    got = _kernels.minor_dets(m, rows[pick_r], cols[pick_c])
    assert _same_bits(got, full[np.ix_(pick_r, pick_c)])
    brute = brute_mult_compound(m, 3)[np.ix_(pick_r, pick_c)]
    assert np.allclose(got, brute, rtol=1e-12, atol=1e-12)


def test_order_zero_conventions():
    m = np.diag([2.0, 3.0])
    assert np.array_equal(mult_compound(m, 0).data, [[1.0]])
    assert np.array_equal(add_compound(m, 0).data, [[0.0]])


def test_triangular_4x4_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = np.triu(rng.uniform(-2, 2, (4, 4)))
        got = mult_compound(a, 3).data
        assert np.abs(got - triangular4_third_compound(a)).max() < 1e-12


def test_cauchy_binet_rectangular():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((3, 4))
    c = rng.standard_normal((4, 3))
    lhs = mult_compound(b @ c, 2).data
    rhs = mult_compound(b, 2).data @ mult_compound(c, 2).data
    assert rel_err(lhs, rhs) < 1e-9
    # both sides against direct minor enumeration
    assert rel_err(lhs, brute_mult_compound(b @ c, 2)) < 1e-12
    assert rel_err(rhs, brute_mult_compound(b, 2) @ brute_mult_compound(c, 2)) < 1e-12


def test_mult_matches_brute_minors():
    rng = np.random.default_rng(4)
    for n, m, k in [(3, 3, 2), (4, 5, 3), (5, 4, 2), (6, 6, 4), (5, 5, 5), (8, 5, 4), (9, 6, 6)]:
        a = rng.standard_normal((n, m))
        assert rel_err(mult_compound(a, k).data, brute_mult_compound(a, k)) < 1e-11


def test_transpose_identity():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 4):
        a = rng.standard_normal((5, 5))
        assert rel_err(mult_compound(a.T, k).data, mult_compound(a, k).data.T) < 1e-14


def test_inverse_identity():
    rng = np.random.default_rng(6)
    a = well_conditioned(rng, 5)
    for k in (2, 3):
        lhs = np.linalg.inv(mult_compound(a, k).data)
        rhs = mult_compound(np.linalg.inv(a), k).data
        assert rel_err(lhs, rhs) < 1e-9


def test_spectral_mapping():
    rng = np.random.default_rng(7)
    for n in (4, 5):
        a = rng.standard_normal((n, n))
        eigs = np.linalg.eigvals(a)
        for k in (2, 3):
            import itertools

            prod = [np.prod(c) for c in itertools.combinations(eigs, k)]
            sums = [np.sum(c) for c in itertools.combinations(eigs, k)]
            got_mult = sorted_eigs(mult_compound(a, k).data)
            got_add = sorted_eigs(add_compound(a, k).data)
            assert np.abs(np.sort_complex(np.array(prod)) - got_mult).max() < 1e-7
            assert np.abs(np.sort_complex(np.array(sums)) - got_add).max() < 1e-7


def test_exponential_relation():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4))
    a /= 2.0 * np.abs(np.linalg.eigvals(a)).max()
    for k in (2, 3):
        lhs = mult_compound(sla.expm(a), k).data
        rhs = sla.expm(add_compound(a, k).data)
        assert rel_err(lhs, rhs) < 1e-9


def test_add_compound_first_and_last():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3))
    assert np.array_equal(add_compound(a, 1).data, a)
    assert abs(add_compound(a, 3).data[0, 0] - np.trace(a)) < 1e-14


def test_add_compound_diagonal_pair_sums():
    lam = np.array([0.3, -1.2, 2.5])
    got = add_compound(np.diag(lam), 2).data
    expected = np.diag([lam[0] + lam[1], lam[0] + lam[2], lam[1] + lam[2]])
    assert np.array_equal(got, expected)
    assert rel_err(got, fd_add_compound(np.diag(lam), 2)) < 1e-8


def test_add_compound_matches_finite_differences():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((4, 4))
    for k in (2, 3):
        assert rel_err(add_compound(a, k).data, fd_add_compound(a, k)) < 1e-7


def test_additivity():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5))
    b = rng.standard_normal((5, 5))
    for k in (2, 3):
        lhs = add_compound(a + b, k).data
        rhs = add_compound(a, k).data + add_compound(b, k).data
        # off-diagonal entries agree bitwise; diagonal sums agree to rounding
        off = ~np.eye(lhs.shape[0], dtype=bool)
        assert np.array_equal(lhs[off], rhs[off])
        assert rel_err(lhs, rhs) < 1e-15


def test_kron_product_examples():
    rng = np.random.default_rng(12)
    b = rng.standard_normal((3, 3))
    expected = np.zeros((6, 6))
    expected[:3, :3] = b
    expected[3:, 3:] = b
    assert np.array_equal(kron_product(np.eye(2), b), expected)
    assert np.array_equal(kron_product([[2.0]], [[3.0]]), [[6.0]])


def test_kron_product_index_formula():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    got = kron_product(a, b)
    m = 3
    for i in range(6):
        for j in range(6):
            expected = a[i // m, j // m] * b[i % m, j % m]
            assert got[i, j] == expected


def test_kron_sum_examples():
    rng = np.random.default_rng(14)
    b = rng.standard_normal((3, 3))
    assert np.array_equal(kron_sum(np.zeros((2, 2)), b), kron_product(np.eye(2), b))
    assert np.array_equal(kron_sum([[2.0]], [[3.0]]), [[5.0]])


def test_kron_sum_eigenvalues():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2))
    ea, eb = np.linalg.eigvals(a), np.linalg.eigvals(b)
    expected = np.sort_complex(np.array([x + y for x in ea for y in eb]))
    got = sorted_eigs(kron_sum(a, b))
    assert np.abs(expected - got).max() < 1e-8


def test_block_decompose_diagonal_example():
    lam = np.array([2.0, 3.0, 5.0, 7.0, 11.0])
    dec = block_diag_mult_decompose(np.diag(lam[:3]), np.diag(lam[3:]), 2)
    assert [i for i, _ in dec.blocks] == [0, 1, 2]
    assert np.array_equal(np.diag(dec.blocks[0][1]), [lam[0] * lam[1], lam[0] * lam[2], lam[1] * lam[2]])
    assert np.array_equal(
        np.diag(dec.blocks[1][1]),
        [lam[0] * lam[3], lam[0] * lam[4], lam[1] * lam[3], lam[1] * lam[4], lam[2] * lam[3], lam[2] * lam[4]],
    )
    assert np.array_equal(np.diag(dec.blocks[2][1]), [lam[3] * lam[4]])
    c = np.diag(lam)
    assert np.array_equal(dec.reconstruct(), mult_compound(c, 2).data)


def test_block_decompose_full_order():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2))
    dm = block_diag_mult_decompose(a, b, 5)
    assert rel_err(dm.reconstruct()[0, 0], np.linalg.det(a) * np.linalg.det(b)) < 1e-12
    da = block_diag_add_decompose(a, b, 5)
    assert rel_err(da.reconstruct()[0, 0], np.trace(a) + np.trace(b)) < 1e-14


def test_block_decompose_k1_identity_permutation():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2))
    dec = block_diag_add_decompose(a, b, 1)
    assert np.array_equal(dec.permutation.positions, np.arange(5))
    c = np.zeros((5, 5))
    c[:3, :3], c[3:, 3:] = a, b
    assert np.array_equal(dec.reconstruct(), c)


def test_block_decompose_random_against_brute_minors():
    rng = np.random.default_rng(18)
    for _ in range(5):
        n, m = rng.integers(2, 4, size=2)
        k = int(rng.integers(2, n + m + 1))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((m, m))
        c = np.zeros((n + m, n + m))
        c[:n, :n], c[n:, n:] = a, b
        dec = block_diag_mult_decompose(a, b, k)
        assert rel_err(dec.reconstruct(), brute_mult_compound(c, k)) < 1e-9


def test_interval_compound_contains_samples():
    rng = np.random.default_rng(19)
    lo = rng.uniform(-2, 0, (4, 4))
    hi = lo + rng.uniform(0, 2, (4, 4))
    clo, chi = add_compound_interval(lo, hi, 2)
    for _ in range(50):
        j = rng.uniform(lo, hi)
        comp = add_compound(j, 2).data
        assert np.all(comp >= clo - 1e-12) and np.all(comp <= chi + 1e-12)
    dlo, dhi = add_compound_interval(lo, lo, 3)
    assert np.array_equal(dlo, dhi)
    assert np.array_equal(dlo, add_compound(lo, 3).data)


def test_validation_errors():
    with pytest.raises(ValueError):
        add_compound(np.ones((2, 3)), 1)
    with pytest.raises(ValueError):
        mult_compound(np.ones((3, 3)), 4)
    with pytest.raises(ValueError):
        mult_compound(np.array([[1.0, np.nan], [0.0, 1.0]]), 1)
    with pytest.raises(DimensionGuardError):
        mult_compound(np.eye(50), 25)


def _signed_zero_matrix(rng, n):
    """Random entries with some exact +0.0 and -0.0, so sign-of-zero
    differences between the table and the entry rule would show."""
    a = rng.standard_normal((n, n))
    a[rng.random((n, n)) < 0.2] = 0.0
    a[rng.random((n, n)) < 0.2] = -0.0
    return a


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def test_compound_index_layout():
    for n in range(0, 8):
        for k in range(0, n + 1):
            index = compound_index(n, k)
            assert index is compound_index(n, k)
            seqs = [tuple(int(v) + 1 for v in row) for row in index.seqs]
            assert seqs == (enumerate_sequences(k, n) if k else [()])
            for row, comp in zip(index.seqs, index.complement):
                assert sorted(set(row) | set(comp)) == list(range(n))
                assert list(comp) == sorted(comp)
            assert np.unique(index.dest).size == index.dest.size == index.r * k * (n - k)
            assert not np.isin(index.dest, index.diag_dest).any()
            assert not index.seqs.flags.writeable and not index.sign.flags.writeable


def test_add_compound_table_matches_entry_rule_exactly():
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        for k in range(1, n + 1):
            for _ in range(3):
                a = _signed_zero_matrix(rng, n)
                assert _same_bits(add_compound(a, k).data, brute_add_compound(a, k))


def test_add_compound_interval_table_matches_entry_rule_exactly():
    rng = np.random.default_rng(22)
    for n in range(1, 7):
        for k in range(1, n + 1):
            lo = _signed_zero_matrix(rng, n)
            hi = lo + np.where(rng.random((n, n)) < 0.5, 0.0, rng.uniform(0.0, 1.0, (n, n)))
            got, ref = add_compound_interval(lo, hi, k), brute_add_compound_interval(lo, hi, k)
            assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])


def test_lift_table_matches_products_exactly():
    rng = np.random.default_rng(23)
    for n in range(1, 8):
        s = rng.uniform(0.1, 10.0, n)
        for k in range(0, n + 1):
            assert _same_bits(lift_diagonal_scaling(s, k), brute_lift(s, k))


def test_compound_index_is_built_lazily():
    index = CompoundIndex(17, 8)
    assert index.r == 24310 and index.seqs.shape == (24310, 8)
    assert "_scatter" not in vars(index)  # the closed forms never need it


def test_dense_allocation_guard_by_bytes():
    # r = C(17, 8) = 24310 passes the dimension limit, but r^2 doubles are 4.7 GB
    assert 8 * 24310**2 > MAX_DENSE_BYTES
    big = np.eye(17)
    with pytest.raises(DimensionGuardError, match="exceeds"):
        add_compound(big, 8)
    with pytest.raises(DimensionGuardError):
        add_compound_interval(big, big, 8)
    with pytest.raises(DimensionGuardError):
        mult_compound(big, 8)
    with pytest.raises(DimensionGuardError):
        block_diag_add_decompose(np.eye(9), np.eye(8), 8)
    assert add_compound(np.eye(10), 5).data.shape == (252, 252)


def test_minors_past_the_recursion_limits_are_lu_determinants():
    # 20 x 20 at k = 17 has a 1140 x 1140 result, but the recursion would
    # pass through all C(20, 10) = 184756 column sequences of order 10
    assert _kernels._laplace_plan(20, 20, 17) is None
    assert np.array_equal(mult_compound(np.eye(20), 17).data, np.eye(1140))
    assert parallelotope_volume(np.eye(20)) == 1.0
    # 19 x 19 at k = 18: LU needs 361 determinants, the recursion far more work
    assert _kernels._laplace_plan(19, 19, 18) is None
    x = np.random.default_rng(38).standard_normal((19, 19))
    got = mult_compound(x, 18).data
    assert np.allclose(got, brute_mult_compound(x, 18), rtol=1e-12, atol=1e-12)


def test_minor_route_counts_multiplications():
    # the recursion wherever it multiplies no more often than LU's k^3 / 3
    # per minor, so always for k <= 3
    for n in range(1, 13):
        for p in range(1, 13):
            for k in range(1, min(n, p) + 1):
                work = sum(
                    l * comb(n - k + l, l) * comb(p, l) for l in range(2, k + 1)
                )
                laplace = 3 * work <= comb(n, k) * comb(p, k) * k**3
                assert (_kernels._laplace_plan(n, p, k) is not None) == laplace
                assert laplace or k >= 4
    # 19 x 19 at k = 15 multiplies less often by the recursion than by LU,
    # but one of its levels exceeds the dense guard
    sizes = {l: comb(4 + l, l) * comb(19, l) for l in range(2, 16)}
    assert 3 * sum(l * size for l, size in sizes.items()) <= comb(19, 15) ** 2 * 15**3
    assert 8 * max(sizes.values()) > MAX_DENSE_BYTES
    assert _kernels._laplace_plan(19, 19, 15) is None


def test_minor_recursion_reads_only_the_rows_it_reaches():
    # a k-minor's expansion reaches the l-sequences over the last n - k + l
    # rows, so a tall 16 x 10 matrix at k = 5 never builds C(16, 4) rows
    levels = _kernels._laplace_plan(16, 10, 5).levels
    assert [lv.head.size for lv in levels] == [comb(11 + l, l) for l in range(2, 6)]
    rng = np.random.default_rng(37)
    x = rng.standard_normal((16, 10))
    got = mult_compound(x, 5).data
    rows, cols = compound_index(16, 5).seqs, compound_index(10, 5).seqs
    for a, b in zip(rng.integers(0, rows.shape[0], 200), rng.integers(0, cols.shape[0], 200)):
        want = np.linalg.det(x[np.ix_(rows[a], cols[b])])
        assert abs(got[a, b] - want) <= 1e-12 * max(1.0, abs(want))
