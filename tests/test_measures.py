import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kcontract.compounds import add_compound, kron_sum
from kcontract.indexing import block_range
from kcontract.measures import (
    L1,
    L2,
    LINF,
    HierarchicNormSpec,
    MeasureKind,
    block_diag_compound_measure,
    compound_measure,
    compound_measures,
    hierarchic_measure_bounds,
    hierarchic_operator_norm_upper,
    hierarchic_vector_norm,
    induced_norm,
    interval_measure_upper,
    matrix_measure,
    parse_kind,
)

from .helpers import brute_compound_measure, hierarchic_block_diag_norm

KINDS = (L1, L2, LINF)


def test_diagonal_measure_is_max_eigenvalue():
    m = np.diag([-2.0, -3.0, 1.0])
    for kind in KINDS:
        assert matrix_measure(m, kind) == 1.0


def test_zero_matrix_measure():
    for kind in KINDS:
        assert matrix_measure(np.zeros((4, 4)), kind) == 0.0


def test_l2_measure_matches_eigensolver():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4))
    expected = float(np.linalg.eigvalsh((m + m.T) / 2).max())
    assert abs(matrix_measure(m, L2) - expected) < 1e-12


def test_l1_linf_closed_forms():
    m = np.array([[1.0, -2.0], [3.0, -4.0]])
    assert matrix_measure(m, L1) == max(1 + 3, -4 + 2)
    assert matrix_measure(m, LINF) == max(1 + 2, -4 + 3)


def test_scaled_measure():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((3, 3))
    t = np.diag([2.0, 1.0, 0.5])
    kind = MeasureKind("2", t)
    expected = matrix_measure(t @ m @ np.linalg.inv(t), L2)
    assert abs(matrix_measure(m, kind) - expected) < 1e-12
    with pytest.raises(ValueError):
        MeasureKind("1", np.zeros((2, 2)))


def test_parse_kind():
    assert parse_kind("L1") is L1 and parse_kind("linf") is LINF and parse_kind("2") is L2
    with pytest.raises(ValueError):
        parse_kind("l3")


def test_compound_measure_examples():
    assert compound_measure(np.diag([3.0, 1.0, -5.0]), 2, L2) == pytest.approx(4.0)
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    for kind in KINDS:
        assert compound_measure(a, 4, kind) == pytest.approx(np.trace(a), rel=1e-12)
    assert compound_measure(a, 0, L1) == 0.0


def test_compound_measure_l1_against_assembled_columns():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    comp = add_compound(a, 2).data
    cols = comp.shape[1]
    expected = max(
        comp[j, j] + sum(abs(comp[i, j]) for i in range(cols) if i != j) for j in range(cols)
    )
    assert compound_measure(a, 2, L1) == pytest.approx(expected, rel=1e-12)


def test_compound_measure_matches_assembled_for_all_kinds():
    rng = np.random.default_rng(4)
    for n in range(2, 7):
        a = rng.standard_normal((n, n))
        for k in range(1, n + 1):
            assembled = add_compound(a, k).data
            for kind in KINDS:
                direct = compound_measure(a, k, kind)
                reference = matrix_measure(assembled, kind)
                assert abs(direct - reference) < 1e-9 * max(1.0, abs(reference))


def test_induced_norm_closed_forms():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 4))
    assert induced_norm(m, "1") == pytest.approx(np.abs(m).sum(axis=0).max())
    assert induced_norm(m, "inf") == pytest.approx(np.abs(m).sum(axis=1).max())
    assert induced_norm(m, "2") == pytest.approx(np.linalg.norm(m, 2))
    assert induced_norm(m, "1", "inf") == pytest.approx(np.abs(m).max())
    assert induced_norm(m, "1", "2") == pytest.approx(np.linalg.norm(m, axis=0).max())
    assert induced_norm(m, "2", "inf") == pytest.approx(np.linalg.norm(m, axis=1).max())
    with pytest.raises(ValueError):
        induced_norm(m, "inf", "1")


def test_induced_norm_mixed_pairs_bound_random_vectors():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((3, 4))
    for p_from, p_to, vec_from, vec_to in [
        ("1", "inf", 1, np.inf),
        ("1", "2", 1, 2),
        ("2", "inf", 2, np.inf),
    ]:
        bound = induced_norm(m, p_from, p_to)
        for _ in range(200):
            z = rng.standard_normal(4)
            ratio = np.linalg.norm(m @ z, ord=vec_to) / np.linalg.norm(z, ord=vec_from)
            assert ratio <= bound + 1e-12


def test_hierarchic_bounds_examples():
    b = np.array([[-2.0, 1.0], [0.0, -3.0]])
    spec = HierarchicNormSpec([1, 1], [L2, L2])
    lower, upper, c = hierarchic_measure_bounds(b, spec)
    assert lower == -2.0 and upper == -1.0
    assert np.array_equal(c, np.array([[-2.0, 1.0], [0.0, -3.0]]))

    # single-block partition collapses to the plain measure
    rng = np.random.default_rng(7)
    m = rng.standard_normal((4, 4))
    lower, upper, _ = hierarchic_measure_bounds(m, HierarchicNormSpec([4], [L1]))
    assert lower == upper == pytest.approx(matrix_measure(m, L1))


def test_hierarchic_bounds_block_diagonal_equality():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    m = np.zeros((5, 5))
    m[:2, :2], m[2:, 2:] = a, b
    spec = HierarchicNormSpec([2, 3], [L1, LINF])
    lower, upper, _ = hierarchic_measure_bounds(m, spec)
    assert lower == pytest.approx(upper)
    assert lower == pytest.approx(max(matrix_measure(a, L1), matrix_measure(b, LINF)))


def test_hierarchic_bounds_ordering_random():
    rng = np.random.default_rng(9)
    for kind in KINDS:
        for _ in range(25):
            m = rng.standard_normal((5, 5))
            spec = HierarchicNormSpec([2, 2, 1], [kind] * 3)
            lower, upper, _ = hierarchic_measure_bounds(m, spec)
            assert lower <= upper + 1e-12


def test_hierarchic_bounds_sound_on_mixed_pairs():
    # between them these specs need the inf->1, 2->1 and inf->2 block norms,
    # which have no closed form and are bounded by their entry mass
    rng = np.random.default_rng(90)
    for kinds in ([L1, LINF], [L2, L1], [LINF, L2]):
        spec = HierarchicNormSpec([2, 3], kinds)
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            bound = hierarchic_operator_norm_upper(m, spec)
            for _ in range(50):
                z = rng.standard_normal(5)
                image = hierarchic_vector_norm(m @ z, spec)
                assert image <= bound * hierarchic_vector_norm(z, spec) * (1 + 1e-12)
            lower, upper, _ = hierarchic_measure_bounds(m, spec)
            assert lower <= upper


def test_hierarchic_vector_and_operator_norms():
    mixed = HierarchicNormSpec([2, 2], [L1, LINF])
    x = np.array([1.0, -2.0, 0.5, -0.25])
    assert hierarchic_vector_norm(x, mixed) == 3.0  # max(|1|+|2|, max(0.5, 0.25))
    rng = np.random.default_rng(10)
    m = rng.standard_normal((4, 4))
    same = HierarchicNormSpec([2, 2], [L1, L1])
    bound = hierarchic_operator_norm_upper(m, same)
    for _ in range(300):
        z = rng.standard_normal(4)
        assert hierarchic_vector_norm(m @ z, same) <= bound * hierarchic_vector_norm(z, same) + 1e-12
    blockdiag = np.zeros((4, 4))
    blockdiag[:2, :2] = m[:2, :2]
    blockdiag[2:, 2:] = m[2:, 2:]
    exact = hierarchic_block_diag_norm(blockdiag, mixed)
    assert exact == pytest.approx(
        max(induced_norm(m[:2, :2], "1"), induced_norm(m[2:, 2:], "inf"))
    )
    with pytest.raises(ValueError):
        hierarchic_block_diag_norm(m, mixed)


def test_hierarchic_measure_bounds_take_block_measures_and_off_diagonal_norms():
    # mixed kinds and outer norms; each bound bitwise from its definition:
    # diagonal block measures, off-diagonal Lp -> Lq norms (entry mass where
    # no closed form exists), lower = max of the diagonal, upper = outer measure
    rng = np.random.default_rng(12)
    for trial in range(40):
        sizes = list(rng.integers(1, 4, size=int(rng.integers(2, 4))))
        kinds = [KINDS[i] for i in rng.integers(0, 3, size=len(sizes))]
        outer = ("1", "2", "inf")[trial % 3]
        spec = HierarchicNormSpec(sizes, kinds, outer)
        m = rng.standard_normal((spec.size, spec.size))
        m[: sizes[0], sizes[0] :] = 0.0  # one zero block row
        offs = spec.offsets()
        want = np.zeros((len(sizes), len(sizes)))
        for i, ((a, b), row_kind) in enumerate(zip(offs, kinds)):
            for j, ((c, d), col_kind) in enumerate(zip(offs, kinds)):
                block = m[a:b, c:d]
                if i == j:
                    want[i, i] = matrix_measure(block, row_kind)
                elif np.any(block):
                    try:
                        want[i, j] = induced_norm(block, col_kind.p, row_kind.p)
                    except ValueError:
                        want[i, j] = np.abs(block).sum()
        lower, upper, c = hierarchic_measure_bounds(m, spec)
        assert np.array_equal(c, want)
        assert lower == np.max(np.diag(want))
        assert upper == matrix_measure(want, MeasureKind(outer))


def test_block_diag_compound_measure_diagonal_example():
    a = np.diag([1.0, -2.0])
    b = np.diag([-1.5, -2.0])
    value, lower = block_diag_compound_measure(a, b, 2, L1)
    assert value == pytest.approx(-0.5)
    assert lower <= value


def test_block_diag_compound_measure_full_order_is_trace_sum():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2))
    value, lower = block_diag_compound_measure(a, b, 5, [L2])
    assert value == pytest.approx(np.trace(a) + np.trace(b), rel=1e-12)
    assert lower == pytest.approx(value, rel=1e-12)


def test_block_diag_compound_measure_matches_permuted_hierarchic():
    from kcontract.certificates import series_norm_data

    rng = np.random.default_rng(12)
    for _ in range(10):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        k = int(rng.integers(1, n + m + 1))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((m, m))
        i1, i2 = block_range(k, n, m)
        kinds = [KINDS[int(rng.integers(0, 3))] for _ in range(i1, i2 + 1)]
        value, lower = block_diag_compound_measure(a, b, k, kinds)
        c = np.zeros((n + m, n + m))
        c[:n, :n], c[n:, n:] = a, b
        perm, spec = series_norm_data(n, m, k, kinds)
        lo_b, up_b, _ = hierarchic_measure_bounds(perm.conjugate(add_compound(c, k).data), spec)
        assert abs(value - up_b) < 1e-9 * max(1.0, abs(value))
        assert abs(value - lo_b) < 1e-9 * max(1.0, abs(value))
        assert lower <= value + 1e-12


def test_subadditivity_and_negation_inequality():
    rng = np.random.default_rng(13)
    for _ in range(30):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        for kind in KINDS:
            assert matrix_measure(a + b, kind) <= matrix_measure(a, kind) + matrix_measure(b, kind) + 1e-12
            assert -matrix_measure(-a, kind) <= matrix_measure(a, kind) + 1e-12


def test_kron_sum_measure_additivity():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2))
    for kind in KINDS:
        lhs = matrix_measure(kron_sum(a, b), kind)
        rhs = matrix_measure(a, kind) + matrix_measure(b, kind)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_interval_measure_upper_sound_and_exact():
    rng = np.random.default_rng(15)
    lo = rng.uniform(-2, 0, (4, 4))
    hi = lo + rng.uniform(0, 1, (4, 4))
    for p in ("1", "inf"):
        bound = interval_measure_upper(lo, hi, p)
        for _ in range(100):
            j = rng.uniform(lo, hi)
            assert matrix_measure(j, MeasureKind(p)) <= bound + 1e-12
        assert interval_measure_upper(lo, lo, p) == pytest.approx(
            matrix_measure(lo, MeasureKind(p))
        )
    with pytest.raises(ValueError):
        interval_measure_upper(lo, hi, "2")


def test_interval_measure_upper_with_diag_scaling():
    rng = np.random.default_rng(16)
    lo = rng.uniform(-2, 0, (3, 3))
    hi = lo + rng.uniform(0, 1, (3, 3))
    s = np.array([2.0, 0.5, 1.0])
    bound = interval_measure_upper(lo, hi, "1", scale_diag=s)
    t = np.diag(s)
    for _ in range(100):
        j = rng.uniform(lo, hi)
        assert matrix_measure(t @ j @ np.linalg.inv(t), L1) <= bound + 1e-12


@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from(KINDS),
)
def test_batched_compound_measures_equal_single_calls(nk, batch, seed, kind):
    n, k = nk
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((batch, n, n)) * np.exp(rng.uniform(-4.0, 4.0, (batch, 1, 1)))
    single = np.array([compound_measure(m, k, kind) for m in stack])
    assert np.array_equal(compound_measures(stack, k, kind), single)


def test_closed_form_matches_per_sequence_loop_exactly():
    # 10 x 10 at k = 4: the gathered blocks are long enough for pairwise sums
    rng = np.random.default_rng(31)
    stack = rng.standard_normal((50, 10, 10))
    for kind in (L1, LINF):
        ref = np.array([brute_compound_measure(m, 4, kind.p) for m in stack])
        assert np.array_equal(compound_measures(stack, 4, kind), ref)
        for n, k in ((3, 2), (6, 3), (7, 1), (7, 7)):
            small = rng.standard_normal((20, n, n))
            ref = np.array([brute_compound_measure(m, k, kind.p) for m in small])
            assert np.array_equal(compound_measures(small, k, kind), ref)


def test_compound_measures_validation():
    with pytest.raises(ValueError, match="square"):
        compound_measures(np.zeros((2, 3, 4)), 1, L1)
    with pytest.raises(ValueError, match="non-finite"):
        compound_measures(np.array([[[np.nan]]]), 1, L1)
    with pytest.raises(ValueError):
        compound_measures(np.zeros((2, 3, 3)), 4, L1)
    assert np.array_equal(compound_measures(np.ones((4, 3, 3)), 0, L2), np.zeros(4))
    scaled = MeasureKind("1", np.diag([1.0, 2.0, 4.0]))
    stack = np.random.default_rng(32).standard_normal((5, 3, 3))
    expected = [matrix_measure(add_compound(m, 2).data, scaled) for m in stack]
    assert np.array_equal(compound_measures(stack, 2, scaled), expected)


def test_closed_form_keeps_the_larger_dimension_limit():
    # r = C(17, 8) = 24310: too large for a dense compound, fine for the closed forms
    assert compound_measure(np.eye(17), 8, L1) == 8.0
    assert compound_measure(np.eye(17), 8, LINF) == 8.0
    assert compound_measure(np.eye(17), 8, L2) == 8.0
