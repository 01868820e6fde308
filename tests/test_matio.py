"""The writers give the bytes of the per-value ``%.17g`` join and of
``json.dumps(obj, indent=2, allow_nan=True)``."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcontract import matio
from kcontract.compounds import add_compound
from kcontract.dynamics import TrajectoryRecord

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.8e308, -1.8e308,
           math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0]

floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL))
scalars = st.one_of(
    floats,
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["", "\"quoted\"", "back\\slash", "tab\tnew\nline", "π ≈ 3.14", "日本", "\U0001f600"]),
    floats.map(np.float64),
)
keys = st.one_of(st.text(), st.integers(), floats, st.booleans(), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(keys, children, max_size=6),
        st.lists(st.one_of(floats, st.integers()), max_size=12),
    )


json_values = st.recursive(scalars, _containers, max_leaves=40)


def _stdlib(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=True) + "\n"


@given(json_values)
def test_dump_json_matches_stdlib_indent_2(obj):
    assert matio.dump_json(obj) == _stdlib(obj)


@given(st.lists(st.one_of(floats, st.integers()), min_size=1, max_size=40))
def test_flat_number_lists_match_stdlib_at_every_depth(items):
    obj = {"a": [items, {"b": items, "c": [[items]]}], "d": tuple(items)}
    assert matio.dump_json(obj) == _stdlib(obj)


def test_dump_json_fixed_cases():
    cases = [
        {},
        [],
        (),
        {"e": [], "f": {}, "g": [[], {}]},
        [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1, True, None],
        {1: "int", 2.5: "float", math.inf: "inf", True: "bool", None: "none", "kéy": [1.0, 2]},
        [np.float64(0.1), np.float64(-0.0), 3, 1.5],
        {"nested": ({"x": (1, 2.0)}, [["a", "b"], [1e300, -1e-300]])},
        {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "neg0": -0.0, "tiny": 5e-324,
         "f64": np.float64(0.1), "big": 10**30, "t": True, "f": False, "n": None, "s": "ü\"q"},
        [[math.nan], {"a": math.inf}, np.float64(-math.inf), 7],
        "top-level string",
        1.5,
        None,
    ]
    for obj in cases:
        assert matio.dump_json(obj) == _stdlib(obj)


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-320, 0.1, 1e16, 1e300, np.float64(-1.5),
     10**30, -(10**19), 2**63, True, False, None, "", "\"q\" back\\slash\ttab\nnew\x00\x1f\x7f",
     "ü π ≈ 3.14 日本 \U0001f600", "\ud800 lone surrogate"],
)
def test_scalars_outside_flat_lists_match_stdlib(value):
    # a scalar in a dict, in a list beside a container, alone, and as a key
    # is written on its own, not by one C-encoder call per flat list
    obj = {"v": value, "list": [value, {}, [value]], "nested": {"w": [[value], value]}}
    assert matio.dump_json(obj) == _stdlib(obj)
    assert matio.dump_json(value) == _stdlib(value)
    key_obj = {value: 1, "k": {value: [value, {}]}}
    assert matio.dump_json(key_obj) == _stdlib(key_obj)


@pytest.mark.parametrize("obj", [{(1, 2): 3}, {"a": {frozenset(): 1}}, [np.int64(3)], {"a": object()}])
def test_dump_json_rejects_what_stdlib_rejects(obj):
    with pytest.raises(TypeError) as stdlib_error:
        _stdlib(obj)
    with pytest.raises(TypeError) as ours:
        matio.dump_json(obj)
    assert str(ours.value) == str(stdlib_error.value)


def _reference_csv(m) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return "\n".join(",".join(f"{v:.17g}" for v in row) for row in m) + "\n"


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=7), elements=floats))
def test_matrix_to_csv_matches_per_value_join(m):
    assert matio.matrix_to_csv(m) == _reference_csv(m)
    assert matio.matrix_to_csv(m.T) == _reference_csv(m.T)


def test_matrix_to_csv_shapes_dtypes_and_special_values():
    rng = np.random.default_rng(5)
    special = np.array(SPECIAL)
    cases = [
        np.array([[math.pi]]),
        rng.standard_normal((1, 9)),
        rng.standard_normal((9, 1)),
        rng.standard_normal((6, 4)).T,
        rng.standard_normal((8, 8))[::2, 1::3],
        np.arange(12).reshape(3, 4),
        rng.standard_normal((3, 5)).astype(np.float32),
        special.reshape(2, -1),
        special,
        2.5,
    ]
    for m in cases:
        assert matio.matrix_to_csv(m) == _reference_csv(m)


def test_trajectory_writers_match_per_value_reference():
    rng = np.random.default_rng(9)
    times = np.cumsum(rng.uniform(0.01, 1.0, 7))
    states = rng.standard_normal((7, 3))
    states[0] = [-0.0, 5e-324, math.inf]
    rec = TrajectoryRecord(times, states, system="ref")
    rows = np.column_stack([times, states])
    assert matio.trajectory_to_csv(rec) == "t,x1,x2,x3\n" + _reference_csv(rows)
    obj = {"system": "ref", "times": [float(t) for t in times],
           "states": [[float(v) for v in row] for row in states]}
    assert matio.trajectory_to_json(rec) == _stdlib(obj)


def test_matrix_to_json_matches_stdlib():
    m = np.array([[1.0, -0.0, 5e-324], [math.inf, math.nan, 0.1]])
    obj = {"rows": 2, "cols": 3, "entries": [float(v) for v in m.ravel()]}
    assert matio.matrix_to_json(m) == _stdlib(obj)
    assert matio.matrix_to_json(np.arange(4).reshape(2, 2)) == _stdlib(
        {"rows": 2, "cols": 2, "entries": [0.0, 1.0, 2.0, 3.0]}
    )


@pytest.mark.parametrize("entries", [
    ["1.5", None, True], ["1.5", 2.0, 3.0], [1.0, None, 3.0], [1.0, 2.0, False], [[1.0], 2.0, 3.0],
    {"a": 1.0}, "1.5",
], ids=["string, null and boolean", "string", "null", "boolean", "nested", "object", "string list"])
def test_matrix_from_json_refuses_entries_that_are_not_numbers(entries):
    text = json.dumps({"rows": 1, "cols": 3, "entries": entries})
    with pytest.raises(ValueError, match="entries must be a flat list of numbers"):
        matio.matrix_from_json(text)


def test_matrix_from_json_reads_back_what_the_writer_writes():
    m = np.array([[math.nan, math.inf, -math.inf], [-0.0, 5e-324, 3]])
    text = matio.matrix_to_json(m)
    assert "NaN" in text and "Infinity" in text
    again = matio.matrix_from_json(text)
    assert np.array_equal(again, m, equal_nan=True) and np.signbit(again[1, 0])
    assert np.array_equal(matio.matrix_from_json('{"rows": 1, "cols": 2, "entries": [1, -2]}'),
                          [[1.0, -2.0]])


# The vectorised %.17g writer takes matrices of at least matio._VECTOR_MIN
# values.  The `route` fixture runs a case through each writer regardless of
# its size, so every case is checked on both sides of the crossover.  The
# vectorised writer gives a pass with at least one zero in matio._SPARSE no
# text row per zero; "rows" gives every zero a text row and "sparse" none.

@pytest.fixture(params=["template", "vectorised", "rows", "sparse"])
def route(request, monkeypatch):
    monkeypatch.setattr(matio, "_VECTOR_MIN", 10**12 if request.param == "template" else 0)
    if request.param in ("rows", "sparse"):
        monkeypatch.setattr(matio, "_SPARSE", 0 if request.param == "rows" else 10**12)
    return request.param


def _assert_same_text(got: str, want: str):
    # pytest's own diff of megabyte strings would take minutes
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got + "\0", want + "\1")) if a != b)
        pytest.fail(f"first difference at {i}: {got[i - 40:i + 40]!r} != {want[i - 40:i + 40]!r}")


def _ulp_neighbours(values, steps=2):
    values = np.asarray(values, dtype=np.float64)
    out = [values]
    for direction in (math.inf, -math.inf):
        v = values
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def _ties():
    """Dyadic x = t / 2**(s + 1) with t odd and x*10**s in [10**16, 10**17),
    s = 16 - E: x*10**s = t*5**s / 2 lies exactly halfway between integers."""
    out = []
    for e in range(-4, 16):
        s = 16 - e
        first = -(-10**16 * 2 // 5**s) | 1  # the smallest odd t with t*5**s / 2 >= 10**16
        out += [t / 2 ** (s + 1) for t in range(first, first + 40, 2)]
    return np.array(out)


EDGES = np.concatenate([
    _ulp_neighbours([10.0**k for k in range(-6, 19)] + [1e-4, 1e17, 2.0**53, 2.0**56]),
    _ties(),
    [0.5, 2.0, 123.0, 1e16, 2e16, 1.2e16, 12345678901234568.0, 99999999999999984.0,
     9007199254740993.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.0 / 3.0, 1e-4 * 3, 9.9999999999999995e-5],
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.8e308,
     math.inf, -math.inf, math.nan],
])


def test_edge_values_match_per_value_join(route):
    for m in (EDGES, -EDGES):
        m = m.reshape(-1, 1)
        _assert_same_text(matio.matrix_to_csv(m), _reference_csv(m))
        _assert_same_text(matio.matrix_to_csv(m.reshape(1, -1)), _reference_csv(m.reshape(1, -1)))


def test_all_zero_and_all_c_route_matrices(route):
    zeros = np.zeros((30, 40))
    zeros[::3, ::7] = -0.0
    c_route = np.array([math.nan, math.inf, -math.inf, 5e-324, -1e-300, 1e-5, 1e17, -1e300])
    for m in (zeros, np.resize(c_route, (41, 17))):
        _assert_same_text(matio.matrix_to_csv(m), _reference_csv(m))


def test_layouts_dtypes_and_chunk_boundaries(route):
    rng = np.random.default_rng(17)
    wide = rng.standard_normal((40, 60)) * 10.0 ** rng.integers(-5, 18, (40, 60))
    cases = [
        wide.T,
        wide[::3, 1::2],
        wide.astype(np.float32),
        rng.integers(-10**18, 10**18, (30, 30)),
        # rows of 7 values cross every chunk boundary
        rng.standard_normal((2 * matio._CHUNK // 7 + 5, 7)),
    ]
    for m in cases:
        _assert_same_text(matio.matrix_to_csv(m), _reference_csv(m))
    times, states = np.linspace(0.0, 1.0, 300), rng.standard_normal((300, 2))
    _assert_same_text(matio.columns_to_csv(["t", "a", "b"], times, states),
                      "t,a,b\n" + _reference_csv(np.column_stack([times, states])))


def test_a_million_random_bit_patterns_match_per_value_join():
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    # 7 in 8 get a binary exponent around the fixed-point range [1e-4, 1e17);
    # the rest span every exponent, so most of them take the C route
    near = np.arange(bits.size) % 8 != 0
    exponent = rng.integers(1023 - 16, 1023 + 60, size=near.sum(), dtype=np.uint64)
    bits[near] = (bits[near] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
    m = bits.view(np.float64).reshape(-1, 100)
    assert m.size >= matio._VECTOR_MIN
    _assert_same_text(matio.matrix_to_csv(m), _reference_csv(m))


def _true_exponent(exact):
    """floor(log10(exact)) for a positive Fraction."""
    from fractions import Fraction

    e = math.floor(math.log10(exact))
    while Fraction(10) ** e > exact:
        e -= 1
    while Fraction(10) ** (e + 1) <= exact:
        e += 1
    return e


def test_fixed_point_digits_are_taken_only_when_proven():
    """_digits17 accepts x with exponent guess e exactly when e is the true
    decimal exponent E, |x|*10**(16 - E) is no tie and its nearest integer has
    17 digits, and then gives that integer and the exact rest."""
    from fractions import Fraction

    rng = np.random.default_rng(8)
    xs = np.concatenate([
        EDGES[np.isfinite(EDGES) & (EDGES >= 1e-4) & (EDGES < 1e17)],
        rng.uniform(1.0, 10.0, 500) * 10.0 ** rng.integers(-4, 17, 500),
    ])
    for x in xs.tolist():
        exact = Fraction(x)
        true_e = _true_exponent(exact)
        for e in {true_e - 1, true_e, true_e + 1} & set(range(-4, 17)):
            v = exact * Fraction(10) ** (16 - e)
            tie = (v - math.floor(v)) == Fraction(1, 2)
            d_want = round(v)
            d, f, ok = matio._digits17(np.array([x]), np.array([e], np.int8))
            assert bool(ok[0]) == (e == true_e and not tie and d_want < 10**17), (x, e)
            if ok[0]:
                assert int(d[0]) == d_want, (x, e)
                assert Fraction(float(f[0])) == v - d_want, (x, e)


# JSON flat lists of at least matio._VECTOR_MIN floats are formatted by numpy
# with the shortest repr digits; the `route` fixture sends every float list
# through each writer.

def _shortest_decimals():
    """Values whose repr has 1 to 17 significant digits, across the
    fixed-point range and past both ends."""
    rng = np.random.default_rng(12)
    out = []
    for digits in range(1, 18):
        mantissa = rng.integers(10 ** (digits - 1), 10**digits, 60)
        exponent = rng.integers(-5 - digits, 17 - digits, 60)
        out += [float(f"{m}e{e}") for m, e in zip(mantissa.tolist(), exponent.tolist())]
    return np.array(out)


JSON_EDGES = np.concatenate([
    EDGES,
    [100.0, 1e15, 9007199254740993.0, 4503599627370497.0, 9999999999999998.0, 1234567890123456.8],
    [2.0**k for k in range(-20, 60)],
    _ulp_neighbours([1e-4, 1e16], steps=4),
    _shortest_decimals(),
])


def test_json_edge_values_match_stdlib(route):
    for values in (JSON_EDGES, -JSON_EDGES):
        items = values.tolist()
        _assert_same_text(matio.dump_json(items), _stdlib(items))
        _assert_same_text(matio.dump_json({"a": [{"b": items}]}), _stdlib({"a": [{"b": items}]}))
        _assert_same_text(matio.dump_json(values), _stdlib(items))
        _assert_same_text(matio.dump_json({"a": [{"b": values}]}), _stdlib({"a": [{"b": items}]}))
        m = values.reshape(1, -1)
        want = {"rows": 1, "cols": m.shape[1], "entries": items}
        _assert_same_text(matio.matrix_to_json(m), _stdlib(want))
    times = np.unique(np.abs(JSON_EDGES[np.isfinite(JSON_EDGES)]))
    states = np.resize(JSON_EDGES, (len(times), 3))
    rec = TrajectoryRecord(times, states, system="edges")
    want = {"system": "edges", "times": rec.times.tolist(), "states": states.tolist()}
    _assert_same_text(matio.trajectory_to_json(rec), _stdlib(want))


def test_json_chunk_boundaries_and_zeros(route):
    rng = np.random.default_rng(21)
    values = rng.standard_normal(2 * matio._CHUNK + 7) * 10.0 ** rng.integers(-6, 18, 2 * matio._CHUNK + 7)
    values[rng.random(values.size) < 0.8] = 0.0
    values[::11] = -0.0
    for x in (values, values[: matio._CHUNK], np.zeros(600), np.array([-0.0])):
        items = x.tolist()
        _assert_same_text(matio.dump_json(items), _stdlib(items))
        _assert_same_text(matio.dump_json(x), _stdlib(items))


# A sparse pass gives its zeros no text row: their texts, the separators and
# the newlines are placed by the text lengths of its nonzero values.

def _zero_layouts():
    n = 700
    first, last, runs, c_route = np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
    first[0], last[-1] = 1.5, -2.5e-3
    for start, stop in ((0, 3), (10, 60), (100, 103), (200, 260), (699, 700)):
        runs[start:stop] = -0.0
    runs[[5, 61, 400]] = [0.1, -3.0, 1e-4]
    c_route[[3, 4, 50, 51, 52, 300, 301, 302, 303, 698]] = [
        math.nan, math.inf, -math.inf, 5e-324, -1e-310, 1e17, -1e17, 1.0000000000000002e16,
        2.2250738585072014e-308, math.nan]
    c_route[5:9] = -0.0
    return {"all zero": np.zeros(n), "all negative zero": np.full(n, -0.0),
            "nonzero first": first, "nonzero last": last, "negative zero runs": runs,
            "C route among zeros": c_route}


ZERO_LAYOUTS = _zero_layouts()


@pytest.mark.parametrize("name", list(ZERO_LAYOUTS))
def test_zero_layouts_match_the_per_value_writers(route, name):
    x = ZERO_LAYOUTS[name]
    items = x.tolist()
    for cols in (1, 7, 35, x.size):
        m = x.reshape(-1, cols)
        _assert_same_text(matio.matrix_to_csv(m), _reference_csv(m))
    _assert_same_text(matio.dump_json(x), _stdlib(items))
    _assert_same_text(matio.dump_json(x), matio.dump_json(items))
    nested = {"a": [x, {"b": x}]}
    _assert_same_text(matio.dump_json(nested), _stdlib({"a": [items, {"b": items}]}))


def test_csv_newlines_on_zeros_and_c_route_values(route):
    m = np.zeros((60, 9))
    m[:, 0] = np.arange(60) * 0.25  # each row starts with a zero or a fixed-point value
    m[::3, -1] = np.resize([math.nan, 1e-300, -math.inf, 1e17, 5e-324], 20)  # a C-route value
    m[1::3, -1] = np.resize([-0.0, 0.0], 20)  # a zero
    m[2::6, -1] = 0.1  # a fixed-point value
    m[4::7, 3:6] = [-0.0, 2.5, 1e-5]
    _assert_same_text(matio.matrix_to_csv(m), _reference_csv(m))


def test_sparse_passes_are_cut_by_their_nonzero_count(route):
    rng = np.random.default_rng(40)
    n = 21 * matio._CHUNK
    head = np.zeros(n)  # _CHUNK + 5 nonzero values, all early in a list many times longer
    head[np.sort(rng.choice(2 * matio._CHUNK, matio._CHUNK + 5, replace=False))] = 1.5
    spread = np.where(rng.random(n) < 0.3, rng.standard_normal(n), 0.0)  # every span cut
    spread[rng.random(n) < 0.05] = -0.0
    for x in (head, spread, -head):
        m = x.reshape(-1, 7)
        _assert_same_text(matio.matrix_to_csv(m), _reference_csv(m))
        items = x.tolist()
        want = "[\n  " + json.dumps(items, separators=(",\n  ", ": "))[1:-1] + "\n]\n"
        _assert_same_text(matio.dump_json(x), want)


def _trajectories(b, n_out, seed, width=3):
    """``b`` seeded records of ``n_out`` samples and ``width`` states: edge
    values in every record, and an all-zero trajectory among three or more."""
    rng = np.random.default_rng(seed)
    edges = [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-5, 1e17, -1e-5, -1e17, 0.1]
    records = []
    for i in range(b):
        times = np.cumsum(rng.uniform(0.01, 2.0, n_out)) - 0.01
        states = rng.standard_normal((n_out, width)) * 10.0 ** rng.integers(-6, 18, (n_out, width))
        if b >= 3 and i == b // 2:
            states[:] = 0.0
        else:
            picked = rng.random(states.shape) < 0.2
            states[picked] = rng.choice(edges, np.count_nonzero(picked))
            states[-1] = edges[i % len(edges)]
        records.append(TrajectoryRecord(times, states, system="ref"))
    return records


@pytest.fixture(params=["shared", "template", "rows", "sparse"])
def trajectory_route(request, monkeypatch):
    """Records under matio._VECTOR_MIN values share the digit engine's
    passes ("shared"), or with a larger _VECTOR_MIN the C formatter's rows
    ("template"); "rows" and "sparse" fix the layout of the shared passes."""
    if request.param == "template":
        monkeypatch.setattr(matio, "_VECTOR_MIN", 10**12)
    if request.param in ("rows", "sparse"):
        monkeypatch.setattr(matio, "_SPARSE", 0 if request.param == "rows" else 10**12)
    return request.param


def _reference_trajectory_csv(rec) -> str:
    width = rec.states.shape[1]
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(width)]) + "\n"
    return header + _reference_csv(np.column_stack([rec.times, rec.states]))


@pytest.mark.parametrize("b", [1, 2, 9])
@pytest.mark.parametrize("n_out", [2, 11, 81, 1001])
def test_trajectory_texts_match_the_per_row_reference(trajectory_route, b, n_out):
    records = _trajectories(b, n_out, seed=100 * b + n_out)
    texts = matio.trajectories_to_csv(records)
    assert len(texts) == b
    for rec, text in zip(records, texts):
        _assert_same_text(text, _reference_trajectory_csv(rec))
        assert matio.trajectory_to_csv(rec) == text


def test_trajectories_of_mixed_widths_and_lengths_match_the_per_row_reference(trajectory_route):
    records = []
    for seed, (n_out, width) in enumerate([(81, 3), (5, 3), (81, 2), (200, 2), (2, 2), (81, 3), (700, 3)]):
        records += _trajectories(1, n_out, seed, width)
    records.append(TrajectoryRecord(np.arange(3.0), np.zeros((3, 1))))
    texts = matio.trajectories_to_csv(records)
    assert len(texts) == len(records)
    for rec, text in zip(records, texts):
        _assert_same_text(text, _reference_trajectory_csv(rec))
    assert matio.trajectories_to_csv([]) == []


def test_trajectory_passes_cover_at_most_a_span_or_one_record(monkeypatch):
    calls = []

    def spy(x, *args, **kwargs):
        calls.append(x.size)
        return real(x, *args, **kwargs)

    real = matio._text
    monkeypatch.setattr(matio, "_text", spy)
    small = _trajectories(230, 81, seed=7)  # 324 values each: shared passes
    large = _trajectories(1, 9000, seed=8)  # 36 000 values, over _SPAN alone
    records = small[:120] + large + small[120:]
    texts = matio.trajectories_to_csv(records)
    for rec, text in zip(records, texts):
        _assert_same_text(text, _reference_trajectory_csv(rec))
    bound = max(matio._SPAN, large[0].times.size * 4)
    assert calls and max(calls) <= bound
    # 120 small records are 38 880 values, two groups; the large one alone;
    # the last 110 are 35 640 values, two groups
    assert len(calls) == 5
    assert sum(calls) == sum(rec.times.size * 4 for rec in records)


def test_mostly_zero_writes_keep_their_scratch_memory_bounded():
    """The peak memory of writing 2 M values, 1 % of them nonzero, is the
    output text, held twice while the texts of the passes are joined, plus a
    fixed bound: each pass's scratch is about 1.5 MB, whatever the input's
    size."""
    rng = np.random.default_rng(41)
    x = np.zeros(2_000_000)
    picked = rng.random(x.size) < 0.01
    x[picked] = rng.standard_normal(np.count_nonzero(picked))
    for write in (lambda: matio.matrix_to_csv(x.reshape(-1, 1000)), lambda: matio.dump_json(x)):
        tracemalloc.start()
        try:
            text = write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text) + 3 * 2**20, (peak, len(text))


def test_a_million_random_bit_patterns_match_the_json_encoder():
    rng = np.random.default_rng(2025)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    # 7 in 8 get a binary exponent around the fixed-point range [1e-4, 1e16)
    near = np.arange(bits.size) % 8 != 0
    exponent = rng.integers(1023 - 16, 1023 + 56, size=near.sum(), dtype=np.uint64)
    bits[near] = (bits[near] & np.uint64(0x800F_FFFF_FFFF_FFFF)) | (exponent << np.uint64(52))
    items = bits.view(np.float64).tolist()
    assert len(items) >= matio._VECTOR_MIN
    # the C encoder with the indented separator writes what indent=2 writes
    want = "[\n  " + json.dumps(items, separators=(",\n  ", ": "))[1:-1] + "\n]\n"
    _assert_same_text(matio.dump_json(items), want)
    _assert_same_text(matio.dump_json(bits.view(np.float64)), want)


@pytest.mark.parametrize("size, numpy_route", [(512, False), (1024, False), (1500, True)])
@pytest.mark.parametrize("zero_share", [1.0, 0.87])
def test_zero_heavy_arrays_take_the_faster_route_with_the_same_bytes(monkeypatch, size, numpy_route,
                                                                     zero_share):
    """An array's route counts its nonzero values and 2/5 of its zeros: below
    1 280 values an 87 %- or all-zero array stays on the C route, where a
    sparse pass would be slower.  Either route writes the same bytes."""
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size)
    x[rng.permutation(size)[:round(zero_share * size)]] = 0.0
    m = x.reshape(-1, 4)
    want = _reference_csv(m), _stdlib({"entries": x.tolist()})
    text, passes = matio._text, []
    monkeypatch.setattr(matio, "_text", lambda *args: passes.append(1) or text(*args))
    assert (matio.matrix_to_csv(m), matio.dump_json({"entries": x})) == want
    assert len(passes) == 2 * numpy_route
    for vector_min in (0, 10**12):  # each route forced
        monkeypatch.setattr(matio, "_VECTOR_MIN", vector_min)
        assert (matio.matrix_to_csv(m), matio.dump_json({"entries": x})) == want


def test_compound_space_arrays_keep_the_numpy_route():
    # an additive compound of a dense 10 x 10 at k = 4 is 12 % nonzero
    add = add_compound(np.random.default_rng(4).standard_normal((10, 10)), 4).data
    assert add.size == 44_100 and matio._vectorised(add)
    assert matio._vectorised(np.zeros(1280)) and not matio._vectorised(np.zeros(1279))


@pytest.mark.parametrize("other", [1, True, np.float64(0.5)])
def test_mixed_float_lists_stay_on_the_c_encoder(monkeypatch, other):
    """Lists of any item types take the C encoder, 1-D float64 arrays of at
    least matio._VECTOR_MIN values the numpy writer, and other arrays go
    through ``.tolist()``."""
    floats = np.random.default_rng(3).standard_normal(matio._VECTOR_MIN)
    items = floats.tolist() + [other]
    same = np.array([other] * matio._VECTOR_MIN)  # int64, bool or float64
    others = [same.reshape(2, -1), floats.astype(np.float32), floats[:-1], np.zeros(0)]
    if same.dtype != np.float64:
        others.append(same)
    want = [_stdlib({"entries": x.tolist()}) for x in [floats] + others]

    def refuse(*args):
        raise AssertionError("the numpy writer was reached")

    monkeypatch.setattr(matio, "_text", refuse)
    assert matio.dump_json({"entries": items}) == _stdlib({"entries": items})
    assert matio.dump_json({"entries": items[:-1]}) == want[0]
    for x, text in zip(others, want[1:]):
        assert matio.dump_json({"entries": x}) == text
    with pytest.raises(AssertionError):
        matio.dump_json({"entries": floats})
    if same.dtype == np.float64:
        with pytest.raises(AssertionError):
            matio.dump_json({"entries": same})
    monkeypatch.undo()
    assert matio.dump_json({"entries": floats}) == want[0]


def test_shortest_digits_are_taken_only_when_proven():
    """_shortest accepts x exactly when none of the fallbacks holds, computed
    with exact rationals: a significand that is a power of two, a candidate
    within 1e-6 of the half-ulp H, two 16-digit candidates within 1e-6 of
    q/2 = 5 where 5 < H, or a carry into an 18th digit.  Then it gives the
    shortest round-trip candidate nearest to x, found by trying every length."""
    from fractions import Fraction

    rng = np.random.default_rng(31)
    xs = np.concatenate([
        JSON_EDGES[np.isfinite(JSON_EDGES) & (JSON_EDGES >= 1e-4) & (JSON_EDGES < 1e16)],
        rng.uniform(1.0, 10.0, 400) * 10.0 ** rng.integers(-4, 16, 400),
    ])
    for x in xs.tolist():
        exact = Fraction(x)
        e = _true_exponent(exact)
        d, f, ok = matio._digits17(np.array([x]), np.array([e], np.int8))
        if not ok[0]:
            continue  # a tie or a carry of the 17-digit integer
        c, ok = matio._shortest(np.array([x]), d, f, np.array([e], np.int8), ok)
        v = exact * Fraction(10) ** (16 - e)
        h = Fraction(math.ulp(x)) / 2 * Fraction(10) ** (16 - e)
        for p in range(1, 18):
            q = 10 ** (17 - p)
            want = round(v / q) * q
            if abs(want - v) < h:
                break
        distances = [abs(round(v / q) * q - v) for q in (10, 100)]
        d = int(d[0])
        near = min(d % 100, 100 - d % 100) <= 12
        tie = h > 5 and abs(v - (d - d % 10) - 5) < Fraction(1, 10**6)
        unsure = (abs(distances[0] - h) < Fraction(1, 10**6)
                  or (near and abs(distances[1] - h) < Fraction(1, 10**6)) or tie)
        power_of_two = math.frexp(x)[0] == 0.5
        assert bool(ok[0]) == (not unsure and not power_of_two and want < 10**17), x
        if ok[0]:
            assert int(c[0]) == want, x
