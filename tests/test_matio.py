"""The writers give the bytes of the per-value ``%.17g`` join and of
``json.dumps(obj, indent=2, allow_nan=True)``."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcontract import matio
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
    for volumes in (None, rng.uniform(0.0, 2.0, 7)):
        rec = TrajectoryRecord(times, states, volumes=volumes, system="ref")
        rows = np.column_stack([times, states] + ([] if volumes is None else [volumes]))
        header = "t,x1,x2,x3" + ("" if volumes is None else ",vol")
        assert matio.trajectory_to_csv(rec) == header + "\n" + _reference_csv(rows)
        obj = {"system": "ref", "times": [float(t) for t in times],
               "states": [[float(v) for v in row] for row in states]}
        if volumes is not None:
            obj["volumes"] = [float(v) for v in volumes]
        assert matio.trajectory_to_json(rec) == _stdlib(obj)


def test_matrix_to_json_matches_stdlib():
    m = np.array([[1.0, -0.0, 5e-324], [math.inf, math.nan, 0.1]])
    obj = {"rows": 2, "cols": 3, "entries": [float(v) for v in m.ravel()]}
    assert matio.matrix_to_json(m) == _stdlib(obj)
    assert matio.matrix_to_json(np.arange(4).reshape(2, 2)) == _stdlib(
        {"rows": 2, "cols": 2, "entries": [0.0, 1.0, 2.0, 3.0]}
    )
