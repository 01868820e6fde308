"""The premises of every analytic certificate of a built-in system: its
Jacobian is the derivative of its field, and the sampled Jacobian lies
inside the model's entry bounds, its compound-level bounds and, for a
cascade, the coupling bound ``j21_mag``.

Each factory of the CLI's system table is sampled at seeded points of its
domain; an infinite domain (remark2's orthant, or none, as for the LTI
models) is cut to the box |x_i| <= ``_RADIUS``.
"""

import numpy as np
import pytest

from kcontract import cli, systems
from kcontract.compounds import add_compound

_RADIUS = 4.0
_SAMPLES = 200
_H = 1e-6
#: max |J - central difference| measured 2.6e-10 to 1.3e-8 over the built-ins
_CD_TOL = 1e-6
#: seeded matrix params of the factories that need them
_PARAMS = {
    "lti": lambda rng: {"a": rng.standard_normal((4, 4))},
    "lti_series": lambda rng: {
        "a": rng.standard_normal((3, 3)), "b": rng.standard_normal((2, 3)), "c": rng.standard_normal((2, 2)),
    },
}


def _model(name):
    params = _PARAMS.get(name, lambda rng: {})(np.random.default_rng(26))
    return getattr(systems, name)(**params)


def _samples(domain, dim, seed):
    """Seeded points of the domain cut to the box |x_i| <= _RADIUS, one a row."""
    lo, hi = np.full(dim, -_RADIUS), np.full(dim, _RADIUS)
    if domain is not None:
        lo, hi = np.maximum(domain.lo, lo), np.minimum(domain.hi, hi)
    return np.random.default_rng(seed).uniform(lo, hi, (_SAMPLES, dim))


def _central_difference(f, x):
    cols = [(f(0.0, x + _H * e) - f(0.0, x - _H * e)) / (2.0 * _H) for e in np.eye(x.size)]
    return np.column_stack(cols)


def _assert_inside(values, lo, hi, slack=0.0):
    assert (values >= lo - slack).all() and (values <= hi + slack).all()


def _assert_premises(sysm, seed):
    eb = sysm.entry_bounds
    for x in _samples(sysm.domain, sysm.state_dim, seed):
        j = sysm.jacobian(0.0, x)
        assert np.abs(j - _central_difference(sysm.f, x)).max() <= _CD_TOL
        _assert_inside(j, eb.lo, eb.hi)
        # an off-diagonal entry of J^[k] is a signed entry of J, exact; a
        # diagonal one is a sum of k diagonal entries of J, which the sample
        # and the bound may round in different orders, each within
        # (k - 1) u sum|J_ii| (u = eps / 2): remark2's trace is -1 only so
        for k in range(1, sysm.state_dim + 1):
            slack = k * np.finfo(float).eps * np.abs(np.diag(j)).sum()
            _assert_inside(add_compound(j, k).data, *eb.compound_interval(k), slack)


@pytest.mark.parametrize("name", sorted(cli._SYSTEMS))
def test_builtin_jacobians_and_bounds_hold_at_domain_samples(name):
    model = _model(name)
    if isinstance(model, systems.SeriesModel):
        _assert_premises(model.full_system(), seed=1)
        n = model.dim1
        for x in _samples(None, model.state_dim, seed=2):
            j = model.jacobian_full(0.0, x)
            assert np.abs(j - _central_difference(model.f_full, x)).max() <= _CD_TOL
            _assert_inside(j[:n, :n], model.sub1.entry_bounds.lo, model.sub1.entry_bounds.hi)
            _assert_inside(j[n:, n:], model.sub2_bounds.lo, model.sub2_bounds.hi)
            assert (np.abs(j[n:, :n]) <= model.j21_mag).all()
    else:
        _assert_premises(model, seed=1)


def _fields(model):
    """Every field a built-in model offers, with its state dimension."""
    if isinstance(model, systems.SeriesModel):
        return [(model.full_system().f, model.state_dim), (model.f_full, model.state_dim),
                (model.sub1.f, model.dim1)]
    return [(model.f, model.state_dim)]


@pytest.mark.parametrize("name", sorted(cli._SYSTEMS))
def test_builtin_fields_take_a_list_state(name):
    # a 1-D array-like state is the ndarray state, to the bit
    fields = _fields(_model(name))
    if name == "thomas_perturbed":
        fields.append((systems.thomas_perturbed_field(), 3))
    for f, dim in fields:
        for x in _samples(None, dim, seed=3)[:5]:
            want = f(0.7, x)
            assert type(want) is np.ndarray
            assert np.array_equal(f(0.7, x.tolist()), want)
            assert np.array_equal(f(0.7, tuple(x.tolist())), want)


def test_series_model_holds_one_coupling_bound():
    a, b, c = np.diag([-1.0, -2.0]), np.array([[0.5, -1.5]]), np.array([[-3.0]])
    model = systems.lti_series(a, b, c)
    assert model.j21_mag.dtype == np.float64 and np.array_equal(model.j21_mag, [[0.5, 1.5]])
    parts = dict(sub1=model.sub1, dim2=1, f2=model.f2, j22=model.j22, j21=model.j21)
    assert systems.SeriesModel(**parts, j21_mag=[[1, 2]]).j21_mag.dtype == np.float64
    with pytest.raises(ValueError, match="j21_mag must be 1x2"):
        systems.SeriesModel(**parts, j21_mag=np.ones((2, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        systems.SeriesModel(**parts, j21_mag=[[1.0, np.inf]])
    with pytest.raises(ValueError, match="must be nonnegative"):
        systems.SeriesModel(**parts, j21_mag=[[1.0, -0.5]])
    with pytest.raises(TypeError):
        systems.SeriesModel(**parts, j21_sup=1.5)


def test_compound_bounds_take_an_order_of_the_system_at_its_compound_size():
    # compound-level bounds replace the entry bounds' enclosure of J^[k], so
    # an order outside 1..n or a bound that is not C(n, k)-square is refused
    lo, hi = -np.eye(3), 5.0 * np.ones((3, 3)) - 6.0 * np.eye(3)
    one = ([[-3.0]], [[-3.0]])
    for compound in ({0: one}, {4: one}, {"2": one}, {2: (-np.eye(3), -np.eye(2))}):
        with pytest.raises(ValueError, match=r"compound bounds for k=\d must be C\(3, k\)-square"):
            systems.EntryBounds(lo, hi, compound)
    bounds = systems.EntryBounds(lo, hi, {"2": (-np.eye(3), -np.eye(3)), 3: one})
    assert list(bounds.compound) == [2, 3]
