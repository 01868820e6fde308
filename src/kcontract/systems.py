"""System models, entry-wise Jacobian bounds, and the built-in example systems.

A SystemModel bundles a vector field, its Jacobian, an optional box domain
and optional entry-wise Jacobian bounds valid over that domain and all times.
Built-ins are the Thomas attractor family, a diagonal LTI cascade and a
planar cooperative system on the positive orthant.

Vector fields take states as columns: ``f(t, x)`` with ``x`` of shape (n,)
or (n, B) and ``t`` a float or a (B,) array, returning the same shape as
``x``.  Each built-in field computes every column bitwise as it computes
that column alone, so the lockstep integrator can advance many starts in
one call without changing any of them.  Built-in Jacobians take states as
columns the same way, returning an (B, n, n) stack whose slices are bitwise
the 1-D calls; ``SystemModel.jacobians`` evaluates any model's Jacobian at
many states, in one call for a built-in and one call per state otherwise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional

import numpy as np

from .compounds import (
    _interval_matrix,
    add_compound_interval,
    as_matrix,
    require_square,
)
from .indexing import check_dense_guard


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lo <= x <= hi}; entries may be infinite."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=np.float64))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=np.float64))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-D arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("box must satisfy lo <= hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def is_finite(self) -> bool:
        return bool(np.isfinite(self.lo).all() and np.isfinite(self.hi).all())

    def contains(self, x, slack: float = 0.0) -> bool:
        """True when the point x, or every row of a stack of points (..., dim),
        lies in the box widened by ``slack``; NaN coordinates never do."""
        x = np.asarray(x, dtype=np.float64)
        return bool(np.all(x >= self.lo - slack) and np.all(x <= self.hi + slack))

    def grid(self, points_per_dim: int) -> np.ndarray:
        """Regular grid over the box, followed by the grid of cell midpoints:
        g^d + (g-1)^d points of the d-dimensional box for g =
        ``points_per_dim``, each lattice in ij order (the last axis varies
        fastest); g = 1 is the single point ``lo``.  A grid over
        MAX_DENSE_BYTES is refused before it is built."""
        if not self.is_finite:
            raise ValueError("grid sampling requires a finite box domain")
        g, d = operator.index(points_per_dim), self.dim
        if g < 1:
            raise ValueError(f"points_per_dim must be at least 1, got {g}")
        sizes = (g**d, (g - 1) ** d)
        check_dense_guard(sum(sizes) * d, "sample grid")
        # one linspace per axis: a vectorised one rounds a zero-width axis
        # differently from the others
        axes = [np.linspace(a, b, g) for a, b in zip(self.lo, self.hi)]
        mids = [0.5 * (ax[1:] + ax[:-1]) for ax in axes]
        pts = np.empty((sum(sizes), d))
        for lattice, values, m in ((pts[: sizes[0]], axes, g), (pts[sizes[0] :], mids, g - 1)):
            cells = lattice.reshape((m,) * d + (d,))
            for i, v in enumerate(values):
                # axis i broadcast over the lattice into its column
                cells[..., i] = v.reshape((-1,) + (1,) * (d - 1 - i))
        return pts


@dataclass(frozen=True)
class EntryBounds:
    """Entry-wise intervals for a Jacobian, valid over the domain and all t.

    ``compound`` optionally supplies interval enclosures for specific
    additive-compound orders directly; this is how exact cancellations that
    per-entry intervals cannot see (e.g. a trace identity) are expressed.
    """

    lo: np.ndarray
    hi: np.ndarray
    compound: Optional[dict] = None

    def __post_init__(self):
        lo = _interval_matrix(self.lo, "lo")
        hi = _interval_matrix(self.hi, "hi")
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have identical shapes")
        if np.any(lo > hi):
            raise ValueError("entry bounds must satisfy lo <= hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if self.compound is not None:
            fixed, n = {}, lo.shape[0]
            for k, (clo, chi) in self.compound.items():
                clo = _interval_matrix(clo, f"compound[{k}].lo")
                chi = _interval_matrix(chi, f"compound[{k}].hi")
                if not (1 <= int(k) <= n and clo.shape == chi.shape == (comb(n, int(k)),) * 2):
                    raise ValueError(f"compound bounds for k={k} must be C({n}, k)-square, 1 <= k <= {n}")
                if np.any(clo > chi):
                    raise ValueError(f"invalid compound bounds for k={k}")
                fixed[int(k)] = (clo, chi)
            object.__setattr__(self, "compound", fixed)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def is_constant(self) -> bool:
        return bool(np.isfinite(self.lo).all() and np.array_equal(self.lo, self.hi))

    def compound_interval(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Interval enclosure of J^[k]; uses explicit compound bounds if given."""
        if self.compound is not None and k in self.compound:
            return self.compound[k]
        if k == 1:
            return self.lo, self.hi
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValueError(
                "entry bounds are unbounded; supply compound-level bounds for this order"
            )
        return add_compound_interval(self.lo, self.hi, k)


def _require_dims(model, **dims) -> None:
    """Refuse each named box or entry bounds of ``model`` not of its ``dim``."""
    for name, dim in dims.items():
        value = getattr(model, name)
        if value is not None and value.dim != dim:
            raise ValueError(f"{name} has dimension {value.dim}, expected {dim}")


@dataclass
class SystemModel:
    """A (possibly time-varying) ODE system with Jacobian and domain data.

    ``f`` follows the states-as-columns contract of this module; a field that
    only takes 1-D states still works with ``integrate``, which integrates one
    start at a time.  ``jacobian`` takes one state; ``jacobians`` evaluates
    it at many.  Dimensions are checked when the model is built, and by
    ``dataclasses.replace``, but not when a field is assigned later.
    """

    state_dim: int
    f: Callable[[float, np.ndarray], np.ndarray]
    jacobian: Callable[[float, np.ndarray], np.ndarray]
    domain: Optional[Box] = None
    entry_bounds: Optional[EntryBounds] = None
    name: str = "system"

    def __post_init__(self):
        _require_dims(self, domain=self.state_dim, entry_bounds=self.state_dim)

    def jacobians(self, t, xs) -> np.ndarray:
        """The (S, n, n) stack of Jacobians at the columns of ``xs`` (n, S),
        with ``t`` a float or an (S,) array; see ``jacobian_stack``."""
        return jacobian_stack(self.jacobian, t, xs)


def _column_form(jacobian):
    """Mark a Jacobian written in column form: states of shape (n, S) give
    the (S, n, n) stack, each slice bitwise equal to the 1-D call."""
    jacobian._column_form = True
    return jacobian


def jacobian_stack(jacobian, t, *columns) -> np.ndarray:
    """Jacobians at S samples: ``jacobian(t, *x)`` with ``t`` a float or an
    (S,) array and each state argument given as columns, shape (d, S).

    A built-in (column-form) Jacobian gives the stack in one call.  Any other
    is called once per sample, and each result is copied at once, since a
    Jacobian may reuse its output buffer.  The caller checks the shape.
    """
    if getattr(jacobian, "_column_form", False):
        return jacobian(t, *columns)
    ts = np.broadcast_to(np.asarray(t, dtype=np.float64), columns[0].shape[1:])
    return np.array(
        [
            np.array(jacobian(tj, *(c[:, j] for c in columns)), dtype=np.float64)
            for j, tj in enumerate(ts)
        ]
    )


@dataclass
class SeriesModel:
    """Cascade where sub-system 1 drives sub-system 2.

    The stacked Jacobian is block lower-triangular with blocks J11(t, x1),
    J21(t, x), J22(t, x).  ``j21_mag``, the one coupling bound, is a finite,
    nonnegative dim2 x dim1 matrix bounding |J21| entrywise over the domain
    and all t.  Shapes are checked when the model is built, not on a later
    assignment.
    """

    sub1: SystemModel
    dim2: int
    f2: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    j22: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    j21: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    j21_mag: np.ndarray
    sub2_bounds: Optional[EntryBounds] = None
    sub2_domain: Optional[Box] = None
    name: str = "series"
    _full: Optional[SystemModel] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        mag = as_matrix(self.j21_mag, "j21_mag")
        if mag.shape != (self.dim2, self.dim1):
            raise ValueError(f"j21_mag must be {self.dim2}x{self.dim1}, got {mag.shape}")
        if (mag < 0).any():
            raise ValueError("j21_mag bounds |J21| and must be nonnegative")
        self.j21_mag = mag
        _require_dims(self, sub2_bounds=self.dim2, sub2_domain=self.dim2)

    @property
    def dim1(self) -> int:
        return self.sub1.state_dim

    @property
    def state_dim(self) -> int:
        return self.dim1 + self.dim2

    def split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[: self.dim1], x[self.dim1 :]

    def f_full(self, t: float, x: np.ndarray) -> np.ndarray:
        x1, x2 = self.split(x)
        return np.concatenate([self.sub1.f(t, x1), self.f2(t, x1, x2)])

    def jacobian_full(self, t: float, x: np.ndarray) -> np.ndarray:
        x1, x2 = self.split(x)
        n, m = self.dim1, self.dim2
        out = np.zeros((n + m, n + m))
        out[:n, :n] = self.sub1.jacobian(t, x1)
        out[n:, :n] = self.j21(t, x1, x2)
        out[n:, n:] = self.j22(t, x1, x2)
        return out

    def full_system(self) -> SystemModel:
        if self._full is not None:
            return self._full
        sysm = SystemModel(
            state_dim=self.state_dim,
            f=self.f_full,
            jacobian=self.jacobian_full,
            name=self.name,
        )
        self._full = sysm
        return sysm


@dataclass(frozen=True)
class FeedbackModel:
    """Two blocks in skew-symmetric feedback, J21 = -c J12^T with gain c > 0.

    The coupling block is derived from ``j12`` and ``c``, so the skew
    identity holds by construction.  Evaluators take (t, x) with x the
    stacked state.  Dimensions are checked when the model is built.
    """

    dim1: int
    dim2: int
    j11: Callable[[float, np.ndarray], np.ndarray]
    j12: Callable[[float, np.ndarray], np.ndarray]
    j22: Callable[[float, np.ndarray], np.ndarray]
    c: float
    domain: Optional[Box] = None
    bounds1: Optional[EntryBounds] = None
    bounds2: Optional[EntryBounds] = None
    name: str = "feedback"

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"the skew gain c must be positive, got {self.c!r}")
        _require_dims(self, domain=self.dim1 + self.dim2, bounds1=self.dim1, bounds2=self.dim2)

    def j21(self, t, x) -> np.ndarray:
        """The coupling block -c J12(t, x)^T."""
        return -self.c * np.asarray(self.j12(t, x), dtype=np.float64).T


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

THOMAS_D = 0.193186
THOMAS_ALPHA = -0.1
THOMAS_B = np.ones(3) / 8.0

#: The nine initial conditions used in the attractor experiments (also
#: shipped as data/standard_initial_conditions.csv).
STANDARD_INITIAL_CONDITIONS = np.array(
    [
        [-0.5, 0.5, 0.5],
        [-1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0],
        [1.0, 1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [0.5, 0.25, 0.0],
        [0.05, 0.025, 0.0],
        [0.5, -0.5, -2.0],
    ]
)


def thomas_controller_gain(d: float) -> float:
    """The gain c = 1.1 - 2d used in the de-chaotified closed loop."""
    return 1.1 - 2.0 * d


def invariant_box(d: float) -> Box:
    """The compact set {x : d |x|_inf <= 1}, invariant for the Thomas family."""
    r = 1.0 / d
    return Box(-r * np.ones(3), r * np.ones(3))


def _thomas_entry_bounds(d: float, c: float) -> EntryBounds:
    lo = np.array([[-d - c, -1.0, 0.0], [0.0, -d - c, -1.0], [-1.0, 0.0, -d]])
    hi = np.array([[-d - c, 1.0, 0.0], [0.0, -d - c, 1.0], [1.0, 0.0, -d]])
    return EntryBounds(lo, hi)


def thomas(d: float = THOMAS_D) -> SystemModel:
    """Thomas' cyclically symmetric system with dissipation d."""
    return thomas_controlled(d, 0.0, name=f"thomas(d={d:g})")


#: x[_CYCLE] is (x2, x3, x1), the arguments of the Thomas field's sines
_CYCLE = np.array([1, 2, 0], dtype=np.intp)


def _thomas_field(d: float, c: float):
    """The controlled Thomas field at x[:3] as one whole-array function of
    x, shape (m,) or (m, B) with m >= 3: (sin x2 - (d + c) x1,
    sin x3 - (d + c) x2, sin x1 - d x3), one sine call on the cyclically
    shifted rows and one in-place subtraction of the damping column.

    Each entry takes the same IEEE operations in the same order as the
    written-out formula, so every column is bitwise its own 1-D call.
    """
    damp = np.array([d + c, d + c, d], dtype=np.float64)
    damp_col = damp[:, None]

    def field(x):
        out = np.sin(x.take(_CYCLE, 0))
        out -= (damp if x.ndim == 1 else damp_col) * x[:3]
        return out

    return field


def _thomas_jacobian(x, d: float, c: float) -> np.ndarray:
    """The 3x3 Jacobian of the controlled Thomas field at x[:3], or the
    (B, 3, 3) stack at the columns of x."""
    out = np.zeros(np.shape(x)[1:] + (3, 3))
    out[..., 0, 0] = out[..., 1, 1] = -d - c
    out[..., 0, 1] = np.cos(x[1])
    out[..., 1, 2] = np.cos(x[2])
    out[..., 2, 0] = np.cos(x[0])
    out[..., 2, 2] = -d
    return out


def thomas_controlled(d: float = THOMAS_D, c: Optional[float] = None, name=None) -> SystemModel:
    """Thomas system under the partial-state feedback -diag(c, c, 0) x."""
    if c is None:
        c = thomas_controller_gain(d)
    field = _thomas_field(d, c)

    def f(t, x):
        return field(np.asarray(x))

    @_column_form
    def jac(t, x):
        return _thomas_jacobian(x, d, c)

    return SystemModel(
        state_dim=3,
        f=f,
        jacobian=jac,
        domain=invariant_box(d),
        entry_bounds=_thomas_entry_bounds(d, c),
        name=name or f"thomas_controlled(d={d:g}, c={c:g})",
    )


def thomas_perturbed(
    d: float = THOMAS_D,
    c: Optional[float] = None,
    alpha: float = THOMAS_ALPHA,
    b=THOMAS_B,
) -> SystemModel:
    """Controlled Thomas system plus b*exp(alpha*t), as the time-invariant
    augmentation with an extra exponential state y, y(0) = 1."""
    if c is None:
        c = thomas_controller_gain(d)
    b = np.asarray(b, dtype=np.float64).ravel()
    if b.size != 3:
        raise ValueError("perturbation direction b must have 3 components")

    field = _thomas_field(d, c)
    # (b, alpha) y is the input column and the row of y' in one product;
    # adding the field to it is bitwise field + b y, as IEEE addition commutes
    gain = np.append(b, alpha)
    gain_col = gain[:, None]

    def f(t, z):
        z = np.asarray(z)
        out = (gain if z.ndim == 1 else gain_col) * z[3]
        out[:3] += field(z)
        return out

    @_column_form
    def jac(t, z):
        out = np.zeros(np.shape(z)[1:] + (4, 4))
        out[..., :3, :3] = _thomas_jacobian(z, d, c)
        out[..., :3, 3] = b
        out[..., 3, 3] = alpha
        return out

    base = _thomas_entry_bounds(d, c)
    lo = np.zeros((4, 4))
    hi = np.zeros((4, 4))
    lo[:3, :3], hi[:3, :3] = base.lo, base.hi
    lo[:3, 3] = hi[:3, 3] = b
    lo[3, 3] = hi[3, 3] = alpha
    box = invariant_box(d)
    domain = Box(np.concatenate([box.lo, [0.0]]), np.concatenate([box.hi, [1.0]]))
    return SystemModel(
        state_dim=4,
        f=f,
        jacobian=jac,
        domain=domain,
        entry_bounds=EntryBounds(lo, hi),
        name=f"thomas_perturbed(d={d:g}, c={c:g}, alpha={alpha:g})",
    )


def thomas_perturbed_field(d=THOMAS_D, c=None, alpha=THOMAS_ALPHA, b=THOMAS_B):
    """Time-varying 3-state view of the perturbed closed loop, t -> f(t, x):
    the first three components of ``thomas_perturbed``'s field at the
    exponential state y = exp(alpha t), a 1-D state or states as columns."""
    full = thomas_perturbed(d, c, alpha, b).f

    def f(t, x):
        return full(t, np.concatenate([x, np.exp(alpha * t)[None]]))[:3]

    return f


def lti(a, name: Optional[str] = None) -> SystemModel:
    """Linear time-invariant system dx/dt = A x."""
    a = require_square(as_matrix(a, "A"), "A")
    n = a.shape[0]

    def f(t, x):
        # one matrix-vector product per column, as a.dot(x) is on a 1-D
        # state; a @ x on an (n, B) stack would be one matrix product,
        # which rounds its columns differently
        if x.ndim == 1:
            return a.dot(x)
        return np.matmul(a, x.T[..., None])[..., 0].T

    @_column_form
    def jac(t, x):
        return np.broadcast_to(a, np.shape(x)[1:] + (n, n))

    return SystemModel(
        state_dim=n,
        f=f,
        jacobian=jac,
        entry_bounds=EntryBounds(a, a),
        name=name or f"lti({n}x{n})",
    )


def lti_series(a, b, c, name: Optional[str] = None) -> SeriesModel:
    """Cascade dx1 = A x1, dx2 = B x1 + C x2 with constant blocks."""
    a = require_square(as_matrix(a, "A"), "A")
    c = require_square(as_matrix(c, "C"), "C")
    b = as_matrix(b, "B")
    n, m = a.shape[0], c.shape[0]
    if b.shape != (m, n):
        raise ValueError(f"B must be {m}x{n}, got {b.shape}")
    model = SeriesModel(
        sub1=lti(a, name="sub1"),
        dim2=m,
        f2=lambda t, x1, x2: b @ x1 + c @ x2,
        j22=lambda t, x1, x2: c,
        j21=lambda t, x1, x2: b,
        j21_mag=np.abs(b),
        sub2_bounds=EntryBounds(c, c),
        name=name or "lti_series",
    )
    model._full = lti(model.jacobian_full(0.0, np.zeros(n + m)), name=model.name)
    return model


def lti_series_zeta(zeta1: float, zeta2: float = -2.0) -> SeriesModel:
    """The diagonal cascade A = diag(1, -2), B = 0, C = diag(zeta1, zeta2)."""
    return lti_series(
        np.diag([1.0, -2.0]),
        np.zeros((2, 2)),
        np.diag([zeta1, zeta2]),
        name=f"lti_series(zeta1={zeta1:g}, zeta2={zeta2:g})",
    )


def remark2() -> SystemModel:
    """Planar cascade on the positive orthant whose 2nd additive compound is
    identically -1 even though neither coordinate is contracting globally."""

    def f(t, x):
        return np.array([-0.5 * x[0] ** 2 - x[0], x[1] * x[0]])

    @_column_form
    def jac(t, x):
        out = np.zeros(np.shape(x)[1:] + (2, 2))
        out[..., 0, 0] = -x[0] - 1.0
        out[..., 1, 0] = x[1]
        out[..., 1, 1] = x[0]
        return out

    inf = np.inf
    bounds = EntryBounds(
        lo=np.array([[-inf, 0.0], [0.0, 0.0]]),
        hi=np.array([[-1.0, 0.0], [inf, inf]]),
        compound={2: (np.array([[-1.0]]), np.array([[-1.0]]))},
    )
    return SystemModel(
        state_dim=2,
        f=f,
        jacobian=jac,
        domain=Box([0.0, 0.0], [np.inf, np.inf]),
        entry_bounds=bounds,
        name="remark2",
    )
