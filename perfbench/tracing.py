"""Out-of-program tracing of kcontract's layers.

The tracer replaces each traced library function with a wrapper at every
binding site inside the ``kcontract`` package (the defining module and every
module or package namespace that imported the same function object), so a
call is recorded no matter which import path the caller used.  The system
factories in ``kcontract.systems`` are wrapped so that the models they return
carry traced ``f`` / ``jacobian`` callables.

Spans (name, parent, start, end) stay in memory in flat arrays and are
written out once, at the end.  A layer's self time is its span time minus the
time covered by its child spans.  Counts such as ``minors`` or ``rhs_evals``
are computed from call arguments outside the program, so they repeat exactly
for a fixed workload seed.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from math import comb

import numpy as np


# ---------------------------------------------------------------------------
# Count hooks: hook(call, add, *args, **kwargs) runs the original through
# ``call`` and records computed counts through ``add(stat, amount)``.
# ---------------------------------------------------------------------------


def _plain(call, add, *args, **kwargs):
    return call(*args, **kwargs)


def _sequences(call, add, m, k, kind):
    # The unscaled L1/Linf closed form visits every increasing k-sequence.
    n = np.shape(m)[0]
    if kind.scaling is None and kind.p in ("1", "inf") and 1 <= k <= n:
        add("sequences", comb(n, k))
    return call(m, k, kind)


def _minors(call, add, m, rows, cols):
    r, k = np.shape(rows)
    c = np.shape(cols)[0]
    add("minors", r * c)
    add("bytes_computed", r * c * k * k * 8)
    return call(m, rows, cols)


def _serialized_bytes(call, add, *args, **kwargs):
    text = call(*args, **kwargs)
    add("bytes", len(text.encode()))
    return text


def _rhs_counter(dopri: bool):
    """Count calls of the right-hand side handed to an integrator kernel."""

    def hook(call, add, f, *args, **kwargs):
        evals = 0

        def counted(t, x):
            nonlocal evals
            evals += 1
            return f(t, x)

        try:
            return call(counted, *args, **kwargs)
        finally:
            add("rhs_evals", evals)
            if dopri:
                # one initial evaluation, then six stages per attempted step
                add("step_attempts", max(evals - 1, 0) // 6)

    return hook


#: (layer name, defining module, attribute, count hook).  Layer names are the
#: module without its leading underscore plus the function; the serializers
#: of ``matio`` share the layer ``matio.write`` (bytes = UTF-8 text produced
#: for output files), and ``_block_decompose`` backs both public decompose
#: functions.
TARGETS = (
    ("measures.compound_measure", "kcontract.measures", "compound_measure", _sequences),
    ("measures.matrix_measure", "kcontract.measures", "matrix_measure", _plain),
    ("measures.interval_measure_upper", "kcontract.measures", "interval_measure_upper", _plain),
    ("measures.hierarchic_measure_bounds", "kcontract.measures", "hierarchic_measure_bounds", _plain),
    ("certificates.certify_k_contraction", "kcontract.certificates", "certify_k_contraction", _plain),
    ("certificates.certify_series", "kcontract.certificates", "certify_series", _plain),
    (
        "certificates.worst_case_compound_measure",
        "kcontract.certificates",
        "worst_case_compound_measure",
        _plain,
    ),
    ("compounds.add_compound", "kcontract.compounds", "add_compound", _plain),
    ("compounds.mult_compound", "kcontract.compounds", "mult_compound", _plain),
    ("compounds.add_compound_interval", "kcontract.compounds", "add_compound_interval", _plain),
    ("compounds.block_decompose", "kcontract.compounds", "_block_decompose", _plain),
    ("indexing.build_permutation", "kcontract.indexing", "build_permutation", _plain),
    ("kernels.minor_dets", "kcontract._kernels", "minor_dets", _minors),
    ("kernels.rk4_fixed", "kcontract._kernels", "rk4_fixed", _rhs_counter(dopri=False)),
    ("kernels.rk45_solve", "kcontract._kernels", "rk45_solve", _rhs_counter(dopri=True)),
    ("dynamics.integrate", "kcontract.dynamics", "integrate", _plain),
    ("dynamics.variational_flow", "kcontract.dynamics", "variational_flow", _plain),
    ("dynamics.parallelotope_volume", "kcontract.dynamics", "parallelotope_volume", _plain),
    ("dynamics.volume_growth_rate", "kcontract.dynamics", "volume_growth_rate", _plain),
    (
        "dynamics.detect_equilibrium_convergence",
        "kcontract.dynamics",
        "detect_equilibrium_convergence",
        _plain,
    ),
    ("matio.write", "kcontract.matio", "matrix_to_csv", _serialized_bytes),
    ("matio.write", "kcontract.matio", "matrix_to_json", _serialized_bytes),
    ("matio.write", "kcontract.matio", "trajectory_to_csv", _serialized_bytes),
    ("matio.write", "kcontract.matio", "trajectory_to_json", _serialized_bytes),
    ("matio.write", "kcontract.matio", "dump_json", _serialized_bytes),
    ("cli.main", "kcontract.cli", "main", _plain),
)

#: Factories whose returned models (or field functions) get traced callables.
SYSTEM_FACTORIES = (
    "thomas",
    "thomas_controlled",
    "thomas_perturbed",
    "thomas_perturbed_field",
    "lti",
    "lti_series",
    "lti_series_zeta",
    "remark2",
)

#: Computed counts, reported as ``<layer>.<stat>``.
COUNTS = (
    "measures.compound_measure.sequences",
    "kernels.minor_dets.minors",
    "kernels.minor_dets.bytes_computed",
    "kernels.rk4_fixed.rhs_evals",
    "kernels.rk45_solve.rhs_evals",
    "kernels.rk45_solve.step_attempts",
    "matio.write.bytes",
)

#: Spans that evaluate one measure for a certificate, and the certificates.
_EVALS = ("measures.compound_measure", "certificates.worst_case_compound_measure")
_CERTS = ("certificates.certify_k_contraction", "certificates.certify_series")


class Tracer:
    """In-memory span recorder with binding-site function replacement."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, hook=_plain):
        """Wrap ``fn`` so each call while active records one span."""
        nid = self._id(name)

        def add(stat, amount):
            self.counts[f"{name}.{stat}"] += amount

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0.0)
            self._stack.append(idx)
            self._start.append(time.perf_counter())
            try:
                return hook(fn, add, *args, **kwargs)
            finally:
                self._end[idx] = time.perf_counter()
                self._stack.pop()

        traced.traced_as = name
        return traced

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> int:
        """Rebind ``original`` at every kcontract binding site; return the count."""
        sites = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "kcontract" or modname.startswith("kcontract.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)
                    sites += 1
        return sites

    def _trace_model(self, model):
        """Give a freshly built model traced ``f``/``jacobian`` callables."""
        from kcontract.systems import SeriesModel, SystemModel

        if isinstance(model, SystemModel):
            if not hasattr(model.f, "traced_as"):
                model.f = self.span("systems.f", model.f)
            if not hasattr(model.jacobian, "traced_as"):
                model.jacobian = self.span("systems.jacobian", model.jacobian)
        elif isinstance(model, SeriesModel):
            self._trace_model(model.sub1)
            if model._full is not None:
                self._trace_model(model._full)
        elif callable(model) and not hasattr(model, "traced_as"):
            model = self.span("systems.f", model)
        return model

    def install(self) -> dict[str, int]:
        """Wrap every target; return binding sites per layer (for tests)."""
        import importlib

        sites: dict[str, int] = defaultdict(int)
        self._id("systems.f")
        self._id("systems.jacobian")
        for name, modname, attr, hook in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            sites[name] += self._replace_everywhere(original, self.span(name, original, hook))
        systems = importlib.import_module("kcontract.systems")
        for attr in SYSTEM_FACTORIES:
            factory = getattr(systems, attr)

            def build(*args, _factory=factory, **kwargs):
                return self._trace_model(_factory(*args, **kwargs))

            sites["systems." + attr] += self._replace_everywhere(factory, build)
        return dict(sites)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    @contextmanager
    def recording(self):
        """Install the wrappers and record spans for the duration of the block."""
        sites = self.install()
        self.active = True
        try:
            yield sites
        finally:
            self.active = False
            self.uninstall()

    # -- results -----------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        dur = np.frombuffer(self._end, dtype=np.float64) - np.frombuffer(self._start, dtype=np.float64)
        return name, parent, dur

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls`` and ``self_ms`` (span time minus child spans)."""
        name, parent, dur = self._arrays()
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        return {
            n: {"calls": int(calls[i]), "self_ms": float(self_s[i] * 1e3)}
            for i, n in enumerate(self.names)
        }

    def evals_per_verdict(self) -> float:
        """Outermost measure evaluations under a certificate, per certificate."""
        name, parent, _ = self._arrays()
        evals = {self._ids[n] for n in _EVALS if n in self._ids}
        certs = {self._ids[n] for n in _CERTS if n in self._ids}
        n_certs = int(np.isin(name, list(certs)).sum()) if certs else 0
        if not n_certs:
            return 0.0
        counted = 0
        for idx in np.flatnonzero(np.isin(name, list(evals))):
            p = parent[idx]
            while p >= 0 and name[p] not in evals and name[p] not in certs:
                p = parent[p]
            counted += p >= 0 and name[p] in certs
        return counted / n_certs

    def write(self, path) -> None:
        """Write every span as ``id parent name start_us duration_us`` (TSV)."""
        name, parent, dur = self._arrays()
        start = np.frombuffer(self._start, dtype=np.float64)
        t0 = start[0] if start.size else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_us\tduration_us\n")
            for i in range(start.size):
                fh.write(
                    f"{i}\t{parent[i]}\t{self.names[name[i]]}\t"
                    f"{(start[i] - t0) * 1e6:.1f}\t{dur[i] * 1e6:.1f}\n"
                )
