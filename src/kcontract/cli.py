"""Command-line front end.

Subcommands: compound, measure, decompose, certify, simulate, volume.
Exit codes: 0 success / certificate pass, 1 certificate fail, 2 bad input or
configuration, 3 dimension guard tripped, 4 inconclusive (sampled)
certificate, 5 integration failure (partial output written).
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import matio, systems
from .certificates import certify_exp_input, certify_k_contraction, certify_series
from .compounds import add_compound, block_diag_add_decompose, block_diag_mult_decompose, mult_compound
from .dynamics import (
    IntegrationError,
    TrajectoryRecord,
    detect_equilibrium_convergence,
    integrate_many,
    parallelotope_volume,
    volume_growth_rate,
)
from .indexing import DimensionGuardError
from .measures import compound_measure, matrix_measure, parse_kind
from .systems import EntryBounds, SystemModel

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_DIMENSION = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTEGRATION = 5


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use; each subcommand sets ``run``."""
    p = argparse.ArgumentParser(prog="kcontract", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compound", help="k-th multiplicative or additive compound of a matrix")
    c.add_argument("--input", required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--kind", choices=("mult", "add"), default="mult")
    c.add_argument("--output")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.set_defaults(run=_cmd_compound)

    m = sub.add_parser("measure", help="matrix measure, optionally of the k-th additive compound")
    m.add_argument("--input", required=True)
    m.add_argument("--kind", default="l2", help="l1, l2 or linf")
    m.add_argument("--k", type=int, default=None)
    m.set_defaults(run=_cmd_measure)

    d = sub.add_parser("decompose", help="block-diagonal compound decomposition of diag(A, B)")
    d.add_argument("--input", nargs=2, required=True, metavar=("A", "B"))
    d.add_argument("--k", type=int, required=True)
    d.add_argument("--kind", choices=("mult", "add"), default="mult")
    d.add_argument("--output")
    d.add_argument("--format", choices=("csv", "json"), default="json")
    d.set_defaults(run=_cmd_decompose)

    ce = sub.add_parser("certify", help="run a contraction certificate from a JSON config")
    ce.add_argument("--input", required=True)
    ce.add_argument("--output", help="write the JSON report here")
    ce.set_defaults(run=_cmd_certify)

    si = sub.add_parser("simulate", help="integrate trajectories and summarize")
    source = si.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="JSON config")
    source.add_argument("--preset", choices=("fig2", "fig3", "growth"))
    si.add_argument("--output", default=".", help="output directory")
    si.add_argument("--tol", type=float, help="integration tolerance override (config key tol)")
    si.add_argument("--horizon", type=float, help="final time override (config key horizon)")
    si.add_argument("--grid", type=int, help="number of output samples (config key n_out)")
    si.add_argument("--format", choices=("csv", "json"), default="csv")
    si.set_defaults(run=_cmd_simulate)

    v = sub.add_parser("volume", help="volume of the parallelotope spanned by matrix columns")
    v.add_argument("--input", required=True)
    v.set_defaults(run=_cmd_volume)
    return p


def _cmd_compound(args) -> int:
    m = matio.load_matrix(args.input)
    comp = mult_compound(m, args.k) if args.kind == "mult" else add_compound(m, args.k)
    text = matio.matrix_to_json(comp.data) if args.format == "json" else matio.matrix_to_csv(comp.data)
    return _write_output(args, text)


def _write_output(args, text: str) -> int:
    """Write a command's text to --output, or to stdout without one."""
    write = Path(args.output).write_text if args.output else sys.stdout.write
    write(text)
    return EXIT_PASS


def _cmd_measure(args) -> int:
    m = matio.load_matrix(args.input)
    kind = parse_kind(args.kind)
    value = matrix_measure(m, kind) if args.k is None else compound_measure(m, args.k, kind)
    print(matio.fmt(value))
    return EXIT_PASS


def _cmd_decompose(args) -> int:
    fn = block_diag_mult_decompose if args.kind == "mult" else block_diag_add_decompose
    dec = fn(*map(matio.load_matrix, args.input), args.k)
    if args.format == "csv":
        return _write_output(args, matio.matrix_to_csv(dec.reconstruct()))
    perm = dec.permutation
    obj = {
        "kind": dec.kind,
        "k": perm.k,
        "n": perm.n,
        "m": perm.m,
        "i1": dec.blocks[0][0],
        "i2": dec.blocks[-1][0],
        "partition": dec.partition(),
        "permutation": (perm.positions + 1).tolist(),
        "blocks": [
            {"i": i, "rows": int(blk.shape[0]), "cols": int(blk.shape[1]), "entries": blk.ravel()}
            for i, blk in dec.blocks
        ],
    }
    return _write_output(args, matio.dump_json(obj))


#: certify and simulate configs: one key table (_KEYS), one reader (_read_config).  A
#: config runs in one mode: certify in single, series or exp_input, simulate in growth
#: if it has volume_generators, else trajectories; jacobian_from is read in its own.
_CERTIFY = ("single", "series", "exp_input")
_SIMULATE = ("trajectories", "growth")
_ALL = _CERTIFY + _SIMULATE + ("jacobian_from",)
_BUILT = ("single", "exp_input", "trajectories", "jacobian_from")  # one SystemModel
_REQUIRED = object()


class _ByMode(dict):
    """A default per mode; a mode it leaves out needs the key."""


#: Built-in systems: the ``systems`` factory of each name, looked up per call (so a
#: rebound one is called), renaming matrix parameters; lti_series_zeta if no A.
_SYSTEMS = {"thomas": {}, "thomas_controlled": {}, "thomas_perturbed": {}, "remark2": {},
            "lti": {"A": "a"}, "lti_series": {"A": "a", "B": "b", "C": "c"}}

#: Every config key: JSON type, range, default, and the modes that read it; a
#: dotted key is a member of the object its prefix names.  A mode reading a key
#: needs it if the default is _REQUIRED, or a _ByMode without that mode.  params
#: take the factory's defaults; the certificate checks grid >= 1 (method grid).
_KEYS = {
    "system": ("string", (*_SYSTEMS, "bounds"), _ByMode(series="lti_series", growth="lti_series"), _ALL),
    "params": ("object", None, {}, _ALL),
    "params.d": ("finite number", "> 0", None, ()),
    "params.c": ("finite number", None, None, ()),
    "params.alpha": ("finite number", None, None, ()),
    "params.b": ("list of finite numbers", None, None, ()),
    "params.name": ("string", None, None, ()),
    "params.zeta1": ("finite number", None, None, ()),
    "params.zeta2": ("finite number", None, None, ()),
    "params.A": ("matrix of finite numbers", None, None, ()),
    "params.B": ("matrix of finite numbers", None, None, ()),
    "params.C": ("matrix of finite numbers", None, None, ()),
    "mode": ("string", _CERTIFY, None, _CERTIFY),
    "k": ("integer", ">= 1", 2, _CERTIFY),
    "method": ("string", ("analytic", "grid"), "analytic", _CERTIFY),
    "grid": ("integer", None, 21, _CERTIFY),
    "kind": ("measure kind", None, None, ("single",)),
    "kinds": ("list of measure kinds", None, None, ("series", "exp_input")),
    "alpha": ("finite number", None, _REQUIRED, ("exp_input",)),
    "g_bound": ("finite number", ">= 0", 0.0, ("exp_input",)),
    "name": ("string", None, "bounds", _BUILT),
    "bounds": ("object", None, None, _BUILT),
    "bounds.lo": ("matrix of numbers", None, _REQUIRED, ()),
    "bounds.hi": ("matrix of numbers", None, _REQUIRED, ()),
    "bounds.compound": ("object of orders k", None, None, ()),
    "bounds.compound.<k>": ("object", None, None, ()),
    "bounds.compound.<k>.lo": ("matrix of numbers", None, _REQUIRED, ()),
    "bounds.compound.<k>.hi": ("matrix of numbers", None, _REQUIRED, ()),
    "domain": ("object", None, None, _BUILT),
    "domain.lo": ("list of numbers", None, _REQUIRED, ()),
    "domain.hi": ("list of numbers", None, _REQUIRED, ()),
    "jacobian_from": ("system config", None, None, _BUILT),
    "initial_conditions": ("matrix of numbers", "or standard9", "standard9", ("trajectories",)),
    "horizon": ("finite number", "> 0", _ByMode(trajectories=100.0), _SIMULATE),
    "tol": ("finite number", "> 0", 1e-10, _SIMULATE),
    "n_out": ("integer", None, _ByMode(trajectories=1001, growth=201), _SIMULATE),
    "detect_tol": ("finite number", ">= 0", 1e-6, ("trajectories",)),
    "volume_generators": ("matrix of finite numbers", None, None, ("growth",)),
}


def _array(value, depth: int):
    """``value`` as a float array if it is ``depth`` levels of non-empty,
    rectangular JSON lists of integers and floats (no bools), else None."""
    try:
        a = np.array(value)
        # np.array reads a bool among numbers as 0 or 1
        numbers = a.dtype.kind in "iuf" and bool not in map(type, np.array(value, dtype=object).flat)
    except ValueError:  # ragged rows
        return None
    return a.astype(float) if numbers and a.ndim == depth and a.size else None


def _value(key: str, value, label: str):
    """``value`` of the table's ``key``, found at ``label``, checked and
    converted: numbers to float, lists and matrices to float arrays, kinds
    to ``MeasureKind``, objects member by member."""
    kind, rng, _, _ = _KEYS[key]
    out = None
    if kind in ("finite number", "integer"):
        # a bool is no number, and an integer beyond the float range no finite one
        number = isinstance(value, float) or (type(value) is int and abs(value) < 2**1023)
        x, (op, bound) = float(value) if number else math.nan, (rng or ">= -inf").split()
        if math.isfinite(x) and (kind != "integer" or x.is_integer()):
            if x > float(bound) or (op == ">=" and x == float(bound)):
                out = int(value) if kind == "integer" else x
    elif kind == "string" and rng and not (isinstance(value, str) and value in rng):
        raise ValueError(f"unknown {label} {value!r}: expected one of {', '.join(rng)}")
    elif kind == "string" and isinstance(value, str):
        out = value
    elif kind == "measure kind" and isinstance(value, str):
        out = parse_kind(value)
    elif kind == "list of measure kinds" and isinstance(value, list):
        out = [_value("kind", text, f"{label}[{i}]") for i, text in enumerate(value)]
    elif rng == "or standard9" and isinstance(value, str):
        if value != "standard9":
            raise ValueError(f"unknown initial-condition preset {value!r}")
        out = systems.STANDARD_INITIAL_CONDITIONS
    elif kind.startswith(("list", "matrix")):
        out = _array(value, 1 if kind.startswith("list") else 2)
        if out is None and rng == "or standard9":
            out = _array([value], 2)  # a single start
        if out is not None and "finite" in kind and not np.isfinite(out).all():
            out = None
    elif kind == "object of orders k" and isinstance(value, dict):
        for order in value:
            if not (order.isdecimal() and int(order) >= 1):
                raise ValueError(f"{label} keys must be compound orders k >= 1, got {order!r}")
        out = {int(order): _value(f"{key}.<k>", v, f"{label}.{order}") for order, v in value.items()}
    elif kind == "system config" and isinstance(value, dict):
        out = _read_config(value, "jacobian_from", f"{label}.")
    elif kind == "object" and isinstance(value, dict):
        out = _read(value, f"{key}.", f"{label}.", None)
    if out is None:
        what = ("an " if kind[0] in "aeiou" else "a ") + kind + (f" {rng}" if rng else "")
        raise ValueError(f"{label} must be {what}, got {value!r}")
    return out


@functools.cache
def _members(prefix: str, alone: bool) -> dict:
    """member -> table key of the object at ``prefix`` (of a system config alone)."""
    return {
        name[len(prefix):]: name for name in _KEYS
        if name.startswith(prefix) and "." not in name[len(prefix):]
        and (not alone or "jacobian_from" in _KEYS[name][3])
    }


def _read(obj: dict, prefix: str, label: str, mode) -> dict:
    """The members of a config object, checked against the table's keys
    ``prefix`` + member, and the defaults of those that ``mode`` reads (of
    all in a nested object, mode None, but params)."""
    members, conf = _members(prefix, mode == "jacobian_from"), {}
    for member, value in obj.items():
        if member not in members:
            raise ValueError(f"unknown config key {label + member!r}")
        conf[member] = _value(members[member], value, label + member)
    for member, name in members.items():
        _, _, default, modes = _KEYS[name]
        if member in conf or prefix == "params." or (mode is not None and mode not in modes):
            continue
        if isinstance(default, _ByMode):
            default = default.get(mode, _REQUIRED)
        if default is _REQUIRED:
            raise ValueError(f"{label + member} is required" + (f" in {mode} mode" if mode else ""))
        conf[member] = None if default is None else _value(name, default, label + member)
    return conf


_signature = functools.cache(inspect.signature)


def _factory(system: str, params: dict):
    """The built-in system's factory with its params bound, checked against its signature."""
    name, renames = system, _SYSTEMS[system]
    if system == "lti_series" and "A" not in params:
        name, renames = "lti_series_zeta", {}
    factory = getattr(systems, name)
    kwargs = {renames.get(p, p): v for p, v in params.items()}
    try:
        _signature(factory).bind(**kwargs)
    except TypeError as exc:
        message = str(exc)
        for key, arg in renames.items():  # the config's names, as B for lti_series' b
            message = message.replace(f"'{arg}'", f"'{key}'")
        raise ValueError(f"params of system {system!r}: {message}") from None
    return functools.partial(factory, **kwargs)


def _read_config(cfg: dict, command: str, label: str = "") -> dict:
    """The certify, simulate or jacobian_from config ``cfg``, checked before
    anything is built or written; every key its mode reads, converted or
    defaulted, and ``mode``."""
    mode = {"certify": cfg.get("mode", "series" if cfg.get("system") == "lti_series" else "single"),
            "simulate": "growth" if "volume_generators" in cfg else "trajectories"}.get(command, command)
    conf = _read(cfg, "", label, mode)
    siblings = set(_CERTIFY if mode in _CERTIFY else _SIMULATE)  # the modes of cfg's command
    stray = [key for key in cfg if mode not in _KEYS[key][3] and set(_KEYS[key][3]) & siblings]
    if stray:
        raise ValueError(f"config key {label + stray[0]!r} is not read in {mode} mode")
    system = conf["system"]
    if (system == "lti_series") != (mode in ("series", "growth")):
        raise ValueError(f"system {system!r} does not run in {mode} mode")
    if system in _SYSTEMS:
        _factory(system, conf["params"])
    elif conf["params"]:
        raise ValueError(f"system {system!r} takes no params")
    if mode in _SIMULATE and conf["n_out"] < 2:
        needs = "the growth-rate fit" if mode == "growth" else "convergence classification"
        raise ValueError(f"the output grid is empty (n_out = {conf['n_out']})" if conf["n_out"] < 1
                         else f"{needs} needs at least two samples (n_out >= 2)")
    conf["mode"] = mode
    return conf


def _load_config(args, **flags) -> dict:
    """The JSON object of --input (or the --preset), the flags given laid over it."""
    try:
        preset = getattr(args, "preset", None)
        cfg = _PRESETS[preset] if preset else json.loads(Path(args.input).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"the config must be a JSON object, got {type(cfg).__name__}")
    return {**cfg, **{key: v for key, v in flags.items() if v is not None}}


def _system_from_config(conf: dict):
    """The model of a read config: a built-in system (lti_series a ``SeriesModel``) or user bounds."""
    if conf["system"] != "bounds":
        return _factory(conf["system"], conf["params"])()
    spec, domain = conf["bounds"], conf["domain"]
    if spec is None:
        raise ValueError("system 'bounds' requires a 'bounds' object with lo/hi")
    compound = spec["compound"]
    if compound is not None:
        compound = {k: (v["lo"], v["hi"]) for k, v in compound.items()}
    eb = EntryBounds(spec["lo"], spec["hi"], compound)
    if domain is not None:
        domain = systems.Box(domain["lo"], domain["hi"])
    # user bounds may borrow the vector field / Jacobian of a built-in
    if conf["jacobian_from"] is not None:
        donor = _system_from_config(conf["jacobian_from"])
        if donor.state_dim != eb.dim:
            raise ValueError("jacobian_from system dimension does not match bounds")
        f, jac = donor.f, donor.jacobian
    else:
        f, jac = (lambda t, x: np.zeros_like(x)), (lambda t, x: eb.lo)
    return SystemModel(
        state_dim=eb.dim, f=f, jacobian=jac, domain=domain, entry_bounds=eb, name=conf["name"]
    )


def _cmd_certify(args) -> int:
    conf = _read_config(_load_config(args), "certify")
    model, k, mode = _system_from_config(conf), conf["k"], conf["mode"]
    common = {"method": conf["method"], "grid_points": conf["grid"]}
    if mode == "series":
        report = certify_series(model, k, per_i_kinds=conf["kinds"], **common)
    elif mode == "exp_input":
        report = certify_exp_input(model, conf["g_bound"], conf["alpha"], k, kinds=conf["kinds"], **common)
    else:
        report = certify_k_contraction(model, k, kind=conf["kind"], **common)
    if args.output:
        Path(args.output).write_text(matio.dump_json(report.to_dict()))
    print(report.to_text())
    return {"pass": EXIT_PASS, "inconclusive": EXIT_INCONCLUSIVE}.get(report.verdict, EXIT_FAIL)


#: The simulate presets, each a config that differs from the defaults only
#: where the experiment does: fig3 classifies at 1e-5 because the forcing
#: floor |b| exp(alpha T) ~ 5.7e-6 sits above 1e-6 at T = 100.
_PRESETS = {
    "fig2": {"system": "thomas", "detect_tol": 1e-5},
    "fig3": {"system": "thomas_perturbed", "detect_tol": 1e-5},
    "growth": {"system": "lti_series", "params": {"zeta1": -0.5, "zeta2": -2.0}, "horizon": 20.0,
               "volume_generators": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
}


def _write_summary(outdir: Path, summary: dict) -> None:
    """Serialize the summary once; write it to summary.json and stdout."""
    text = matio.dump_json(summary)
    (outdir / "summary.json").write_text(text)
    sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    conf = _read_config(_load_config(args, tol=args.tol, horizon=args.horizon, n_out=args.grid), "simulate")
    outdir, model = Path(args.output), _system_from_config(conf)
    tol, n_out, horizon = conf["tol"], conf["n_out"], conf["horizon"]
    preset = args.preset or "config"

    if conf["mode"] == "growth":
        fit = volume_growth_rate(model.full_system(), conf["volume_generators"], horizon, n_out, tol=tol)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "volume.csv").write_text(matio.columns_to_csv(["t", "vol"], fit.times, fit.volumes))
        _write_summary(outdir, {"preset": preset, "system": model.name, "horizon": horizon,
                                "fitted_rate": fit.rate, "fit_residual": fit.residual,
                                "n_points": fit.times.size, "files": ["volume.csv"]})
        return EXIT_PASS

    # the records keep the first `written` states, and the convergence check
    # uses their field: the augmented perturbed Thomas model writes its three
    # Thomas states, and their field is its 3-state view
    written, field = model.state_dim, model.f
    if conf["system"] == "thomas_perturbed":
        written, field = 3, systems.thomas_perturbed_field(**conf["params"])
    ics = conf["initial_conditions"]
    if ics.shape[1] == written < model.state_dim:  # the unwritten states start at 1
        ics = np.hstack([ics, np.ones((ics.shape[0], model.state_dim - written))])
    if ics.shape[1] == model.state_dim and (ics[:, written:] != 1.0).any():  # the model's y(0) = 1
        raise ValueError(f"initial_conditions: {conf['system']} defines its input state y(0) = 1.0")
    runs = integrate_many(model, ics, (0.0, horizon), tol=tol, n_out=n_out)
    # a failed start writes no file, and the others keep their numbers
    records = [TrajectoryRecord(rec.times, rec.states[:, :written], system=model.name)
               for rec in runs if rec is not None]
    files = [f"traj_{idx:02d}.{args.format}" for idx, rec in enumerate(runs, start=1) if rec is not None]
    failures = len(runs) - len(records)
    texts = (map(matio.trajectory_to_json, records) if args.format == "json"
             else matio.trajectories_to_csv(records))
    outdir.mkdir(parents=True, exist_ok=True)
    for fname, text in zip(files, texts):
        (outdir / fname).write_text(text)

    summary_detect = detect_equilibrium_convergence(records, field, tol=conf["detect_tol"])

    summary = {
        "preset": preset,
        "system": model.name,
        "horizon": horizon,
        "n_trajectories": len(records),
        "integration_failures": failures,
        "converged": list(summary_detect.converged),
        "all_converged": summary_detect.all_converged,
        "none_converged": summary_detect.none_converged,
        "n_equilibrium_clusters": summary_detect.n_clusters,
        "clusters": [
            {"point": [float(v) for v in pt], "count": int(cnt)}
            for pt, cnt in summary_detect.clusters
        ],
        "detect_tol": conf["detect_tol"],
        "in_invariant_box": all(rec.in_domain for rec in runs if rec is not None),
        "files": files,
    }
    _write_summary(outdir, summary)
    return EXIT_INTEGRATION if failures else EXIT_PASS


def _cmd_volume(args) -> int:
    print(matio.fmt(parallelotope_volume(matio.load_matrix(args.input))))
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (IntegrationError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, IntegrationError):
            return EXIT_INTEGRATION
        return EXIT_DIMENSION if isinstance(exc, DimensionGuardError) else EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
