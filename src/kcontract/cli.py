"""Command-line front end.

Subcommands: compound, measure, decompose, certify, simulate, volume.
Exit codes: 0 success / certificate pass, 1 certificate fail, 2 bad input or
configuration, 3 dimension guard tripped, 4 inconclusive (sampled)
certificate, 5 integration failure (partial output written).
"""

from __future__ import annotations

import argparse
import functools
import json
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
    si.add_argument("--input", help="JSON config (or use --preset)")
    si.add_argument("--preset", choices=("fig2", "fig3", "growth"))
    si.add_argument("--output", default=".", help="output directory")
    si.add_argument("--tol", type=float, help="integration tolerance override")
    si.add_argument("--horizon", type=float, help="final time override")
    si.add_argument("--grid", type=int, help="number of output samples")
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
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def _cmd_measure(args) -> int:
    m = matio.load_matrix(args.input)
    kind = parse_kind(args.kind)
    value = matrix_measure(m, kind) if args.k is None else compound_measure(m, args.k, kind)
    print(matio.fmt(value))
    return EXIT_PASS


def _cmd_decompose(args) -> int:
    a = matio.load_matrix(args.input[0])
    b = matio.load_matrix(args.input[1])
    fn = block_diag_mult_decompose if args.kind == "mult" else block_diag_add_decompose
    dec = fn(a, b, args.k)
    if args.format == "csv":
        text = matio.matrix_to_csv(dec.reconstruct())
    else:
        obj = {
            "kind": dec.kind,
            "k": dec.k,
            "n": dec.n,
            "m": dec.m,
            "i1": dec.i1,
            "i2": dec.i2,
            "partition": dec.partition(),
            "permutation": (dec.permutation.positions + 1).tolist(),
            "blocks": [
                {
                    "i": i,
                    "rows": int(blk.shape[0]),
                    "cols": int(blk.shape[1]),
                    "entries": blk.ravel(),
                }
                for i, blk in dec.blocks
            ],
        }
        text = matio.dump_json(obj)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def _perturbed_params(cfg: dict) -> dict:
    """d, c, alpha and b of a thomas_perturbed config, defaults filled in:
    the one resolution that the augmented model and its 3-state view share."""
    params = {
        "d": systems.THOMAS_D,
        "c": None,
        "alpha": systems.THOMAS_ALPHA,
        "b": systems.THOMAS_B,
        **cfg.get("params", {}),
    }
    if params["c"] is None:
        params["c"] = systems.thomas_controller_gain(params["d"])
    return params


def _system_from_config(cfg: dict) -> SystemModel:
    name = cfg.get("system")
    params = cfg.get("params", {})
    if name == "thomas":
        return systems.thomas(**params)
    if name == "thomas_controlled":
        return systems.thomas_controlled(**params)
    if name == "thomas_perturbed":
        return systems.thomas_perturbed(**_perturbed_params(cfg))
    if name == "remark2":
        return systems.remark2()
    if name == "lti":
        return systems.lti(np.asarray(params["A"], dtype=float))
    if name == "bounds":
        spec = cfg.get("bounds")
        if not spec:
            raise ValueError("system 'bounds' requires a 'bounds' object with lo/hi")
        compound = None
        if "compound" in spec:
            compound = {
                int(kk): (np.asarray(v["lo"], float), np.asarray(v["hi"], float))
                for kk, v in spec["compound"].items()
            }
        eb = EntryBounds(np.asarray(spec["lo"], float), np.asarray(spec["hi"], float), compound)
        domain = None
        if "domain" in cfg:
            domain = systems.Box(
                np.asarray(cfg["domain"]["lo"], float), np.asarray(cfg["domain"]["hi"], float)
            )
            if domain.dim != eb.dim:
                raise ValueError("domain dimension does not match bounds")
        # user bounds may borrow the vector field / Jacobian of a built-in
        if "jacobian_from" in cfg:
            donor = _system_from_config(cfg["jacobian_from"])
            if donor.state_dim != eb.dim:
                raise ValueError("jacobian_from system dimension does not match bounds")
            f, jac = donor.f, donor.jacobian
        else:
            f, jac = (lambda t, x: np.zeros_like(x)), (lambda t, x: eb.lo)
        return SystemModel(
            state_dim=eb.dim,
            f=f,
            jacobian=jac,
            domain=domain,
            entry_bounds=eb,
            name=cfg.get("name", "bounds"),
        )
    raise ValueError(f"unknown system {name!r}")


def _series_from_config(cfg: dict):
    params = cfg.get("params", {})
    if "A" in params:
        return systems.lti_series(
            np.asarray(params["A"], float),
            np.asarray(params["B"], float),
            np.asarray(params["C"], float),
        )
    zeta1 = float(params["zeta1"])
    zeta2 = float(params.get("zeta2", -2.0))
    return systems.lti_series_zeta(zeta1, zeta2)


def _cmd_certify(args) -> int:
    try:
        cfg = json.loads(Path(args.input).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config: {exc}") from None
    k = int(cfg.get("k", 2))
    method = cfg.get("method", "analytic")
    grid = int(cfg.get("grid", 21))
    mode = cfg.get("mode")
    if mode is None:
        mode = "series" if cfg.get("system") == "lti_series" else "single"
    if mode == "series":
        model = _series_from_config(cfg)
        kinds = [parse_kind(x) for x in cfg["kinds"]] if "kinds" in cfg else None
        report = certify_series(model, k, per_i_kinds=kinds, method=method, grid_points=grid)
    elif mode == "exp_input":
        sysm = _system_from_config(cfg)
        report = certify_exp_input(
            sysm,
            float(cfg.get("g_bound", 0.0)),
            float(cfg["alpha"]),
            k,
            kinds=tuple(parse_kind(x) for x in cfg["kinds"]) if "kinds" in cfg else None,
            method=method,
            grid_points=grid,
        )
    else:
        sysm = _system_from_config(cfg)
        kind = parse_kind(cfg["kind"]) if "kind" in cfg else None
        report = certify_k_contraction(sysm, k, kind=kind, method=method, grid_points=grid)
    print(report.to_text())
    if args.output:
        Path(args.output).write_text(matio.dump_json(report.to_dict()))
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


_PRESETS = {
    "fig2": {
        "system": "thomas",
        "params": {"d": systems.THOMAS_D},
        "initial_conditions": "standard9",
        "horizon": 100.0,
        "tol": 1e-10,
        "n_out": 1001,
        "detect_tol": 1e-5,
    },
    "fig3": {
        "system": "thomas_perturbed",
        "params": {"d": systems.THOMAS_D},
        "initial_conditions": "standard9",
        "horizon": 100.0,
        "tol": 1e-10,
        "n_out": 1001,
        # The forcing floor |b| exp(alpha T) ~ 5.7e-6 sits above 1e-6 at
        # T = 100, so the preset classifies at 1e-5.
        "detect_tol": 1e-5,
    },
    "growth": {
        "system": "lti_series",
        "params": {"zeta1": -0.5, "zeta2": -2.0},
        "horizon": 20.0,
        "tol": 1e-10,
        "n_out": 201,
        "volume_generators": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
    },
}


def _simulate_growth(cfg: dict, outdir: Path, tol: float, n_out: int) -> tuple[dict, int]:
    model = _series_from_config(cfg)
    x0 = np.asarray(cfg["volume_generators"], dtype=float)
    horizon = float(cfg["horizon"])
    fit = volume_growth_rate(model.full_system(), x0, horizon, n_out=n_out, rtol=tol, atol=tol)
    (outdir / "volume.csv").write_text(matio.columns_to_csv(["t", "vol"], fit.times, fit.volumes))
    summary = {
        "system": model.name,
        "horizon": horizon,
        "fitted_rate": fit.rate,
        "fit_residual": fit.residual,
        "n_points": fit.n_used,
        "files": ["volume.csv"],
    }
    return summary, EXIT_PASS


def _write_summary(outdir: Path, summary: dict) -> None:
    """Serialize the summary once; write it to summary.json and stdout."""
    text = matio.dump_json(summary)
    (outdir / "summary.json").write_text(text)
    sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    if args.preset:
        cfg = dict(_PRESETS[args.preset])
    elif args.input:
        try:
            cfg = json.loads(Path(args.input).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config: {exc}") from None
    else:
        raise ValueError("simulate needs --input or --preset")
    if args.tol is not None:
        cfg["tol"] = args.tol
    if args.horizon is not None:
        cfg["horizon"] = args.horizon
    if args.grid is not None:
        cfg["n_out"] = args.grid
    outdir = Path(args.output)
    growth = "volume_generators" in cfg
    tol = float(cfg.get("tol", 1e-10))
    n_out = int(cfg.get("n_out", 201 if growth else 1001))
    # refused before anything is integrated or written: a tolerance of 0 or
    # below fails or silently misreads every step, and both the convergence
    # check and the growth fit read two samples
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if n_out < 2:
        raise ValueError(
            f"the output grid is empty (n_out = {n_out})" if n_out < 1
            else ("the growth-rate fit" if growth else "convergence classification")
            + " needs at least two samples (n_out >= 2)"
        )

    if growth:
        outdir.mkdir(parents=True, exist_ok=True)
        summary, code = _simulate_growth(cfg, outdir, tol, n_out)
        _write_summary(outdir, {"preset": args.preset or "config", **summary})
        return code

    sysm = _system_from_config(cfg)
    # the records keep the first `written` states, and the convergence check
    # uses their field: the augmented perturbed Thomas model writes its three
    # Thomas states, and their field is its 3-state view
    written, field = sysm.state_dim, sysm.f
    if cfg.get("system") == "thomas_perturbed":
        written, field = 3, systems.thomas_perturbed_field(**_perturbed_params(cfg))
    ics = cfg.get("initial_conditions", "standard9")
    if isinstance(ics, str):
        if ics != "standard9":
            raise ValueError(f"unknown initial-condition preset {ics!r}")
        ics = systems.STANDARD_INITIAL_CONDITIONS
    ics = np.atleast_2d(np.asarray(ics, dtype=float))
    horizon = float(cfg.get("horizon", 100.0))
    detect_tol = float(cfg.get("detect_tol", 1e-6))

    if ics.shape[1] == written < sysm.state_dim:  # the unwritten states start at 1
        ics = np.hstack([ics, np.ones((ics.shape[0], sysm.state_dim - written))])
    outdir.mkdir(parents=True, exist_ok=True)
    runs = integrate_many(sysm, ics, (0.0, horizon), rtol=tol, atol=tol, n_out=n_out)
    records: list[TrajectoryRecord] = []
    files = []
    failures = 0
    for idx, rec in enumerate(runs, start=1):
        if rec is None:
            failures += 1
            continue
        rec = TrajectoryRecord(rec.times, rec.states[:, :written], system=sysm.name)
        records.append(rec)
        fname = f"traj_{idx:02d}.{args.format}"
        text = matio.trajectory_to_json(rec) if args.format == "json" else matio.trajectory_to_csv(rec)
        (outdir / fname).write_text(text)
        files.append(fname)

    summary_detect = detect_equilibrium_convergence(records, field, tol=detect_tol)

    in_box = True
    if sysm.domain is not None:
        box = systems.Box(sysm.domain.lo[:written], sysm.domain.hi[:written])
        in_box = all(box.contains(rec.states, slack=1e-7) for rec in records)
    summary = {
        "preset": args.preset or "config",
        "system": sysm.name,
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
        "detect_tol": detect_tol,
        "in_invariant_box": in_box,
        "files": files,
    }
    _write_summary(outdir, summary)
    return EXIT_INTEGRATION if failures else EXIT_PASS


def _cmd_volume(args) -> int:
    x = matio.load_matrix(args.input)
    print(matio.fmt(parallelotope_volume(x)))
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except DimensionGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except IntegrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
