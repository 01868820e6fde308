"""Golden-byte cases: CLI outputs and certificate dumps whose bytes must not change.

Each case produces the exact bytes a user would see (stdout, an output file,
or a deterministic JSON dump of a report) for a fixed input.  The reference
bytes live in ``tests/golden/``; ``test_golden.py`` reruns every case and
compares byte for byte.  The references only change when an output change is
intended; regenerate them then with

    PYTHONPATH=src python -m tests.golden_cases tests/golden
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from kcontract import matio
from kcontract.certificates import (
    certify_exp_input,
    certify_k_contraction,
    certify_series,
    certify_skew_feedback,
    lift_diagonal_scaling,
    series_conjugated_compound_measure,
    worst_case_compound_measure,
)
from kcontract.cli import main
from kcontract.compounds import add_compound_interval
from kcontract.dynamics import integrate, variational_flow
from kcontract.measures import L1, L2, LINF, MeasureKind
from kcontract.systems import (
    Box,
    EntryBounds,
    FeedbackModel,
    SeriesModel,
    SystemModel,
    thomas_controlled,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _matrix10() -> np.ndarray:
    return np.random.default_rng(2024).standard_normal((10, 10))


def _dominant(rng, size: int) -> np.ndarray:
    m = rng.uniform(-0.05, 0.05, (size, size))
    np.fill_diagonal(m, -rng.uniform(1.0, 2.0, size))
    return m


def _cli(argv) -> bytes:
    """Run the CLI in process; return exit code, stdout and stderr as bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode()


def _certify(tmp: Path, name: str, cfg: dict) -> dict[str, bytes]:
    src = tmp / f"{name}.json"
    src.write_text(json.dumps(cfg))
    rep = tmp / f"{name}.report.json"
    text = _cli(["certify", "--input", src, "--output", rep])
    return {f"certify_{name}.txt": text, f"certify_{name}.report.json": rep.read_bytes()}


def cli_cases(tmp: Path) -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    m = _matrix10()
    mpath, apath, bpath = tmp / "m10.csv", tmp / "a5.csv", tmp / "b5.csv"
    mpath.write_text(matio.matrix_to_csv(m))
    apath.write_text(matio.matrix_to_csv(m[:5, :5]))
    bpath.write_text(matio.matrix_to_csv(m[5:, 5:]))

    for system, params in (("thomas", {}), ("thomas_controlled", {"d": 0.2, "c": 0.5})):
        for kind in ("l1", "l2", "linf", None):
            cfg = {"system": system, "params": params, "k": 2, "method": "grid", "grid": 6}
            if kind is not None:
                cfg["kind"] = kind
            out.update(_certify(tmp, f"grid_{system}_{kind or 'search'}", cfg))
    exp_cfg = {"mode": "exp_input", "system": "thomas_controlled", "alpha": -0.1,
               "g_bound": 0.2165, "k": 2, "method": "grid", "grid": 5}
    out.update(_certify(tmp, "grid_exp_input_search", exp_cfg))
    out.update(_certify(tmp, "grid_exp_input_l1", {**exp_cfg, "kinds": ["l1", "linf"]}))

    rng = np.random.default_rng(7)
    a, c = _dominant(rng, 5), _dominant(rng, 5)
    b = rng.uniform(-1.0, 1.0, (5, 5))
    series = {"system": "lti_series", "params": {"A": a.tolist(), "B": b.tolist(), "C": c.tolist()},
              "k": 4, "method": "analytic"}
    out.update(_certify(tmp, "analytic_series_search", series))
    out.update(_certify(tmp, "analytic_series_l1", {**series, "kinds": ["l1"] * 5}))
    out.update(_certify(tmp, "analytic_series_zeta", {"system": "lti_series",
                                                      "params": {"zeta1": -1.5}, "k": 2}))
    for kind in ("l1", "linf"):
        bounds = {"system": "bounds", "bounds": {"lo": (m - 0.1).tolist(), "hi": (m + 0.1).tolist()},
                  "k": 4, "kind": kind, "method": "analytic"}
        out.update(_certify(tmp, f"analytic_bounds_{kind}", bounds))
    out.update(_certify(tmp, "analytic_thomas_controlled", {"system": "thomas_controlled", "k": 2}))
    out.update(_certify(tmp, "analytic_remark2", {"system": "remark2", "k": 2}))

    # compound and decompose outputs in both formats; mult k = 4 is the
    # 210 x 210 compound space of a 10 x 10 matrix
    for kind, k, form in (("add", 2, "csv"), ("add", 4, "csv"), ("mult", 4, "csv"), ("add", 2, "json")):
        stem = f"compound_{kind}_k{k}" + ("_json" if form == "json" else "")
        dest = tmp / f"{stem}.{form}"
        out[f"{stem}.txt"] = _cli(["compound", "--input", mpath, "--k", k, "--kind", kind,
                                   "--format", form, "--output", dest])
        out[f"{stem}.{form}"] = dest.read_bytes()
    for kind in ("l1", "linf", "l2"):
        out[f"measure_{kind}_k4.txt"] = _cli(["measure", "--input", mpath, "--kind", kind, "--k", 4])
    for kind, k, form in (("add", 3, "json"), ("mult", 4, "json"), ("add", 3, "csv")):
        stem = f"decompose_{kind}_k{k}" + ("_csv" if form == "csv" else "")
        dest = tmp / f"{stem}.{form}"
        out[f"{stem}.txt"] = _cli(["decompose", "--input", apath, bpath, "--k", k, "--kind", kind,
                                   "--format", form, "--output", dest])
        out[f"{stem}.{form}"] = dest.read_bytes()

    # simulate presets: the summary on stdout plus one written file each;
    # fig2/fig3 run to t = 20 to keep the suite fast
    for preset, extra, written in (
        ("fig2", ["--horizon", 20], "traj_03.csv"),
        ("fig2", ["--horizon", 20, "--format", "json"], "traj_03.json"),
        ("fig3", ["--horizon", 20], "traj_09.csv"),
        ("growth", [], "volume.csv"),
    ):
        stem = f"simulate_{preset}" + ("_json" if "json" in extra else "")
        dest = tmp / stem
        out[f"{stem}.txt"] = _cli(["simulate", "--preset", preset, "--output", dest, *extra])
        out[f"{stem}_{written}"] = (dest / written).read_bytes()
    return out


# ---------------------------------------------------------------------------
# Library-level cases (paths the CLI cannot reach)
# ---------------------------------------------------------------------------


def _report(rep) -> bytes:
    return matio.dump_json(rep.to_dict()).encode()


def _nonlinear_series() -> SeriesModel:
    sub1 = SystemModel(
        state_dim=2,
        f=lambda t, x: np.array([-2.0 * x[0] + 0.3 * np.sin(x[1]), -2.5 * x[1]]),
        jacobian=lambda t, x: np.array([[-2.0, 0.3 * np.cos(x[1])], [0.0, -2.5]]),
        domain=Box([-2.0, -2.0], [2.0, 2.0]),
        name="sat-driver",
    )
    return SeriesModel(
        sub1=sub1,
        dim2=2,
        f2=lambda t, x1, x2: np.zeros(2),
        j22=lambda t, x1, x2: np.array([[-3.0 + 0.2 * np.sin(x2[0] * x1[1]), 0.1 * x2[1]],
                                        [0.4 * np.cos(x1[0]), -2.0 - 0.1 * x2[0] ** 2]]),
        j21=lambda t, x1, x2: np.array([[0.4, 0.0], [0.0, 0.2]]),
        j21_sup=0.4,
        sub2_domain=Box([-2.0, -2.0], [2.0, 2.0]),
        j21_mag=np.array([[0.4, 0.0], [0.0, 0.2]]),
        name="golden-cascade",
    )


def _skew_pair() -> FeedbackModel:
    def r12(x):
        return np.array([[0.5 * np.cos(x[2]), 0.1], [0.0, 0.3 * np.sin(x[3])]])

    return FeedbackModel(
        dim1=2,
        dim2=2,
        f=lambda t, x: np.zeros(4),
        j11=lambda t, x: np.array([[-2.0 - 0.1 * x[0] ** 2, 0.2 * x[1]], [-0.2 * x[1], -2.0]]),
        j12=lambda t, x: r12(x),
        j22=lambda t, x: np.array([[-3.0, 0.3 * x[0]], [0.0, -2.5 + 0.1 * np.cos(x[3])]]),
        c=2.0,
        domain=Box([-1.0] * 4, [1.0] * 4),
        name="golden-skew",
    )


def library_cases() -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    model = _nonlinear_series()
    times = [0.0, 0.5]
    out["series_grid_l1.json"] = _report(
        certify_series(model, 2, per_i_kinds=L1, method="grid", grid_points=4)
    )
    out["series_grid_search.json"] = _report(
        certify_series(model, 2, method="grid", grid_points=3, time_grid=times)
    )
    out["series_grid_k3_mixed.json"] = _report(
        certify_series(model, 3, per_i_kinds=[LINF, L2], method="grid", grid_points=3)
    )
    pair = _skew_pair()
    out["skew_grid.json"] = _report(certify_skew_feedback(pair, 2, method="grid", grid_points=3))
    out["skew_grid_k3.json"] = _report(
        certify_skew_feedback(pair, 3, method="grid", grid_points=3, time_grid=times)
    )
    sysm = thomas_controlled(0.2, 0.5)
    out["exp_input_grid_pair.json"] = _report(
        certify_exp_input(sysm, 0.3, -0.2, 2, kinds=(L1, LINF), method="grid", grid_points=5)
    )
    out["exp_input_grid_k1.json"] = _report(
        certify_exp_input(sysm, 0.3, -0.2, 1, method="grid", grid_points=4)
    )
    scaled = MeasureKind("1", np.diag([1.0, 2.0, 0.5]))
    out["single_grid_scaled_state.json"] = _report(
        certify_k_contraction(sysm, 1, kind=scaled, method="grid", grid_points=4)
    )
    out["single_grid_scaled_compound.json"] = _report(
        certify_k_contraction(sysm, 2, kind=scaled, method="grid", grid_points=4)
    )
    out["single_grid_time_grid.json"] = _report(
        certify_k_contraction(sysm, 3, method="grid", grid_points=4, time_grid=times)
    )

    # scaled analytic bounds: state-space lifts and compound-level bounds
    bounds = sysm.entry_bounds
    lifted = {}
    for k in (1, 2, 3):
        for p in ("1", "inf"):
            kind = MeasureKind(p, np.diag([1.0, 1.7, 0.6]))
            lifted[f"k{k}_L{p}"] = worst_case_compound_measure(bounds, k, kind)
    s = np.array([0.5, 1.5, 2.0, 0.75, 1.25, 3.0])
    lifted["lift_k3"] = [float(v) for v in lift_diagonal_scaling(s, 3)]
    with_compound = EntryBounds(
        np.diag([-1.0, -2.0, -3.0]),
        np.diag([-1.0, -2.0, -3.0]) + 0.25,
        compound={2: (-np.full((3, 3), 0.5), np.full((3, 3), 0.75))},
    ).scaled([1.0, 3.0, 0.4])
    lifted["scaled_compound_lo"] = [float(v) for v in with_compound.compound[2][0].ravel()]
    lifted["scaled_compound_hi"] = [float(v) for v in with_compound.compound[2][1].ravel()]
    out["scaled_bounds.json"] = matio.dump_json(lifted).encode()

    rng = np.random.default_rng(11)
    lo = rng.standard_normal((6, 6))
    hi = lo + rng.uniform(0.0, 0.5, (6, 6))
    clo, chi = add_compound_interval(lo, hi, 3)
    out["interval_k3_lo.csv"] = matio.matrix_to_csv(clo).encode()
    out["interval_k3_hi.csv"] = matio.matrix_to_csv(chi).encode()

    cascade = SeriesModel(
        sub1=SystemModel(2, lambda t, x: -x, lambda t, x: np.array([[-2.0, 0.3], [0.1, -2.5]])),
        dim2=2,
        f2=lambda t, x1, x2: np.zeros(2),
        j22=lambda t, x1, x2: np.array([[-3.0, 0.2 * x2[0]], [0.4 * x1[1], -2.0]]),
        j21=lambda t, x1, x2: np.array([[0.4, x1[0]], [0.0, 0.2]]),
        j21_sup=1.0,
    )
    audit = [
        series_conjugated_compound_measure(cascade, 2, L1, 0.125, 0.0, x)
        for x in rng.standard_normal((5, 4))
    ]
    out["series_audit.json"] = matio.dump_json(audit).encode()

    flow_sys = thomas_controlled()
    rec = integrate(flow_sys, [-0.5, 0.5, 0.5], (0.0, 0.5), n_out=11)
    var = variational_flow(flow_sys, rec, 2)
    out["variational_flow_k2.csv"] = matio.matrix_to_csv(
        np.hstack([var.flow.reshape(11, -1), var.compound_flow.reshape(11, -1)])
    ).encode()
    return out


def all_cases(tmp: Path) -> dict[str, bytes]:
    return {**cli_cases(Path(tmp)), **library_cases()}


if __name__ == "__main__":
    import tempfile

    dest = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_DIR
    dest.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        cases = all_cases(Path(tmp))
    for name, data in sorted(cases.items()):
        (dest / name).write_bytes(data)
    print(f"wrote {len(cases)} golden files to {dest}")
