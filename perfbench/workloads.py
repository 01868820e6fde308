"""The four benchmark workloads: seeded inputs, one op, and its check.

Every op of a workload has the same shape (system sizes and call sequence);
only the seeded values change.  Ops go through the public API or the
in-process CLI (``kcontract.cli.main``), looked up as module attributes at
call time so the tracer's wrappers see them.  Checks run outside the timed
region and use a second route to the same quantity; a failed check raises
``CheckFailed``.  Per-item reference values are computed once and reused.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import kcontract as kc
from kcontract import cli


class CheckFailed(AssertionError):
    """An op's output disagreed with its independent reference."""


def run_cli(argv, ok_codes=(0,)) -> tuple[int, str]:
    """Run ``kcontract <argv>`` in process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code not in ok_codes:
        raise CheckFailed(f"kcontract {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
    return code, out.getvalue()


def _rel_close(a, b, rtol: float, what: str) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise CheckFailed(f"{what}: shape {a.shape} vs {b.shape}")
    scale = max(float(np.linalg.norm(b)), 1e-300)
    err = float(np.linalg.norm(a - b)) / scale
    if not err <= rtol:
        raise CheckFailed(f"{what}: relative difference {err:.3e} > {rtol:.0e}")


def _close(a: float, b: float, tol: float, what: str) -> None:
    """Scalars summed from O(1) matrix entries in different orders: compare
    relative to max(1, |b|), since a result near 0 may come from cancellation."""
    if not abs(a - b) <= tol * max(1.0, abs(b)):
        raise CheckFailed(f"{what}: {a!r} vs {b!r} (tolerance {tol:.0e})")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _write_csv(path: Path, m) -> str:
    """Input matrices are written here, not by the library under test."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in m) + "\n")
    return str(path)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _last_state(csv_path: Path) -> np.ndarray:
    """State columns of the last row of a trajectory CSV (t,x1..xn)."""
    last = Path(csv_path).read_text().splitlines()[-1]
    return np.array([float(v) for v in last.split(",")[1:]])


class Workload:
    """Seeded pool of op inputs, cycled by the closed loop."""

    name = ""
    pool_size = 0

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.pool = [self.make(i) for i in range(self.pool_size)]
        self._refs: dict[int, object] = {}

    def reference(self, i: int):
        if i not in self._refs:
            self._refs[i] = self.compute_reference(self.pool[i])
        return self._refs[i]

    def make(self, i: int) -> dict:
        raise NotImplementedError

    def op(self, item: dict):
        raise NotImplementedError

    def compute_reference(self, item: dict):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


def _thomas_jacobian(d: float, c: float, x) -> np.ndarray:
    return np.array(
        [
            [-d - c, np.cos(x[1]), 0.0],
            [0.0, -d - c, np.cos(x[2])],
            [np.cos(x[0]), 0.0, -d],
        ]
    )


def _box_grid(r: float, g: int) -> np.ndarray:
    """Grid over [-r, r]^3 with cell midpoints, built independently of the library."""
    ax = np.linspace(-r, r, g)
    mid = 0.5 * (ax[1:] + ax[:-1])
    full = np.array(np.meshgrid(ax, ax, ax, indexing="ij")).reshape(3, -1).T
    mids = np.array(np.meshgrid(mid, mid, mid, indexing="ij")).reshape(3, -1).T
    return np.vstack([full, mids])


class GridCertify(Workload):
    """Grid-sampled k = 2 certificates of one seeded Thomas-family model,
    once per fixed measure kind, so every op samples the same work."""

    name = "grid_certify"
    pool_size = 48
    GRID = 6  # 6^3 grid points plus 5^3 midpoints = 341 samples per request
    KINDS = ("l1", "l2", "linf")

    def make(self, i):
        d = float(self.rng.uniform(0.15, 0.25))
        if self.rng.random() < 0.5:
            system, c, params = "thomas", 0.0, {"d": d}
        else:
            c = float(self.rng.uniform(0.2, 0.8))
            system, params = "thomas_controlled", {"d": d, "c": c}
        requests = []
        for kind in self.KINDS:
            cfg = {"system": system, "params": params, "k": 2, "method": "grid",
                   "grid": self.GRID, "kind": kind}
            requests.append(
                (kind, _write_json(self.dir / f"grid{i}_{kind}.json", cfg),
                 str(self.dir / f"grid{i}_{kind}.report.json"))
            )
        return {"d": d, "c": c, "requests": requests}

    def op(self, item):
        # exit 1 (fail) and 4 (inconclusive) are verdicts
        return [
            run_cli(["certify", "--input", cfg, "--output", rep], ok_codes=(1, 4))[0]
            for _, cfg, rep in item["requests"]
        ]

    def compute_reference(self, item):
        maxima = {kind: -np.inf for kind in self.KINDS}
        for x in _box_grid(1.0 / item["d"], self.GRID):
            jk = kc.add_compound(_thomas_jacobian(item["d"], item["c"], x), 2).data
            for kind in self.KINDS:
                maxima[kind] = max(maxima[kind], kc.matrix_measure(jk, kc.parse_kind(kind)))
        return maxima

    def check(self, i, codes):
        ref = self.reference(i)
        for (kind, _, rep), code in zip(self.pool[i]["requests"], codes):
            report = json.loads(Path(rep).read_text())
            bound = report["conditions"][0]["bound"]
            _close(bound, ref[kind], 1e-12, f"grid maximum ({kind})")
            verdict = report["verdict"]
            _require((verdict, code) in (("fail", 1), ("inconclusive", 4)),
                     f"verdict {verdict!r} with exit code {code}")
            _require(verdict == "fail" or bound < 0, f"inconclusive verdict with bound {bound}")


# ---------------------------------------------------------------------------


class Flow(Workload):
    """Certificate decay along one seeded controlled-Thomas flow, plus the
    growth preset's cascade with a seeded zeta1."""

    name = "flow"
    pool_size = 32
    HORIZON = 3.0
    N_OUT = 61
    GROWTH_HORIZON = 20.0
    GROWTH_N_OUT = 201

    def make(self, i):
        r = 1.0 / kc.THOMAS_D
        zeta1 = float(self.rng.uniform(-1.5, -0.2))
        growth = {"system": "lti_series", "params": {"zeta1": zeta1, "zeta2": -2.0},
                  "horizon": self.GROWTH_HORIZON, "tol": 1e-10, "n_out": self.GROWTH_N_OUT,
                  "volume_generators": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
        return {
            "x0": self.rng.uniform(-r, r, 3),
            # orthonormal, so the Gram route starts well conditioned
            "generators": np.linalg.qr(self.rng.standard_normal((3, 2)))[0],
            "zeta1": zeta1,
            "growth_cfg": _write_json(self.dir / f"growth{i}.json", growth),
            "growth_out": str(self.dir / f"growth{i}"),
        }

    def op(self, item):
        sysm = kc.thomas_controlled()
        rec = kc.integrate(sysm, item["x0"], (0.0, self.HORIZON), n_out=self.N_OUT)
        var = kc.variational_flow(sysm, rec, 2)
        columns = np.einsum("tij,jk->tik", var.flow, item["generators"])
        vol_cn = np.array([kc.parallelotope_volume(x) for x in columns])
        vol_gram = np.array([kc.gram_volume(x) for x in columns])
        fit = kc.fit_exponential_rate(var.times, vol_cn)
        run_cli(["simulate", "--input", item["growth_cfg"], "--output", item["growth_out"]])
        return var, vol_cn, vol_gram, fit

    def compute_reference(self, item):
        # certified L1 rate of the controlled system the op integrates
        return kc.certify_k_contraction(kc.thomas_controlled(), 2, kind=kc.L1).rate

    def check(self, i, out):
        var, vol_cn, vol_gram, fit = out
        eta = self.reference(i)
        _require(eta is not None and eta > 0, "controlled Thomas certificate did not pass")
        for t in range(var.times.size):
            phi_k = kc.mult_compound(var.flow[t], 2).data
            _rel_close(phi_k, var.compound_flow[t], 1e-8, f"Phi^(2) vs Psi at t={var.times[t]:g}")
        _rel_close(vol_cn, vol_gram, 1e-9, "compound-norm vs Gram volumes")
        # mu_1(J^[2]) <= -eta gives |Psi(t)|_1 <= exp(-eta t), so the Euclidean
        # 2-volume obeys vol(t) <= sqrt(3) exp(-eta t) vol(0).
        limit = np.sqrt(3.0) * np.exp(-eta * var.times) * vol_cn[0] * (1.0 + 1e-9)
        _require(bool(np.all(vol_cn <= limit)), "2-volume decays slower than certified")
        _require(np.isfinite(fit.rate), "volume rate fit is not finite")
        summary = json.loads((Path(self.pool[i]["growth_out"]) / "summary.json").read_text())
        expected = 1.0 + self.pool[i]["zeta1"]
        _require(abs(summary["fitted_rate"] - expected) <= 1e-6,
                 f"growth rate {summary['fitted_rate']} vs exact {expected}")


# ---------------------------------------------------------------------------


def _perturbed_thomas_finals(ics, horizon: float) -> np.ndarray:
    """DOP853 reference (rtol = atol = 1e-12) for x' = f(x) + b exp(alpha t),
    the time-varying view of the perturbed controlled system."""
    from scipy.integrate import solve_ivp

    d = kc.THOMAS_D
    c = 1.1 - 2.0 * d
    alpha, b = -0.1, 1.0 / 8.0
    n = len(ics)

    def rhs(t, z):
        x = z.reshape(n, 3)
        out = np.empty_like(x)
        out[:, 0] = np.sin(x[:, 1]) - (d + c) * x[:, 0]
        out[:, 1] = np.sin(x[:, 2]) - (d + c) * x[:, 1]
        out[:, 2] = np.sin(x[:, 0]) - d * x[:, 2]
        return (out + b * np.exp(alpha * t)).ravel()

    sol = solve_ivp(rhs, (0.0, horizon), np.asarray(ics, float).ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise CheckFailed(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(n, 3)


class Simulate(Workload):
    """A fig2-shaped and a fig3-shaped ``simulate --input`` request on the
    same nine seeded starts."""

    name = "simulate"
    pool_size = 16
    HORIZON = 8.0
    N_OUT = 81  # the presets' output spacing of 0.1
    TOL = 1e-10
    FINAL_TOL = 1e-7

    def make(self, i):
        ics = self.rng.uniform(-2.0, 2.0, (9, 3))
        item = {"ics": ics}
        for tag, system in (("fig2", "thomas"), ("fig3", "thomas_perturbed")):
            cfg = {"system": system, "params": {"d": kc.THOMAS_D}, "initial_conditions": ics.tolist(),
                   "horizon": self.HORIZON, "tol": self.TOL, "n_out": self.N_OUT, "detect_tol": 1e-5}
            item[tag] = (_write_json(self.dir / f"sim{i}_{tag}.json", cfg),
                         str(self.dir / f"sim{i}_{tag}"))
        return item

    def op(self, item):
        for tag in ("fig2", "fig3"):
            cfg, out = item[tag]
            run_cli(["simulate", "--input", cfg, "--output", out])

    def compute_reference(self, item):
        return _perturbed_thomas_finals(item["ics"], self.HORIZON)

    def check(self, i, _):
        item = self.pool[i]
        finals = {}
        for tag in ("fig2", "fig3"):
            out = Path(item[tag][1])
            summary = json.loads((out / "summary.json").read_text())
            _require(summary["integration_failures"] == 0, f"{tag}: integration failures")
            _require(summary["n_trajectories"] == 9, f"{tag}: {summary['n_trajectories']} trajectories")
            finals[tag] = np.array([_last_state(out / f) for f in summary["files"]])
        r = 1.0 / kc.THOMAS_D
        _require(bool(np.all(np.abs(finals["fig2"]) <= r * (1 + 1e-9))),
                 "uncontrolled finals left the invariant box")
        err = float(np.abs(finals["fig3"] - self.reference(i)).max())
        _require(err <= self.FINAL_TOL, f"perturbed finals differ from DOP853 by {err:.3e}")


# ---------------------------------------------------------------------------


def _dominant_block(rng, size: int) -> np.ndarray:
    """Diagonally dominant Hurwitz block: every compound measure is negative."""
    m = rng.uniform(-0.05, 0.05, (size, size))
    np.fill_diagonal(m, -rng.uniform(1.0, 2.0, size))
    return m


def _reconstruct(decomposition: dict) -> np.ndarray:
    """P diag(blocks) P^{-1} from the decompose JSON (1-based permutation)."""
    sizes = decomposition["partition"]
    diag = np.zeros((sum(sizes), sum(sizes)))
    at = 0
    for blk in decomposition["blocks"]:
        r, c = blk["rows"], blk["cols"]
        diag[at : at + r, at : at + c] = np.reshape(blk["entries"], (r, c))
        at += r
    pos = np.array(decomposition["permutation"]) - 1
    out = np.empty_like(diag)
    out[np.ix_(pos, pos)] = diag
    return out


class CompoundSpace(Workload):
    """Large compound-space calls on one seeded dense 10x10 matrix at k = 4."""

    name = "compound_space"
    pool_size = 16
    N, SPLIT, K = 10, 5, 4

    def make(self, i):
        rng, n, s, k = self.rng, self.N, self.SPLIT, self.K
        m = rng.standard_normal((n, n))
        a, b, c = _dominant_block(rng, s), rng.uniform(-1.0, 1.0, (n - s, s)), _dominant_block(rng, n - s)
        width = float(rng.uniform(0.05, 0.2))
        series = {"system": "lti_series", "params": {"A": a.tolist(), "B": b.tolist(), "C": c.tolist()},
                  "k": k, "method": "analytic"}
        bounds = {"system": "bounds", "bounds": {"lo": (m - width).tolist(), "hi": (m + width).tolist()},
                  "k": k, "kind": "l1", "method": "analytic"}

        def p(name):
            return self.dir / f"cs{i}_{name}"

        return {
            "m": m, "second": rng.standard_normal((n, n)), "series_blocks": (a, b, c),
            "audit_point": rng.standard_normal(n),
            "M": _write_csv(p("M.csv"), m), "A": _write_csv(p("A.csv"), m[:s, :s]),
            "B": _write_csv(p("B.csv"), m[s:, s:]),
            "series": _write_json(p("series.json"), series),
            "bounds": _write_json(p("bounds.json"), bounds),
            "out": {name: str(p(name)) for name in
                    ("mult.csv", "add.csv", "dadd.json", "dmult.json", "series.report.json",
                     "bounds.report.json")},
        }

    def op(self, item):
        k, out = str(self.K), item["out"]
        for kind in ("mult", "add"):
            run_cli(["compound", "--input", item["M"], "--k", k, "--kind", kind,
                     "--output", out[f"{kind}.csv"]])
        _, measured = run_cli(["measure", "--input", item["M"], "--kind", "l1", "--k", k])
        for kind in ("add", "mult"):
            run_cli(["decompose", "--input", item["A"], item["B"], "--k", k, "--kind", kind,
                     "--output", out[f"d{kind}.json"]])
        run_cli(["certify", "--input", item["series"], "--output", out["series.report.json"]])
        report = json.loads(Path(out["series.report.json"]).read_text())
        # audit epsilon_star: scaled-norm measure of the conjugated compound at a point
        audit = kc.series_conjugated_compound_measure(
            kc.lti_series(*item["series_blocks"]), self.K,
            [kc.parse_kind(c["measure"]) for c in report["conditions"]],
            report["epsilon_star"], 0.0, item["audit_point"],
        )
        run_cli(["certify", "--input", item["bounds"], "--output", out["bounds.report.json"]],
                ok_codes=(0, 1))
        return float(measured), report, audit

    def compute_reference(self, item):
        m, second, k, s = item["m"], item["second"], self.K, self.SPLIT
        blockdiag = np.zeros_like(m)
        blockdiag[:s, :s], blockdiag[s:, s:] = m[:s, :s], m[s:, s:]
        return {
            "second_mult": kc.mult_compound(second, k).data,
            "product_mult": kc.mult_compound(m @ second, k).data,
            "second_add": kc.add_compound(second, k).data,
            "sum_add": kc.add_compound(m + second, k).data,
            "dmult": kc.mult_compound(blockdiag, k).data,
            "dadd": kc.add_compound(blockdiag, k).data,
            "measure_at_m": kc.compound_measure(m, k, kc.L1),
        }

    def check(self, i, out):
        measured, report, audit = out
        ref, files = self.reference(i), self.pool[i]["out"]
        mult = np.loadtxt(files["mult.csv"], delimiter=",")
        add = np.loadtxt(files["add.csv"], delimiter=",")
        _rel_close(mult @ ref["second_mult"], ref["product_mult"], 1e-9, "Cauchy-Binet (AB)^(k)")
        _rel_close(add + ref["second_add"], ref["sum_add"], 1e-12, "additivity of A^[k]")
        _close(measured, kc.matrix_measure(add, kc.L1), 1e-12, "closed-form vs assembled L1 measure")
        for kind in ("mult", "add"):
            dec = json.loads(Path(files[f"d{kind}.json"]).read_text())
            _rel_close(_reconstruct(dec), ref[f"d{kind}"], 1e-12, f"{kind} decomposition reconstruct")
        _require(report["verdict"] == "pass" and report["epsilon_star"] > 0,
                 f"series certificate: {report['verdict']}")
        _require(audit <= -report["rate"] + 1e-9,
                 f"epsilon_star audit {audit} above -rate {-report['rate']}")
        bounds_report = json.loads(Path(files["bounds.report.json"]).read_text())
        _require(bounds_report["conditions"][0]["bound"] >= ref["measure_at_m"] - 1e-9,
                 "interval bound below the measure at an enclosed matrix")


WORKLOADS = {w.name: w for w in (GridCertify, Flow, Simulate, CompoundSpace)}
