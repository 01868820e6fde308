"""Tests of the benchmark itself: tracing coverage, repeatable counts, the
output contract, and the simulate presets' documented outcomes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import kcontract  # noqa: E402
from kcontract import cli  # noqa: E402
from tracing import COUNTS, SYSTEM_FACTORIES, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers each workload's op must reach: the rows of the per-layer table.
#: ``measures.matrix_measure`` sits in the compound_space row: the grid
#: certificate evaluates the closed forms of ``compound_measure`` and never
#: calls it, while the epsilon_star audit does (hierarchic block measures).
FIRES_ON = {
    "grid_certify": [
        "measures.compound_measure.calls", "measures.compound_measure.sequences",
        "systems.jacobian.calls", "certificates.certify_k_contraction.calls",
    ],
    "flow": [
        "compounds.add_compound.calls", "kernels.rk4_fixed.calls", "kernels.rk4_fixed.rhs_evals",
        "dynamics.variational_flow.calls", "dynamics.parallelotope_volume.calls",
        "dynamics.volume_growth_rate.calls",
    ],
    "simulate": [
        "kernels.rk45_solve.calls", "kernels.rk45_solve.rhs_evals", "kernels.rk45_solve.step_attempts",
        "systems.f.calls", "dynamics.integrate.calls", "dynamics.detect_equilibrium_convergence.calls",
        "matio.write.calls", "matio.write.bytes",
    ],
    "compound_space": [
        "kernels.minor_dets.calls", "kernels.minor_dets.minors", "kernels.minor_dets.bytes_computed",
        "compounds.mult_compound.calls", "compounds.add_compound_interval.calls",
        "compounds.block_decompose.calls", "indexing.build_permutation.calls",
        "measures.interval_measure_upper.calls", "measures.hierarchic_measure_bounds.calls",
        "certificates.certify_series.calls", "certificates.worst_case_compound_measure.calls",
        "measures.matrix_measure.calls",
    ],
}
#: Predicted flat: layers a workload's op must not reach.
FLAT_ON = {
    "simulate": ["measures.compound_measure.calls", "compounds.add_compound.calls",
                 "kernels.minor_dets.calls", "kernels.rk4_fixed.calls"],
    "grid_certify": ["kernels.rk45_solve.calls", "kernels.rk4_fixed.calls", "compounds.add_compound.calls"],
    "compound_space": ["kernels.rk45_solve.calls", "systems.f.calls"],
}


def _traced(name: str, seed: int, tmp_path: Path, items: int = 2):
    """Trace ``items`` ops of a fresh workload; return (values, entry-table lookups)."""
    wl = WORKLOADS[name](seed, tmp_path)
    tracer = Tracer()
    table = kcontract.compounds._add_compound_entries
    before = table.cache_info()
    for i in range(items):
        with tracer.recording():
            out = wl.op(wl.pool[i])
        wl.check(i, out)
    after = table.cache_info()
    values = dict(tracer.counts)
    for layer, stats in tracer.layer_stats().items():
        values[f"{layer}.calls"] = stats["calls"]
    values["certificates.evals_per_verdict"] = tracer.evals_per_verdict()
    return values, (after.hits + after.misses) - (before.hits + before.misses)


def test_every_target_is_wrapped_at_its_binding_sites():
    tracer = Tracer()
    with tracer.recording() as sites:
        for name, modname, attr, _ in TARGETS:
            module = sys.modules[modname]
            assert getattr(module, attr).traced_as == name
        # re-exports are rebound too, not only the defining module
        assert kcontract.integrate.traced_as == "dynamics.integrate"
        assert kcontract.dynamics.rk45_solve.traced_as == "kernels.rk45_solve"
        assert kcontract.measures.add_compound.traced_as == "compounds.add_compound"
        assert kcontract.certificates.compound_measure.traced_as == "measures.compound_measure"
        assert cli.integrate.traced_as == "dynamics.integrate"
        model = kcontract.thomas()
        assert model.f.traced_as == "systems.f"
        assert model.jacobian.traced_as == "systems.jacobian"
        assert model.f.__wrapped__.__name__ == "f"  # wrapped once, not twice
    assert all(sites[name] >= 1 for name, *_ in TARGETS)
    assert all(sites["systems." + f] >= 1 for f in SYSTEM_FACTORIES)
    assert not hasattr(kcontract.integrate, "traced_as")  # restored


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_layer_fires_on_its_workload(name, tmp_path):
    values, table_lookups = _traced(name, seed=3, tmp_path=tmp_path)
    missing = [m for m in FIRES_ON[name] if not values.get(m)]
    assert not missing, f"{name}: layers never reached: {missing}"
    assert values["cli.main.calls"] > 0
    reached = [m for m in FLAT_ON.get(name, []) if values.get(m)]
    assert not reached, f"{name}: layers predicted flat were reached: {reached}"
    if name == "grid_certify":
        assert values["certificates.evals_per_verdict"] > 0
    if name == "flow":
        assert table_lookups > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(name, tmp_path):
    first, _ = _traced(name, seed=11, tmp_path=tmp_path / "a")
    second, _ = _traced(name, seed=11, tmp_path=tmp_path / "b")
    counts = [k for k in first if k.endswith(".calls") or k in COUNTS]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["certificates.evals_per_verdict"] == second["certificates.evals_per_verdict"]


def test_seeded_inputs_repeat(tmp_path):
    for name, cls in WORKLOADS.items():
        a, b = cls(5, tmp_path / f"{name}a"), cls(5, tmp_path / f"{name}b")
        c = cls(6, tmp_path / f"{name}c")
        key = {"grid_certify": "d", "flow": "x0", "simulate": "ics", "compound_space": "m"}[name]
        assert np.array_equal(a.pool[3][key], b.pool[3][key])
        assert not np.array_equal(a.pool[3][key], c.pool[3][key])


def test_benchmark_json_meets_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    units = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    seen = set()
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert names.match(m["name"]) and units.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert m["name"] not in seen
        seen.add(m["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    # a full evaluation (4 + 22 runs per workload, each with about 10 s of
    # set-ups, probes and wind-down) fits in 3420 s
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 10) < 3420


def _run(cwd: Path, *args: str):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_result_line_follows_the_contract():
    proc = _run(ROOT, "--workload", "grid_certify", "--seed", "2", "--seconds", "2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    record = json.loads(record_line)["run_record"]
    assert record["blas_threads"] in (1, None) and record["seed"] == 2
    assert {"commit", "numpy", "scipy", "nproc", "numba_importable", "tail_percentile"} <= set(record)


def test_traced_run_reports_every_per_layer_metric():
    proc = _run(ROOT, "--workload", "compound_space", "--seed", "2", "--seconds", "2", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["trace.overhead_ratio"]["value"] > 0


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(tmp_path, "--workload", "flow", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# Preset anchors: the README's documented outcomes of the simulate presets.
# ---------------------------------------------------------------------------


def _preset(name: str, out: Path) -> tuple[int, dict]:
    code = cli.main(["simulate", "--preset", name, "--output", str(out)])
    return code, json.loads((out / "summary.json").read_text())


def test_fig2_only_the_diagonal_start_converges(tmp_path, capsys):
    code, summary = _preset("fig2", tmp_path)
    assert code == 0 and summary["integration_failures"] == 0
    diagonal = [bool(np.all(x0 == x0[0])) for x0 in kcontract.STANDARD_INITIAL_CONDITIONS]
    assert summary["converged"] == diagonal == [False, False, True] + [False] * 6
    assert summary["in_invariant_box"]


def test_fig3_all_converge_into_two_clusters(tmp_path, capsys):
    code, summary = _preset("fig3", tmp_path)
    assert code == 0 and summary["detect_tol"] == 1e-5
    assert summary["all_converged"] and summary["n_trajectories"] == 9
    assert summary["n_equilibrium_clusters"] == 2


def test_growth_rate_is_one_plus_zeta1(tmp_path, capsys):
    code, summary = _preset("growth", tmp_path)
    assert code == 0
    assert abs(summary["fitted_rate"] - 0.5) <= 1e-6  # 1 + zeta1 with zeta1 = -0.5
