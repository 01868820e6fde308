import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from kcontract import cli, matio
from kcontract.cli import _build_parser, main
from kcontract.compounds import block_diag_mult_decompose
from kcontract.dynamics import TrajectoryRecord


def test_matrix_csv_round_trip_exact():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 4))
    m[0, 0] = 0.1
    m[1, 1] = 1.0 / 3.0
    m[2, 2] = 1e-300
    again = matio.matrix_from_csv(matio.matrix_to_csv(m))
    assert np.array_equal(m, again)


def test_matrix_json_round_trip_exact():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((4, 2))
    again = matio.matrix_from_json(matio.matrix_to_json(m))
    assert np.array_equal(m, again)


def test_malformed_csv_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        matio.matrix_from_csv("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="ragged"):
        matio.matrix_from_csv("1,2\n3\n")
    with pytest.raises(ValueError, match="empty"):
        matio.matrix_from_csv("\n")


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        matio.matrix_from_json("{not json")
    with pytest.raises(ValueError):
        matio.matrix_from_json('{"rows": 2, "cols": 2, "entries": [1, 2, 3]}')


def test_trajectory_csv_headers():
    rec = TrajectoryRecord(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    text = matio.trajectory_to_csv(rec)
    assert text.splitlines()[0] == "t,x1,x2"


def _write_matrix(path, m):
    path.write_text(matio.matrix_to_csv(np.asarray(m, dtype=float)))


def test_cli_compound_identity(tmp_path, capsys):
    f = tmp_path / "I4.csv"
    _write_matrix(f, np.eye(4))
    assert main(["compound", "--input", str(f), "--k", "2", "--kind", "mult"]) == 0
    out = capsys.readouterr().out
    assert np.array_equal(matio.matrix_from_csv(out), np.eye(6))


def test_cli_compound_trace(tmp_path, capsys):
    f = tmp_path / "a.csv"
    a = np.arange(9, dtype=float).reshape(3, 3)
    _write_matrix(f, a)
    assert main(["compound", "--input", str(f), "--k", "3", "--kind", "add"]) == 0
    out = capsys.readouterr().out
    assert matio.matrix_from_csv(out)[0, 0] == np.trace(a)


def test_cli_compound_malformed_input_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.csv"
    f.write_text("1,2\n3,zzz\n")
    assert main(["compound", "--input", str(f), "--k", "1"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("fields", [
    {"rows": 2.5, "cols": 2, "entries": [1, 2, 3, 4]},
    {"rows": True, "cols": 1, "entries": [1]},
    {"rows": "2", "cols": 2, "entries": [1, 2, 3, 4]},
    {"rows": -2, "cols": -2, "entries": [1, 2, 3, 4]},
    {"rows": 2, "cols": 2, "entries": [[1, 2], [3, 4]]},
    {"rows": 1, "cols": 3, "entries": ["1.5", None, True]},
    {"rows": 1, "cols": 2, "entries": [1.5, "2"]},
    {"rows": 1, "cols": 2, "entries": [1.5, None]},
    {"rows": 1, "cols": 2, "entries": [False, 1.5]},
    {"rows": 1, "cols": 1, "entries": {"0": 1.5}},
    {"rows": 1, "cols": 1, "entries": [10**400]},
], ids=["float rows", "boolean rows", "string rows", "negative shape", "nested entries",
        "string, null and boolean entries", "string entry", "null entry", "boolean entry",
        "object entries", "integer entry beyond the float range"])
def test_cli_compound_malformed_matrix_json_exit_2(tmp_path, capsys, fields):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(fields))
    assert main(["compound", "--input", str(f), "--k", "1"]) == 2
    assert "malformed matrix JSON" in capsys.readouterr().err


def test_cli_compound_reads_the_matrix_json_it_writes(tmp_path, capsys):
    m = np.array([[0.1, -0.0], [3.0, 1e-300]])
    f = tmp_path / "m.json"
    f.write_text(matio.matrix_to_json(m))
    assert main(["compound", "--input", str(f), "--k", "1", "--format", "json"]) == 0
    assert capsys.readouterr().out == f.read_text()
    # NaN and Infinity tokens parse, and reach the non-finite guard
    f.write_text(matio.matrix_to_json(np.array([[math.nan, 1.5], [math.inf, -math.inf]])))
    assert main(["compound", "--input", str(f), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "malformed" not in err


def test_cli_compound_dimension_guard_exit_3(tmp_path, capsys):
    f = tmp_path / "big.csv"
    _write_matrix(f, np.eye(50))
    assert main(["compound", "--input", str(f), "--k", "25"]) == 3
    assert "exceeds" in capsys.readouterr().err


def test_cli_add_compound_dense_guard_exit_3(tmp_path, capsys):
    # r = C(17, 8) passes the dimension limit; the r x r array would not fit
    f = tmp_path / "eye17.csv"
    _write_matrix(f, np.eye(17))
    assert main(["compound", "--input", str(f), "--k", "8", "--kind", "add"]) == 3
    assert "exceeds" in capsys.readouterr().err
    assert main(["measure", "--input", str(f), "--kind", "l1", "--k", "8"]) == 0
    assert float(capsys.readouterr().out) == 8.0


def test_cli_simulate_reports_leaving_the_declared_box(tmp_path):
    bounds = {"lo": [[-1.0, -1.0, 0.0], [0.0, -1.0, -1.0], [-1.0, 0.0, -1.0]],
              "hi": [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]}
    for half_width, inside in ((10.0, True), (0.6, False)):
        cfg = tmp_path / f"cfg{half_width}.json"
        cfg.write_text(json.dumps({
            "system": "bounds", "bounds": bounds, "jacobian_from": {"system": "thomas"},
            "domain": {"lo": [-half_width] * 3, "hi": [half_width] * 3},
            "initial_conditions": [[0.1, 0.2, 0.3], [0.5, -0.5, 0.5]],
            "horizon": 5.0, "n_out": 51,
        }))
        out = tmp_path / f"out{half_width}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["simulate", "--input", str(cfg), "--output", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["in_invariant_box"] is inside


def test_cli_simulate_box_verdict_is_the_integrators(tmp_path):
    # a circle of radius 5 through a box 3e-7 too short in x2: beyond an
    # absolute slack of 1e-7, within the relative slack 1e-7 max(1, max|x|)
    # = 5e-7, so the summary agrees with the absent warning
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "bounds", "bounds": {"lo": [[0.0, 1.0], [-1.0, 0.0]], "hi": [[0.0, 1.0], [-1.0, 0.0]]},
        "jacobian_from": {"system": "lti", "params": {"A": [[0.0, 1.0], [-1.0, 0.0]]}},
        "domain": {"lo": [-5.0, -5.0 + 3e-7], "hi": [5.0, 5.0 - 3e-7]},
        "initial_conditions": [[5.0, 0.0]], "horizon": 2 * math.pi, "n_out": 1001,
    }))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--input", str(cfg), "--output", str(out)]) == 0
    x2 = np.loadtxt(out / "traj_01.csv", delimiter=",", skiprows=1)[:, 2]
    assert 2e-7 < np.abs(x2).max() - (5.0 - 3e-7) < 5e-7
    assert not [w for w in caught if "invariant box" in str(w.message)]
    assert json.loads((out / "summary.json").read_text())["in_invariant_box"] is True


def test_cli_simulate_refuses_a_domain_of_another_dimension(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "bounds", "bounds": {"lo": [[-1.0, 0.0], [0.0, -1.0]], "hi": [[-1.0, 0.0], [0.0, -1.0]]},
        "domain": {"lo": [-1.0] * 3, "hi": [1.0] * 3}, "initial_conditions": [[0.1, 0.2]],
    }))
    assert main(["simulate", "--input", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "domain has dimension 3, expected 2" in capsys.readouterr().err


@pytest.mark.parametrize("start, inside", [([0.5, -0.5, 0.5], True), ([9.0, 9.0, 9.0], False)])
def test_cli_simulate_checks_the_box_of_the_perturbed_system(tmp_path, start, inside):
    # the augmented state (x, y) is written as x only; x is checked against
    # the first three coordinates of the 4-dimensional declared box
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "thomas_perturbed", "initial_conditions": [start],
                               "horizon": 2.0, "n_out": 21}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["simulate", "--input", str(cfg), "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["in_invariant_box"] is inside


def test_cli_simulate_refuses_a_perturbed_start_whose_input_state_is_not_one(tmp_path, capsys):
    # the model defines y(0) = 1, and its convergence check assumes y = exp(alpha t)
    base = {"system": "thomas_perturbed", "horizon": 100.0, "n_out": 11}
    code, out = _simulate_config(tmp_path, "y0", {**base, "initial_conditions": [[0.5, 0.25, 0.0, 0.0]]})
    assert code == 2 and not out.exists()
    assert "initial_conditions" in capsys.readouterr().err
    runs = [_simulate_config(tmp_path, name, {**base, "initial_conditions": [start]})
            for name, start in (("x", [0.5, 0.25, 0.0]), ("xy", [0.5, 0.25, 0.0, 1.0]))]
    assert [code for code, _ in runs] == [0, 0]
    for fname in ("traj_01.csv", "summary.json"):
        assert (runs[0][1] / fname).read_bytes() == (runs[1][1] / fname).read_bytes()
    # the refusal costs the CLI module no more than its 500-line cap
    assert len(Path(cli.__file__).read_text().splitlines()) <= 500


def test_cli_main_gives_fresh_results_on_repeated_calls(tmp_path, capsys):
    f = tmp_path / "m.csv"
    _write_matrix(f, np.array([[-2.0, 1.0], [0.5, -3.0]]))
    calls = [
        ["measure", "--input", str(f), "--kind", "l1"],
        ["volume", "--input", str(f)],
        ["measure", "--input", str(f), "--kind", "wrong"],
        ["compound", "--input", str(f), "--k", "x"],
        ["compound", "--input", str(f), "--k", "2", "--kind", "add"],
        ["measure", "--input", str(f), "--kind", "linf", "--k", "1"],
        [],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    consecutive = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    assert consecutive == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2, 0, 0, 2]
    assert "invalid int value" in fresh[3][2]


def test_cli_measure(tmp_path, capsys):
    f = tmp_path / "m.csv"
    _write_matrix(f, np.diag([-2.0, -3.0, 1.0]))
    assert main(["measure", "--input", str(f), "--kind", "l1"]) == 0
    assert float(capsys.readouterr().out) == 1.0
    assert main(["measure", "--input", str(f), "--kind", "l2", "--k", "2"]) == 0
    assert float(capsys.readouterr().out) == -1.0  # top-2 eigenvalue sum


def test_cli_decompose_json_and_csv(tmp_path, capsys):
    rng = np.random.default_rng(2)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((2, 2))
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_matrix(fa, a)
    _write_matrix(fb, b)
    assert main(["decompose", "--input", str(fa), str(fb), "--k", "2", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["i1"] == 0 and obj["i2"] == 2 and obj["partition"] == [3, 6, 1]
    assert sorted(obj["permutation"]) == list(range(1, 11))
    assert main(["decompose", "--input", str(fa), str(fb), "--k", "2", "--format", "csv"]) == 0
    rec = matio.matrix_from_csv(capsys.readouterr().out)
    expected = block_diag_mult_decompose(a, b, 2).reconstruct()
    assert np.array_equal(rec, expected)


def test_cli_refuses_a_missing_config_and_a_zero_decompose_order_exit_2(tmp_path, capsys):
    assert main(["certify", "--input", str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config: ")
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    _write_matrix(fa, -np.eye(2))
    _write_matrix(fb, -np.eye(3))
    assert main(["decompose", "--input", str(fa), str(fb), "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: k must satisfy 1 <= k <= 5, got 0\n"


def test_cli_certify_thomas_pass(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "thomas_controlled",
                "params": {"d": 0.193186, "c": 0.713628},
                "k": 2,
                "kind": "l1",
                "method": "analytic",
            }
        )
    )
    report_file = tmp_path / "report.json"
    assert main(["certify", "--input", str(cfg), "--output", str(report_file)]) == 0
    assert "PASS" in capsys.readouterr().out
    report = json.loads(report_file.read_text())
    assert abs(report["conditions"][0]["margin"] - 0.1) < 1e-12


class _ClosedStdout:
    """A stdout whose reader has gone, as a pipe closed early."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_cli_certify_writes_its_report_before_a_closed_stdout_exits_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "thomas_controlled", "k": 2}))
    report_file = tmp_path / "report.json"
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(["certify", "--input", str(cfg), "--output", str(report_file)]) == 2
    assert "Broken pipe" in capsys.readouterr().err
    golden = Path(__file__).parent / "golden" / "certify_analytic_thomas_controlled.report.json"
    assert report_file.read_bytes() == golden.read_bytes()


def test_cli_certify_series_counterexample_exit_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "lti_series", "params": {"zeta1": -0.5}, "k": 2}))
    assert main(["certify", "--input", str(cfg)]) == 1


def _certify_grid(tmp_path, grid):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "thomas_controlled", "k": 2, "method": "grid", "grid": grid}))
    return main(["certify", "--input", str(cfg)])


def test_cli_certify_invalid_grid_exit_2(tmp_path, capsys):
    for grid in (0, -1):
        assert _certify_grid(tmp_path, grid) == 2
        assert "points_per_dim must be at least 1" in capsys.readouterr().err


def test_cli_certify_oversized_grid_exit_3_before_allocating(tmp_path, capsys):
    tracemalloc.start()
    try:
        assert _certify_grid(tmp_path, 2000) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "sample grid" in capsys.readouterr().err
    assert peak < 4 << 20


def test_cli_certify_unknown_system_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "does_not_exist", "k": 2}))
    assert main(["certify", "--input", str(cfg)]) == 2
    assert "unknown system" in capsys.readouterr().err


def test_cli_certify_exp_input_mode(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "thomas_controlled",
                "params": {"d": 0.193186, "c": 0.713628},
                "mode": "exp_input",
                "alpha": -0.1,
                "g_bound": 0.125,
                "k": 2,
                "kinds": ["l1", "l1"],
            }
        )
    )
    assert main(["certify", "--input", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "VIOLATED" in out and "0.706814" in out


def test_cli_certify_grid_inconclusive_exit_4(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "thomas_controlled",
                "params": {"d": 0.193186},
                "k": 2,
                "kind": "l1",
                "method": "grid",
                "grid": 3,
            }
        )
    )
    assert main(["certify", "--input", str(cfg)]) == 4


def test_cli_volume(tmp_path, capsys):
    f = tmp_path / "x.csv"
    _write_matrix(f, np.eye(4)[:, :2])
    assert main(["volume", "--input", str(f)]) == 0
    assert float(capsys.readouterr().out) == 1.0


def test_cli_simulate_growth_preset(tmp_path, capsys):
    out = tmp_path / "growth"
    assert main(["simulate", "--preset", "growth", "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["fitted_rate"] - 0.5) < 1e-3
    vol = (out / "volume.csv").read_text().splitlines()
    assert vol[0] == "t,vol"
    assert len(vol) == 202


@pytest.mark.parametrize("argv", [["--preset", "growth"], ["--preset", "fig2", "--horizon", "2"]])
def test_cli_simulate_serializes_the_summary_once(tmp_path, capsys, monkeypatch, argv):
    dumps = []

    def counted(obj):
        dumps.append(obj)
        return real(obj)

    real = matio.dump_json
    monkeypatch.setattr(matio, "dump_json", counted)
    assert main(["simulate", *argv, "--output", str(tmp_path)]) == 0
    assert len(dumps) == 1
    assert capsys.readouterr().out == (tmp_path / "summary.json").read_text()


@pytest.mark.parametrize("preset", ["fig2", "growth"])
def test_cli_simulate_empty_output_grid_exit_2(tmp_path, capsys, preset):
    assert main(["simulate", "--preset", preset, "--grid", "0", "--output", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: the output grid is empty")


@pytest.mark.parametrize("argv", [["--preset", "fig2"], ["--preset", "fig3"], ["--input"]])
def test_cli_simulate_one_sample_grid_exit_2_before_integrating(tmp_path, capsys, monkeypatch, argv):
    # the convergence check needs two samples per trajectory, so a grid of
    # one is refused before any start is integrated or any file written
    if argv == ["--input"]:
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps({"system": "thomas_controlled", "horizon": 1.0, "n_out": 1}))
        argv = ["--input", str(cfg)]
    else:
        argv = [*argv, "--grid", "1", "--horizon", "1"]

    def never(*args, **kwargs):
        raise AssertionError("integrated a one-sample grid")

    monkeypatch.setattr(cli, "integrate_many", never)
    out = tmp_path / "out"
    assert main(["simulate", *argv, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: convergence classification needs at least two samples"
    )
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    ("1", "the growth-rate fit needs at least two samples (n_out >= 2)"),
    ("0", "the output grid is empty (n_out = 0)"),
])
def test_cli_simulate_short_growth_grid_exit_2_before_integrating(
    tmp_path, capsys, monkeypatch, grid, message
):
    def never(*args, **kwargs):
        raise AssertionError("integrated a growth run on a short grid")

    monkeypatch.setattr(cli, "volume_growth_rate", never)
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "growth", "--grid", grid, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
@pytest.mark.parametrize("route", ["config", "preset growth", "preset fig2"])
def test_cli_simulate_refuses_a_tolerance_that_is_not_positive(
    tmp_path, capsys, monkeypatch, tol, route
):
    def never(*args, **kwargs):
        raise AssertionError("integrated with a refused tolerance")

    monkeypatch.setattr(cli, "integrate_many", never)
    monkeypatch.setattr(cli, "volume_growth_rate", never)
    if route == "config":
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps(
            {"system": "thomas_controlled", "horizon": 1.0, "n_out": 11, "tol": tol}
        ))
        argv = ["--input", str(cfg)]
    else:
        argv = ["--preset", route.split()[1], f"--tol={tol!r}"]  # "=" keeps -1e-10 a value
    out = tmp_path / "out"
    assert main(["simulate", *argv, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: tol must be a finite number > 0, got {tol!r}\n"
    assert not out.exists()


def test_cli_simulate_growth_without_a_positive_volume_exit_2(tmp_path, capsys):
    # two equal generator columns span no area at any time
    code, out = _simulate_config(tmp_path, "flat", {
        "system": "lti_series", "params": {"zeta1": -0.5, "zeta2": -2.0}, "horizon": 2.0,
        "n_out": 21, "volume_generators": [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
    })
    assert code == 2
    assert capsys.readouterr().err.startswith("error: not enough positive volume samples")
    assert not (out / "summary.json").exists()


def test_cli_simulate_requires_config_or_preset():
    assert main(["simulate"]) == 2


def _simulate_config(tmp_path, name, cfg):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    return main(["simulate", "--input", str(path), "--output", str(out)]), out


def test_cli_simulate_integration_failure_exit_5(tmp_path):
    # remark2 from x1 = -3 blows up in finite time; the other starts decay
    starts = [[0.5, 0.5], [-3.0, 1.0], [1.0, 0.2], [0.1, 2.0]]
    base = {"system": "remark2", "horizon": 5.0, "n_out": 51}
    code, out = _simulate_config(tmp_path, "batch", {**base, "initial_conditions": starts})
    assert code == 5
    summary = json.loads((out / "summary.json").read_text())
    assert summary["integration_failures"] == 1
    assert summary["n_trajectories"] == 3
    assert summary["files"] == ["traj_01.csv", "traj_03.csv", "traj_04.csv"]
    assert not (out / "traj_02.csv").exists()
    for idx in (1, 3, 4):
        code, alone = _simulate_config(
            tmp_path, f"alone{idx}", {**base, "initial_conditions": [starts[idx - 1]]}
        )
        assert code == 0
        assert (out / f"traj_{idx:02d}.csv").read_bytes() == (alone / "traj_01.csv").read_bytes()


def test_cli_simulate_growth_step_size_underflow_exit_5(tmp_path, capsys):
    # the stiff cascade's IntegrationError is mapped by main
    cfg = {"system": "lti_series", "params": {"zeta1": 800.0}, "horizon": 1.0, "n_out": 11,
           "volume_generators": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}
    code, _ = _simulate_config(tmp_path, "growth", cfg)
    assert code == 5
    assert capsys.readouterr().err.startswith("error: step-size underflow while integrating")


def test_cli_simulate_nan_start_exit_5(tmp_path):
    base = {"system": "thomas_controlled", "horizon": 2.0, "n_out": 21}
    starts = [[float("nan"), 0.0, 0.0], [0.1, 0.2, 0.3]]
    code, out = _simulate_config(tmp_path, "batch", {**base, "initial_conditions": starts})
    assert code == 5
    summary = json.loads((out / "summary.json").read_text())
    assert summary["integration_failures"] == 1
    assert summary["files"] == ["traj_02.csv"]
    code, alone = _simulate_config(tmp_path, "alone", {**base, "initial_conditions": starts[1:]})
    assert code == 0
    assert (out / "traj_02.csv").read_bytes() == (alone / "traj_01.csv").read_bytes()


def test_cli_simulate_every_start_failing_exit_5_without_warnings(tmp_path):
    cfg = {"system": "lti", "params": {"A": [[1000.0]]}, "initial_conditions": [[1.0], [2.0]],
           "horizon": 100.0, "n_out": 11}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing start is reported by its status alone
        code, out = _simulate_config(tmp_path, "overflow", cfg)
    assert code == 5
    assert sorted(p.name for p in out.iterdir()) == ["summary.json"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_trajectories"] == 0
    assert summary["integration_failures"] == 2
    assert summary["all_converged"] is False
    assert summary["none_converged"] is True
    assert summary["files"] == []


def test_cli_simulate_shared_csv_passes_keep_numbers_and_per_row_bytes(tmp_path):
    # remark2 blows up from x1 = -3 and -4; the seven other files keep their
    # numbers, and their text is the per-row %.17g of the values they hold
    starts = [[0.5, 0.5], [-3.0, 1.0], [1.0, 0.2], [0.1, 2.0], [0.0, 0.0],
              [-4.0, 0.5], [0.3, -0.7], [-0.2, 0.9], [2.0, 2.0]]
    code, out = _simulate_config(tmp_path, "batch", {"system": "remark2", "horizon": 4.0,
                                                     "n_out": 81, "initial_conditions": starts})
    assert code == 5
    kept = [1, 3, 4, 5, 7, 8, 9]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["files"] == [f"traj_{i:02d}.csv" for i in kept]
    assert sorted(p.name for p in out.glob("traj_*")) == summary["files"]
    for i in kept:
        text = (out / f"traj_{i:02d}.csv").read_text()
        header, body = text.split("\n", 1)
        assert header == "t,x1,x2"
        rows = np.array([[float(v) for v in line.split(",")] for line in body.splitlines()])
        assert rows.shape == (81, 3)
        assert body == "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    code, alone = _simulate_config(tmp_path, "alone", {"system": "remark2", "horizon": 4.0,
                                                       "n_out": 81, "initial_conditions": starts[8:]})
    assert code == 0
    assert (out / "traj_09.csv").read_bytes() == (alone / "traj_01.csv").read_bytes()


@pytest.mark.parametrize("name", ["thomas_copy", "thomas_perturbed_copy"])
def test_cli_simulate_user_bounds_system_is_not_augmented_by_its_name(tmp_path, name):
    bounds = {"lo": [[-1.0, -1.0, 0.0], [0.0, -1.0, -1.0], [-1.0, 0.0, -1.0]],
              "hi": [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]}
    code, out = _simulate_config(tmp_path, name, {
        "system": "bounds", "name": name, "bounds": bounds, "jacobian_from": {"system": "thomas"},
        "initial_conditions": [[0.1, 0.2, 0.3], [0.5, -0.5, 0.5]], "horizon": 2.0, "n_out": 21,
    })
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["system"] == name and summary["n_trajectories"] == 2


def test_cli_outputs_are_byte_identical_across_runs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "lti_series",
                "params": {"zeta1": -1.5},
                "k": 2,
                "volume_generators": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]],
                "horizon": 5.0,
                "n_out": 51,
                "tol": 1e-10,
            }
        )
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--input", str(cfg), "--output", str(out1)]) == 0
    assert main(["simulate", "--input", str(cfg), "--output", str(out2)]) == 0
    assert (out1 / "volume.csv").read_bytes() == (out2 / "volume.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_cli_certify_series_with_explicit_kinds(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "lti_series",
                "params": {"zeta1": -1.5, "zeta2": -2.0},
                "k": 2,
                "kinds": ["l1", "linf", "l2"],
            }
        )
    )
    report_file = tmp_path / "rep.json"
    assert main(["certify", "--input", str(cfg), "--output", str(report_file)]) == 0
    report = json.loads(report_file.read_text())
    assert [c["measure"] for c in report["conditions"]] == ["L1", "Linf", "L2"]
    assert report["epsilon_star"] is not None


def test_cli_simulate_json_trajectories(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "thomas",
                "params": {"d": 0.193186},
                "initial_conditions": [[0.5, 0.25, 0.0]],
                "horizon": 1.0,
                "n_out": 11,
                "tol": 1e-10,
            }
        )
    )
    out = tmp_path / "out"
    assert main(["simulate", "--input", str(cfg), "--output", str(out), "--format", "json"]) == 0
    traj = json.loads((out / "traj_01.json").read_text())
    assert len(traj["times"]) == 11 and len(traj["states"][0]) == 3


def test_cli_certify_user_bounds_config(tmp_path, capsys):
    # exact trace cancellation supplied as compound-level bounds, with the
    # Jacobian borrowed from a built-in
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "system": "bounds",
                "bounds": {
                    "lo": [[-10.0, 0.0], [0.0, 0.0]],
                    "hi": [[-1.0, 0.0], [10.0, 10.0]],
                    "compound": {"2": {"lo": [[-1.0]], "hi": [[-1.0]]}},
                },
                "jacobian_from": {"system": "remark2"},
                "k": 2,
            }
        )
    )
    assert main(["certify", "--input", str(cfg)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_standard_initial_conditions_fixture_matches_constant():
    from kcontract import STANDARD_INITIAL_CONDITIONS

    on_disk = matio.load_matrix(files("kcontract") / "data" / "standard_initial_conditions.csv")
    assert np.array_equal(on_disk, STANDARD_INITIAL_CONDITIONS)


def test_cli_entry_point_subprocess(tmp_path):
    f = tmp_path / "I3.csv"
    _write_matrix(f, np.eye(3))
    proc = subprocess.run(
        [sys.executable, "-m", "kcontract.cli", "compound", "--input", str(f), "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert np.array_equal(matio.matrix_from_csv(proc.stdout), np.eye(3))
