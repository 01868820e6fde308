import json
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from kcontract import matio
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
], ids=["float rows", "boolean rows", "string rows", "negative shape", "nested entries"])
def test_cli_compound_malformed_matrix_json_exit_2(tmp_path, capsys, fields):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(fields))
    assert main(["compound", "--input", str(f), "--k", "1"]) == 2
    assert "malformed matrix JSON" in capsys.readouterr().err


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


def test_cli_simulate_refuses_a_domain_of_another_dimension(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "bounds", "bounds": {"lo": [[-1.0, 0.0], [0.0, -1.0]], "hi": [[-1.0, 0.0], [0.0, -1.0]]},
        "domain": {"lo": [-1.0] * 3, "hi": [1.0] * 3}, "initial_conditions": [[0.1, 0.2]],
    }))
    assert main(["simulate", "--input", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "domain dimension does not match bounds" in capsys.readouterr().err


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
    from kcontract.systems import standard_initial_conditions_file

    on_disk = matio.load_matrix(standard_initial_conditions_file())
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
