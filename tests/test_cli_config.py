"""The certify and simulate config reader: every bad config exits 2 with a
message that names its key, before anything is built or written."""

import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcontract import cli, indexing
from kcontract.cli import main

SINGLE = {"system": "thomas", "k": 2}
SERIES = {"system": "lti_series", "params": {"zeta1": -0.5}, "k": 2}
EXP_INPUT = {"mode": "exp_input", "system": "thomas_controlled", "alpha": -0.1, "k": 2}
BOUNDS = {"system": "bounds", "bounds": {"lo": [[-2.0, 0.0], [0.0, -2.0]], "hi": [[-1.0, 0.0], [0.0, -1.0]]},
          "k": 1}
TRAJECTORIES = {"system": "thomas", "initial_conditions": [[0.1, 0.2, 0.3]], "horizon": 1.0, "n_out": 11}
GROWTH = {"system": "lti_series", "params": {"zeta1": -0.5}, "horizon": 1.0, "n_out": 11,
          "volume_generators": [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]}


def _run(tmp: Path, command: str, cfg, *flags) -> tuple[int, str, Path]:
    """Run certify or simulate on ``cfg``; return the exit code, stderr and
    the path that the command would write (its report or output directory)."""
    src = tmp / "cfg.json"
    src.write_text(json.dumps(cfg))
    out = tmp / ("report.json" if command == "certify" else "out")
    err = tmp / "err.txt"
    with open(err, "w") as stream, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with redirect_stderr(stream), redirect_stdout(StringIO()):
            code = main([command, "--input", str(src), "--output", str(out), *flags])
    return code, err.read_text(), out


# Each config ran, crashed or exited with the wrong code before the reader.
PROBES = [
    ("certify", {**SINGLE, "params": {"zz": 1}}, "params.zz"),
    ("simulate", {**TRAJECTORIES, "params": {"zz": 1}}, "params.zz"),
    ("certify", [SINGLE], "JSON object"),
    ("simulate", [TRAJECTORIES], "JSON object"),
    ("certify", {**SERIES, "params": {"zeta1": None}}, "params.zeta1"),
    ("simulate", {**GROWTH, "params": {"zeta1": None}}, "params.zeta1"),
    ("certify", {**SINGLE, "k": 2.5}, "k must be an integer"),
    ("certify", {**SINGLE, "k": True}, "k must be an integer"),
    ("simulate", {**TRAJECTORIES, "n_out": 3.7}, "n_out must be an integer"),
    ("certify", {**SINGLE, "params": {"d": "x"}}, "params.d"),
    ("simulate", {**TRAJECTORIES, "params": {"d": "x"}}, "params.d"),
    ("certify", {k: v for k, v in EXP_INPUT.items() if k != "alpha"}, "alpha is required"),
    ("simulate", {**TRAJECTORIES, "tol": None}, "tol must be a finite number > 0, got None"),
    ("simulate", {**TRAJECTORIES, "tol": True}, "tol must be a finite number > 0, got True"),
    ("certify", {**SINGLE, "kind": 1}, "kind must be"),
    ("certify", {**SINGLE, "method": "grid", "grid": 3.5}, "grid must be an integer"),
    ("simulate", {**TRAJECTORIES, "horizon": "5"}, "horizon must be"),
    ("simulate", {**TRAJECTORIES, "horizon": math.inf}, "horizon must be"),
    ("certify", {**SINGLE, "knd": "l1"}, "knd"),
    ("certify", {**SINGLE, "params": [1]}, "params must be an object"),
    ("simulate", {**TRAJECTORIES, "initial_conditions": {"a": 1}}, "initial_conditions must be"),
    ("certify", {**SERIES, "kinds": "l1"}, "kinds must be"),
    ("certify", {**SERIES, "mode": "seris"}, "unknown mode 'seris'"),
    ("certify", {**EXP_INPUT, "g_bound": "1"}, "g_bound must be"),
    ("simulate", {**TRAJECTORIES, "detect_tol": -1}, "detect_tol must be"),
    ("certify", {**BOUNDS, "bounds": {**BOUNDS["bounds"], "compound": {"2": [1]}}}, "bounds.compound.2"),
    ("certify", {**BOUNDS, "domain": [1, 2]}, "domain must be an object"),
    ("simulate", {**TRAJECTORIES, "domain": [1, 2]}, "domain must be an object"),
    ("certify", {**BOUNDS, "jacobian_from": ["remark2"]}, "jacobian_from must be"),
    ("certify", {**BOUNDS, "jacobian_from": {"system": "remark2", "k": 2}}, "jacobian_from.k"),
    # a bool inside a matrix or list read as 0 or 1
    ("certify", {"system": "lti", "params": {"A": [[True, 0], [0, -1.0]]}, "k": 1}, "params.A"),
    ("certify", {**BOUNDS, "bounds": {**BOUNDS["bounds"], "lo": [[True, 0.0], [0.0, -2.0]]}}, "bounds.lo"),
    ("simulate", {**TRAJECTORIES, "initial_conditions": [[True, 0.2, 0.3]]}, "initial_conditions"),
    ("simulate", {**TRAJECTORIES, "initial_conditions": [0.1, False, 0.3]}, "initial_conditions"),
    ("simulate", {**GROWTH, "volume_generators": [[True, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
     "volume_generators"),
    ("certify", {**BOUNDS, "domain": {"lo": [True, 0.0], "hi": [1.0, 1.0]}}, "domain.lo"),
    # a missing matrix parameter was named by the factory's argument (b)
    ("certify", {"system": "lti_series", "params": {"A": [[-1.0]], "C": [[-2.0]]}, "k": 1},
     "missing a required argument: 'B'"),
    # a key that only another mode of the same command reads was ignored
    ("certify", {**SERIES, "kind": "linf"}, "config key 'kind' is not read in series mode"),
    ("certify", {**SINGLE, "kinds": ["linf"]}, "config key 'kinds' is not read in single mode"),
    ("simulate", {**GROWTH, "initial_conditions": [[0.1, 0.2, 0.3, 0.4]]},
     "config key 'initial_conditions' is not read in growth mode"),
    # a key that only the built systems read, in a mode that builds a cascade
    ("certify", {**SERIES, "name": "cascade"}, "config key 'name' is not read in series mode"),
    ("certify", {**SERIES, "domain": {"lo": [0.0] * 4, "hi": [1.0] * 4}},
     "config key 'domain' is not read in series mode"),
    ("simulate", {**GROWTH, "name": "cascade"}, "config key 'name' is not read in growth mode"),
    # refusals past the key reader, which no other case reached
    ("certify", {"system": "thomas", "k": 4}, "k must satisfy 1 <= k <= 3, got 4"),
    ("certify", {"system": "thomas", "mode": "series"}, "system 'thomas' does not run in series mode"),
    ("certify", {"system": "bounds"}, "system 'bounds' requires a 'bounds' object"),
    ("certify", {**BOUNDS, "jacobian_from": {"system": "thomas"}},
     "jacobian_from system dimension does not match bounds"),
    # compound-level bounds of the wrong size passed (1 x 1 at k = 2 of a 3-state
    # system, against a worst case of +8 from the entry bounds alone), and an
    # order above the dimension was read and ignored
    ("certify", {"system": "bounds", "k": 2, "bounds": {
        "lo": [[-1, 0, 0], [0, -1, 0], [0, 0, -1]], "hi": [[-1, 5, 5], [5, -1, 5], [5, 5, -1]],
        "compound": {"2": {"lo": [[-3]], "hi": [[-3]]}}}}, "compound bounds for k=2 must be C(3, k)-square"),
    ("certify", {**BOUNDS, "bounds": {**BOUNDS["bounds"], "compound": {"3": {"lo": [[-3]], "hi": [[-3]]}}}},
     "compound bounds for k=3 must be C(2, k)-square, 1 <= k <= 2"),
]


def _never(*args, **kwargs):
    raise AssertionError("integrated a refused config")


@pytest.mark.parametrize("command, cfg, names", PROBES)
def test_cli_refuses_a_bad_config_key_by_name(tmp_path, monkeypatch, command, cfg, names):
    monkeypatch.setattr(cli, "integrate_many", _never)
    monkeypatch.setattr(cli, "volume_growth_rate", _never)
    code, err, out = _run(tmp_path, command, cfg)
    assert code == 2
    assert err.startswith("error: ") and names in err and "Traceback" not in err
    assert not out.exists()


def test_cli_accepts_a_key_that_only_the_other_command_reads(tmp_path):
    for command, cfg, key in (("certify", SERIES, "horizon"), ("simulate", GROWTH, "k")):
        code, err, _ = _run(tmp_path, command, {**cfg, key: 2})
        assert code in (0, 1) and err == ""


def test_cli_simulate_refuses_an_infinite_horizon_flag_before_integrating(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "integrate_many", _never)
    out = tmp_path / "out"
    argv = ["simulate", "--preset", "fig2", "--horizon", "inf", "--grid", "11", "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: horizon must be a finite number > 0, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("preset", ["fig2", "growth"])
def test_cli_simulate_refuses_an_output_grid_over_the_dense_budget(tmp_path, capsys, monkeypatch, preset):
    # 10**5 samples of the states take about 22 MB (fig2) and 6 MB (growth),
    # over a budget lowered to 1 MiB; a grid over the real budget would
    # have raised MemoryError past main, a traceback with exit 1
    monkeypatch.setattr(indexing, "MAX_DENSE_BYTES", 1 << 20)
    out = tmp_path / "out"
    argv = ["simulate", "--preset", preset, "--horizon", "1", "--grid", "100000", "--output", str(out)]
    assert main(argv) == 3
    assert "dense output grid" in capsys.readouterr().err
    assert not out.exists()


def test_cli_simulate_refuses_both_a_preset_and_a_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TRAJECTORIES))
    out = tmp_path / "out"
    assert main(["simulate", "--preset", "growth", "--input", str(cfg), "--output", str(out)]) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# The exit-code contract, fuzzed one key at a time
# ---------------------------------------------------------------------------

#: A bad value of each kind: wrong JSON types, a bool, a non-integral float,
#: NaN and the infinities, and the boundaries 0 and -1.
BAD_VALUES = ["x", [], {}, None, [[1.0]], True, 2.5, math.nan, math.inf, -math.inf, 0, -1]
MISSING, UNKNOWN = object(), object()


def _finite_horizon(integrate):
    """``integrate`` (an integrator called with the system, the starts and
    the time span or horizon) that refuses to start on an infinite horizon,
    which the reader refuses before anything is integrated."""

    def guarded(sysm, starts, span, *args, **kwargs):
        assert np.isfinite(span).all(), f"integrating to {span}"
        return integrate(sysm, starts, span, *args, **kwargs)

    return guarded


@st.composite
def _valid_configs(draw):
    """A valid certify or simulate config, its values drawn from the key table."""
    command = draw(st.sampled_from(["certify", "simulate"]))
    if command == "certify":
        cfg = dict(draw(st.sampled_from([SINGLE, SERIES, EXP_INPUT, BOUNDS])))
        cfg["method"] = draw(st.sampled_from(cli._KEYS["method"][1]))
        cfg["grid"] = draw(st.integers(1, 3))
        if "mode" not in cfg and cfg["system"] != "lti_series":
            cfg["kind"] = draw(st.sampled_from(["l1", "l2", "linf"]))
        if cfg["system"] == "thomas":
            cfg["system"] = draw(st.sampled_from(["thomas", "thomas_controlled", "remark2"]))
    else:
        cfg = dict(draw(st.sampled_from([TRAJECTORIES, GROWTH])))
        if "volume_generators" not in cfg:
            cfg["system"] = draw(st.sampled_from(["thomas", "thomas_controlled", "thomas_perturbed"]))
            cfg["detect_tol"] = draw(st.sampled_from([0.0, 1e-6, 1e-3]))
        cfg["n_out"] = draw(st.integers(2, 11))
        cfg["tol"] = draw(st.sampled_from([1e-10, 1e-6]))
    return command, cfg


@settings(max_examples=300)
@given(
    _valid_configs(),
    st.sampled_from([key for key in cli._KEYS if "<k>" not in key]),
    st.sampled_from([*BAD_VALUES, MISSING, UNKNOWN]),
)
def test_cli_exit_codes_hold_for_a_config_with_one_bad_key(drawn, key, bad):
    command, cfg = drawn
    cfg = json.loads(json.dumps(cfg))  # a deep copy
    *parents, name = key.split(".")
    target = cfg
    for parent in parents:
        target = target.setdefault(parent, {})
    if bad is MISSING:
        target.pop(name, None)
    elif bad is UNKNOWN:
        target[name + "_typo"] = 1
    else:
        target[name] = bad
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        cli, "integrate_many", _finite_horizon(cli.integrate_many)
    ), mock.patch.object(cli, "volume_growth_rate", _finite_horizon(cli.volume_growth_rate)):
        code, err, out = _run(Path(tmp), command, cfg)
        assert code in range(6), err
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and not out.exists()
