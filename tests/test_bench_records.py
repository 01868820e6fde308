"""The committed performance trajectory: every ``BENCH_*.json`` at the
repository root parses, names only workloads and end-to-end metrics that
``BENCHMARK.json`` declares, and alternates which side of a pair runs first."""

import json
import math
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_a_perf_trajectory_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_names_only_declared_workloads_and_metrics(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    record = json.loads(path.read_text())
    assert isinstance(record["machine"], dict) and record["machine"]
    assert record["pairs"]
    for pair in record["pairs"]:
        assert pair["workload"] in workloads
        assert isinstance(pair["seed"], int) and pair["seconds"] > 0
        assert pair["first"] in SIDES
        for side in SIDES:
            values = pair[side]
            assert values and set(values) <= metrics
            assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_pairs_alternate_their_first_side(path):
    # within one (workload, seed) the side that runs first alternates, so a
    # drift of the host's speed during the runs favours neither side
    firsts = defaultdict(list)
    for pair in json.loads(path.read_text())["pairs"]:
        firsts[pair["workload"], pair["seed"]].append(pair["first"])
    for key, order in firsts.items():
        assert all(a != b for a, b in zip(order, order[1:])), key
