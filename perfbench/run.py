"""Benchmark of kcontract: four closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every op runs in a fresh worker interpreter
(``worker.py``) that imports kcontract from this checkout's ``src/``, with
BLAS pinned to one thread so one process uses one core.

``--trace 0`` runs ``SEGMENTS`` measuring workers one after another, each
for a share of ``--seconds``, and pools their ops.  Each worker's set-up,
from process spawn to its readiness for the first op, is one set-up sample,
so the samples are spread over the whole run; ``setup_s`` is their median.
Every time is normalised to host speed (``hostspeed.py``).  ``--trace 1``
starts one worker that runs the workload's input pool untraced and then
traced.  The metric names and units come from ``BENCHMARK.json``.

Standard output ends with a run record line and then the result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import PROBE_REF_MS, probe_ms  # this script's directory is on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SEGMENTS = 10  # measuring workers per run, one set-up sample each
TAIL_BEYOND = 10  # the tail percentile leaves this many ops above it
WORKER_GRACE_S = 150.0
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _git_commit():
    """Commit of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _spawn(args, mode: str, seconds: float, start: int) -> dict:
    """Run one worker to completion; return its result with ``setup_s`` added."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--seconds", str(seconds), "--start", str(start), "--workdir", workdir,
        "--spans", str(WORK / f"spans-{args.workload}.tsv"),
    ]
    try:
        probe = probe_ms()
        t0 = time.monotonic()
        proc = subprocess.run(
            cmd, env={**os.environ, **PINNED_ENV}, capture_output=True, text=True,
            timeout=seconds + WORKER_GRACE_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish within {exc.timeout:.0f} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - t0
    # probes taken just before the spawn and just after the worker was ready
    result["setup_probe_ms"] = 0.5 * (probe + result["probe_ms"])
    return result


def _measure(args) -> dict:
    """Measure in ``SEGMENTS`` consecutive workers and pool what they report.

    Each worker continues the pool cycle where the previous one stopped.
    """
    probe_ms()  # the first pass pays numpy's lazy initialisation
    parts, start = [], 1
    for _ in range(SEGMENTS):
        part = _spawn(args, "measure", args.seconds / SEGMENTS, start)
        start = part["next"]
        parts.append(part)
    return {
        "setups_s": [part["setup_s"] for part in parts],
        "setup_probes_ms": [part["setup_probe_ms"] for part in parts],
        "latencies_ms": [x for part in parts for x in part["latencies_ms"]],
        "probes_ms": [x for part in parts for x in part["probes_ms"]],
        "attempted": sum(part["attempted"] for part in parts),
        "failed": sum(part["failed"] for part in parts),
        "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        "environment": parts[0]["environment"],
    }


def _normalised(raw: list[float], probes: list[float]) -> list[float]:
    return [x * PROBE_REF_MS / p for x, p in zip(raw, probes)]


def _end_to_end(res: dict) -> tuple[dict, dict]:
    setups = _normalised(res["setups_s"], res["setup_probes_ms"])
    lat = sorted(_normalised(res["latencies_ms"], res["probes_ms"]))
    raw = sorted(res["latencies_ms"])
    n = len(lat)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} timed ops; the tail percentile needs more than {TAIL_BEYOND}")
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / (sum(lat) / 1e3),
        "op_ms_p50": statistics.median(lat),
        "op_ms_tail": lat[n - TAIL_BEYOND - 1],
        "success_rate": 1.0 - res["failed"] / res["attempted"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    record = {
        "timed_ops": n,
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "error_rate": res["failed"] / res["attempted"],
        "probe_ms_p50": statistics.median(res["probes_ms"]),
        "raw_op_ms_p50": statistics.median(raw),
        "raw_op_ms_tail": raw[n - TAIL_BEYOND - 1],
        "raw_setup_s": statistics.median(res["setups_s"]),
    }
    return values, record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        if args.trace:
            res = _spawn(args, "trace", args.seconds, 1)
            values = res["per_layer"]
            record = {"traced_ops": res["traced_ops"],
                      "spans_file": str((WORK / f"spans-{args.workload}.tsv").relative_to(ROOT))}
            wanted = spec["per_layer"]
        else:
            res = _measure(args)
            values, record = _end_to_end(res)
            wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise BenchError(f"no value for metrics {missing}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    run_record = {
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        **res["environment"],
        **record,
    }
    print(json.dumps({"run_record": run_record}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
