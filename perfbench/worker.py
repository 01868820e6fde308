"""One benchmark process: set up a workload in a fresh interpreter, then run it.

    python3 perfbench/worker.py --workload NAME --seed N --mode measure|trace \
        --seconds S --workdir DIR [--start I] [--spans FILE]

Set-up imports kcontract from ``src/`` of this checkout, generates the seeded
inputs and runs one warm-up op; the process then reports the
``time.monotonic()`` at which it was ready for its first timed op, and a
host speed probe taken right then (``hostspeed.py``).

* ``measure``: closed loop, one client, for ``S`` seconds of wall time,
  cycling through the input pool from item ``I``; each op is timed alone,
  between two host speed probes, and its output checked after the clock
  stops.
* ``trace``: one pass over the input pool, then each item once untraced and
  once with every layer traced; reports per-layer metrics of the traced ops
  and the ratio of traced to untraced op time.

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MAX_REPORTED_FAILURES = 3


def _import_library():
    sys.path.insert(0, str(ROOT / "src"))
    import kcontract

    where = Path(kcontract.__file__).resolve().parent
    if where != ROOT / "src" / "kcontract":
        raise ImportError(f"kcontract imported from {where}, not from this checkout's src/")
    return kcontract


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, read through its own API."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy as np

    numba = importlib.util.find_spec("numba") is not None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "numba_importable": numba,
        "kernel_lane": "numba" if numba else "numpy",
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


class Loop:
    """Runs ops of one workload and keeps the failure tally."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def run(self, i: int):
        """Time one op on pool item ``i``; return (seconds, output, error)."""
        t0 = time.perf_counter()
        try:
            out, err = self.wl.op(self.wl.pool[i]), None
        except Exception:  # a failed op is counted, the loop goes on
            out, err = None, traceback.format_exc()
        return time.perf_counter() - t0, out, err

    def settle(self, i: int, out, err) -> None:
        """Check one op's output (outside any timed region) and count it."""
        if err is None:
            try:
                self.wl.check(i, out)
            except Exception:
                err = traceback.format_exc()
        self.attempted += 1
        if err is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"{self.wl.name} op on item {i} failed:\n{err}", file=sys.stderr)


def _per_layer(tracer, kcontract, untraced_s: float, traced_s: float) -> dict:
    values = {}
    for layer, stats in tracer.layer_stats().items():
        values[f"{layer}.calls"] = stats["calls"]
        values[f"{layer}.self_ms"] = stats["self_ms"]
    values.update(tracer.counts)
    values["certificates.evals_per_verdict"] = tracer.evals_per_verdict()
    # process-lifetime table statistics, warm-up included, as a CLI call pays them
    info = kcontract.compounds._add_compound_entries.cache_info()
    lookups = info.hits + info.misses
    values["compounds.entry_table.misses"] = info.misses
    values["compounds.entry_table.hit_ratio"] = info.hits / lookups if lookups else 0.0
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("measure", "trace"), required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    kcontract = _import_library()
    # this script's directory is on sys.path
    from hostspeed import probe_ms
    from workloads import WORKLOADS

    loop = Loop(WORKLOADS[args.workload](args.seed, Path(args.workdir)))
    _, warm_out, warm_err = loop.run(0)
    ready = time.monotonic()
    result = {"ready": ready, "probe_ms": probe_ms()}
    loop.settle(0, warm_out, warm_err)
    pool = len(loop.wl.pool)

    if args.mode == "measure":
        latencies, probes = [], []
        i = args.start
        while time.monotonic() - ready < args.seconds:
            before = probe_ms()
            seconds, out, err = loop.run(i % pool)
            probes.append(0.5 * (before + probe_ms()))
            latencies.append(seconds * 1e3)
            loop.settle(i % pool, out, err)
            i += 1
        result.update(latencies_ms=latencies, probes_ms=probes, next=i)
    else:
        from tracing import Tracer

        # A first pass creates every output file, so the timed pairs below
        # compare like with like; each item then runs untraced and traced.
        for i in range(1, pool):
            loop.settle(i, *loop.run(i)[1:])
        tracer = Tracer()
        untraced = traced = 0.0
        for i in range(pool):
            seconds, out, err = loop.run(i)
            untraced += seconds
            loop.settle(i, out, err)
            with tracer.recording():
                seconds, out, err = loop.run(i)
            traced += seconds
            loop.settle(i, out, err)
        result["per_layer"] = _per_layer(tracer, kcontract, untraced, traced)
        result["traced_ops"] = pool
        if args.spans:
            tracer.write(args.spans)

    result.update(
        attempted=loop.attempted,
        failed=loop.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        environment=_environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
