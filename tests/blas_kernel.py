"""The OpenBLAS kernel numpy runs on, and the goldens whose bytes depend on it.

numpy's bundled OpenBLAS chooses a kernel by CPU when it loads, unless
``OPENBLAS_CORETYPE`` names one.  A few outputs rest on BLAS products or on
``eigvalsh``, so their last digits follow the kernel.  Print the active core
with

    python -m tests.blas_kernel
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

# The goldens in tests/golden/ that differ by rounding when regenerated under
# OPENBLAS_CORETYPE=Haswell, Sandybridge or Prescott instead of SkylakeX, the
# kernel they were made on; README names the same files.
KERNEL_DEPENDENT_GOLDENS = (
    "certify_grid_exp_input_search.report.json",
    "certify_grid_thomas_controlled_l2.report.json",
    "certify_grid_thomas_controlled_search.report.json",
    "measure_l2_k4.txt",
    "simulate_fig2_finals.csv",
    "simulate_growth.txt",
    "simulate_growth_volume.csv",
    "variational_flow_k2.csv",
)


def openblas_core() -> str | None:
    """Name of the OpenBLAS core numpy loaded (such as ``SkylakeX``), or None
    when numpy bundles no scipy-openblas library that exports its core name."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


if __name__ == "__main__":
    print("OpenBLAS core:", openblas_core())
