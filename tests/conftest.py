import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from tests import ON_X86_64

settings.register_profile("suite", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("suite")

ROOT = Path(__file__).resolve().parents[1]


#: The kernel of the child processes that check the kernel-dependent
#: results on a kernel other than the suite's pinned one (tests/__init__.py).
#: Sandybridge needs only AVX, so every x86-64 runner can run it, and its BLAS
#: products round differently from Haswell's.
SECOND_KERNEL = "Sandybridge"


@pytest.fixture(scope="session")
def second_kernel_env():
    """The environment of a child process whose numpy runs OpenBLAS's
    ``SECOND_KERNEL`` (the kernel is chosen when numpy loads), with this
    checkout's ``src/`` and root on its path.  Skips off x86-64, without
    numpy's bundled OpenBLAS, or when OpenBLAS does not run that kernel when
    asked."""
    from tests.blas_kernel import openblas_core  # imports numpy; this module does not

    if not ON_X86_64 or openblas_core() is None:
        pytest.skip("needs numpy's bundled OpenBLAS on x86-64")
    env = dict(os.environ, OPENBLAS_CORETYPE=SECOND_KERNEL)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    code = "from tests.blas_kernel import openblas_core; print(openblas_core())"
    core = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if core.stdout.strip() != SECOND_KERNEL:
        pytest.skip(f"OpenBLAS runs {core.stdout.strip()!r}, not {SECOND_KERNEL}, when asked for it")
    return env
