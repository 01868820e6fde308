import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("suite", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("suite")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def haswell_env():
    """The environment of a child process whose numpy runs OpenBLAS's Haswell
    kernel (the kernel is chosen when numpy loads), with this checkout's
    ``src/`` and root on its path.  Skips off x86-64, without numpy's
    bundled OpenBLAS, or when OpenBLAS does not run Haswell when asked."""
    from tests.blas_kernel import openblas_core  # imports numpy; this module does not

    if platform.machine().lower() not in ("x86_64", "amd64") or openblas_core() is None:
        pytest.skip("needs numpy's bundled OpenBLAS on x86-64")
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    code = "from tests.blas_kernel import openblas_core; print(openblas_core())"
    core = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if core.stdout.strip() != "Haswell":
        pytest.skip(f"OpenBLAS runs {core.stdout.strip()!r}, not Haswell, when asked for it")
    return env
