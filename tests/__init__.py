"""The test suite.  On x86-64 its numpy runs OpenBLAS's Haswell kernel: the
kernel is chosen when numpy loads, so it is pinned here, before any test
module imports numpy, for the suite and for ``python -m tests.*``.  An
``OPENBLAS_CORETYPE`` already in the environment is kept, so a child
process can ask for another kernel."""

import os
import platform
import sys

PINNED_KERNEL = "Haswell"
ON_X86_64 = platform.machine().lower() in ("x86_64", "amd64")
#: Whether something (a pytest plugin, say) loaded numpy before the pin.
NUMPY_LOADED_FIRST = "numpy" in sys.modules
if ON_X86_64:
    os.environ.setdefault("OPENBLAS_CORETYPE", PINNED_KERNEL)
