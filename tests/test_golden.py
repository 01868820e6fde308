"""CLI outputs and certificate dumps stay byte-identical to tests/golden/."""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tests.blas_kernel import KERNEL_DEPENDENT_GOLDENS, openblas_core
from tests.golden_cases import GOLDEN_DIR, all_cases

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return all_cases(tmp_path_factory.mktemp("golden"))


def test_golden_file_set_matches_cases(produced):
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(produced)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_output_is_byte_identical(produced, name):
    assert produced[name] == (GOLDEN_DIR / name).read_bytes()


def test_readme_names_the_kernel_dependent_goldens():
    readme = " ".join((ROOT / "README.md").read_text().split())
    count = len(list(GOLDEN_DIR.iterdir()))
    assert f"{len(KERNEL_DEPENDENT_GOLDENS)} of the {count} goldens" in readme
    section = readme.split("Under `OPENBLAS_CORETYPE=Haswell`")[1].split("The other")[0]
    names = re.findall(r"`([\w.]+\.(?:json|txt|csv))`", section)
    assert sorted(names) == sorted(KERNEL_DEPENDENT_GOLDENS)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or openblas_core() is None,
    reason="needs numpy's bundled OpenBLAS on x86-64",
)
def test_only_the_named_goldens_depend_on_the_blas_kernel(tmp_path):
    # regenerate every golden on OpenBLAS's Haswell kernel, in a child process
    # since the kernel is chosen when numpy loads
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    code = "from tests.blas_kernel import openblas_core; print(openblas_core())"
    core = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if core.stdout.strip() != "Haswell":
        pytest.skip(f"OpenBLAS runs {core.stdout.strip()!r}, not Haswell, when asked for it")
    subprocess.run(
        [sys.executable, "-m", "tests.golden_cases", str(tmp_path)],
        env=env,
        cwd=ROOT,
        check=True,
        capture_output=True,
    )
    names = sorted(p.name for p in GOLDEN_DIR.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    differ = {n for n in names if (GOLDEN_DIR / n).read_bytes() != (tmp_path / n).read_bytes()}
    assert differ <= set(KERNEL_DEPENDENT_GOLDENS)
