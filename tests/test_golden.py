"""CLI outputs and certificate dumps stay byte-identical to tests/golden/."""

import pytest

from tests.golden_cases import GOLDEN_DIR, all_cases


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return all_cases(tmp_path_factory.mktemp("golden"))


def test_golden_file_set_matches_cases(produced):
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(produced)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_DIR.iterdir()))
def test_output_is_byte_identical(produced, name):
    assert produced[name] == (GOLDEN_DIR / name).read_bytes()
