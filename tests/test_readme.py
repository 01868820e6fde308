import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_usage_runs():
    # the README's python block must run against the current API and print
    # the verdicts its comments promise
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert "  verdict: PASS   (k = 2, method = analytic-bounds)" in lines
    assert lines[-1] == "pass"


def test_readme_config_table_lists_the_readers_keys():
    # one row per key of the reader's table, with the same JSON type
    from kcontract.cli import _KEYS

    section = README.read_text().split("### Config keys", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, re.M)
    assert [key for key, _ in rows] == list(_KEYS)
    assert {key: kind for key, kind in rows} == {key: spec[0] for key, spec in _KEYS.items()}
