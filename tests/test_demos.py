"""Each demo prints the stdout recorded in tests/data/demo_stdout.json.

The demos run in-process, as ``python demos/NAME.py`` would run them.
Regenerate the file only for an intended output change:

    PYTHONPATH=src python tests/test_demos.py > tests/data/demo_stdout.json
"""

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
RECORDED = Path(__file__).parent / "data" / "demo_stdout.json"


def run(path: Path) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(path), run_name="__main__")
    return buf.getvalue()


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_stdout_matches_record(path):
    assert run(path) == json.loads(RECORDED.read_text(encoding="utf-8"))[path.name]


if __name__ == "__main__":
    json.dump({path.name: run(path) for path in DEMOS}, sys.stdout, indent=1)
    sys.stdout.write("\n")
