"""Byte-for-byte CLI contract: stdout and exit code of fixed commands.

tests/data/cli_golden.json holds one record per command (argv, exit code,
stdout), covering every model under eval, sweep, fried and trace and the
exit codes 0-4.  ``selftest`` is left out because it prints timings.
Regenerate the file only for an intended output change.  The script reads
the records it replays from the file, so write the new one beside it first:

    PYTHONPATH=src python tests/test_cli_golden.py > golden.json && mv golden.json tests/data/cli_golden.json
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from equizeta.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize(
    "record", RECORDS, ids=[f"{i:02d}-{r['argv'][0]}-{r['argv'][2]}" for i, r in enumerate(RECORDS)]
)
def test_cli_output_matches_golden(record, monkeypatch):
    monkeypatch.delenv("EQUIZETA_TOL", raising=False)
    code, out = run(record["argv"])
    assert code == record["code"]
    assert out == record["stdout"]


AUTO = [(i, r) for i, r in enumerate(RECORDS) if r["argv"][0] in ("eval", "sweep") and "--method" not in r["argv"]]


@pytest.mark.parametrize("record", [r for _, r in AUTO], ids=[f"{i:02d}" for i, _ in AUTO])
def test_auto_prints_what_closed_prints(record, monkeypatch):
    # --method auto, the default, takes the closed form or continuation: the bytes of --method closed.
    monkeypatch.delenv("EQUIZETA_TOL", raising=False)
    assert run(record["argv"] + ["--method", "closed"]) == (record["code"], record["stdout"])


if __name__ == "__main__":
    os.environ.pop("EQUIZETA_TOL", None)
    fresh = []
    for record in RECORDS:
        code, out = run(record["argv"])
        fresh.append({"argv": record["argv"], "code": code, "stdout": out})
    json.dump(fresh, sys.stdout, indent=1)
    sys.stdout.write("\n")
