"""The selftest transcript: each suite's name, verdict and detail string.

tests/data/selftest_transcripts.json holds, for each recorded seed, the
(name, passed, detail) of every suite that ``run_selftest(seed)`` runs, in
order.  The detail strings carry library floats ("cutoff periods
0.333333333, ...", "worst gap ..."), so this pins those digits and the
samples behind them; the timings are left out.  Regenerate the file only for
an intended change of the transcript:

    PYTHONPATH=src python tests/test_selftest_transcript.py > t.json && mv t.json tests/data/selftest_transcripts.json
"""

import json
import sys
from pathlib import Path

import pytest

from equizeta.selftest import run_selftest

RECORD = Path(__file__).parent / "data" / "selftest_transcripts.json"
SEEDS = (0, 1, 2, 3, 4, 5, 7)


def transcript(seed):
    return [[r.name, r.passed, r.detail] for r in run_selftest(seed)]


@pytest.mark.parametrize("seed", SEEDS)
def test_selftest_reproduces_its_transcript(seed):
    recorded = json.loads(RECORD.read_text(encoding="utf-8"))
    assert transcript(seed) == recorded[str(seed)]


if __name__ == "__main__":
    json.dump({str(seed): transcript(seed) for seed in SEEDS}, sys.stdout, indent=1)
    sys.stdout.write("\n")
