"""Self-checks of the benchmark itself.

    python3 bench/selfcheck.py            # checker and BENCHMARK.json, ~1 s
    python3 bench/selfcheck.py --counts   # plus: traced counts repeat exactly

The first part feeds the checker real outputs, which must pass, and
perturbed ones, which must count as failed, and compares BENCHMARK.json
with bench/metrics.py.  ``--counts`` runs ``run.py --trace 1`` twice per
workload with one seed and requires every count metric (calls, terms,
errors, hyp2f1 route counts and the two ratios of counts) to repeat
exactly, so that a later change may cite a count as evidence.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".terms", ".errors", "_ratio")


def is_count(name: str) -> bool:
    return (name.endswith(COUNT_SUFFIXES) or ".calls." in name) and not name.startswith("trace.")


def traced_metrics(workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", action="store_true")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    problems = checks.checker_selftest(workloads.Library.load())
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    if committed != metrics.benchmark_json():
        problems.append("BENCHMARK.json differs from bench/metrics.py")
    for p in problems:
        print("FAIL", p)
    print(f"checker and BENCHMARK.json: {'FAIL' if problems else 'ok'}")

    if args.counts:
        for workload in workloads.WORKLOADS:
            first = traced_metrics(workload, args.seed, args.seconds)
            second = traced_metrics(workload, args.seed, args.seconds)
            names = [n for n in first if is_count(n)]
            differ = [n for n in names if first[n] != second[n]]
            for n in differ:
                problems.append(f"{workload}: {n} {first[n]} then {second[n]}")
            print(f"{workload}: {len(names)} count metrics, {len(differ)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
