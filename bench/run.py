"""equizeta benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload continuation --seed 1 --seconds 10 --trace 0

Workloads: continuation, direct-sweep, certify (see bench/README.md).  The
run is one process with one closed-loop caller: the next task starts when
the previous one returns.  Order of work:

1. set-up probes: SETUP_PROBES fresh interpreters each import equizeta and
   make one warm-up call; ``setup_s`` is their median;
2. the seeded task list is built and a few warm-up tasks (other inputs) run;
3. the timed phase runs the whole list once; ``--trace 1`` runs it traced
   first and untraced after, for the per-layer metrics and the overhead.
   task times are rescaled by calibrations sampled during the pass
   (bench/timing.py);
4. every output is checked against its reference (bench/checks.py).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics untraced, per-layer metrics
traced).  Full results, the input mix and the environment go to
bench/out/, and the spans of a traced run to a .npz file beside them.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
CHECK_WORKERS = 2  # processes for the continuation oracle, after timing


def _die(message: str, code: int) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(code)


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds from interpreter start to import plus one warm-up call, per probe.

    Returns the wall times and the same rescaled to reference speed by the
    calibration taken just before each probe and inside it just after
    (bench/timing.py).
    """
    from timing import CAL_REF_S, calibrate

    raw, norm = [], []
    for _ in range(SETUP_PROBES):
        before = min(calibrate() for _ in range(3))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "probe.py"), str(ROOT), workload],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            cal_line = proc.stdout.readline()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            _die("set-up probe timed out", 4)
        if line.strip() != "ready" or proc.returncode != 0:
            _die(f"set-up probe failed: {err.strip()[-500:]}", 4)
        after = float(cal_line)
        raw.append(t1 - t0)
        norm.append((t1 - t0) * CAL_REF_S / (0.5 * (before + after)))
    return raw, norm


def _comparable(out):
    if isinstance(out, Exception):
        return (type(out).__name__, str(out))
    if isinstance(out, list):  # selftest results: timings differ run to run
        return [(r.name, r.passed, r.detail) for r in out]
    return out


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q))


def environment() -> dict:
    import mpmath
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = res.stdout.strip() or None
    return {
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": sha,
    }


def input_mix(workload: str, tasks) -> dict:
    """Shares of the input properties a later optimisation may depend on."""
    import cmath

    from tracer import hyp2f1_region

    kinds = Counter(t.kind for t in tasks)
    mix: dict = {"tasks": len(tasks), "kinds": dict(sorted(kinds.items()))}
    regions: Counter = Counter()
    sigma_zero = 0
    for t in tasks:
        inp = t.inputs
        if t.kind == "continuation":
            sigma = complex(*inp["sigma"])
        elif t.kind == "fried-circle":
            sigma = 0j
        else:
            sigma_zero += t.kind.startswith("fried-")
            continue
        sigma_zero += sigma == 0
        r, alpha = inp["r0"], complex(*inp["alpha"])
        regions[hyp2f1_region(1.0, r, r + 1.0, cmath.exp(alpha - sigma))] += 1
        regions[hyp2f1_region(1.0, -r, 1.0 - r, cmath.exp(-alpha - sigma))] += 1
    if regions:
        total = sum(regions.values())
        mix["hyp2f1_region_share"] = {k: regions[k] / total
                                      for k in ("series", "pfaff", "inv_z", "logcase", "lerch")}
        mix["hyp2f1_calls_from_inputs"] = total
    mix["sigma_zero_share"] = sigma_zero / len(tasks)
    if workload == "direct-sweep":
        points = sum(t.inputs["steps"] for t in tasks if t.kind.startswith("sweep-"))
        evaluations = points + sum(1 for t in tasks if t.kind.startswith("trace-"))
        # Every point of a sweep shares its model and group element with the
        # other points of that sweep; no two tasks share them.
        mix["shared_model_element_share"] = points / evaluations
        mix["evaluations"] = evaluations
    return mix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("continuation", "direct-sweep", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equizeta" / "__init__.py").is_file():
        _die(f"no equizeta sources under {ROOT / 'src'}; run from a full checkout", 2)
    if args.seconds <= 0:
        _die("--seconds must be positive", 2)

    setup_raw, setup = measure_setup(args.workload)

    sys.path.insert(0, str(ROOT / "src"))
    import equizeta

    if Path(equizeta.__file__).resolve().parent != (ROOT / "src" / "equizeta").resolve():
        _die(f"imported equizeta from {equizeta.__file__}, not from this checkout", 2)

    import metrics
    import workloads
    from timing import run_pass

    lib = workloads.Library.load()
    tasks = workloads.make_tasks(lib, args.workload, args.seed, args.seconds)
    run_pass(workloads.warmup_tasks(lib, args.workload, args.seed))

    tracer = None
    traced = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        gc.collect()
        try:
            traced = run_pass(tasks, tracer)
        finally:
            tracer.uninstall()
    gc.collect()
    timed = run_pass(tasks)
    outs = timed.outputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    checker_errors = checks.checker_selftest(lib)
    if checker_errors:
        _die("checker self-test failed: " + "; ".join(checker_errors), 3)
    cont = [i for i, t in enumerate(tasks) if t.kind == "continuation"]
    refs = dict(zip(cont, checks.continuation_refs([tasks[i] for i in cont], CHECK_WORKERS)))
    problems = [checks.check(t, o, lib, refs.get(i)) for i, (t, o) in enumerate(zip(tasks, outs))]
    failed = sum(1 for p in problems if p)
    wrong = [i for i, p in enumerate(problems) if any(c == "reference" for c, _ in p)]
    mismatched = []
    if traced is not None:
        mismatched = [i for i, (a, b) in enumerate(zip(outs, traced.outputs))
                      if _comparable(a) != _comparable(b)]
    correct = not wrong and not mismatched

    n = len(tasks)
    end_to_end = {
        "tasks_per_s": n / timed.norm_wall_s,
        "task_ms.p50": 1e3 * _percentile(timed.norm_s, 50),
        "task_ms.p90": 1e3 * _percentile(timed.norm_s, 90),
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": sorted(setup)[len(setup) // 2],
    }
    wall_clock = {
        "tasks_per_s": n / timed.wall_s,
        "task_ms.p50": 1e3 * _percentile(timed.raw_s, 50),
        "task_ms.p90": 1e3 * _percentile(timed.raw_s, 90),
        "calibration_ms.p50": 1e3 * _percentile(timed.sampler.cal, 50),
        "calibration_samples": len(timed.sampler.cal),
        "setup_s": sorted(setup_raw)[len(setup_raw) // 2],
    }
    units = {m["name"]: m["unit"] for m in metrics.END_TO_END}
    if tracer is not None:
        suite_seconds: Counter = Counter()
        for task, out in zip(tasks, traced.outputs):
            if task.kind == "selftest" and isinstance(out, list):
                for res in out:
                    suite_seconds[res.name] += res.seconds
        reported = tracer.layer_metrics(suite_seconds, traced.sampler)
        reported["trace.tasks_per_s_ratio"] = timed.norm_wall_s / traced.norm_wall_s
        units.update({m["name"]: m["unit"] for m in metrics.per_layer()})
        reported = {m["name"]: reported[m["name"]] for m in metrics.per_layer()}
    else:
        reported = end_to_end

    by_category = Counter(c for p in problems for c in {c for c, _ in p})
    examples = {}
    for task, p in zip(tasks, problems):
        for cat, detail in p:
            examples.setdefault(cat, f"{task.kind} {json.dumps(task.inputs)}: {detail}")
    mix = input_mix(args.workload, tasks)
    env = environment()

    print(f"equizeta benchmark: workload {args.workload}, seed {args.seed}, "
          f"{n} tasks, trace {args.trace}")
    for name, value in end_to_end.items():
        print(f"  {name:<14} {value:>14.6g} {units[name]}")
    print(f"  {'task_ms n':<14} {n:>14d} samples")
    print("  wall clock, not rescaled: " + ", ".join(f"{k} {v:.6g}" for k, v in wall_clock.items()))
    print(f"  {'failed_frac':<14} {failed / n:>14.6g} ({failed} of {n}; "
          + ", ".join(f"{k} {v}" for k, v in sorted(by_category.items())) + ")")
    for cat, text in sorted(examples.items()):
        print(f"    e.g. [{cat}] {text[:300]}")
    if mismatched:
        print(f"  traced outputs differ from untraced on {len(mismatched)} tasks")
    print("  mix: " + json.dumps(mix))
    print("  env: " + json.dumps(env))
    if tracer is not None:
        for name, value in reported.items():
            print(f"  {name:<58} {value:>14.6g} {units[name]}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(OUT / f"{stem}.spans.npz")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "end_to_end": end_to_end,
        "wall_clock": wall_clock,
        "per_layer": reported if tracer is not None else None,
        "setup_samples_s": setup_raw, "setup_samples_rescaled_s": setup,
        "failed": failed, "failed_by_category": dict(by_category),
        "failure_examples": examples, "traced_mismatches": len(mismatched), "mix": mix,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": correct,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
