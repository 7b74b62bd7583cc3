"""Metric names, units and directions; BENCHMARK.json lists the same.

``python3 bench/metrics.py`` prints the BENCHMARK.json this module implies,
and the benchmark's self-check compares it with the committed file.
"""

from __future__ import annotations

import json

# Public functions timed in the traced run, as <module>.<function>.
FUNCTIONS = (
    "cli.main",
    "zeta.ruelle_log_closed",
    "zeta.ruelle_log_direct",
    "zeta.flat_trace_measure",
    "zeta.pair_with_test_function",
    "zeta.fried_residual",
    "zeta.torsion_log",
    "zeta.torsion_log_resummed",
    "series.hyp2f1",
    "series.bilateral_exp_sum_continued_result",
    "series.bilateral_exp_sum_direct",
    "series.bilateral_exp_sum_resummed",
    "models.length_spectrum",
    "models.orbit_contributions",
    "models.family_values",
    "models.chi_primitive_period_numeric",
    "rotations.axis_and_kernel",
    "rotations.solve_transverse",
    "rotations.signed_wedge_trace",
)

# Functions whose result carries a work count (series terms, spectrum atoms).
TERMS = (
    "zeta.ruelle_log_closed",
    "zeta.ruelle_log_direct",
    "zeta.flat_trace_measure",
    "zeta.pair_with_test_function",
    "zeta.torsion_log_resummed",
    "series.hyp2f1",
    "series.bilateral_exp_sum_continued_result",
    "series.bilateral_exp_sum_direct",
    "series.bilateral_exp_sum_resummed",
    "models.length_spectrum",
    "models.orbit_contributions",
    "models.family_values",
)

# hyp2f1 routes, in the order its docstring lists them.
REGIONS = ("series", "pfaff", "inv_z", "logcase", "lerch")

# selftest suite names at the commit that defined the benchmark; a suite
# missing later reports 0.
SUITES = (
    "series/hyp2f1-at-zero",
    "series/bilateral-direct-vs-continued",
    "series/half-class-tanh-identity",
    "series/conjugation-symmetry",
    "rotations/poincare-l-independence",
    "rotations/wedge-trace-oracle",
    "rotations/fixed-condition-equivariance",
    "rotations/sphere-classifier",
    "models/spectrum-symmetry",
    "models/euclid-conjugation-invariance",
    "models/chi-profile-independence",
    "models/orbit-signs",
    "zeta/pairing-identity",
    "zeta/direct-vs-closed",
    "zeta/realness-and-modulus-law",
    "zeta/fried-applicability",
    "zeta/product-and-subgroup",
)

# Bounds: about three times the typical quartile spread over ten seeds on
# the worst workload (tasks_per_s 3.3%, p90 7.5%, peak RSS 0.4%;
# bench/baseline.json).  The median's spread on direct-sweep ranged from 1.6%
# to 10.4% over four ten-seed sets, so its bound is twice the worst.
# ok_frac repeats exactly, so one new failure trips it on the 100-task
# workloads and 25 on continuation.  Set-up time gets the largest bound.
END_TO_END = [
    {"name": "tasks_per_s", "unit": "1/s", "better": "higher", "bound": 0.12},
    {"name": "task_ms.p50", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "task_ms.p90", "unit": "ms", "better": "lower", "bound": 0.23},
    {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.001},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def per_layer() -> list[dict]:
    out = []
    for label in FUNCTIONS:
        out.append({"name": f"{label}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{label}.self_ms", "unit": "ms", "better": "lower"})
        out.append({"name": f"{label}.busy_ms", "unit": "ms", "better": "lower"})
        if label in TERMS:
            out.append({"name": f"{label}.terms", "unit": "count", "better": "lower"})
        out.append({"name": f"{label}.errors", "unit": "count", "better": "lower"})
    for reg in REGIONS:
        out.append({"name": f"series.hyp2f1.calls.{reg}", "unit": "count", "better": "lower"})
        out.append({"name": f"series.hyp2f1.self_ms.{reg}", "unit": "ms", "better": "lower"})
    out.append({"name": "series.hyp2f1.converged_ratio", "unit": "ratio", "better": "higher"})
    out.append({"name": "models.spectrum_useful_ratio", "unit": "ratio", "better": "higher"})
    out.append({"name": "trace.tasks_per_s_ratio", "unit": "ratio", "better": "higher"})
    for suite in SUITES:
        out.append({"name": f"selftest.{suite.replace('/', '.')}.busy_ms", "unit": "ms",
                    "better": "lower"})
    return out


WORKLOAD_WHY = {
    "continuation": "single log R evaluations on circle classes: the 2F1 continuation core, "
                    "no length spectrum, no two tasks share inputs",
    "direct-sweep": "CLI sigma sweeps (--method direct) and flat-trace dumps on circle and "
                    "spheres: orbit sums and CLI parse/format, no 2F1",
    "certify": "two-route and closed-form Fried checks, Euclidean cutoff periods and "
               "selftest: bulk numpy series, quadrature and the memory peak",
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": 10,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOAD_WHY.items()],
        "end_to_end": END_TO_END,
        "per_layer": per_layer(),
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
