"""Seeded task lists for the three benchmark workloads.

Every workload is a fixed list of tasks made from the seed alone.  A task
holds its inputs (for the checker and the mix report) and a zero-argument
call into the library.  Calls look the library function up on its module
at call time, so the traced run sees the wrapped functions.

The list length scales with ``--seconds``: at the default of 10 s the
direct-sweep and certify lists take 6-11 s of wall time on a 2-core Xeon at
the baseline commit.  The continuation list is sized by its mpmath oracle
(about 2.5 ms per task against 0.25 ms for the task itself, run on two
processes after timing), so its timed phase is about 6 s and its check
phase about 30 s.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi
TOL = 1e-12  # the library's documented default tolerance (cli.DEFAULT_TOL)

WORKLOADS = ("continuation", "direct-sweep", "certify")

# Task counts per kind at --seconds 10.  Every kind keeps at least one task
# when the list is scaled down.  In certify the 23 cheap closed-form Fried
# checks balance the 23 tasks heavier than a period, so the median falls in
# the middle of the raised-cosine periods and the 90th percentile in the
# middle of the circle Fried checks, not on the edge between two kinds.
COMPOSITION = {
    "continuation": {"continuation": 24000},
    "direct-sweep": {
        "sweep-circle": 14,
        "sweep-circle-re-alpha": 10,
        "sweep-sphere2": 16,
        "sweep-sphere3": 12,
        "trace-circle": 26,
        "trace-sphere2": 18,
        "trace-sphere3": 24,
    },
    "certify": {
        "fried-circle": 20,
        "fried-line": 8,
        "fried-lattice": 8,
        "fried-euclid": 7,
        "period-raised-cosine": 84,
        "period-gaussian": 1,
        "selftest": 2,
    },
}

SWEEP_STEPS = 4
# Points of a sweep run from SWEEP_SPAN * floor down to the floor.
SWEEP_SPAN = 3.0
SIGMA_FLOOR = (0.04, 0.4)
TRACE_WINDOW = (50.0, 600.0)
# Margin kept from the excluded lattice +-alpha + 2*pi*i*Z, where the
# continuation raises SingularPointError by design.
LATTICE_MARGIN = 0.05


@dataclass
class Task:
    kind: str
    inputs: dict
    call: Callable[[], object] = field(repr=False)


@dataclass
class Library:
    """The library modules, imported from the checkout under test."""

    cli: object
    models: object
    selftest: object
    zeta: object

    @classmethod
    def load(cls) -> "Library":
        import equizeta.cli as cli
        import equizeta.models as models
        import equizeta.selftest as selftest
        import equizeta.zeta as zeta

        return cls(cli=cli, models=models, selftest=selftest, zeta=zeta)


def lattice_distance(z: complex, alpha: complex) -> float:
    """Distance from z to the excluded lattice {+-alpha + 2*pi*i*Z}."""
    best = math.inf
    for w in (z - alpha, z + alpha):
        k = round(w.imag / TWO_PI)
        for kk in (k - 1, k, k + 1):
            best = min(best, abs(w - 1j * TWO_PI * kk))
    return best


def counts_for(workload: str, seconds: float) -> dict[str, int]:
    scale = seconds / 10.0
    return {k: max(1, round(n * scale)) for k, n in COMPOSITION[workload].items()}


def _strata(rng, n: int) -> np.ndarray:
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return u


def stratified_uniform(rng, n: int, lo: float, hi: float) -> list[float]:
    """n uniform draws on [lo, hi], one from each of n equal strata."""
    return [float(lo + (hi - lo) * x) for x in _strata(rng, n)]


def stratified_log_uniform(rng, n: int, lo: float, hi: float) -> list[float]:
    """n log-uniform draws on [lo, hi], one from each of n equal strata.

    Each value is log-uniform on its own; the strata keep the heavy low-sigma
    and wide-window tasks in the same share in every run.
    """
    return [float(lo * (hi / lo) ** x) for x in _strata(rng, n)]


def _cplx(z: complex) -> list[float]:
    return [z.real, z.imag]


def _fmt(z: complex) -> str:
    """The CLI's a+bi syntax, exact to the last bit."""
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def run_cli(lib: Library, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def _continuation(lib: Library, rng, n: int) -> list[Task]:
    n_zero = round(0.3 * n)
    n_imag = round(0.2 * n)
    sigma_kinds = ["zero"] * n_zero + ["imag"] * n_imag + ["plane"] * (n - n_zero - n_imag)
    alpha_kinds = ["imag"] * (n // 2) + ["complex"] * (n - n // 2)
    rng.shuffle(sigma_kinds)
    rng.shuffle(alpha_kinds)
    tasks = []
    seen = set()
    for sk, ak in zip(sigma_kinds, alpha_kinds):
        while True:
            r0 = float(rng.uniform(0.02, 0.98))
            re_alpha = 0.0 if ak == "imag" else float(rng.uniform(-1.5, 1.5))
            alpha = complex(re_alpha, rng.uniform(-6.0, 6.0))
            if sk == "zero":
                sigma = 0j
            elif sk == "imag":
                sigma = complex(0.0, rng.uniform(-8.0, 8.0))
            else:
                sigma = complex(rng.uniform(-4.0, 4.0), rng.uniform(-8.0, 8.0))
            key = (r0, alpha, sigma)
            if lattice_distance(sigma, alpha) >= LATTICE_MARGIN and key not in seen:
                seen.add(key)
                break
        model = lib.models.CircleModel(alpha=alpha)
        tasks.append(Task(
            "continuation",
            {"r0": r0, "alpha": _cplx(alpha), "sigma": _cplx(sigma),
             "sigma_kind": sk, "alpha_kind": ak},
            lambda m=model, r0=r0, s=sigma: lib.zeta.ruelle_log_closed(m, r0, s),
        ))
    return tasks


# ---------------------------------------------------------------------------
# direct-sweep
# ---------------------------------------------------------------------------

def _angle(rng) -> float:
    """A rotation angle away from 0 and pi, where spectra would collide."""
    while True:
        theta = float(rng.uniform(0.3, TWO_PI - 0.3))
        if abs(theta - math.pi) > 0.05:
            return theta


def _sphere3_angles(rng) -> tuple[float, float]:
    while True:
        t1, t2 = _angle(rng), _angle(rng)
        if abs(t1 - t2) > 0.05 and abs(t1 + t2 - TWO_PI) > 0.05:
            return t1, t2


def _sweep_task(lib, kind, model, params, inputs, start, end) -> Task:
    argv = ["sweep", "--model", model, "--params", params,
            "--sigma-start", repr(start), "--sigma-end", repr(end),
            "--steps", str(SWEEP_STEPS), "--method", "direct"]
    inputs = dict(inputs, model=model, sigma_start=start, sigma_end=end, steps=SWEEP_STEPS)
    return Task(kind, inputs, lambda: run_cli(lib, argv))


def _trace_task(lib, kind, model, params, inputs, window) -> Task:
    argv = ["trace", "--model", model, "--params", params, "--window", repr(window)]
    return Task(kind, dict(inputs, model=model, window=window), lambda: run_cli(lib, argv))


def _direct_sweep(lib: Library, rng, counts: dict[str, int]) -> list[Task]:
    tasks = []
    n = counts["sweep-circle"]
    for floor in stratified_log_uniform(rng, n, *SIGMA_FLOOR):
        r0 = float(rng.uniform(0.02, 0.98))
        alpha = complex(0.0, rng.uniform(-6.0, 6.0))
        tasks.append(_sweep_task(
            lib, "sweep-circle", "circle", f"r0={r0!r},alpha={_fmt(alpha)}",
            {"r0": r0, "alpha": _cplx(alpha)}, SWEEP_SPAN * floor, floor))
    # Re(alpha) > 0 with sigma approaching Re(alpha) from above: the direct
    # certificate misses tol there (known defect), so these tasks fail.
    n = counts["sweep-circle-re-alpha"]
    for gap in stratified_log_uniform(rng, n, *SIGMA_FLOOR):
        r0 = float(rng.uniform(0.02, 0.98))
        alpha = complex(rng.uniform(0.5, 1.5), rng.uniform(-6.0, 6.0))
        tasks.append(_sweep_task(
            lib, "sweep-circle-re-alpha", "circle", f"r0={r0!r},alpha={_fmt(alpha)}",
            {"r0": r0, "alpha": _cplx(alpha)},
            alpha.real + SWEEP_SPAN * gap, alpha.real + gap))
    for floor in stratified_log_uniform(rng, counts["sweep-sphere2"], *SIGMA_FLOOR):
        theta = _angle(rng)
        tasks.append(_sweep_task(
            lib, "sweep-sphere2", "sphere2", f"theta={theta!r}",
            {"angles": [theta]}, SWEEP_SPAN * floor, floor))
    for floor in stratified_log_uniform(rng, counts["sweep-sphere3"], *SIGMA_FLOOR):
        t1, t2 = _sphere3_angles(rng)
        tasks.append(_sweep_task(
            lib, "sweep-sphere3", "sphere3", f"theta1={t1!r},theta2={t2!r}",
            {"angles": [t1, t2]}, SWEEP_SPAN * floor, floor))
    for window in stratified_log_uniform(rng, counts["trace-circle"], *TRACE_WINDOW):
        r0 = float(rng.uniform(0.02, 0.98))
        alpha = complex(0.0, rng.uniform(-6.0, 6.0))
        tasks.append(_trace_task(
            lib, "trace-circle", "circle", f"r0={r0!r},alpha={_fmt(alpha)}",
            {"r0": r0, "alpha": _cplx(alpha)}, window))
    for window in stratified_log_uniform(rng, counts["trace-sphere2"], *TRACE_WINDOW):
        theta = _angle(rng)
        tasks.append(_trace_task(
            lib, "trace-sphere2", "sphere2", f"theta={theta!r}", {"angles": [theta]}, window))
    for window in stratified_log_uniform(rng, counts["trace-sphere3"], *TRACE_WINDOW):
        t1, t2 = _sphere3_angles(rng)
        tasks.append(_trace_task(
            lib, "trace-sphere3", "sphere3", f"theta1={t1!r},theta2={t2!r}",
            {"angles": [t1, t2]}, window))
    return tasks


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _unitary_alpha(rng) -> complex:
    """alpha = i*beta with beta at least 0.3 away from 2*pi*Z."""
    while True:
        beta = float(rng.uniform(-6.0, 6.0))
        if abs(beta - TWO_PI * round(beta / TWO_PI)) >= 0.3:
            return complex(0.0, beta)


def _nonzero_int(rng, hi: int) -> int:
    return int(rng.integers(1, hi + 1)) * int(rng.choice([-1, 1]))


def _euclid(lib, rng, a: float, order: int) -> tuple[object, object, dict]:
    l0 = _nonzero_int(rng, 3)
    alpha = _unitary_alpha(rng)
    model = lib.models.EuclideanLatticeModel.from_angle(3, a, TWO_PI / order, order, alpha)
    g = lib.models.EuclideanElement(l0=l0)
    return model, g, {"a": a, "order": order, "l0": l0, "alpha": _cplx(alpha)}


def _fried(lib, kind, model, g, inputs) -> Task:
    return Task(kind, inputs, lambda: lib.zeta.fried_residual(model, g, TOL))


def _period(lib, kind, model, g, inputs, profile) -> Task:
    return Task(kind, inputs, lambda: lib.models.chi_primitive_period_numeric(
        model, g, 0, profile, lib.models.QuadratureSpec()))


def _certify(lib: Library, rng, counts: dict[str, int]) -> list[Task]:
    m = lib.models
    tasks = []
    for _ in range(counts["fried-circle"]):
        r0 = float(rng.uniform(0.02, 0.98))
        alpha = _unitary_alpha(rng)
        tasks.append(_fried(lib, "fried-circle", m.CircleModel(alpha=alpha), r0,
                            {"r0": r0, "alpha": _cplx(alpha)}))
    for _ in range(counts["fried-line"]):
        g = float(rng.uniform(0.2, 4.0)) * float(rng.choice([-1.0, 1.0]))
        alpha = _unitary_alpha(rng)
        tasks.append(_fried(lib, "fried-line", m.LineModel(alpha=alpha), g,
                            {"g": g, "alpha": _cplx(alpha)}))
    for _ in range(counts["fried-lattice"]):
        g = _nonzero_int(rng, 6)
        alpha = _unitary_alpha(rng)
        tasks.append(_fried(lib, "fried-lattice", m.IntegerLatticeModel(alpha=alpha), g,
                            {"g": g, "alpha": _cplx(alpha)}))
    for _ in range(counts["fried-euclid"]):
        model, g, inputs = _euclid(lib, rng, float(rng.uniform(0.5, 2.0)),
                                   int(rng.choice([2, 3, 4, 6])))
        tasks.append(_fried(lib, "fried-euclid", model, g, inputs))
    # Raised-cosine periods cost 15-80 ms by order and spacing, so each
    # order gets its share of the tasks with spacings stratified on its own.
    cosine = m.CutoffProfile(kind="raised_cosine", radius=1.3)
    n = counts["period-raised-cosine"]
    for j, order in enumerate((2, 3, 4, 6)):
        for a in stratified_uniform(rng, (n + 3 - j) // 4, 0.7, 1.5):
            model, g, inputs = _euclid(lib, rng, a, order)
            tasks.append(_period(lib, "period-raised-cosine", model, g, inputs, cosine))
    # The Gaussian period costs 0.8-3.6 s depending on a and the order, and a
    # run holds one; its geometry is fixed (the order-3, a = 1 model of the
    # acceptance criteria) so that run-to-run cost does not hinge on one draw.
    gaussian = m.CutoffProfile(kind="gaussian")
    for _ in range(counts["period-gaussian"]):
        model, g, inputs = _euclid(lib, rng, 1.0, 3)
        tasks.append(_period(lib, "period-gaussian", model, g, inputs, gaussian))
    for _ in range(counts["selftest"]):
        seed = int(rng.integers(0, 2**31 - 1))
        tasks.append(Task("selftest", {"seed": seed},
                          lambda s=seed: lib.selftest.run_selftest(s)))
    return tasks


def make_tasks(lib: Library, workload: str, seed: int, seconds: float,
               stream: int = 0) -> list[Task]:
    """The fixed task list of a workload; ``stream`` 1 gives warm-up tasks."""
    rng = np.random.default_rng([seed, stream, WORKLOADS.index(workload)])
    counts = counts_for(workload, seconds)
    if workload == "continuation":
        tasks = _continuation(lib, rng, counts["continuation"])
    elif workload == "direct-sweep":
        tasks = _direct_sweep(lib, rng, counts)
    else:
        tasks = _certify(lib, rng, counts)
    return interleave(tasks)


def interleave(tasks: list[Task]) -> list[Task]:
    """Spread each kind evenly through the list, in the same pattern for every seed.

    A task runs 2-4x slower after a task of another kind (cold caches), so a
    random order would move the median between the warm and cold times from
    seed to seed.  The j-th of n tasks of a kind goes to position (j + 1/2)/n.
    """
    kinds = list(dict.fromkeys(t.kind for t in tasks))
    by_kind = {k: [t for t in tasks if t.kind == k] for k in kinds}
    keyed = [((j + 0.5) / len(group), kinds.index(k), t)
             for k, group in by_kind.items() for j, t in enumerate(group)]
    return [t for *_, t in sorted(keyed, key=lambda x: x[:2])]


def warmup_tasks(lib: Library, workload: str, seed: int) -> list[Task]:
    """A few tasks of every kind from a separate stream, run before timing."""
    tasks = make_tasks(lib, workload, seed, 0.1, stream=1)
    if workload == "continuation":
        return tasks
    # One task of each kind, except the Gaussian period (1.8 s), whose code
    # path the raised-cosine period already warms.
    by_kind = {}
    for t in tasks:
        if t.kind != "period-gaussian":
            by_kind.setdefault(t.kind, t)
    return list(by_kind.values())
