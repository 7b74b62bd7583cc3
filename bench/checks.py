"""Independent reference checks, run after the timed phase.

One reference per task type:

* continuation: the mpmath oracle
  F(z) = e^{r(a-z)} Phi(e^{a-z},1,r) + e^{-(1-r)(a+z)} Phi(e^{-a-z},1,1-r),
  with Phi(w,1,s) = 2F1(1,s;s+1;w)/s from mpmath's own hypergeometric code
  (mpmath.lerchphi agrees to 1e-16 but costs 25-80 ms a call; the self-test
  compares the two);
* circle direct sums: the library's closed or continued value;
* sphere direct sums: mpmath ``nsum`` over the two arithmetic families;
* flat-trace dumps: the atom list written out from the model definitions;
* Euclidean periods: the exact a/k;
* Fried tasks: the verdict must be |residual| < tol, because the equality
  holds on every applicable model.

A task fails on an error its inputs should not cause ("error"), an
``est_error`` above tol ("tol"), a wrong Fried verdict ("verdict"), a Fried
residual outside its own ``est_error`` ("certificate"), or a value farther
from its reference than its own ``est_error`` plus a rounding floor
("reference").  Only the last makes a run incorrect.  The others are
contract misses of the library that the benchmark counts in ``failed``:
the Fried reference is the verdict, and the true residual is 0.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing

import mpmath as mp
import numpy as np

from workloads import TOL, TWO_PI, Task, run_cli

# Relative rounding floor.  Double-precision continuation values sit within
# about 40 ulp of the oracle, relative to the size of the two Lerch terms.
ROUND = 1e-13
# Tolerance on cutoff periods used by acceptance criterion 5.
PERIOD_TOL = 1e-6
ORACLE_DPS = 20


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def lerch_phi1(w, s):
    """Phi(w, 1, s) for 0 < s < 1, principal branch (cut [1, oo))."""
    return mp.hyp2f1(1, s, s + 1, w) / s


def continuation_oracle(r0: float, alpha: complex, z: complex) -> tuple[complex, float]:
    """2 log R = F(z; r0, alpha) and the size of its two terms (for the floor)."""
    with mp.workdps(ORACLE_DPS):
        r = mp.mpf(r0)
        a = mp.mpc(alpha)
        z = mp.mpc(z)
        t1 = mp.exp(r * (a - z)) * lerch_phi1(mp.exp(a - z), r)
        t2 = mp.exp(-(1 - r) * (a + z)) * lerch_phi1(mp.exp(-a - z), 1 - r)
        return complex(t1 + t2), float(abs(t1) + abs(t2))


def continuation_refs(tasks, workers: int) -> list[tuple[complex, float]]:
    """The oracle for each continuation task, computed in ``workers`` processes.

    The oracle costs about 2.5 ms a task, ten times the task itself, so the
    check phase uses both cores; the timed phase is over by then.  The
    workers are forked: a "spawn" pool starts a semaphore tracker process
    that outlives the benchmark by a moment, while a forked pool starts no
    process beyond its workers, and leaving the ``with`` block joins them.
    """
    args = [(t.inputs["r0"], _c(t.inputs["alpha"]), _c(t.inputs["sigma"])) for t in tasks]
    if not args:
        return []
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        refs = pool.starmap(continuation_oracle, args, chunksize=256)
        pool.close()
        pool.join()
    return refs


def sphere_oracle(angles, sigma: float) -> float:
    """log R(sigma) = sum over families of 2 pi sum_m g(a + 2 pi m) + g(2 pi - a + 2 pi m).

    Each family {+-theta + 2 pi n} carries weight 2 pi per atom, halved by
    log R = (1/2) sum, and its |l| values are a + 2 pi m and 2 pi - a + 2 pi m
    (each twice), a = theta mod 2 pi.
    """
    with mp.workdps(ORACLE_DPS):
        s = mp.mpf(sigma)
        tp = 2 * mp.pi
        total = mp.mpf(0)
        for theta in angles:
            a = mp.mpf(theta) % tp

            def term(m, a=a):
                x1 = a + tp * m
                x2 = tp - a + tp * m
                return mp.exp(-s * x1) / x1 + mp.exp(-s * x2) / x2

            total += tp * mp.nsum(term, [0, mp.inf])
        return float(total)


def _atoms_reference(task) -> list[tuple[float, complex]]:
    inp = task.inputs
    window = inp["window"]
    if inp["model"] == "circle":
        r0 = inp["r0"]
        alpha = _c(inp["alpha"])
        out = []
        for n in range(math.floor(-window - r0), math.ceil(window - r0) + 1):
            l = n + r0
            if 0 < abs(l) <= window:
                out.append((l, -np.exp(alpha * l)))
        return out
    families = []
    for theta in inp["angles"]:
        vals = []
        for base in (theta, -theta):
            n = np.arange(math.ceil((-window - base) / TWO_PI), math.floor((window - base) / TWO_PI) + 1)
            v = base + TWO_PI * n
            vals.extend(float(x) for x in v[(np.abs(v) > 1e-12) & (np.abs(v) <= window)])
        families.append(sorted(vals))
    lengths: list[float] = []
    for v in sorted(x for fam in families for x in fam):
        if not lengths or v - lengths[-1] > 1e-10:
            lengths.append(v)
    # Coefficient -2 pi for each angle family whose orbits close at l; the
    # two sign branches of one family count once.
    return [(v, complex(-TWO_PI * sum(any(abs(v - x) <= 1e-10 for x in fam) for fam in families)))
            for v in lengths]


def _check_trace(task, out) -> list[tuple[str, str]]:
    code, text = out
    if code != 0:
        return [("error", f"exit {code}: {text.strip()[:200]}")]
    atoms = json.loads(text)["atoms"]
    ref = _atoms_reference(task)
    if len(atoms) != len(ref):
        return [("reference", f"{len(atoms)} atoms, expected {len(ref)}")]
    for atom, (l, c) in zip(atoms, ref):
        got = complex(atom["coeff_re"], atom["coeff_im"])
        if abs(atom["l"] - l) > 1e-9 or abs(got - c) > ROUND * max(1.0, abs(c)):
            return [("reference", f"atom at {atom['l']}: {got} vs {c} at {l}")]
    return []


def _sweep_rows(text: str) -> list[list[str]]:
    lines = text.strip().splitlines()
    return [ln.split(",") for ln in lines[1:] if not ln.startswith("{")]


def _check_sweep(task, out, lib) -> list[tuple[str, str]]:
    code, text = out
    if code != 0:
        return [("error", f"exit {code}: {text.strip().splitlines()[-1][:200]}")]
    inp = task.inputs
    rows = _sweep_rows(text)
    problems = []
    if len(rows) != inp["steps"]:
        problems.append(("error", f"{len(rows)} rows, expected {inp['steps']}"))
    worst_tol = None
    for row in rows:
        sigma = complex(float(row[0]), float(row[1]))
        value = complex(float(row[2]), float(row[3]))
        est = float(row[5])
        if not est <= TOL * max(1.0, abs(value)):
            worst_tol = est if worst_tol is None else max(worst_tol, est)
        if inp["model"] == "circle":
            ref_eval = lib.zeta.ruelle_log_closed(
                lib.models.CircleModel(alpha=_c(inp["alpha"])), inp["r0"], sigma)
            ref, ref_est = ref_eval.log_R, ref_eval.est_error
        else:
            ref, ref_est = sphere_oracle(inp["angles"], sigma.real), 0.0
        if not abs(value - ref) <= est + ref_est + ROUND * max(1.0, abs(ref)):
            problems.append(("reference", f"sigma={sigma}: {value} vs {ref} (est {est:.2e})"))
    if worst_tol is not None:
        problems.append(("tol", f"est_error {worst_tol:.3e} above tol {TOL:g}"))
    return problems


def _check_continuation(task, out, ref) -> list[tuple[str, str]]:
    if isinstance(out, Exception):
        return [("error", f"{type(out).__name__}: {out}")]
    inp = task.inputs
    problems = []
    if not out.est_error <= TOL * max(1.0, abs(out.log_R)):
        problems.append(("tol", f"est_error {out.est_error:.3e} above tol"))
    ref, size = ref or continuation_oracle(inp["r0"], _c(inp["alpha"]), _c(inp["sigma"]))
    gap = abs(2.0 * out.log_R - ref)
    if not gap <= 2.0 * out.est_error + ROUND * max(1.0, size):
        problems.append(("reference", f"|2 log R - F| = {gap:.3e}, est_error {out.est_error:.3e}"))
    return problems


def _check_fried(task, out) -> list[tuple[str, str]]:
    if isinstance(out, Exception):
        return [("error", f"{type(out).__name__}: {out}")]
    if not out.applicable:
        return [("error", f"not applicable: {out.reason}")]
    problems = []
    resid = abs(out.residual)
    if not resid < TOL:
        problems.append(("verdict", f"|residual| {resid:.3e} >= tol {TOL:g}"))
    if not resid <= out.est_error + ROUND * max(1.0, abs(out.log_T)):
        problems.append(("certificate", f"|residual| {resid:.3e} above est_error {out.est_error:.3e}"))
    return problems


def _check_period(task, out) -> list[tuple[str, str]]:
    if isinstance(out, Exception):
        return [("error", f"{type(out).__name__}: {out}")]
    exact = task.inputs["a"] / task.inputs["order"]
    if not abs(out - exact) <= PERIOD_TOL:
        return [("reference", f"period {out!r} vs a/k = {exact!r}")]
    return []


def _check_selftest(task, out) -> list[tuple[str, str]]:
    if isinstance(out, Exception):
        return [("error", f"{type(out).__name__}: {out}")]
    bad = [r.name for r in out if not r.passed]
    return [("reference", f"suites failed: {bad}")] if bad else []


def check(task, out, lib, ref=None) -> list[tuple[str, str]]:
    """Problems found with one task's output; empty when it passes.

    ``ref`` is a precomputed continuation oracle value (continuation_refs).
    """
    kind = task.kind
    if kind == "continuation":
        return _check_continuation(task, out, ref)
    if isinstance(out, Exception):
        return [("error", f"{type(out).__name__}: {out}")]
    if kind.startswith("sweep-"):
        return _check_sweep(task, out, lib)
    if kind.startswith("trace-"):
        return _check_trace(task, out)
    if kind.startswith("fried-"):
        return _check_fried(task, out)
    if kind.startswith("period-"):
        return _check_period(task, out)
    if kind == "selftest":
        return _check_selftest(task, out)
    raise ValueError(f"no checker for task kind {kind!r}")


# ---------------------------------------------------------------------------
# Self-test of the checker: real outputs pass, perturbed ones fail.
# ---------------------------------------------------------------------------

def checker_selftest(lib) -> list[str]:
    """Feed the checker real and perturbed outputs; returns what went wrong."""
    errors = []

    def expect(label, problems, category):
        cats = {c for c, _ in problems}
        if category is None and cats:
            errors.append(f"{label}: genuine output flagged {problems}")
        if category is not None and category not in cats:
            errors.append(f"{label}: perturbation not flagged as {category} ({problems})")

    # Lerch evaluator against mpmath.lerchphi on and off the unit circle.
    with mp.workdps(ORACLE_DPS):
        for w, s in ((mp.expjpi(0.37), 0.3), (mp.mpc(1.4, -0.9), 0.81)):
            gap = abs(lerch_phi1(w, s) - mp.lerchphi(w, 1, s)) / abs(mp.lerchphi(w, 1, s))
            if not gap < 1e-15:
                errors.append(f"Phi via 2F1 differs from lerchphi by {float(gap):.2e}")

    alpha, r0, sigma = complex(0.4, 2.0), 0.3, complex(-0.5, 1.0)
    task = Task("continuation", {"r0": r0, "alpha": [alpha.real, alpha.imag],
                                 "sigma": [sigma.real, sigma.imag]}, None)
    out = lib.zeta.ruelle_log_closed(lib.models.CircleModel(alpha=alpha), r0, sigma)
    expect("continuation", check(task, out, lib), None)
    bumped = dataclasses.replace(out, log_R=out.log_R + 1e-9)
    expect("continuation+1e-9", check(task, bumped, lib), "reference")

    argv = ["sweep", "--model", "circle", "--params", "r0=0.3,alpha=0+1.5i",
            "--sigma-start", "0.9", "--sigma-end", "0.6", "--steps", "2", "--method", "direct"]
    task = Task("sweep-circle", {"model": "circle", "r0": 0.3, "alpha": [0.0, 1.5], "steps": 2}, None)
    code, text = run_cli(lib, argv)
    expect("sweep", check(task, (code, text), lib), None)
    lines = text.splitlines()
    row = lines[1].split(",")
    row[2] = repr(float(row[2]) + 1e-9)
    lines[1] = ",".join(row)
    expect("sweep+1e-9", check(task, (code, "\n".join(lines)), lib), "reference")

    argv = ["trace", "--model", "sphere3", "--params", "theta1=1.0,theta2=2.2", "--window", "20"]
    task = Task("trace-sphere3", {"model": "sphere3", "angles": [1.0, 2.2], "window": 20.0}, None)
    code, text = run_cli(lib, argv)
    expect("trace", check(task, (code, text), lib), None)
    payload = json.loads(text)
    payload["atoms"][3]["coeff_re"] += 1e-9
    expect("trace+1e-9", check(task, (code, json.dumps(payload)), lib), "reference")

    model = lib.models.LineModel(alpha=1j)
    task = Task("fried-line", {}, None)
    rep = lib.zeta.fried_residual(model, 2.0, TOL)
    expect("fried", check(task, rep, lib), None)
    bumped = dataclasses.replace(rep, residual=rep.residual + 1e-9)
    expect("fried+1e-9", check(task, bumped, lib), "verdict")
    expect("fried+1e-9", check(task, bumped, lib), "certificate")

    task = Task("period-raised-cosine", {"a": 1.0, "order": 3}, None)
    expect("period", check(task, 1.0 / 3.0, lib), None)
    expect("period+1e-5", check(task, 1.0 / 3.0 + 1e-5, lib), "reference")
    return errors
