"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line (run pytest with -s or check the
captured output); asserting after printing keeps the line honest on
failure.  Runtime of the whole module stays well under two minutes.
"""

import cmath
import math
import time

import numpy as np
import pytest

from equizeta import (
    BilateralSumParams,
    CircleModel,
    CutoffProfile,
    EuclideanElement,
    EuclideanLatticeModel,
    IntegerLatticeModel,
    LineModel,
    SingularPointError,
    Sphere2Model,
    Sphere3Model,
    atanh_of_exp,
    bilateral_exp_sum_direct,
    bilateral_exp_sum_resummed,
    chi_primitive_period_numeric,
    flat_trace_measure,
    fried_residual,
    pair_with_test_function,
    poincare_determinant_euclidean,
    product_decomposition_check,
    rotation_about_last_axis,
    ruelle_log_closed,
    ruelle_log_direct,
    torsion_log,
)
from equizeta.selftest import run_selftest

TWO_PI = 2.0 * math.pi


def report(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_fried_line_and_lattice():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0j, 1j, 1j * math.pi / 2.0):
        for g in (0.5, -0.5, 1.0, -1.0, 2.0, -2.0):
            rep = fried_residual(LineModel(alpha=alpha), g)
            worst = max(worst, abs(rep.residual))
        for g in (1, -1, 3, -3):
            rep = fried_residual(IntegerLatticeModel(alpha=alpha), g)
            worst = max(worst, abs(rep.residual))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-12 and elapsed < 1.0,
        f"line/lattice Fried residual max {worst:.2e} (< 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_fried_circle_classes():
    start = time.perf_counter()
    worst_oracle_gap = 0.0
    worst_certified = 0.0
    certified = 0
    for r0 in (0.25, 1.0 / 3.0, 0.5, 0.75):
        for alpha in (1j, 1j * math.pi / 3.0, 2j):
            model = CircleModel(alpha=alpha)
            cont = ruelle_log_closed(model, r0, 0.0)
            oracle = bilateral_exp_sum_resummed(
                BilateralSumParams(r0, alpha, unitary=True), 0.0
            )
            gap = abs(cont.log_R - 0.5 * oracle.value)
            worst_oracle_gap = max(worst_oracle_gap, gap)
            rep = fried_residual(model, r0)
            if rep.est_error < 1e-8:
                certified += 1
                worst_certified = max(worst_certified, abs(rep.residual))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_oracle_gap < 1e-6 and worst_certified < 1e-8 and certified > 0
        and elapsed < 20.0,
        f"continuation-vs-resummation gap max {worst_oracle_gap:.2e} (< 1e-6); "
        f"certified residual max {worst_certified:.2e} over {certified} cases "
        f"(< 1e-8); {elapsed:.1f}s (< 20s)",
    )


def test_criterion_3_circle_identity_class():
    model = CircleModel(alpha=1j)
    direct = ruelle_log_direct(model, 0.0, 0.3)
    closed = ruelle_log_closed(model, 0.0, 0.3)
    gap = abs(direct.log_R - closed.log_R)
    # R^e(0) against the torsion value (-(2 sinh(alpha/2))^2)^{-1/2}, which
    # for alpha = i is 1/(2 sin(1/2)).
    r_at_zero = cmath.exp(ruelle_log_closed(model, 0.0, 0.0).log_R)
    t_value = cmath.exp(torsion_log(model, 0.0))
    torsion_gap = abs(r_at_zero - t_value)
    anchor_gap = abs(t_value - 1.0 / (2.0 * math.sin(0.5)))
    report(
        3,
        gap < 1e-12 and torsion_gap < 1e-10 and anchor_gap < 1e-12,
        f"direct-vs-closed at sigma=0.3: {gap:.2e} (< 1e-12); R^e(0) vs torsion: "
        f"{torsion_gap:.2e} (< 1e-10); torsion anchor 1/(2 sin 1/2): {anchor_gap:.2e}",
    )


def test_criterion_4_half_class_tanh_identity():
    # The class r0 = 1/2 takes the family continuation; the bilateral series
    # and the atanh identity 2 log R = 2 atanh(e^{(alpha-sigma)/2})
    # + 2 atanh(e^{(-alpha-sigma)/2}) are two independent values.
    worst = 0.0
    for alpha in (0j, 1j * math.pi / 3.0):
        for sigma in (0.5, 1.0, 2.0):
            series = bilateral_exp_sum_direct(
                BilateralSumParams(0.5, alpha, unitary=True), sigma
            ).value
            atanh = atanh_of_exp((alpha - sigma) / 2.0) + atanh_of_exp((-alpha - sigma) / 2.0)
            closed = ruelle_log_closed(CircleModel(alpha=alpha), 0.5, sigma)
            assert closed.method == "continuation"
            worst = max(worst, abs(0.5 * series - closed.log_R), abs(0.5 * atanh - closed.log_R))
    report(
        4, worst < 1e-10,
        f"half-class continuation vs bilateral series and atanh identity: {worst:.2e} (< 1e-10)",
    )


def test_criterion_5_euclidean_model():
    model = EuclideanLatticeModel.from_angle(3, 1.0, TWO_PI / 3.0, 3, 0j)
    g = EuclideanElement(l0=1)
    rep = fried_residual(model, g)
    resid = abs(rep.residual)

    rot = rotation_about_last_axis(3, TWO_PI / 3.0)
    det = poincare_determinant_euclidean(rot, 1.0)
    det_gap = abs(det.det_abs - (2.0 - 2.0 * math.cos(TWO_PI / 3.0)) ** 2)

    periods = [
        chi_primitive_period_numeric(model, g, chi_profile=profile)
        for profile in (
            CutoffProfile(kind="smoothed_indicator", width=0.5, radius=1.4),
            CutoffProfile(kind="raised_cosine", radius=1.3),
        )
    ]
    period_gap = max(abs(p - 1.0 / 3.0) for p in periods)
    report(
        5,
        resid < 1e-14 and det.det_sign == 1 and det_gap < 1e-12 and period_gap < 1e-6,
        f"Fried residual {resid:.2e} (< 1e-14); det(1-P) = {det.det_abs:.12f} vs 9 "
        f"(gap {det_gap:.2e}, sign +1); cutoff periods {periods[0]:.9f}/"
        f"{periods[1]:.9f} vs 1/3 (gap {period_gap:.2e} < 1e-6)",
    )


def test_criterion_6_spheres():
    theta = 1.0
    worst = 0.0
    for sigma in (0.5, 1.0, 2.0):
        n = np.arange(-25000, 25001)
        vals = np.concatenate([theta + TWO_PI * n, -theta + TWO_PI * n])
        vals = vals[np.abs(vals) > 1e-12]
        oracle = math.pi * math.fsum(np.exp(-np.abs(vals) * sigma) / np.abs(vals))
        ev = ruelle_log_direct(Sphere2Model(), theta, sigma)
        worst = max(worst, abs(ev.log_R - oracle))

    with pytest.raises(SingularPointError):
        ruelle_log_closed(Sphere2Model(), theta, 0.0)
    past = ruelle_log_closed(Sphere2Model(), theta, -0.3 + 0.2j)

    growth = [
        ruelle_log_direct(Sphere2Model(), theta, s).log_R.real for s in (0.2, 0.1, 0.05)
    ]
    monotone = growth[0] < growth[1] < growth[2]

    window = 200.0
    s3 = ruelle_log_direct(Sphere3Model(), (1.0, math.sqrt(2.0)), 1.0, window=window)
    s2_sum = (
        ruelle_log_direct(Sphere2Model(), 1.0, 1.0, window=window).log_R
        + ruelle_log_direct(Sphere2Model(), math.sqrt(2.0), 1.0, window=window).log_R
    )
    s3_gap = abs(s3.log_R - s2_sum)
    report(
        6,
        worst < 1e-10 and monotone and s3_gap < 1e-10 and past.method == "continuation",
        f"sphere2 vs 1e5-term oracle: {worst:.2e} (< 1e-10); sigma = 0 a singular point, "
        f"sigma = -0.3+0.2i continued; growth {growth[0]:.2f} < {growth[1]:.2f} < {growth[2]:.2f}; "
        f"sphere3 vs two sphere2 families: {s3_gap:.2e} (< 1e-10)",
    )


def test_criterion_7_guillemin_pairing():
    exact = True
    for sigma in (0.5, 1.0):
        for model, g in ((CircleModel(alpha=1j), 0.0), (Sphere2Model(), 1.0)):
            window = 40.0 / sigma
            measure = flat_trace_measure(model, g, window)
            psi = lambda t: cmath.exp(-sigma * abs(t)) / abs(t)
            paired = pair_with_test_function(measure, psi)
            direct = ruelle_log_direct(model, g, sigma, window=window)
            exact = exact and (paired == -2.0 * direct.log_R)
    report(7, exact, "window-matched pairing equals -2 log R exactly (bit-for-bit)")


def test_criterion_8_product_decomposition():
    worst = 0.0
    for sigma in (1.0, 2.0):
        _, _, diff = product_decomposition_check(1j, sigma, 60)
        worst = max(worst, diff)
    gaps = [product_decomposition_check(1j, 1.0, n)[2] for n in (10, 20, 40, 60)]
    # beyond N ~ 40 the gap sits at the double-precision floor; require
    # non-increase there and strict decrease before
    monotone = gaps[0] > gaps[1] > gaps[2] and gaps[3] <= gaps[2]
    report(
        8,
        worst < 1e-12 and monotone,
        f"lattice product vs circle modulus: {worst:.2e} (< 1e-12); gaps {gaps}",
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_9_invariant_suites(seed):
    results = run_selftest(seed=seed)
    failed = [r for r in results if not r.passed]
    report(
        9,
        not failed,
        f"{len(results) - len(failed)}/{len(results)} invariant suites pass "
        f"under seed {seed}" + (f"; failing: {[r.name for r in failed]}" if failed else ""),
    )
