"""Invariant suites runnable from the CLI (`equizeta selftest`).

Each suite re-derives a structural identity of the library from scratch
and checks it at a fixed tolerance; the pytest acceptance tests exercise
the same identities with independent oracles.  Suites that sample random
inputs take their generator from the caller-provided seed.

A suite draws its samples in a fixed order, so a seed always yields the same
samples and the same transcript (tests/data/selftest_transcripts.json).  The
rotation suites draw all their samples first and run their own algebra (the
QR factors, the conjugations, the brute-force exterior powers) once per stack
of same-size matrices.  The wedge-trace and classifier suites call the
library function under test once per stack too, through its stacked core
(``signed_wedge_traces``, ``sphere_fixed_classes``), of which the scalar
function is the one-element case; the classifier suite then asks the scalar
twice more, about an accepted sample at a wrong period.  The fixed-condition
suite still calls the library once per sample, in draw order.  The
direct-vs-closed suite sums each case's sigma grid in one direct pass, one
orbit build per case, as a direct sweep does.  Nothing carries over between
runs but the minor-index tables, which depend only on the matrix size, and
the rotation memo (``rotations.ROTATION_MEMO_SIZE`` classifications and
transverse blocks, keyed by the matrix and axis bytes), which gives the
floats a fresh derivation gives: no result depends on it.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .models import (
    CircleModel,
    CutoffProfile,
    EuclideanElement,
    EuclideanLatticeModel,
    IntegerLatticeModel,
    LineModel,
    QuadratureSpec,
    Sphere2Model,
    Sphere3Model,
    chi_primitive_period_numeric,
)
from .rotations import (
    W_MINUS,
    W_PLUS,
    AxisRotation,
    EuclideanMotion,
    block_rotation,
    euclidean_fixed_condition,
    poincare_determinant_euclidean,
    rot2,
    rotation_about_last_axis,
    signed_wedge_traces,
    solve_transverse,
    sphere_fixed_classes,
    sphere_fixed_classifier,
)
from .series import (
    BilateralSumParams,
    bilateral_exp_sum_continued,
    bilateral_exp_sum_direct,
    hyp2f1,
    log_one_minus,
)
from .zeta import (
    _direct_evaluations,
    flat_trace_measure,
    fried_residual,
    pair_with_test_function,
    product_decomposition_check,
    ruelle_log_closed,
    ruelle_log_direct,
    subgroup_power_check,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _record(results, name, fn):
    start = time.perf_counter()
    try:
        detail = fn()
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    except Exception as exc:  # a crash is a failure, not an abort
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    results.append(SuiteResult(name, passed, detail or "ok", time.perf_counter() - start))


# ---------------------------------------------------------------------------
# series suites
# ---------------------------------------------------------------------------

def _suite_hyp_at_zero(rng):
    for _ in range(50):
        a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = rng.normal() + 1j * rng.normal()
        if abs(c.imag) < 1e-3 and c.real <= 0.5:
            c += 1.0
        res = hyp2f1(a, b, c, 0.0)
        assert res.value == 1.0 + 0j, f"2F1(...; 0) = {res.value} != 1"
    return "2F1(a,b;c;0) = 1 exactly on 50 sampled parameter triples"


def _suite_bilateral_agreement(rng):
    worst = 0.0
    for _ in range(12):
        r = float(rng.uniform(0.05, 0.95))
        alpha = 1j * float(rng.uniform(-6.0, 6.0))
        z = complex(rng.uniform(0.1, 5.0), rng.uniform(-2.0, 2.0))
        p = BilateralSumParams(r=r, alpha=alpha, unitary=True)
        direct = bilateral_exp_sum_direct(p, z)
        cont = bilateral_exp_sum_continued(p, z)
        gap = abs(direct.value - cont)
        allowed = 10.0 * (direct.est_error + 1e-13) + 1e-12
        assert gap < max(allowed, 1e-11), f"direct/continued gap {gap:.2e} at r={r}, z={z}"
        worst = max(worst, gap)
    return f"direct vs continued bilateral sums agree; worst gap {worst:.2e}"


def _suite_half_class_identity(rng):
    for z in (0.5, 1.0, 2.0, 3.3):
        p = BilateralSumParams(r=0.5, alpha=0j, unitary=True)
        direct = bilateral_exp_sum_direct(p, z).value
        closed = 4.0 * cmath.atanh(cmath.exp(-z / 2.0))
        assert abs(direct - closed) < 1e-10, f"tanh identity gap {abs(direct-closed):.2e}"
    return "F(z; 1/2, 0) = 4 atanh(e^{-z/2}) on a positive-z grid"


def _suite_conjugation_symmetry(rng):
    for _ in range(10):
        r = float(rng.uniform(0.05, 0.95))
        alpha = 1j * float(rng.uniform(-4.0, 4.0))
        z = complex(rng.uniform(0.2, 3.0), rng.uniform(-1.5, 1.5))
        plus = bilateral_exp_sum_direct(BilateralSumParams(r, alpha, True), z).value
        minus = bilateral_exp_sum_direct(BilateralSumParams(r, -alpha, True), z.conjugate()).value
        assert abs(minus - plus.conjugate()) < 1e-12, "conjugation symmetry broken"
    for _ in range(10):
        w = rng.uniform(-0.9, 0.9) + 1j * rng.uniform(-0.4, 0.4)
        if abs(w) >= 1:
            continue
        val = log_one_minus(w) + log_one_minus(w.conjugate())
        assert abs(val.imag) < 1e-13, "log(1-z) conjugate pair not real"
    return "F(conj z; r, alpha) = conj F(z; r, -alpha); log pairs real"


# ---------------------------------------------------------------------------
# rotation suites
# ---------------------------------------------------------------------------

def _suite_poincare_l_independence(rng):
    for theta in (2.0 * math.pi / 3.0, math.pi / 2.0, 1.1):
        rot = rotation_about_last_axis(3, theta)
        vals = [poincare_determinant_euclidean(rot, l).det_abs for l in (0.5, 1.0, 7.0)]
        assert max(vals) - min(vals) <= 1e-12 * max(1.0, max(vals)), (
            f"det varies with l: {vals}"
        )
    return "Poincare determinant independent of l across l in {0.5, 1, 7}"


def _by_size(sizes):
    """The indices of each distinct size, in draw order."""
    groups: dict = {}
    for i, n in enumerate(sizes):
        groups.setdefault(n, []).append(i)
    return groups.values()


@functools.cache
def _principal_minors(n: int, j: int):
    """Index arrays that pick the principal j x j minors, in combinations
    order, out of a stack of n x n matrices; read-only, as they are shared."""
    rows = np.array(list(itertools.combinations(range(n), j)))
    rows.flags.writeable = False
    return rows[:, :, None], rows[:, None, :]


def _brute_wedge_traces(stack) -> list[complex]:
    """sum_j (-1)^j j tr(wedge^j a) for each n x n matrix a of a stack, each
    trace the sum of a's principal j x j minors in combinations order from
    0j: one det call over the whole stack's minors per j."""
    n = stack.shape[1]
    totals = [0.0 + 0j] * len(stack)
    for j in range(1, n + 1):
        rows, cols = _principal_minors(n, j)
        for i, minors in enumerate(np.linalg.det(stack[:, rows, cols]).tolist()):
            totals[i] += (-1) ** j * j * sum(minors, 0.0 + 0j)
    return totals


_SIGNS = np.array([-1.0, 1.0])


def _wedge_samples(rng, count: int) -> list[tuple[list[int], np.ndarray]]:
    """``count`` matrices q diag(d) q^T with a simple eigenvalue exactly 1,
    n = 2..5: q the Q factor of a Gaussian matrix, |d| in [1.5, 3] with random
    signs and d_0 = 1.  Drawn sample by sample; one QR and one product per n.
    Returns each size's stack with the draw indices of its matrices."""
    draws = []
    for _ in range(count):
        n = int(rng.integers(2, 6))
        # Not used; drawn so that each seed keeps the samples it has always drawn.
        rng.normal(size=(n, n))
        gauss = rng.normal(size=(n, n))
        # Generator.choice([-1.0, 1.0], size=n) makes this draw.
        d = rng.uniform(1.5, 3.0, size=n) * _SIGNS[rng.integers(0, 2, size=n)]
        d[0] = 1.0
        draws.append((gauss, d))
    stacks = []
    for idx in _by_size(len(d) for _, d in draws):
        q = np.linalg.qr(np.stack([draws[i][0] for i in idx]))[0]
        d = np.stack([draws[i][1] for i in idx])
        stacks.append((idx, (q * d[:, None, :]) @ q.swapaxes(1, 2)))
    return stacks


def _suite_wedge_trace_oracle(rng):
    checked = []
    while len(checked) < 100:
        # As many samples as are still missing: none is drawn past the last one checked.
        drawn = [None] * (100 - len(checked))
        for idx, stack in _wedge_samples(rng, len(drawn)):
            for i, m, fast in zip(idx, stack, signed_wedge_traces(stack)):
                drawn[i] = (m, fast)
        # A refused sample is skipped, in draw order; the next round draws its replacement.
        checked += [(m, fast) for m, fast in drawn if not isinstance(fast, Exception)]
    brute = [None] * len(checked)
    for idx in _by_size(len(m) for m, _ in checked):
        for i, b in zip(idx, _brute_wedge_traces(np.stack([checked[i][0] for i in idx]))):
            brute[i] = b
    for (_, fast), b in zip(checked, brute):
        assert abs(fast - b) < 1e-8 * max(1.0, abs(b)), f"wedge-trace mismatch {fast} vs {b}"
    return "eigenvalue route matches explicit exterior powers on 100 matrices"


def _suite_fixed_condition_equivariance(rng):
    base_rot = rotation_about_last_axis(3, 2.0 * math.pi / 3.0)
    r = base_rot.matrix
    v0 = base_rot.axis
    # Per sample: the period l, a vector whose cross product with v0 is the
    # transverse translation w', and the conjugator h = (rotation about e_3 by
    # theta, translation y).
    draws = [
        (float(rng.uniform(-3.0, 3.0)) or 1.0, rng.normal(size=3), float(rng.uniform(0.4, 2.7)),
         rng.normal(size=3))
        for _ in range(20)
    ]
    ls = np.array([l for l, _, _, _ in draws])
    w_primes = np.cross(v0, np.stack([u for _, u, _, _ in draws]))
    translations = ls[:, None] * v0 + w_primes
    hrs = np.stack([block_rotation([theta], 3) for _, _, theta, _ in draws])
    conj_rots = hrs @ r @ hrs.swapaxes(1, 2)
    for (l, _, _, y), w_prime, t, hr, conj_r in zip(draws, w_primes, translations, hrs, conj_rots):
        g = EuclideanMotion(translation=t, rotation=base_rot)
        # (r - I) x = -w_prime, i.e. (I - r) x = w_prime: the orbit basepoint.
        x = solve_transverse(base_rot, w_prime)
        assert euclidean_fixed_condition(g, l, x, v0), "base fixed condition failed"
        hg = EuclideanMotion(
            translation=y + hr @ t - conj_r @ y, rotation=AxisRotation.from_matrix(conj_r)
        )
        lhs = euclidean_fixed_condition(g, l, x, v0)
        rhs = euclidean_fixed_condition(hg, l, hr @ x + y, hr @ v0)
        assert lhs == rhs, "conjugation equivariance broken"
    return "fixed condition equivariant under 20 sampled conjugators"


def _suite_classifier_consistency(rng):
    thetas = (1.0, math.sqrt(2.0))
    g = block_rotation(thetas, 4)
    samples = []
    gaussian = []
    for _ in range(40):
        kind = rng.integers(0, 3)
        if kind < 2:
            # kind 0: block-diagonal x (type 1); kind 1: block-antidiagonal (type 2).
            x = np.zeros((4, 4))
            eps = 1 if rng.integers(0, 2) else -1
            w = W_PLUS if eps == 1 else W_MINUS
            top, bottom = (slice(0, 2), slice(2, 4)) if kind == 0 else (slice(2, 4), slice(0, 2))
            x[:2, top] = rot2(float(rng.uniform(0, 2 * math.pi))) @ w
            x[2:, bottom] = rot2(float(rng.uniform(0, 2 * math.pi))) @ w
            l = eps * thetas[kind] + 2.0 * math.pi * int(rng.integers(-2, 3))
        else:
            # A random SO(4) point: the Q factor below, its first column
            # flipped when its determinant is -1.
            gaussian.append(len(samples))
            x = rng.normal(size=(4, 4))
            l = thetas[0]
        samples.append((x, l, kind))
    if gaussian:
        q = np.linalg.qr(np.stack([samples[i][0] for i in gaussian]))[0]
        flip = np.linalg.det(q) < 0
        q[flip, :, 0] = -q[flip, :, 0]
        for i, x in zip(gaussian, q):
            samples[i] = (x, *samples[i][1:])
    asked = [(x, l, kind) for x, l, kind in samples if abs(l) >= 1e-9]
    classes = sphere_fixed_classes(
        np.stack([x for x, _, _ in asked]), thetas, [l for _, l, _ in asked]
    )
    hits = [sample for sample, cls in zip(asked, classes) if cls.kind != "not_periodic"]
    if hits:
        xs = np.stack([x for x, _, _ in hits])
        conj = xs.swapaxes(1, 2) @ g @ xs
        gaps = np.abs(conj[:, :2, :2] - np.stack([rot2(l) for _, l, _ in hits])).max(axis=(1, 2))
        assert (gaps < 1e-8).all(), "classifier accepted x violating the conjugation identity"
    assert len(hits) >= 10, f"classifier accepted too few structured samples ({len(hits)})"
    # Every block-patterned sample is drawn at a true period, so the first
    # accepted one of each pattern is asked again half a unit off it (no
    # period of g there), where the classifier must refuse.
    for pattern in (0, 1):
        first = next(((x, l) for x, l, kind in hits if kind == pattern), None)
        if first is not None:
            assert sphere_fixed_classifier(first[0], thetas, first[1] + 0.5).kind == "not_periodic", (
                "classifier accepted a block-patterned x at a wrong period"
            )
    return f"classifier self-consistent; {len(hits)} structured hits verified"


# ---------------------------------------------------------------------------
# model suites
# ---------------------------------------------------------------------------

def _suite_spectrum_symmetry(rng):
    circle = CircleModel(alpha=1j)
    spec = circle.length_spectrum(0.0, 7.5)
    assert all(any(abs(v + u) < 1e-12 for u in spec) for v in spec), "circle asymmetric"
    s2 = Sphere2Model()
    spec2 = s2.length_spectrum(1.0, 25.0)
    assert all(any(abs(v + u) < 1e-12 for u in spec2) for v in spec2), "sphere2 asymmetric"
    s3 = Sphere3Model()
    spec3 = s3.length_spectrum((1.0, math.sqrt(2.0)), 25.0)
    assert all(any(abs(v + u) < 1e-10 for u in spec3) for v in spec3), "sphere3 asymmetric"
    for n in (1, 2, 3):
        up = circle.orbit_contributions(0.0, float(n))[0].weight
        down = circle.orbit_contributions(0.0, float(-n))[0].weight
        assert abs(down - up.conjugate()) < 1e-14, "identity-class atom symmetry broken"
    return "spectra symmetric under l -> -l; identity-class atoms conjugate"


def _suite_euclid_conjugation(rng):
    model = EuclideanLatticeModel.from_angle(3, 1.0, 2.0 * math.pi / 3.0, 3, 0j)
    g = EuclideanElement(l0=1, m=1, w_prime=model.lattice_basis()[0])
    base_spec = np.array(model.length_spectrum(g, 10.0))
    for _ in range(20):
        conj = model.conjugate_element(
            g,
            lam=int(rng.integers(-3, 4)),
            gamma_coeffs=rng.integers(-3, 4, size=2).astype(float),
            j=int(rng.integers(0, 3)),
        )
        spec = np.array(model.length_spectrum(conj, 10.0))
        # np.allclose(spec, base_spec, atol=1e-12) on finite spectra, its rtol written out.
        close = np.abs(spec - base_spec) <= 1e-12 + 1e-5 * np.abs(base_spec)
        assert close.all(), "conjugation changed the spectrum"
    return "Euclidean spectrum invariant under 20 sampled conjugations"


def _suite_chi_independence(rng):
    model = EuclideanLatticeModel.from_angle(3, 1.0, 2.0 * math.pi / 3.0, 3, 0j)
    g = EuclideanElement(l0=1)
    quad = QuadratureSpec()
    vals = [
        chi_primitive_period_numeric(model, g, 0, profile, quad)
        for profile in (
            CutoffProfile(kind="smoothed_indicator", width=0.5, radius=1.4),
            CutoffProfile(kind="raised_cosine", radius=1.3),
        )
    ]
    assert abs(vals[0] - vals[1]) < 1e-6, f"profiles disagree: {vals}"
    assert abs(vals[0] - 1.0 / 3.0) < 1e-6, f"period {vals[0]} != 1/3"
    return f"cutoff periods {vals[0]:.9f}, {vals[1]:.9f} both 1/3 within 1e-6"


def _suite_orbit_signs(rng):
    # Every model reports sign(det(1 - P)) = +1; on the Euclidean model that
    # is derived: det(1 - P) = det((I - r)|v0-perp)^2 = (2 - 2 cos(2 pi/k))^2.
    for order in (2, 3, 4, 6):
        rot = rotation_about_last_axis(3, 2.0 * math.pi / order)
        exact = (2.0 - 2.0 * math.cos(2.0 * math.pi / order)) ** 2
        for l in rng.uniform(-10.0, 10.0, size=2).tolist():
            det = poincare_determinant_euclidean(rot, l).det_abs
            assert 0 < det and abs(det - exact) <= 1e-12 * exact, f"order {order}, l {l}: {det}"
    return "det(1 - P) = (2 - 2cos(2pi/k))^2 > 0 for k = 2, 3, 4, 6 at sampled l: sign +1"


# ---------------------------------------------------------------------------
# zeta suites
# ---------------------------------------------------------------------------

def _suite_pairing_identity(rng):
    for sigma in (0.5, 1.0, 2.9, 0.3):
        for model, g in ((CircleModel(alpha=1j), 0.0), (Sphere2Model(), 1.0)):
            window = 60.0 / sigma
            measure = flat_trace_measure(model, g, window)
            psi = lambda t: cmath.exp(-sigma * abs(t)) / abs(t)
            paired = pair_with_test_function(measure, psi)
            direct = ruelle_log_direct(model, g, sigma, window=window)
            assert paired == -2.0 * direct.log_R, (
                f"pairing identity not exact at sigma={sigma} ({model.name})"
            )
    return "window-matched pairing equals -2 log R exactly"


def _suite_direct_closed_agreement(rng):
    grid = (0.2, 0.5, 1.0, 2.0, 5.0)
    cases = [(LineModel(alpha=1j), 2.0)]
    for r0 in (0.25, 1.0 / 3.0, 0.5, 0.75):
        cases.append((CircleModel(alpha=1j), r0))
    cases.append((CircleModel(alpha=1j), 0.0))
    cases.append(
        (EuclideanLatticeModel.from_angle(3, 1.0, 2.0 * math.pi / 3.0, 3, 1j), EuclideanElement(l0=1))
    )
    for model, g in cases:
        # ruelle_log_direct at each sigma, from one orbit build.
        for sigma, direct in zip(grid, _direct_evaluations(model, g, grid, 1e-12)):
            closed = ruelle_log_closed(model, g, sigma)
            gap = abs(direct.log_R - closed.log_R)
            allowed = 10.0 * (direct.est_error + closed.est_error) + 1e-12
            assert gap < allowed, (
                f"{model.name} g={g} sigma={sigma}: gap {gap:.2e} > {allowed:.2e}"
            )
    return "direct and closed routes agree on the sigma grid"


def _suite_realness_and_modulus(rng):
    for sigma in (0.4, 1.0, 2.5):
        half = ruelle_log_closed(CircleModel(alpha=1j * math.pi / 3.0), 0.5, sigma).log_R
        assert abs(half.imag) < 1e-10, "half-class log R not real"
        ident = ruelle_log_direct(CircleModel(alpha=1j), 0.0, sigma).log_R
        assert abs(ident.imag) < 1e-10, "identity-class log R not real"
        sphere = ruelle_log_direct(Sphere2Model(), 1.0, sigma).log_R
        assert abs(sphere.imag) < 1e-10, "sphere log R not real"
        # Modulus law: log R^e(sigma) = Re sum_{n>=1} e^{n(alpha-sigma)}/n.
        alpha = 1j
        classical = sum(
            cmath.exp(n * (alpha - sigma)) / n for n in range(1, 200)
        )
        assert abs(ident - classical.real) < 1e-10, "modulus law broken"
    return "realness and the classical modulus law hold on the real-sigma ray"


def _suite_fried_applicability(rng):
    ok_cases = [
        (LineModel(alpha=1j), 2.0),
        (IntegerLatticeModel(alpha=1j), -3),
        (CircleModel(alpha=1j), 1.0 / 3.0),
        (CircleModel(alpha=1j), 0.0),
        (EuclideanLatticeModel.from_angle(3, 1.0, 2.0 * math.pi / 3.0, 3, 0j), EuclideanElement(l0=1)),
    ]
    for model, g in ok_cases:
        rep = fried_residual(model, g)
        assert rep.applicable, f"{model.name} unexpectedly not applicable"
        assert abs(rep.residual) < 1e-12, f"{model.name} residual {abs(rep.residual):.2e}"
    for model, g in ((Sphere2Model(), 1.0), (Sphere3Model(), (1.0, math.sqrt(2.0)))):
        rep = fried_residual(model, g)
        assert not rep.applicable, f"{model.name} should not be applicable"
    rep = fried_residual(CircleModel(alpha=0j), 0.25)
    assert not rep.applicable, "alpha in 2*pi*i*Z should block applicability"
    return "Fried equality holds exactly on the applicable model set"


def _suite_product_and_subgroup(rng):
    for sigma in (1.0, 2.0):
        _, _, gap = product_decomposition_check(1j, sigma, 60)
        assert gap < 1e-12, f"product decomposition gap {gap:.2e}"
    gaps = [product_decomposition_check(1j, 1.0, n)[2] for n in (10, 20, 40)]
    assert gaps[0] > gaps[1] > gaps[2] or gaps[2] < 1e-15, f"gap not decreasing: {gaps}"
    for g, alpha, sigma in ((2, 1j, 1.0), (-3, 0j, 0.5), (1, 1j * math.pi / 2, 2.0)):
        _, _, diff = subgroup_power_check(g, alpha, sigma)
        assert diff == 0.0, f"subgroup restriction diff {diff}"
    return "product decomposition and subgroup restriction verified"


SUITES = [
    ("series/hyp2f1-at-zero", _suite_hyp_at_zero),
    ("series/bilateral-direct-vs-continued", _suite_bilateral_agreement),
    ("series/half-class-tanh-identity", _suite_half_class_identity),
    ("series/conjugation-symmetry", _suite_conjugation_symmetry),
    ("rotations/poincare-l-independence", _suite_poincare_l_independence),
    ("rotations/wedge-trace-oracle", _suite_wedge_trace_oracle),
    ("rotations/fixed-condition-equivariance", _suite_fixed_condition_equivariance),
    ("rotations/sphere-classifier", _suite_classifier_consistency),
    ("models/spectrum-symmetry", _suite_spectrum_symmetry),
    ("models/euclid-conjugation-invariance", _suite_euclid_conjugation),
    ("models/chi-profile-independence", _suite_chi_independence),
    ("models/orbit-signs", _suite_orbit_signs),
    ("zeta/pairing-identity", _suite_pairing_identity),
    ("zeta/direct-vs-closed", _suite_direct_closed_agreement),
    ("zeta/realness-and-modulus-law", _suite_realness_and_modulus),
    ("zeta/fried-applicability", _suite_fried_applicability),
    ("zeta/product-and-subgroup", _suite_product_and_subgroup),
]


def run_selftest(seed: int = 0) -> list[SuiteResult]:
    """Run every invariant suite with a seeded generator; deterministic.  A
    seed that is not a non-negative integer is refused (DomainError)."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    results: list[SuiteResult] = []
    for name, fn in SUITES:
        rng = np.random.default_rng(seed)
        _record(results, name, lambda fn=fn, rng=rng: fn(rng))
    return results
