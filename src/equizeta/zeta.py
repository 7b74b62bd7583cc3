"""Zeta-side assembly: trace atoms, log R evaluation, torsion, Fried checks.

All arithmetic stays in log space (log R), so the half-powers appearing in
the circle closed forms become 1/2-scaled logarithms with the branch fixed
by continuity along the real-sigma ray from +infinity, where log R -> 0.
Past a real singular point that ray runs along a cut of log R; there (real
sigma and a real connection) log R is the limit from Im(sigma) > 0, on every
route of the continuation (see ``series``).

The flat-trace distribution of the flow pullback is realized as an atomic
measure: one atom per delocalised length l inside the window, with
coefficient -sum_orbits sign * holonomy * period.  The atoms have one
definition, ``_trace_atoms``: the sorted orbit arrays of ``orbit_data``,
weights negated, checked (inside the window, strictly ascending) in one
vectorised pass, the check ``AtomicMeasure`` runs too.
``flat_trace_measure`` wraps those arrays, and the CLI's trace writes its
text from them.  Pairing that measure with psi_sigma(t) = e^{-sigma|t|}/|t|
at matched truncation reproduces -2 log R exactly, atom for atom, which the
engine exploits as a test: the direct sum forms its terms elementwise as
arrays, with the floats the pairing's loop makes one term at a time, and
sums them sequentially in spectrum order, as the loop does.  A direct sweep builds the orbits once and
sums each sigma's window as a cut of that build.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EquizetaError, NonConvergentError
from .models import (
    CircleModel,
    FlowModel,
    IntegerLatticeModel,
    LineModel,
    _tolerance,
    _unitary,
    validate_model,
)
from .series import BilateralSumParams, SeriesResult, ZetaEvaluation, bilateral_exp_sum_resummed


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite atomic measure sum_l c_l delta_l inside a window."""

    atoms: tuple[tuple[float, complex], ...]
    window: float

    def __post_init__(self):
        _check_atoms([l for l, _ in self.atoms], self.window)


def _check_atoms(lengths, window) -> None:
    """Refuse (DomainError) atom lengths outside the window or not strictly
    ascending, in one array pass with a loop's verdict: the first failing
    atom in order is reported, outside before ascending, and a NaN length
    (which no comparison fails) passes.  Both are shown as the caller gave
    them."""
    values = np.asarray(lengths, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        outside = np.abs(values) > window + 1e-12
        bad = outside.copy()
        bad[1:] |= values[1:] - values[:-1] <= 1e-12
    if bad.any():
        i = int(bad.argmax())
        if outside[i]:
            raise DomainError(f"atom at {lengths[i]} outside window {window}")
        raise DomainError("atoms must be strictly ascending (no duplicates)")


@dataclass(frozen=True)
class FriedReport:
    """Comparison of log R(0) against log T, with an applicability verdict;
    ``holds`` is the equality verdict at the caller's tol: applicable and
    |residual| + est_error < tol."""

    log_R_at_0: complex | None
    log_T: complex | None
    residual: complex | None
    applicable: bool
    reason: str
    est_error: float = 0.0
    holds: bool = False


# ---------------------------------------------------------------------------
# Flat-trace atoms and pairing
# ---------------------------------------------------------------------------

def _trace_atoms(model: FlowModel, g, window: float) -> tuple[np.ndarray, np.ndarray]:
    """The flat-trace atoms inside the window as two arrays, the ascending
    lengths and their coefficients: the one definition of the atoms, which
    flat_trace_measure wraps and the CLI's trace formats directly."""
    nondegenerate, witness = model.nondegeneracy(g)
    if not nondegenerate:
        raise DomainError(f"model is degenerate at this element: {witness}")
    lengths, weights = model.orbit_data(g, window)
    _check_atoms(lengths, window)
    return lengths, -weights


def flat_trace_measure(model: FlowModel, g, window: float) -> AtomicMeasure:
    """Atomic realization of the flat-trace distribution inside the window.

    Coefficient at l: -sum over orbits of sign(det(1-P)) tr(rho) T; colliding
    lengths (possible for the 3-sphere families) are merged by summing.  A
    coefficient that is not a finite number (a holonomy past the floats) is
    refused with DomainError, naming the first such atom.
    """
    lengths, coeffs = _trace_atoms(model, g, window)
    finite = np.isfinite(coeffs)
    if not finite.all():
        l = float(lengths[int(finite.argmin())])
        raise DomainError(f"the flat-trace coefficient at l = {l!r} is not a finite number")
    return AtomicMeasure(atoms=tuple(zip(lengths.tolist(), coeffs.tolist())), window=window)


def pair_with_test_function(measure: AtomicMeasure, psi) -> complex:
    """<measure, psi> = sum of coeff * psi(l) over the atoms."""
    total = 0.0 + 0j
    for l, coeff in measure.atoms:
        total += coeff * psi(l)
    return total


# ---------------------------------------------------------------------------
# log R: direct orbit sums, closed forms and continuation
# ---------------------------------------------------------------------------

def _finite_sigma(sigma) -> complex:
    """sigma as a complex, refused (DomainError) unless finite."""
    sigma = complex(sigma)
    if not cmath.isfinite(sigma):
        raise DomainError("sigma must be finite")
    return sigma


def _float_range(evaluate):
    """The one range rule of log R: a sigma that is not finite is refused
    before any evaluation, and an OverflowError on the way to log R, or a
    value that is not a finite float, is a DomainError."""

    @functools.wraps(evaluate)
    def checked(model: FlowModel, g, sigma, *args) -> ZetaEvaluation:
        sigma = _finite_sigma(sigma)
        try:
            ev = evaluate(model, g, sigma, *args)
            if cmath.isfinite(ev.log_R):
                return ev
        except OverflowError:
            pass
        raise DomainError(f"log R at sigma = {sigma} overflows a float")

    return checked


def _direct_window(model: FlowModel, sigma: complex, tol: float) -> float:
    if not model.infinite_spectrum:
        return float("inf")
    return max(50.0, -math.log(min(tol, 1e-2)) + 10.0) / sigma.real


def ruelle_log_direct(
    model: FlowModel, g, sigma, tol: float = 1e-12, window: float | None = None
) -> ZetaEvaluation:
    """log R(sigma) by direct summation over the length spectrum.

    Requires Re(sigma) > 0 for models with infinite spectrum, and raises
    DomainError where the model has no finite tail bound (the sum does not
    converge absolutely).  tol must lie in (0, 1) and a given window must be
    positive (DomainError).  The window defaults to one making the geometric
    tail far below tol (a finite spectrum is summed whole), and that sum
    raises NonConvergentError unless est_error <= tol * max(1, |log R|).
    Pass an explicit window to match a flat-trace measure truncation
    exactly; its certificate comes back whatever it is.  The model's orbit
    budget refuses a window it cannot build (NonConvergentError).
    """
    return next(_direct_evaluations(model, g, (sigma,), tol, window))


def _direct_evaluations(model: FlowModel, g, sigmas, tol: float, window: float | None = None):
    """``ruelle_log_direct`` at each sigma in turn, as a generator; a direct
    sweep iterates it, and ruelle_log_direct is its one-element case.

    Every sigma is checked in order before any orbit is built (finite sigma,
    Re(sigma) > 0, the window, a finite tail, the orbit budget) up to the
    first refused one.  The orbits are then built once, at the largest window
    of the sigmas before it, and each of those sums its own window's cut of
    that build (the floats a build at its window gives), then passes the
    range and tol checks.  Their evaluations are yielded in order, and the
    refusal is raised after them, where one sigma at a time would raise it.
    """
    _tolerance(tol)
    plans, refusal = [], None
    for sigma in sigmas:
        try:
            plans.append(_direct_plan(model, g, sigma, tol, window))
        except EquizetaError as exc:  # raised where a sigma-by-sigma sweep reaches it
            refusal = exc
            break
    if plans:
        table = model._orbit_table(g, max(w for _, w, _ in plans))
    for sigma, w, tail in plans:
        ev = _direct_sum(model, g, sigma, model._window_cut(table, w), tail)
        if window is None and ev.est_error > tol * max(1.0, abs(ev.log_R)):
            raise NonConvergentError(
                f"the direct sum at sigma = {ev.sigma} has est_error {ev.est_error:.3e}, "
                f"above tol {tol:g}",
                partial=ev.log_R,
            )
        yield ev
    if refusal is not None:
        raise refusal


def _direct_plan(model: FlowModel, g, sigma, tol: float, window) -> tuple[complex, float, float]:
    """The checks of one direct sum before its orbits: (sigma, window, tail)."""
    sigma = _finite_sigma(sigma)
    if model.infinite_spectrum and sigma.real <= 0:
        raise DomainError("direct evaluation needs Re(sigma) > 0 for this model")
    if window is None:
        window = _direct_window(model, sigma, tol)
    elif not window > 0:
        raise DomainError("window must be positive")
    tail = model.tail_bound(g, sigma, window)
    if not math.isfinite(tail):
        raise DomainError(f"the orbit sum does not converge absolutely at sigma = {sigma}")
    model._check_budget(window)
    return sigma, window, tail


# Past this real part cmath.exp scales by e (CPython's CM_LOG_LARGE_DOUBLE,
# log(DBL_MAX / 4)), and a libm cexp may round otherwise.
_EXP_SCALED = math.log(sys.float_info.max / 4.0)


def _direct_terms(sigma: complex, lengths: np.ndarray, weights: np.ndarray):
    """The real and imaginary parts of weight * e^{-sigma|l|} / |l|, one
    array each: elementwise, the floats that Python's complex operations
    make one term at a time, but for the sign of a zero part, which no sum
    started from 0.0 keeps.  numpy's complex exp is libm's cexp, which
    rounds as cmath.exp does; an exponent that is not finite or is past
    _EXP_SCALED (only a finite spectrum at Re(sigma) < 0 reaches one) takes
    cmath.exp itself, its OverflowError included; its ValueError, an
    imaginary part past the floats (Im(sigma)|l| overflows), is a DomainError
    that names sigma.  The product is written out in real arithmetic, as
    Python forms it."""
    x = np.abs(lengths)
    exponent = np.empty(len(x), dtype=complex)
    exponent.real = -sigma.real * x
    exponent.imag = -sigma.imag * x
    e = np.exp(exponent)
    rare = ~(np.isfinite(exponent) & (exponent.real <= _EXP_SCALED))
    if rare.any():
        try:
            e[rare] = [cmath.exp(z) for z in exponent[rare].tolist()]
        except ValueError:
            raise DomainError(
                f"e^(-sigma|l|) has no value at sigma = {sigma}: "
                "the exponent's imaginary part overflows a float"
            ) from None
    t_re, t_im = e.real / x, e.imag / x
    w_re, w_im = weights.real, weights.imag
    return w_re * t_re - w_im * t_im, w_re * t_im + w_im * t_re


def _sequential_sum(values: np.ndarray) -> float:
    """0.0 + values[0] + values[1] + ..., rounded in that order."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


@_float_range
def _direct_sum(model: FlowModel, g, sigma: complex, orbits, tail: float) -> ZetaEvaluation:
    lengths, weights = orbits
    # The terms come elementwise and are summed sequentially, in spectrum
    # order: pairing flat_trace_measure with psi_sigma repeats these
    # operations one term at a time, and matches -2 log R bit for bit.
    # An inf or nan on the way is silent, as in Python's complex arithmetic;
    # _float_range refuses the total.
    with np.errstate(all="ignore"):
        re, im = _direct_terms(sigma, lengths, weights)
        total = complex(_sequential_sum(re), _sequential_sum(im))
    return ZetaEvaluation(
        sigma, 0.5 * total, "direct", 0.5 * tail + 1e-15 * max(1.0, abs(total)), len(lengths)
    )


@_float_range
def ruelle_log_closed(model: FlowModel, g, sigma) -> ZetaEvaluation:
    """log R(sigma) by the model's closed form or continuation.

    The circle and spheres take their families' routes (a closed form at offset
    0), past Re(sigma) = 0; singular points raise SingularPointError.  Line,
    lattice and euclid sum their orbits whole, each term e^{a - |l| sigma}
    with its holonomy exponent folded in, and certify the rounding
    (``FlowModel.log_closed``).
    """
    return model.log_closed(g, sigma)


# ---------------------------------------------------------------------------
# Torsion and the Fried comparison
# ---------------------------------------------------------------------------

def torsion_log(model: FlowModel, g) -> complex:
    """log of the equivariant analytic torsion, the value of ``model.torsion``.

    Spheres have a nonzero twisted-Laplacian kernel and raise
    NotApplicableError.
    """
    return model.torsion(g).value


def torsion_log_resummed(model: FlowModel, g) -> SeriesResult:
    """Circle non-identity classes: delayed iterated averaging of the
    symmetric partial sums of the torsion series over 10^6 terms, a slow
    third route that the Fried check does not use.  Its est_error, at least
    5e-10, is an estimate, not a bound (see ``bilateral_exp_sum_resummed``).

    The class is read through the protocol: an infinite spectrum of exactly
    one family (1, r, alpha) with r != 0, the bilateral sum F(.; r, alpha).
    """
    families = model.families(g) if model.infinite_spectrum else []
    if len(families) != 1 or families[0][0] != 1.0 or families[0][1] == 0.0:
        raise DomainError("resummed torsion applies to circle non-identity classes")
    _, r, alpha = families[0]
    # Re(alpha) under UNITARY_TOL is read as 0, as the Ewald split reads it.
    params = BilateralSumParams(r=r, alpha=complex(0.0, _unitary(alpha).imag))
    return bilateral_exp_sum_resummed(params).scaled(0.5)


def fried_residual(model: FlowModel, g, tol: float = 1e-12) -> FriedReport:
    """log R(0) - log T with an applicability verdict.

    Applicable iff the flow is nondegenerate at g, the twisted Laplacian has
    trivial kernel and the zeta function continues to 0.  Compares
    ``ruelle_log_closed`` at 0 with ``model.torsion``; est_error sums their
    certificates.  Where log R(0) is a continuation (circle non-identity
    classes) log T is the spectral torsion by Ewald's split, so the residual
    is a two-route check.  ``tol`` is read only by the verdict ``holds``:
    |residual| + est_error < tol, so the certificate must meet it too; where
    the comparison applies, a tol outside (0, 1) is a DomainError.
    """
    diag = validate_model(model, g)
    reasons = [text for failed, text in (
        (not diag.nondegenerate, f"the flow is degenerate at this element: {diag.witness}"),
        (diag.laplacian_kernel_nonzero, "the twisted Laplacian has nonzero kernel"),
        (not diag.continuation_available, "log R has no continuation to sigma = 0"),
    ) if failed]
    if reasons:
        return FriedReport(
            log_R_at_0=None, log_T=None, residual=None,
            applicable=False, reason="; ".join(reasons),
        )
    _tolerance(tol)
    r_eval = ruelle_log_closed(model, g, 0.0)
    torsion = model.torsion(g)
    reason = "closed-form comparison" if r_eval.method == "closed" else (
        "two-route check: continuation at sigma=0 against the Ewald split of the spectral torsion")
    residual = r_eval.log_R - torsion.value
    est_error = r_eval.est_error + torsion.est_error
    return FriedReport(
        log_R_at_0=r_eval.log_R,
        log_T=torsion.value,
        residual=residual,
        applicable=True,
        reason=reason,
        est_error=est_error,
        holds=abs(residual) + est_error < tol,
    )


# ---------------------------------------------------------------------------
# Structural identities
# ---------------------------------------------------------------------------

def product_decomposition_check(alpha, sigma, n_max: int):
    """Conjugacy-class product against the quotient-circle zeta.

    lhs: sum over integer lattice elements 0 < |g| <= n_max of 2 log R^g;
    rhs: 2 log |R^e| of the circle identity class.  Returns (lhs, rhs,
    |lhs - rhs|); the gap is a pure tail and decreases in n_max.
    """
    alpha = complex(alpha)
    sigma = complex(sigma)
    if sigma.real <= 0:
        raise DomainError("the product decomposition needs Re(sigma) > 0")
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    line = LineModel(alpha=alpha)
    terms = []
    for g in range(1, n_max + 1):
        terms.append(2.0 * line.log_closed(float(g), sigma).log_R)
        terms.append(2.0 * line.log_closed(float(-g), sigma).log_R)
    lhs_re = math.fsum(t.real for t in terms)
    lhs_im = math.fsum(t.imag for t in terms)
    lhs = complex(lhs_re, lhs_im)
    rhs = complex(2.0 * CircleModel(alpha=alpha).log_closed(0.0, sigma).log_R.real, 0.0)
    return lhs, rhs, abs(lhs - rhs)


def subgroup_power_check(g, alpha, sigma):
    """Restriction from the line group to the integer lattice (exponent 1).

    Two routes: the line's closed form against the lattice's direct orbit
    sum, so the difference is rounding, within the direct sum's est_error.
    That the exponent is 1 reflects the unit covolume of the lattice in its
    centraliser.
    """
    lattice = IntegerLatticeModel(alpha=complex(alpha))
    if lattice.element(g) == 0:
        raise DomainError("subgroup check needs a nonzero integer g")
    sigma = complex(sigma)
    lhs = ruelle_log_closed(LineModel(alpha=lattice.alpha), float(g), sigma).log_R
    rhs = ruelle_log_direct(lattice, g, sigma).log_R
    return lhs, rhs, abs(lhs - rhs)
