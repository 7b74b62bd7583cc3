"""Complex series engines for the circle and sphere flow models.

The analytic core of the circle-model zeta function is the bilateral
exponential sum

    F(z; r, alpha) = sum_{n in Z} exp(alpha*(n+r) - |n+r|*z) / |n+r|,

absolutely convergent for Re(z) > |Re(alpha)| and continued elsewhere by
splitting it into two Gauss hypergeometric pieces plus an elementary term:

    F(z) = (e^{r(alpha-z)}/r) * 2F1(1, r; r+1; e^{alpha-z})
         - (e^{r(alpha+z)}/r) * 2F1(1, -r; 1-r; e^{-alpha-z})
         + e^{r(alpha+z)}/r.

(The minus sign compensates for the n=0 term of the negative-index half,
which the standalone e^{r(alpha+z)}/r term re-adds; the split is fixed by
matching the defining sum on Re(z) > 0, and the direct sum is the arbiter
in the test suite.)  The continued value exists for all
z outside the lattice +-alpha + 2*pi*i*Z; in particular at z = 0 whenever
alpha is not in 2*pi*i*Z, which is what the torsion comparisons need.

Everything here works in double precision with explicit truncation-error
tracking; all logarithms are principal branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .errors import DomainError, NonConvergentError, SingularPointError

TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16  # 2*pi - TWO_PI

# The largest |Re(alpha)| of a unitary (purely imaginary) connection, for every torsion.
UNITARY_TOL = 1e-14

# Ewald splitting parameter: eta = pi gives both torsion sums one Gaussian decay.
EWALD_ETA = math.pi

# Hard cap on series terms before giving up (see NonConvergentError).
TERM_CAP = 10**7

# Power-series dispatch radius shared by the direct, Pfaff and 1/z routes.
SERIES_RADIUS = 0.8


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series together with its error certificate.

    ``est_error`` bounds the truncation error of the route actually taken;
    when ``converged`` is False the value is still the partial sum and the
    caller must check the flag.
    """

    value: complex
    terms_used: int
    est_error: float
    converged: bool

    def scaled(self, c) -> "SeriesResult":
        """c * value, with est_error scaled by |c|."""
        return SeriesResult(c * self.value, self.terms_used, abs(c) * self.est_error, self.converged)


@dataclass(frozen=True)
class ZetaEvaluation:
    """One evaluation of log R at sigma, with method and error certificate;
    every log R the library returns.  Fields hold Python numbers, whose repr
    the CSV and plain formats print."""

    sigma: complex
    log_R: complex
    method: str
    est_error: float
    terms: int

    def __post_init__(self):
        object.__setattr__(self, "sigma", complex(self.sigma))
        object.__setattr__(self, "log_R", complex(self.log_R))
        object.__setattr__(self, "est_error", float(self.est_error))
        if self.est_error < 0:
            raise DomainError("est_error must be nonnegative")


@dataclass(frozen=True)
class BilateralSumParams:
    """Offset r in (0,1) and connection parameter alpha of a bilateral sum.

    ``unitary`` asserts Re(alpha) = 0 (parallel transport of unit modulus),
    which is the regime of every torsion comparison.
    """

    r: float
    alpha: complex
    unitary: bool = False

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise DomainError(f"offset r must lie in (0, 1), got {self.r}")
        if self.unitary and abs(self.alpha.real) > UNITARY_TOL:
            raise DomainError(
                f"unitary flag requires Re(alpha)=0, got Re={self.alpha.real}"
            )


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1
# ---------------------------------------------------------------------------

def _is_nonpositive_integer(w: complex, tol: float = 1e-12) -> bool:
    return abs(w.imag) < tol and w.real < 0.5 and abs(w.real - round(w.real)) < tol


def _hyp2f1_series(a, b, c, z, tol) -> SeriesResult:
    """Defining power series; |z| must be below 1 (used for |z| <= 0.8)."""
    total = 1.0 + 0j
    term = 1.0 + 0j
    n = 0
    while n < TERM_CAP:
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        term = term * ratio
        total += term
        n += 1
        # Geometric tail bound: the term ratio tends to |z|; the cushion
        # kappa/n majorises its approach from above.
        kappa = abs(a) + abs(b) + abs(c) + 2.0
        q = abs(z) * (max(1.0, abs((a + n) * (b + n) / ((c + n) * (n + 1.0)))) + kappa / n)
        if q < 1.0:
            tail = abs(term) * q / (1.0 - q)
            if abs(term) < tol * max(1.0, abs(total)) and tail < tol:
                return SeriesResult(total, n + 1, tail, True)
        if term == 0:  # polynomial case terminated
            return SeriesResult(total, n + 1, 0.0, True)
    return SeriesResult(total, n + 1, float("inf"), False)


def _hyp2f1_logcase(a, b, z, tol) -> SeriesResult:
    """Connection formula at 1-z for the degenerate case c = a + b.

    2F1(a,b;a+b;z) = G(a+b)/(G(a)G(b)) * sum_k (a)_k (b)_k / (k!)^2
                     * (2 psi(k+1) - psi(a+k) - psi(b+k) - log(1-z)) (1-z)^k,
    valid for |1-z| < 1 off the cut [1, oo).
    """
    u = 1.0 - z
    lg = cmath.log(u)
    pref = special.gamma(a + b) / (special.gamma(a) * special.gamma(b))
    total = 0.0 + 0j
    term = 1.0 + 0j
    k = 0
    while k < TERM_CAP:
        coef = (
            2.0 * special.digamma(k + 1.0)
            - special.digamma(a + k)
            - special.digamma(b + k)
            - lg
        )
        total += term * coef
        term = term * (a + k) * (b + k) / ((k + 1.0) ** 2) * u
        k += 1
        if abs(u) < 1.0:
            # psi factors grow like log k; fold a generous log factor in.
            tail = abs(term) * (abs(coef) + 2.0) / (1.0 - abs(u))
            if tail < tol * max(1.0, abs(total)):
                return SeriesResult(pref * total, k, abs(pref) * tail, True)
    return SeriesResult(pref * total, k, float("inf"), False)


def _lerch_phi_one(z: complex, s: complex, tol: float) -> SeriesResult:
    """Phi(z, 1, s) = sum_{n>=0} z^n / (n+s) via its Laplace integral.

    Uses Phi(z,1,s) = int_0^oo e^{-s t} / (1 - z e^{-t}) dt (Re s > 0,
    z outside [1, oo)), after shifting s up until Re(s) >= 1 so the tail
    decays at unit rate.  Composite Gauss-Legendre panels; the integrand is
    analytic in a strip whose width is the distance from [0, oo) to the
    poles t = log z + 2*pi*i*Z, so short panels converge geometrically.
    """
    if abs(z) > 1.3:
        raise DomainError(f"integral route needs |z| <= 1.3, got {abs(z)}")
    shifted = 0.0 + 0j
    nterms = 0
    while s.real < 1.0:
        # Phi(z,1,s) = 1/s + z*Phi(z,1,s+1); at most two shifts for s > -1.
        shifted += z**nterms / s
        s = s + 1.0
        nterms += 1
    # After the shift the prefactor of the remaining integral is z**nterms.
    pref = z**nterms

    T = max(12.0, 45.0 / s.real)
    edges = np.arange(0.0, T + 0.5, 0.5)
    half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[1:] + edges[:-1])[:, None]
    # A 24-node rule, and for the error estimate a 16-node rule on the same panels.
    vals = []
    for nodes, weights in map(np.polynomial.legendre.leggauss, (24, 16)):
        t = half * nodes + mid
        vals.append(complex(np.sum(half * weights * (np.exp(-s * t) / (1.0 - z * np.exp(-t))))))
    val24, val16 = vals
    tail = math.exp(-s.real * T) / (s.real * max(1e-3, 1.0 - abs(z) * math.exp(-T)))
    est = abs(pref) * (abs(val24 - val16) + tail)
    value = shifted + pref * val24
    return SeriesResult(value, 40 * half.size + nterms, est, est <= max(10.0 * tol, 1e-12))


def hyp2f1(a, b, c, z, tol: float = 1e-14) -> SeriesResult:
    """Gauss hypergeometric 2F1(a, b; c; z) with truncation-error tracking.

    Route selection: defining power series for |z| <= 0.8, the Pfaff map
    z -> z/(z-1) when that lands inside the series disc, the 1/z connection
    formula when |1/z| <= 0.8 (non-integer a-b), the log-form connection at
    1-z for the degenerate case c = a+b, and a Laplace-integral evaluation
    for the family 2F1(1, b; b+1; .) that the bilateral sums reduce to.
    Raises DomainError for a nonpositive-integer c and NonConvergentError
    on the singular locus z = 1 (when Re(c-a-b) <= 0) or when no route
    covers the argument.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_integer(c):
        raise DomainError(f"2F1 undefined for nonpositive integer c = {c}")
    if z == 0:
        return SeriesResult(1.0 + 0j, 1, 0.0, True)
    if abs(z - 1.0) < tol and (c - a - b).real <= 0:
        raise NonConvergentError(f"2F1 singular at z = 1 for c-a-b = {c - a - b}")
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        # Polynomial: the series terminates regardless of |z|.
        return _hyp2f1_series(a, b, c, z, tol)

    if abs(z) <= SERIES_RADIUS:
        return _hyp2f1_series(a, b, c, z, tol)

    zp = z / (z - 1.0)
    if abs(zp) <= SERIES_RADIUS:
        return _hyp2f1_series(a, c - b, c, zp, tol).scaled((1.0 - z) ** (-a))

    if abs(z) >= 1.0 / SERIES_RADIUS:
        ab = a - b
        if abs(ab.imag) < 1e-13 and abs(ab.real - round(ab.real)) < 1e-13:
            raise NonConvergentError(
                "1/z connection formula needs non-integer a-b"
            )
        g = special.gamma
        t1 = _hyp2f1_series(a, a - c + 1, a - b + 1, 1.0 / z, tol)
        t2 = _hyp2f1_series(b, b - c + 1, b - a + 1, 1.0 / z, tol)
        c1 = g(c) * g(b - a) / (g(b) * g(c - a)) * (-z) ** (-a)
        c2 = g(c) * g(a - b) / (g(a) * g(c - b)) * (-z) ** (-b)
        return SeriesResult(
            c1 * t1.value + c2 * t2.value,
            t1.terms_used + t2.terms_used,
            abs(c1) * t1.est_error + abs(c2) * t2.est_error,
            t1.converged and t2.converged,
        )

    if abs(c - a - b) < 1e-12 and abs(1.0 - z) <= SERIES_RADIUS:
        return _hyp2f1_logcase(a, b, z, tol)

    # Remaining gap (arguments near the unit circle with argument in roughly
    # (0.82, 1.35)): only the Lerch-reducible family is supported there.
    for one, s in ((a, b), (b, a)):
        if abs(one - 1.0) < 1e-13 and abs(c - s - 1.0) < 1e-13:
            return _lerch_phi_one(z, s, tol).scaled(s)

    raise NonConvergentError(
        f"no evaluation route covers 2F1({a}, {b}; {c}; {z})"
    )


# ---------------------------------------------------------------------------
# Bilateral exponential sums
# ---------------------------------------------------------------------------

def bilateral_exp_sum_direct(p: BilateralSumParams, z, tol: float = 1e-14) -> SeriesResult:
    """Direct symmetric-truncation evaluation of F(z; r, alpha).

    Valid in the absolute-convergence region Re(z) > |Re(alpha)|; the
    recorded ``est_error`` is the geometric tail bound
    q^{N}/(N (1-q)) for each half, q = exp(Re(+-alpha) - Re(z)).
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError(f"direct sum needs Re(z) > 0, got {z}")
    qp = math.exp(p.alpha.real - z.real)
    qm = math.exp(-p.alpha.real - z.real)
    if qp >= 1.0 or qm >= 1.0:
        raise DomainError(
            f"direct sum needs Re(z) > |Re(alpha)|, got z={z}, alpha={p.alpha}"
        )

    r = p.r
    total = 0.0 + 0j
    block = 512
    n0 = 0
    terms = 0
    while n0 < TERM_CAP:
        n = np.arange(n0, n0 + block)
        xp = n + r                      # n >= 0 half
        xm = n + 1.0 - r                # |n+r| for n <= -1, reindexed
        tp = np.exp(p.alpha * xp - xp * z) / xp
        tm = np.exp(-p.alpha * xm - xm * z) / xm
        total += complex(np.sum(tp) + np.sum(tm))
        terms += 2 * block
        n0 += block
        last = max(abs(tp[-1]), abs(tm[-1]))
        tail = (
            qp ** (n0 + r) / ((n0 + r) * (1.0 - qp))
            + qm ** (n0 + 1.0 - r) / ((n0 + 1.0 - r) * (1.0 - qm))
        )
        if last < tol * max(1.0, abs(total)) and tail < tol:
            return SeriesResult(total, terms, tail, True)
        block = min(2 * block, 1 << 20)
    raise NonConvergentError(
        f"bilateral sum did not reach tol={tol} within {TERM_CAP} terms",
        partial=total,
    )


def _distance_to_singular_lattice(z: complex, alpha: complex) -> float:
    """Distance from z to the excluded lattice {+-alpha + 2*pi*i*Z}."""
    best = math.inf
    for sgn in (1.0, -1.0):
        w = z - sgn * alpha
        k = round(w.imag / TWO_PI)
        for kk in (k - 1, k, k + 1):
            best = min(best, abs(w - 1j * TWO_PI * kk))
    return best


def alpha_in_two_pi_i_z(alpha: complex, tol: float = 1e-12) -> bool:
    """True when alpha lies in 2*pi*i*Z within tol (no continuation to 0)."""
    if abs(alpha.real) > tol:
        return False
    k = round(alpha.imag / TWO_PI)
    return abs(alpha.imag - TWO_PI * k) <= tol


def bilateral_exp_sum_continued_result(p: BilateralSumParams, z, tol: float = 1e-14) -> SeriesResult:
    """Analytic continuation of F(z; r, alpha) with an error certificate."""
    z = complex(z)
    alpha = complex(p.alpha)
    if alpha_in_two_pi_i_z(alpha) and abs(z) < 1e-10:
        raise DomainError(
            "F has no continuation to z = 0 when alpha lies in 2*pi*i*Z"
        )
    if _distance_to_singular_lattice(z, alpha) < 1e-10:
        raise SingularPointError(
            f"z = {z} lies on the excluded lattice +-alpha + 2*pi*i*Z"
        )
    r = p.r
    w1 = cmath.exp(alpha - z)
    w2 = cmath.exp(-alpha - z)
    h1 = hyp2f1(1.0, r, r + 1.0, w1, tol)
    h2 = hyp2f1(1.0, -r, 1.0 - r, w2, tol)
    c1 = cmath.exp(r * (alpha - z)) / r
    c2 = cmath.exp(r * (alpha + z)) / r
    value = c1 * h1.value - c2 * h2.value + c2
    est = abs(c1) * h1.est_error + abs(c2) * h2.est_error
    # F has log singularities on the excluded lattice; rounding in the
    # hypergeometric arguments is amplified by the distance to it.
    est += 5e-16 / _distance_to_singular_lattice(z, alpha)
    return SeriesResult(
        value, h1.terms_used + h2.terms_used, est, h1.converged and h2.converged
    )


def bilateral_exp_sum_continued(p: BilateralSumParams, z) -> complex:
    """Analytically continued value of F(z; r, alpha); see the module notes.

    Valid for z off the lattice +-alpha + 2*pi*i*Z, in particular at z = 0;
    agrees with :func:`bilateral_exp_sum_direct` on Re(z) > 0.
    """
    return bilateral_exp_sum_continued_result(p, z).value


def bilateral_exp_sum_resummed(
    p: BilateralSumParams, z=0.0, n_terms: int = 10**6
) -> SeriesResult:
    """Conditionally convergent evaluation by delayed iterated averaging.

    Forms the symmetric partial sums S_N over n in [-N, N], drops the
    transient first half, and applies three rounds of running (Cesaro)
    averages to the trailing window: an independent oracle for boundary
    evaluations (z on the imaginary axis, the torsion sum at z = 0), with
    the spread against half the term count as its error estimate.
    """
    z = complex(z)
    if z.real < 0:
        raise DomainError("resummation needs Re(z) >= 0")
    if abs(p.alpha.real) > z.real:
        raise DomainError(f"resummation needs |Re(alpha)| <= Re(z), got alpha={p.alpha}, z={z}")

    def run(N: int) -> complex:
        n = np.arange(-N, N + 1)
        x = n + p.r
        t = np.exp(p.alpha * x - np.abs(x) * z) / np.abs(x)
        mid = N
        sums = np.cumsum(t[mid:]).astype(complex)
        sums[1:] += np.cumsum(t[:mid][::-1])[: N]
        window = sums[N // 2 :]
        for _ in range(3):
            window = np.cumsum(window) / np.arange(1, len(window) + 1)
        return complex(window[-1])

    full = run(n_terms)
    half = run(n_terms // 2)
    est = max(5.0 * abs(full - half), 1e-9)
    return SeriesResult(full, 2 * n_terms + 1, est, True)


def bilateral_exp_sum_ewald(p: BilateralSumParams) -> SeriesResult:
    """The torsion series F(0; r, i*beta) by Ewald's split (Ewald 1921).

    For beta outside 2*pi*Z, any eta > 0 and x = n + r, F is an orbit sum
    plus a sum over the twisted-Laplacian spectrum (2 pi k - beta)^2:
        sum_n e^{i beta x} erfc(sqrt(eta)|x|)/|x|
        + sum_k e^{2 pi i k r} E1((2 pi k - beta)^2/(4 eta)).
    beta is reduced mod 2*pi first (F gains e^{2 pi i m r}), centring the
    spectral window.  est_error: the tails, by erfc(t) <= e^{-t^2}/(t sqrt(pi))
    and E1(t) <= e^{-t}/t, plus 8 ulp of the summed term moduli.
    """
    if abs(p.alpha.real) > UNITARY_TOL or alpha_in_two_pi_i_z(p.alpha):
        raise DomainError(f"the Ewald split needs alpha in i*R off 2*pi*i*Z, got {p.alpha}")
    rem = math.remainder(p.alpha.imag, TWO_PI)
    m = round((p.alpha.imag - rem) / TWO_PI)
    beta, eta = rem - m * _TWO_PI_LO, EWALD_ETA
    # Each window keeps every term whose Gaussian exponent is below 40.
    reach, kmax = math.ceil(math.sqrt(40.0 / eta)) + 1, math.ceil(math.sqrt(40.0 * eta) / math.pi)
    x, k = np.arange(-reach, reach) + p.r, np.arange(-kmax, kmax + 1)
    orbit = np.exp(1j * beta * x) * special.erfc(math.sqrt(eta) * np.abs(x)) / np.abs(x)
    e1 = special.exp1((TWO_PI * k - beta) ** 2 / (4.0 * eta))
    # Past each window edge the terms fall at least geometrically, by the
    # ratio of their Gaussian bounds at the first omitted |x| or |2 pi k - beta|.
    tail = 0.0
    for t in (reach + p.r, reach + 1.0 - p.r):
        q = math.exp(-eta * (2.0 * t + 1.0))
        tail += math.exp(-eta * t * t) / (math.sqrt(math.pi * eta) * t * t * (1.0 - q))
    for t in (TWO_PI * (kmax + 1) - beta, TWO_PI * (kmax + 1) + beta):
        q = math.exp(-math.pi * (t + math.pi) / eta)
        tail += 4.0 * eta * math.exp(-t * t / (4.0 * eta)) / (t * t * (1.0 - q))
    # The exact m*r mod 1 keeps the phase to an ulp at any |beta|.
    total = complex(orbit.sum() + (np.exp(1j * TWO_PI * k * p.r) * e1).sum())
    value = cmath.exp(1j * TWO_PI * float(Fraction(p.r) * m % 1)) * total
    mass = float(np.sum(np.abs(orbit)) + np.sum(e1))
    return SeriesResult(value, x.size + k.size, tail + 8.0 * np.finfo(float).eps * mass, True)


# ---------------------------------------------------------------------------
# Elementary log/atanh series
# ---------------------------------------------------------------------------

def log_one_minus(z) -> complex:
    """-log(1-z), principal branch.

    Defined for |z| < 1 and on the boundary |z| = 1 except z = 1 (where the
    underlying Taylor series diverges).
    """
    z = complex(z)
    if abs(z - 1.0) < 1e-14:
        raise DomainError("log(1-z) diverges at z = 1")
    if abs(z) > 1.0 + 1e-12:
        raise DomainError(f"|z| must not exceed 1, got {abs(z)}")
    return -cmath.log(1.0 - z)


def atanh_of_exp(z) -> complex:
    """2*atanh(e^z) for Re(z) < 0.

    Equals the half-integer series sum_{n>=0} e^{(n+1/2)*2z} / (n+1/2);
    principal branch throughout.
    """
    z = complex(z)
    if z.real >= 0:
        raise DomainError(f"needs Re(z) < 0, got {z}")
    return 2.0 * cmath.atanh(cmath.exp(z))
