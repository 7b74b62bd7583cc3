"""Complex series engines for the circle and sphere flow models.

The analytic core of the circle-model zeta function is the bilateral
exponential sum

    F(z; r, alpha) = sum_{n in Z} exp(alpha*(n+r) - |n+r|*z) / |n+r|,

absolutely convergent for Re(z) > |Re(alpha)|.  Its n >= 0 and n < 0 halves
are values of one function,

    F(z) = H(alpha - z; r) + H(-alpha - z; 1 - r),
    H(u; a) = sum_{n>=0} e^{u(n+a)} / (n+a) = e^{ua} Phi(e^u, 1, a),

with Phi Lerch's transcendent on its principal branch (cut w in [1, oo)).
H(u + 2 pi i m; a) = e^{2 pi i m a} H(u; a), so u is reduced to |Im u| <= pi
and H is continued by three routes (DLMF 25.14, 24.2):

* |Re u| < DISC_RADIUS, the Hurwitz-Bernoulli disc:
      H(u; a) = -gamma - log(-u) - psi(a) - sum_{k>=1} B_k(a) u^k / (k k!);
* Re u <= -DISC_RADIUS, the defining series;
* Re u >= DISC_RADIUS, the inversion
      H(u; a) = H(-u; 1 - a) + pi cot(pi a) + i pi sign(Im u)  (sign(0) = -1),
  from Phi(w,1,a) - Phi(1/w,1,1-a)/w = pi (-w)^{-a} / sin(pi a).

The continued value exists for all z outside the lattice
+-alpha + 2*pi*i*Z, where log(-u) is singular; in particular at z = 0
whenever alpha is not in 2*pi*i*Z, which is what the torsion comparisons
need.  The offset r = 0 (no n = 0 term) is the a = 1 half on both sides,
H(u; 1) = -log(1 - e^u), a closed form with no phase.  On the cut, u0 real
and positive (a real z past a real singular point), every route takes the
side Im u0 < 0, the limit from Im z > 0: sign(0) = -1 in both inversions,
and log(-u0) = log(u0) + i pi on the disc.  ``_continued_family`` is the
one kernel: it scales one orbit family (d, r, alpha), reduces both halves
(``_lattice_offsets``) and sends each to its route in straight-line code.
``_lerch_half`` takes the disc, the series, or the inversion in one call
(the series at -u plus the jump); the disc's coefficient row B_k(a)/(k k!)
is built once per family, already complex (``_disc_coefficients``).  On
rows of 40 to 60 numbers numpy's method wrappers cost as much as the
arithmetic, so the kernel calls the routines they wrap: ``np.add.reduce``
for ``.sum()``, ``np.multiply.accumulate`` over a filled ``np.empty`` row
for ``np.full(...).cumprod()``, and ``ndarray.dot`` for ``@`` (the same
BLAS dot or gemv).  Each is the loop or BLAS call its method runs, so the
floats are the methods' own; tests/test_continued_kernel.py pins them.

Everything here works in double precision with explicit error tracking;
all logarithms are principal branch.  The disc's psi(a), a in (0, 1), is
``_digamma``: Boost's rational approximation on [1, 2], the one Cephes and so
scipy.special.digamma use, which gives scipy's bits without importing scipy.
``hyp2f1`` (Gauss's 2F1, the route the continuation replaced) stays as a
standalone function that no evaluation path calls: its defining series and
the Pfaff map, nothing more.  scipy.special is imported only by
``bilateral_exp_sum_ewald`` (erfc and E1), so log R is evaluated without
scipy.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonConvergentError, SingularPointError

TWO_PI = 2.0 * math.pi
_TWO_PI_LO = 2.4492935982947064e-16  # 2*pi - TWO_PI, 6.0e-33 over
_TWO_PI_EXACT = Fraction("6.2831853071795864769252867665590057683943387987502")  # 2*pi to 50 digits
# The largest sphere angle reduced (``_reduce_angle``): |m| < 2^56 turns, where
# _reduce_2pi is within 4e-15.
_REDUCE_2PI_RANGE = 3.6e17

# The largest |Re(alpha)| of a unitary (purely imaginary) connection, for every torsion.
UNITARY_TOL = 1e-14

# Ewald splitting parameter: eta = pi gives both torsion sums one Gaussian decay.
EWALD_ETA = math.pi

# Hard cap on series terms before giving up (see NonConvergentError).
TERM_CAP = 10**7

# The one truncation target of the adaptive series here (the 2F1 series and the
# direct bilateral sum).
SERIES_TOL = 1e-14

# A point is on the excluded lattice +-alpha + 2*pi*i*Z when closer than this.
LATTICE_TOL = 1e-10

# hyp2f1 sums its series where |z|, or |z/(z-1)| on the Pfaff route, is at most this.
SERIES_RADIUS = 0.8

# The continuation's H(u; a) takes the Hurwitz-Bernoulli disc on |Re u| <
# DISC_RADIUS, where |u| <= 3.3 and its terms fall by a ratio below 0.53, and
# the defining series (ratio at most e^{-DISC_RADIUS}) elsewhere.  Both sums
# have a fixed length, with a tail below 1e-18.
DISC_RADIUS = 1.0
DISC_TERMS = 60
SERIES_TERMS = 40

# The rounding term of a certificate: this many ulps of the summed term moduli.
ROUNDING_ULPS = 8.0
_EPS = sys.float_info.epsilon


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1] as read-only (nodes, weights),
    built once at import by each module that keeps one."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _read_only(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def _bernoulli_table(n: int) -> np.ndarray:
    """B_k/k! for k = 0..n, each correctly rounded.

    The Bernoulli numbers follow from sum_{j<=k} C(k+1, j) B_j = 0 in
    integers: scaled by the product of the primes up to n+1, every B_k is an
    integer (von Staudt-Clausen), and each division below is exact.
    """
    scale = math.prod(p for p in range(2, n + 2) if all(p % q for q in range(2, p)))
    scaled = [scale]
    for k in range(1, n + 1):
        scaled.append(-sum(math.comb(k + 1, j) * scaled[j] for j in range(k)) // (k + 1))
    return _read_only([b / (scale * math.factorial(k)) for k, b in enumerate(scaled)])


def _disc_table(n: int) -> np.ndarray:
    """The convolution with B_j/j!, divided by k, as one (2n, n+1) matrix.

    Row k-1 holds B_{k-i}/((k-i)! k) at column i, and row n+k-1 the moduli,
    so the product with s^i/i! gives B_k(s)/(k k!) for k = 1..n (B_k(s) =
    sum_j C(k, j) B_j s^{k-j}) and the summed moduli of each of those sums.
    """
    bernoulli = _bernoulli_table(n)
    k, i = np.ogrid[1 : n + 1, 0 : n + 1]
    rows = np.where(i <= k, bernoulli[np.clip(k - i, 0, n)], 0.0) / k
    return _read_only(np.vstack((rows, np.abs(rows))))


# Fixed tables of the continuation, built once: the disc's convolution, 1/i!
# and the exponents i for its powers of s, n for the series.
_DISC_TABLE = _disc_table(DISC_TERMS)
_INV_FACTORIAL = _read_only([1.0 / math.factorial(i) for i in range(DISC_TERMS + 1)])
_DISC_I = _read_only(range(DISC_TERMS + 1))
_SERIES_N = _read_only(range(SERIES_TERMS))


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


@dataclass(frozen=True, init=False)
class ZetaEvaluation:
    """One evaluation of log R at sigma, with method and error certificate;
    every log R the library returns.  Fields hold Python numbers, whose repr
    the CSV and plain formats print."""

    sigma: complex
    log_R: complex
    method: str
    est_error: float
    terms: int

    def __init__(self, sigma, log_R, method: str, est_error, terms: int):
        # Each field is set once, already converted.  The record is frozen:
        # object.__setattr__ writes it and keeps the instance's compact
        # attribute storage, which writing to __dict__ would not.
        setattr_ = object.__setattr__
        setattr_(self, "sigma", complex(sigma))
        setattr_(self, "log_R", complex(log_R))
        setattr_(self, "method", method)
        setattr_(self, "est_error", float(est_error))
        setattr_(self, "terms", terms)
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
        if not cmath.isfinite(self.alpha):
            raise DomainError(f"alpha must be finite, got {self.alpha}")
        if not (0.0 < self.r < 1.0):
            raise DomainError(f"offset r must lie in (0, 1), got {self.r}")
        if self.unitary and abs(self.alpha.real) > UNITARY_TOL:
            raise DomainError(
                f"unitary flag requires Re(alpha)=0, got Re={self.alpha.real}"
            )


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1
# ---------------------------------------------------------------------------

def _is_nonpositive_integer(w: complex) -> bool:
    return abs(w.imag) < 1e-12 and w.real < 0.5 and abs(w.real - round(w.real)) < 1e-12


def _hyp2f1_series(a, b, c, z) -> SeriesResult:
    """Defining power series; |z| must be below 1 (used for |z| <= 0.8)."""
    # Geometric tail bound: the term ratio tends to |z|; the cushion
    # kappa/n majorises its approach from above.
    kappa = abs(a) + abs(b) + abs(c) + 2.0
    zabs = abs(z)
    total = 1.0 + 0j
    term = 1.0 + 0j
    n = 0
    # coef is (a+n)(b+n)/((c+n)(n+1)): the ratio of term n+1 to term n is
    # coef * z, and |coef| at the next n enters that term's tail bound.
    coef = (a + n) * (b + n) / ((c + n) * (n + 1.0))
    while n < TERM_CAP:
        term = term * (coef * z)
        total += term
        n += 1
        coef = (a + n) * (b + n) / ((c + n) * (n + 1.0))
        if abs(term) < SERIES_TOL * max(1.0, abs(total)):
            q = zabs * (max(1.0, abs(coef)) + kappa / n)
            if q < 1.0:
                tail = abs(term) * q / (1.0 - q)
                if tail < SERIES_TOL:
                    return SeriesResult(total, n + 1, tail, True)
        if term == 0:  # polynomial case terminated
            return SeriesResult(total, n + 1, 0.0, True)
    return SeriesResult(total, n + 1, float("inf"), False)


def hyp2f1(a, b, c, z) -> SeriesResult:
    """Gauss hypergeometric 2F1(a, b; c; z) by its defining power series,
    with truncation-error tracking.

    Routes: z = 0 exactly; the terminating series for a nonpositive-integer
    a or b, at any z; the series for |z| <= SERIES_RADIUS; and the Pfaff map
    z -> z/(z-1) when that lands inside the series disc.  Raises DomainError
    for a nonpositive-integer c, and NonConvergentError on the singular
    locus z = 1 (when Re(c-a-b) <= 0) or when no route covers the argument,
    z = 1 itself included.
    """
    a, b, c, z = complex(a), complex(b), complex(c), complex(z)
    if _is_nonpositive_integer(c):
        raise DomainError(f"2F1 undefined for nonpositive integer c = {c}")
    if z == 0:
        return SeriesResult(1.0 + 0j, 1, 0.0, True)
    if abs(z - 1.0) < SERIES_TOL and (c - a - b).real <= 0:
        raise NonConvergentError(f"2F1 singular at z = 1 for c-a-b = {c - a - b}")
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b) or abs(z) <= SERIES_RADIUS:
        # Inside the disc, or a polynomial, which terminates at any |z|.
        return _hyp2f1_series(a, b, c, z)
    if z != 1.0:
        zp = z / (z - 1.0)
        if abs(zp) <= SERIES_RADIUS:
            return _hyp2f1_series(a, c - b, c, zp).scaled((1.0 - z) ** (-a))
    raise NonConvergentError(
        f"no evaluation route covers 2F1({a}, {b}; {c}; {z})"
    )


# ---------------------------------------------------------------------------
# Bilateral exponential sums
# ---------------------------------------------------------------------------

def bilateral_exp_sum_direct(p: BilateralSumParams, z) -> SeriesResult:
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
        if last < SERIES_TOL * max(1.0, abs(total)) and tail < SERIES_TOL:
            return SeriesResult(total, terms, tail, True)
        block = min(2 * block, 1 << 20)
    raise NonConvergentError(
        f"bilateral sum did not reach tol={SERIES_TOL} within {TERM_CAP} terms",
        partial=total,
    )


def _reduce_2pi(y: float) -> tuple[float, int]:
    """y = beta + 2*pi*m with m an exact integer and |beta| <= pi + |m| * 3e-16.

    math.remainder by the float 2*pi is exact; the rest of 2*pi
    (_TWO_PI_LO) is then taken off beta.  Past 2^52 the float quotient can
    miss m, so there it is found in exact arithmetic.  beta is then off from
    y - 2*pi*m by at most
      * |m| 6.0e-33, the error of the two-part 2*pi (TWO_PI + _TWO_PI_LO);
      * |m| 2^-53 _TWO_PI_LO = 2.7e-32 |m|, m rounded to a float past 2^53;
      * half an ulp of m _TWO_PI_LO, 2.7e-32 |m| again, and of beta, u|beta|
        (u = 2^-53),
    6.0e-32 |m| + u|beta| in all.  Up to |y| = _REDUCE_2PI_RANGE = 3.6e17,
    where |m| < 2^56 and |beta| < pi + 14.1, that is under 4e-15, a few ulps of
    pi; past it the bound grows with |m|, and at |y| = 1e300 beta is no
    reduction at all.  The sphere angles are refused past that range
    (``_reduce_angle``); the circle's alpha and sigma still take any size.
    """
    if abs(y) <= math.pi:
        return y, 0
    rem = math.remainder(y, TWO_PI)
    if abs(y) < 2.0**52:
        m = round((y - rem) / TWO_PI)
    else:
        m = round((Fraction(y) - Fraction(rem)) / Fraction(TWO_PI))
    return rem - m * _TWO_PI_LO, m


def _reduce_angle(theta: float) -> float:
    """beta = theta - 2*pi*m, m the nearest integer, off by at most 1.6 u|beta|
    (u = 2^-53): a sphere angle, refused (DomainError) past _REDUCE_2PI_RANGE.

    ``_reduce_2pi``'s beta is off by 6.0e-32 |m| + u|beta| at most inside
    the range (see its notes), which is 1.6 u|beta| once |beta| >= 1e-15 |m|
    and |beta| <= pi.  A smaller beta (an angle close to 2*pi*Z after many
    turns, where that bound is not relative) or a larger one (left past pi,
    even past 2*pi, so that r = |beta| / 2 pi would pass 1) is formed
    exactly from _TWO_PI_EXACT, 1.2e-50 off, so by 7e-34 at most over the
    range, and rounded once.  A beta within pi on the first route keeps its
    bits.
    """
    if not abs(theta) <= _REDUCE_2PI_RANGE:
        raise DomainError(
            f"angle {theta!r} is past the range of the 2*pi reduction, |angle| <= {_REDUCE_2PI_RANGE:.2g}"
        )
    beta, m = _reduce_2pi(theta)
    if 1e-15 * abs(m) <= abs(beta) <= math.pi:
        return beta
    exact = Fraction(theta)
    return float(exact - round(exact / _TWO_PI_EXACT) * _TWO_PI_EXACT)


def _lattice_offsets(alpha: complex, z: complex) -> tuple[tuple[complex, int, float], ...]:
    """u = +alpha - z and -alpha - z, each as (u0, m, du) with
    u = u0 + 2*pi*i*m, |Im u0| <= pi and du a bound on the rounding error of u0.

    alpha and z are reduced separately, so that forming u0 costs a few ulps
    of pi at any |Im alpha| or |Im z|.  |u0| is the distance from u to
    2*pi*i*Z, that is, from z to the excluded lattice +-alpha + 2*pi*i*Z.
    """
    beta_a, m_a = _reduce_2pi(alpha.imag)
    beta_z, m_z = _reduce_2pi(z.imag)
    # Half an ulp of each rounded sum (beta_a, beta_z, their difference and
    # u0), and an ulp of each m times the rest of 2*pi, whose own remainder
    # is below 6e-33.
    shared = _EPS * (abs(beta_a) + abs(beta_z) + (abs(m_a) + abs(m_z) + 1) * _TWO_PI_LO)
    # The two halves written out; negation is exact, signed zeros included.
    beta1, k1 = _reduce_2pi(beta_a - beta_z)
    beta2, k2 = _reduce_2pi(-beta_a - beta_z)
    re1, re2 = alpha.real - z.real, -alpha.real - z.real
    return (
        (complex(re1, beta1), m_a - m_z + k1, shared + 0.5 * _EPS * (abs(re1) + abs(beta1))),
        (complex(re2, beta2), -m_a - m_z + k2, shared + 0.5 * _EPS * (abs(re2) + abs(beta2))),
    )


def alpha_in_two_pi_i_z(alpha: complex) -> bool:
    """True when z = 0 is on the excluded lattice (no continuation to 0)."""
    return min(abs(u0) for u0, _, _ in _lattice_offsets(complex(alpha), 0j)) < LATTICE_TOL


def _disc_coefficients(s: float) -> tuple[np.ndarray, np.ndarray]:
    """(c, moduli): B_k(s)/(k k!) for k = 1..DISC_TERMS as a complex row,
    and as a real row the summed moduli of the convolution that forms each,
    which bound its rounding.  c is cast to complex once per family, the
    cast that a real row's ``c.dot(powers)`` makes in every disc half, so the
    product is the same float."""
    rows = _DISC_TABLE.dot(s**_DISC_I * _INV_FACTORIAL)  # the dgemv that @ calls
    return rows[:DISC_TERMS].astype(complex), rows[DISC_TERMS:]


# psi on [1, 2] is (x - root) (Y + P(x - 1)/Q(x - 1)), with root the positive
# zero of psi in three parts and Y a float32 constant (Boost's digamma_imp_1_2).
_PSI_Y = 0.99558162689208984
_PSI_ROOT_HI = 1569415565.0 / 1073741824.0
_PSI_ROOT_MID = (381566830.0 / 1073741824.0) / 1073741824.0
_PSI_ROOT_LO = 0.9016312093258695918615325266959189453125e-19


def _digamma(a: float) -> float:
    """psi(a) for a in (0, 1), as psi(a) = -1/a + psi(a + 1).

    psi on [1, 2] is Boost's rational approximation, the one Cephes' psi
    (and so scipy.special.digamma) takes, in the same operation order: the
    result equals scipy's bit for bit.  Its relative error against mpmath at
    40 digits is at most 3 ulps of |psi| (2.2 at worst on 200,016 seeded a,
    uniform, log-uniform down to 1e-300 and 1 - 10^-k; tests/test_series.py
    keeps 3,000 of them), inside the ROUNDING_ULPS = 8 ulps of |psi| that
    the disc's certificate counts.
    """
    x = a + 1.0
    t = x - 1.0
    # P and Q by Horner's rule, highest power first.
    p = (((((-0.0020713321167745952 * t + -0.045251321448739056) * t + -0.28919126444774784) * t
           + -0.65031853770896507) * t + -0.32555031186804491) * t + 0.25479851061131551)
    q = ((((((-0.55789841321675513e-6 * t + 0.0021284987017821144) * t + 0.054151797245674225) * t
            + 0.43593529692665969) * t + 1.4606242909763515) * t + 2.0767117023730469) * t + 1.0)
    g = x - _PSI_ROOT_HI - _PSI_ROOT_MID - _PSI_ROOT_LO
    return -1.0 / a + (g * _PSI_Y + g * (p / q))


def _exp_2pi_i(r: float, m: int) -> complex:
    """e^{2 pi i m r}, with m*r mod 1 exact: r is a dyadic fraction n/d."""
    n, d = r.as_integer_ratio()
    return cmath.exp(1j * TWO_PI * (m * n % d / d))


def _lerch_half(u0: complex, du: float, a: float, b: float, cot: float, coefficients):
    """H(u0; a) = sum_{n>=0} e^{u0(n+a)}/(n+a), continued, for |Im u0| <= pi.

    b = 1 - a and cot = pi cot(pi a) come in exactly; coefficients are
    ``_disc_coefficients(min(a, b))``, needed on the disc only.  du bounds
    the error of u0 itself.  Re u0 >= DISC_RADIUS is inverted in this call:
    the defining series at -u0 with offset b, then the jump
    pi cot(pi a) + i pi sign(Im u0) and its rounding.  Returns (value,
    terms, tail, rounding, conditioning): the truncation bound,
    ROUNDING_ULPS ulps of the summed term moduli, and du times a bound on
    |dH/du0|.
    """
    inverted = u0.real >= DISC_RADIUS
    if inverted or u0.real <= -DISC_RADIUS:
        v, s = (-u0, b) if inverted else (u0, a)
        x = _SERIES_N + s
        # x as complex once, for the product and the quotient (each would cast it).
        xc = x.astype(complex)
        t = np.multiply(v, xc)
        np.exp(t, out=t)
        t /= xc
        moduli = np.abs(t)
        slope = float(moduli.dot(x))  # sum |dt/du0|
        q = math.exp(v.real)
        tail = q ** (SERIES_TERMS + s) / ((SERIES_TERMS + s) * (1.0 - q))
        # The exponent v x is rounded too: |v| x ulps of each term.
        rounding = ROUNDING_ULPS * _EPS * (float(np.add.reduce(moduli)) + abs(v) * slope)
        value = complex(np.add.reduce(t))
        if inverted:
            jump = complex(cot, math.pi if u0.imag > 0 else -math.pi)
            value += jump
            rounding += ROUNDING_ULPS * _EPS * abs(jump)
        return value, SERIES_TERMS, tail, rounding, du * slope
    # B_k(1 - s) = (-1)^k B_k(s): the larger offset sums its power series at -u0.
    c, c_moduli = coefficients
    powers = np.empty(DISC_TERMS, dtype=complex)
    powers.fill(-u0 if a > b else u0)
    powers = np.multiply.accumulate(powers)  # the scan that cumprod runs
    # On the cut (u0 > 0 real) the side of Im u0 < 0, as the inversion's sign(0) = -1.
    log = cmath.log(complex(-u0.real, 0.0) if u0.real > 0.0 and not u0.imag else -u0)
    psi = _digamma(a)
    value = -np.euler_gamma - log - psi - complex(c.dot(powers))
    moduli = np.euler_gamma + abs(log) + abs(psi) + float(c_moduli.dot(np.abs(powers)))
    # |B_k(a)|/k! <= 2 zeta(k)/(2 pi)^k <= 4/(2 pi)^k for k >= 2 (DLMF 24.8.1-2).
    rho = abs(u0) / TWO_PI
    tail = 4.0 * rho ** (DISC_TERMS + 1) / ((DISC_TERMS + 1) * (1.0 - rho))
    # |d/du0| of log(-u0) is 1/|u0|; of the power series, by the same bound,
    # at most 1/2 + (zeta(2)/pi) rho/(1 - rho) < 2.
    conditioning = du * (1.0 / (abs(u0) - du) + 2.0)
    return value, DISC_TERMS, tail, ROUNDING_ULPS * _EPS * moduli, conditioning


def _offset_zero_half(u0: complex, du: float):
    """H(u0; 1) = -log(1 - e^{u0}), the half of an offset-0 family, as
    -log(-expm1(u0)) (e^u is 2*pi*i-periodic: no phase), its real part by
    log1p where |e^{u0}| < 1/2, so that it stays relative.  For Re u0 > 0,
    where e^{u0} may overflow, it is the inversion
    -log(1 - e^{-u0}) - u0 + i pi sign(Im u0), sign(0) = -1 as in
    ``_lerch_half``.  Returns (value, terms, tail, rounding, conditioning)
    as ``_lerch_half`` does: no tail, ROUNDING_ULPS ulps of the term moduli
    (|log|, the parts of expm1 over its modulus, and |u0| + pi when
    inverted) and du |dH/du0| = du / |1 - e^{-u0}|.
    """
    inverted = u0.real > 0.0
    v = -u0 if inverted else u0
    # expm1(x + iy) = expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y, each part to a few ulps.
    s, e_x, cos_y = math.sin(0.5 * v.imag), math.exp(v.real), math.cos(v.imag)
    a, b, c = math.expm1(v.real) * cos_y, 2.0 * s * s, e_x * math.sin(v.imag)
    w = complex(b - a, -c)  # 1 - e^{v}
    log = cmath.log(w)
    if e_x < 0.5:
        # |w|^2 = 1 + e^x (e^x - 2 cos y): log1p keeps Re log w relative where |e^v| is small.
        log = complex(0.5 * math.log1p(e_x * (e_x - 2.0 * cos_y)), log.imag)
    value = -log
    moduli = abs(log) + (abs(a) + b + abs(c)) / abs(w)
    gain = e_x  # |dH/du0| = gain / |w|
    if inverted:
        value += complex(-u0.real, (math.pi if u0.imag > 0 else -math.pi) - u0.imag)
        moduli += abs(u0) + math.pi
        gain = 1.0
    return value, 1, 0.0, ROUNDING_ULPS * _EPS * moduli, du * gain / abs(w)


def _continued_family(d: float, r: float, alpha: complex, sigma: complex) -> tuple[complex, int, float]:
    """F(|d| sigma; r, d alpha) of one orbit family, as (value, terms, est_error).

    F = H(d alpha - z; r) + H(-d alpha - z; 1 - r) at z = |d| sigma, each
    half by the route of its reduced u0 (see the module notes; the inversion
    happens inside ``_lerch_half``) times the phase e^{2 pi i m a}, taken
    from the exact m*a mod 1; at r = 0 each half is H(u0; 1)
    (``_offset_zero_half``); the disc coefficients are built once, and only
    when a half is on the disc.  est_error sums, over both halves, the tail bounds, ROUNDING_ULPS ulps of
    the summed term moduli and the conditioning of H on the error of u0
    (1/|u0| from log(-u0) near the excluded lattice).  terms counts the
    series terms summed over both halves.  Raises DomainError for a z that
    is not finite and SingularPointError on the excluded lattice; both name
    sigma.
    """
    z = sigma
    if d != 1.0:  # real factors scale each part alone, which keeps signed zeros
        alpha = complex(d * alpha.real, d * alpha.imag)
        z = complex(abs(d) * z.real, abs(d) * z.imag)
    if not cmath.isfinite(z):
        raise DomainError(f"the continuation needs a finite z = |d| sigma, got sigma = {sigma}")
    (u1, m1, du1), (u2, m2, du2) = _lattice_offsets(alpha, z)
    if abs(u1) < LATTICE_TOL or abs(u2) < LATTICE_TOL:
        raise SingularPointError(f"sigma = {sigma} is a singular point of the continuation")
    if r:
        # min(r, 1 - r) is exact: 1 - r is, for r >= 1/2 (Sterbenz).
        b = 1.0 - r
        small = min(r, b)
        cot = math.pi / math.tan(math.pi * small)  # pi cot(pi r), up to sign
        if small != r:
            cot = -cot
        coefficients = None
        if abs(u1.real) < DISC_RADIUS or abs(u2.real) < DISC_RADIUS:
            coefficients = _disc_coefficients(small)
        h1, n1, tail1, rounding1, conditioning1 = _lerch_half(u1, du1, r, b, cot, coefficients)
        if m1:  # e^{2 pi i m a}, with e^{2 pi i m (1 - r)} = e^{-2 pi i m r}
            h1 *= _exp_2pi_i(r, m1)
        h2, n2, tail2, rounding2, conditioning2 = _lerch_half(u2, du2, b, r, -cot, coefficients)
        if m2:
            h2 *= _exp_2pi_i(r, -m2)
    else:
        h1, n1, tail1, rounding1, conditioning1 = _offset_zero_half(u1, du1)
        h2, n2, tail2, rounding2, conditioning2 = _offset_zero_half(u2, du2)
    # The sums start from 0j and 0.0, which turn a signed zero to +0.
    value = 0j + h1 + h2
    est = 0.0 + (tail1 + rounding1 + conditioning1) + (tail2 + rounding2 + conditioning2)
    return value, n1 + n2, est


def bilateral_exp_sum_continued_result(p: BilateralSumParams, z) -> SeriesResult:
    """Analytic continuation of F(z; r, alpha) with an error certificate: the
    family (1, r, alpha) of ``_continued_family`` at sigma = z."""
    return SeriesResult(*_continued_family(1.0, p.r, complex(p.alpha), complex(z)), True)


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
    evaluations (z on the imaginary axis, the torsion sum at z = 0).  Its
    est_error, max(5 |full - half|, 1e-9) from the spread against half the
    term count, is an estimate, not a bound: the result is uncertified, and
    no evaluation path, CLI verb or selftest reads it.
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
    from scipy import special

    if abs(p.alpha.real) > UNITARY_TOL or alpha_in_two_pi_i_z(p.alpha):
        raise DomainError(f"the Ewald split needs alpha in i*R off 2*pi*i*Z, got {p.alpha}")
    beta, m = _reduce_2pi(p.alpha.imag)
    eta = EWALD_ETA
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
    value = _exp_2pi_i(p.r, m) * total
    mass = float(np.sum(np.abs(orbit)) + np.sum(e1))
    return SeriesResult(value, x.size + k.size, tail + ROUNDING_ULPS * _EPS * mass, True)


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
