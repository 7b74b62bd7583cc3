"""The worked flow geometries and their closed-orbit data.

Each model packages one equivariant flow: the translation flow on the line
(acted on by R or by Z), the rotation flow on the circle, the geodesic flow
on Euclidean space acted on by a crystallographic motion group, and the
geodesic flows on the 2- and 3-sphere frame bundles.  A model produces, for
a group element g, its closed orbits: the times at which some orbit closes
up to g, with the exponent a of each holonomy trace e^a.  The sign of
det(1-P) is +1 throughout, and the cutoff-primitive period (the coset
integral over conjugators folded in) is one number per model.

Normalization conventions folded into the stored periods:
  * line/lattice/circle: period 1 (the normalized cutoff integrates to 1);
  * Euclidean lattice: period a/k for a cyclic rotation factor of order k
    (one fundamental translation cell split across the rotation subgroup);
  * spheres: period 2*pi with the conjugation-orbit measure normalized to
    unit volume, which makes log R(sigma) carry the overall factor pi.

The model protocol: ``zeta`` asks a model everything geometry-specific
through these FlowModel members (base default in brackets).  A new geometry
subclasses FlowModel and implements them.
  * element(g): the one check of a group element, called by every method
    that reads g [none]; integer inputs (lattice g, Euclidean l0, m, n and
    order) all go through ``_integer``, which refuses and never truncates,
    and real ones (line g, circle r0, sphere angles, Euclidean a and theta)
    through ``_real``, which refuses a nonfinite or nonreal value
  * families(g): an infinite spectrum as families (d, r, alpha): the lengths
    d(n + r), n in Z, holonomy exponent alpha l, weight ``period`` [NotImplementedError]
  * orbits(g, window): the closed orbits with 0 < |l| <= window in any order, as
    (lengths, holonomy exponents a), arrays or lists; the holonomy trace is
    e^a and every sign of det(1-P) is +1 [from families]
  * period: the folded cutoff-primitive period of every orbit [1.0]
  * validate(g): diagnostics [NotImplementedError]; infinite_spectrum [False]
  * nondegeneracy(g): (nondegenerate, witness), the one verdict the flat
    trace reads; the spheres decide it by the eigenvalue rule alone, without
    validate's other diagnostics [validate's two fields]
  * tail_bound(g, sigma, window): bound on the direct sum beyond the window
    [0 for a finite spectrum, summed whole; from families otherwise]
  * log_closed(g, sigma): log R as a ZetaEvaluation, by closed form or
    continuation [for a family model, the sum over families(g) of
    series._continued_family, weighted period / 2|d|, offset 0 included; for
    a finite spectrum, the sum over orbits(g, inf) of period e^{a - |l| sigma}
    / 2|l|, exponent folded, with a rounding bound for each term]
  * torsion(g): log of the torsion as a SeriesResult, by closed form or a
    spectral series [for a finite spectrum, log_closed at sigma = 0, refused
    unless every exponent is purely imaginary; DomainError otherwise]
  * period_numeric(g, profile, quad): the cutoff-primitive period once
    ``_admissible_reach`` admits the profile; only Euclid integrates [period; finite: DomainError]
The finite models (line, lattice, euclid) answer element, orbits and validate
(and their own period_numeric); FlowModel derives the rest.  FlowModel alone
derives three views from orbits, each holonomy the np.exp of its exponent:
orbit_data(g, window) (the spectrum as a float array and the summed sign *
holonomy * period per length; the direct sum and the flat trace read only
this), length_spectrum(g, window) and orbit_contributions(g, l).  All three
share one orbit budget: an infinite spectrum is built only out to
_ORBIT_BUDGET / 2 in |l|.  orbit_data is a sorted build (``_orbit_table``)
and a window cut (``_window_cut``): a direct sweep builds once, at its
largest window, and cuts each sigma's window from that build.

Eigenvalue-one and rotation-axis decisions are made only in ``rotations``.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NonConvergentError, NotApplicableError
from .rotations import (
    AxisRotation,
    block_rotation,
    rotation_about_last_axis,
    solve_transverse,
    unit_eigenvalue_multiplicity,
)
from .series import (
    UNITARY_TOL,
    BilateralSumParams,
    SeriesResult,
    ZetaEvaluation,
    _EPS,
    _continued_family,
    _read_only,
    _reduce_angle,
    alpha_in_two_pi_i_z,
    bilateral_exp_sum_ewald,
    gauss_legendre,
)

TWO_PI = 2.0 * math.pi
_FAMILY_TOL = 1e-10  # orbits closer than this are one atom of the spectrum
_UNDERFLOW = 2.0**-1069  # over min(den, 1): a bound on a closed-form term that underflows

# The most orbits one build may make (about 110 bytes each), as 2 per unit
# window: the circle's density, which bounds every model's (sphere2 has
# 2/pi, sphere3 4/pi).
_ORBIT_BUDGET = 2 * 10**6

# The cutoff profile kinds that vanish at distance radius and beyond.
_COMPACT_KINDS = ("raised_cosine", "smoothed_indicator")


def _integer(name: str, value) -> int:
    """The one integer rule: a real equal to an integer as that int, else DomainError."""
    try:
        if float(value) == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be an integer, got {value}")


def _real(name: str, value) -> float:
    """The one real rule: a finite real as a float, else DomainError."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number") from exc
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return value


def _connection(name: str, value) -> complex:
    """The one connection rule: a finite complex as a complex, else DomainError."""
    try:
        value = complex(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a complex number") from exc
    if not cmath.isfinite(value):
        raise DomainError(f"{name} must be finite")
    return value


def _tolerance(tol, name: str = "tol") -> float:
    """The one tolerance rule: 0 < tol < 1, else DomainError (nan included)."""
    if not 0 < tol < 1:
        raise DomainError(f"{name} must lie in (0, 1), got {tol}")
    return tol


@dataclass(frozen=True)
class OrbitContribution:
    """One closed-up orbit at time l: sign of det(1-P), holonomy trace,
    and the folded cutoff-primitive period."""

    l: float
    sign: int
    holonomy: complex
    period: float

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise DomainError("sign must be +-1")
        if not self.period > 0:
            raise DomainError("period must be positive")
        if self.l == 0:
            raise DomainError("orbit length must be nonzero")

    @property
    def weight(self) -> complex:
        """sign * holonomy * period, the atom weight before negation."""
        return self.sign * self.holonomy * self.period


@dataclass(frozen=True)
class EuclideanElement:
    """Group element (a*l0*v0 + w_prime, r^m) of a Euclidean lattice model."""

    l0: int
    m: int = 1
    w_prime: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "l0", _integer("l0", self.l0))
        object.__setattr__(self, "m", _integer("m", self.m))


@dataclass(frozen=True)
class CutoffProfile:
    """A named nonnegative bump used to realise the cutoff function.

    The cutoff is the profile divided by its group-translate sum (or
    integral), which makes the translates sum to one.  A profile is used
    only once ``_admissible_reach`` accepts it for the model's group.
    """

    kind: str = "gaussian"
    width: float = 0.35
    radius: float = 1.2

    def _support(self, dist2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distance d = sqrt(dist2), dist2 >= 0, and the support mask
        d < radius of a compact kind (raised cosine, smoothed indicator): the
        profile is 0 at every distance where the mask is False."""
        d = np.sqrt(dist2)
        return d, d < self.radius

    def __call__(self, dist2: np.ndarray) -> np.ndarray:
        """The profile at the squared distances dist2; a NaN or negative one
        is refused (DomainError) whatever the kind."""
        if not np.all(np.asarray(dist2) >= 0.0):
            raise DomainError("a squared distance must be a number >= 0")
        return self._values(dist2)

    def _values(self, dist2: np.ndarray) -> np.ndarray:
        """The profile at squared distances the caller knows are >= 0, unchecked."""
        if self.kind == "gaussian":
            return np.exp(-dist2 / (2.0 * self.width**2))
        if self.kind == "constant":
            return np.ones(np.shape(dist2))
        if self.kind not in _COMPACT_KINDS:
            raise DomainError(f"unknown cutoff profile kind {self.kind!r}")
        d, inside = self._support(dist2)
        if self.kind == "raised_cosine":
            out = np.zeros_like(d)
            out[inside] = 0.5 * (1.0 + np.cos(math.pi * d[inside] / self.radius))
            return out
        out = np.ones_like(d)
        edge = self.radius - self.width
        ramp = (d > edge) & inside
        out[d >= self.radius] = 0.0
        out[ramp] = 0.5 * (1.0 + np.cos(math.pi * (d[ramp] - edge) / self.width))
        return out


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature controls of the Euclidean cutoff period, the only period
    integrated: ``panel`` drives the composite Gauss-Legendre rule along the
    orbit, ``radius`` caps the lattice truncation and ``tol`` is the tail
    certificate target (the other models read only ``tol``)."""

    panel: float = 0.12
    radius: float = 9.0
    tol: float = 1e-8


@dataclass(frozen=True)
class ModelDiagnostics:
    """Validation report: nondegeneracy witness and continuation flags."""

    nondegenerate: bool
    witness: str
    alpha_in_lattice: bool
    continuation_available: bool
    laplacian_kernel_nonzero: bool
    dense_powers_ok: bool | None = None
    dense_powers_detail: str = ""
    spectrum_collisions: int = 0


def _rational_proxy(ratio: float):
    """Best rational approximation diagnostic for the dense-powers proxy.

    Returns (ok, detail): ok is False when ratio admits p/q with q <= 10^4
    and error < 1e-12, which would put the group element uncomfortably close
    to finite order.
    """
    frac = Fraction(ratio).limit_denominator(10**4)
    err = abs(ratio - float(frac))
    ok = err >= 1e-12
    return ok, f"|{ratio:.12g} - {frac.numerator}/{frac.denominator}| = {err:.3e}"


def _merge(lengths: list, weights: list, inside: list) -> tuple[np.ndarray, np.ndarray]:
    """Sorted orbits closer than _FAMILY_TOL to the first in-window length of
    their cluster become one atom there, weights summed in row order; a
    cluster with no length inside the window is dropped."""
    clusters = []  # [anchor, first in-window length, summed weight]
    for l, w, ok in zip(lengths, weights, inside):
        if not clusters or l - clusters[-1][0] > _FAMILY_TOL:
            clusters.append([l, None, 0])
        cluster = clusters[-1]
        cluster[2] += w
        if ok and cluster[1] is None:
            cluster[0] = cluster[1] = l
    kept = [c for c in clusters if c[1] is not None]
    return np.array([c[1] for c in kept], dtype=float), np.array([c[2] for c in kept], dtype=complex)


@functools.lru_cache(maxsize=8)
def _upper_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of a dim x dim matrix (np.triu_indices), as
    read-only arrays built once per dimension."""
    pairs = np.triu_indices(dim, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _distinct(values: np.ndarray) -> int:
    """The number of values left once those closer than _FAMILY_TOL merge."""
    values = np.sort(values).tolist()
    return len(_merge(values, [0] * len(values), [True] * len(values))[0])


class FlowModel:
    """Base class: the model protocol (see the module notes)."""

    name = "abstract"
    infinite_spectrum = False
    period = 1.0

    def families(self, g) -> list[tuple[float, float, complex]]:
        raise NotImplementedError

    def orbits(self, g, window: float) -> tuple[np.ndarray, np.ndarray]:
        lengths, exponents = [], []
        for d, r, alpha in self.families(g):
            n = np.arange(math.floor(-window / abs(d) - r), math.ceil(window / abs(d) - r) + 1)
            family = d * (n + r)
            family = family[(family != 0) & (np.abs(family) <= window)]
            lengths.append(family)
            exponents.append(alpha * family)
        return np.concatenate(lengths), np.concatenate(exponents)

    def _check_budget(self, window: float) -> None:
        """Refuse a window in which an infinite spectrum would pass the orbit budget."""
        if self.infinite_spectrum and 2 * window > _ORBIT_BUDGET:
            raise NonConvergentError(f"window {window:.3g} would exceed the term cap")

    def _orbits(self, g, window: float, margin: float) -> tuple[np.ndarray, np.ndarray]:
        """orbits(g, window + margin), refused before any is built when an
        infinite spectrum would pass the orbit budget inside the window."""
        self._check_budget(window)
        return self.orbits(g, window + margin)

    def _orbit_table(self, g, window: float) -> tuple[np.ndarray, np.ndarray]:
        """The orbits out to a tolerance past the window, sorted by length
        (stably), and the weight of each: one build that ``_window_cut`` cuts
        to this window or any smaller one."""
        # Orbits a tolerance past the window: one just outside it still merges
        # with a length just inside, as in orbit_contributions.
        lengths, exponents = self._orbits(g, window, _FAMILY_TOL)
        lengths = np.asarray(lengths, dtype=float)
        order = np.argsort(lengths, kind="stable")
        # 0 + sign * holonomy * period, with Python's complex operations in
        # Python's order: the floats sum(c.weight for c in orbit_contributions)
        # makes, an overflowed holonomy's inf and nan included (Python makes
        # them silently).
        with np.errstate(over="ignore", invalid="ignore"):
            weights = 0 + 1 * np.exp(np.asarray(exponents, dtype=complex)[order]) * self.period
        return lengths[order], weights

    @staticmethod
    def _window_cut(table: tuple[np.ndarray, np.ndarray], window: float) -> tuple[np.ndarray, np.ndarray]:
        """orbit_data at the window from an ``_orbit_table`` built at it or past
        it.  The rows with |l| <= window + _FAMILY_TOL are one slice of the
        sorted table, in the order and with the weights a build at the window
        gives them (a family's lengths d(n + r) do not depend on the window)."""
        lengths, weights = table
        reach = window + _FAMILY_TOL
        lo, hi = np.searchsorted(lengths, -reach, "left"), np.searchsorted(lengths, reach, "right")
        lengths, weights = lengths[lo:hi], weights[lo:hi]
        inside = np.abs(lengths) <= window
        if np.all(lengths[1:] - lengths[:-1] > _FAMILY_TOL):
            return lengths[inside], weights[inside]
        return _merge(lengths.tolist(), weights.tolist(), inside.tolist())

    def orbit_data(self, g, window: float) -> tuple[np.ndarray, np.ndarray]:
        if not window > 0:
            raise DomainError("window must be positive")
        return self._window_cut(self._orbit_table(g, window), window)

    def length_spectrum(self, g, window: float) -> list[float]:
        return self.orbit_data(g, window)[0].tolist()

    def orbit_contributions(self, g, l: float) -> list[OrbitContribution]:
        lengths, exponents = self._orbits(g, abs(l), 1.0)
        near = np.abs(np.asarray(lengths, dtype=float) - l) <= _FAMILY_TOL
        if not near.any():
            raise DomainError(f"l = {l} is not in the delocalised length spectrum")
        # A holonomy that overflows comes back as inf or nan, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            holonomies = np.exp(np.asarray(exponents, dtype=complex)[near]).tolist()
        return [OrbitContribution(l=l, sign=1, holonomy=hol, period=self.period) for hol in holonomies]

    def validate(self, g) -> ModelDiagnostics:
        raise NotImplementedError

    def nondegeneracy(self, g) -> tuple[bool, str]:
        diag = self.validate(g)
        return diag.nondegenerate, diag.witness

    def tail_bound(self, g, sigma: complex, window: float) -> float:
        if not self.infinite_spectrum:
            return 0.0
        total = 0.0
        for d, _, alpha in self.families(g):
            # Two progressions of gap |d| past the window; a divergent sum is inf, not an overflow.
            q = math.exp(min(0.0, abs(alpha.real) - sigma.real))
            if q >= 1.0:
                return float("inf")
            total += 2.0 * self.period * q ** window / (window * (1.0 - q ** abs(d)))
        return total

    def log_closed(self, g, sigma: complex) -> ZetaEvaluation:
        """An infinite spectrum's families, continued (``_continued``); a finite
        spectrum summed whole, log R = 1/2 sum period e^{a - |l| sigma} / |l|
        over orbits(g, inf), each term t = cmath.exp(a - |l| sigma) / den,
        den = 2|l| / period, summed from the first term (no orbit: 0).

        Its est_error counts each rounding, u = eps / 2 apiece:
          * the exponent x = a - |l| sigma: a = alpha l is off by u|a|, |l| sigma
            by u|l||sigma|, their difference by u|x|, and a length that is
            itself rounded (euclid's a l0) adds u to a and to |l| sigma, so
            |dx| <= 1.5 eps S with S = |a| + |l||sigma|.  A term with
            eps S > 1/24 is refused; below that |e^{dx} - 1| <= 1.04 |dx|;
          * cmath.exp of the rounded x: exp, cos or sin (an ulp each) and their
            product, 5 u (7 u past its scaling point, where it multiplies by a
            rounded e); the period (a / k), 1/|l| of a rounded length, den and
            the division, u each: 12 u = 6 eps at most;
          * |t| against the computed |t_k|: a factor e^{|dx|} <= 1.07.
        So a term is off by at most 1.07 (1.07 * 6 eps + 1.04 * 1.5 eps S)|t_k|
        = (6.9 eps + 1.7 eps S)|t_k|, under (k0 eps + c eps S)|t_k| with
        k0 = 8 and c = 2.  A term that underflows is off by at most
        2^-1070 (1 + 1/den) <= 2^-1069 / min(den, 1).  Each addition rounds its
        partial sum by u|sum| at most: eps |sum| is counted at every partial sum,
        the first included, so one orbit or two give the shape
        sum_k (k0 eps + c eps S_k)|t_k| + eps |value| (two with eps |t_1| to spare).
        """
        if self.infinite_spectrum:
            return self._continued(self.families(g), sigma)
        value, est_error, terms = 0j, 0.0, 0
        for l, a in zip(*self.orbits(g, math.inf)):
            den, size = 2.0 * abs(l) / self.period, abs(a) + abs(l) * abs(sigma)
            if not _EPS * size <= 1.0 / 24.0:
                raise DomainError(f"the exponent at l = {l} is past the float precision")
            t = cmath.exp(a - abs(l) * sigma) / den
            value, terms = value + t if terms else t, terms + 1
            est_error += _EPS * ((8.0 + 2.0 * size) * abs(t) + abs(value)) + _UNDERFLOW / min(den, 1.0)
        return ZetaEvaluation(sigma, value, "closed", est_error, terms)

    def _continued(self, families, sigma: complex) -> ZetaEvaluation:
        """The sum of (period / 2|d|) F(|d| sigma; r, d alpha) over the families
        (``series._continued_family``): "closed" when every r is 0, else "continuation"."""
        value, est_error, terms, method = None, 0.0, 0, "closed"
        for d, r, a in families:
            if r:
                method = "continuation"
            v, n, e = _continued_family(d, r, a, sigma)
            c = self.period / (2.0 * abs(d))
            value = c * v if value is None else value + c * v
            est_error, terms = est_error + c * e, terms + n
        return ZetaEvaluation(sigma, value, method, est_error, terms)

    def torsion(self, g) -> SeriesResult:
        """A finite spectrum's log R(0) and its certificate, refused unless every
        exponent is purely imaginary (``_unitary`` of a / l, the one unitary
        line): Fried reads one formula twice until a spectral route."""
        if self.infinite_spectrum:
            raise DomainError(f"no torsion value registered for {self!r}")
        for l, a in zip(*self.orbits(g, math.inf)):
            _unitary(a / l)
        ev = self.log_closed(g, 0j)
        return SeriesResult(ev.log_R, ev.terms, ev.est_error, True)

    def period_numeric(self, g, profile: CutoffProfile, quad: QuadratureSpec) -> float:
        if not self.infinite_spectrum:
            raise DomainError(f"no cutoff-period rule for model {self!r}")
        self.element(g)
        _admissible_reach(profile, quad.tol, compact=True)
        return self.period


def _unitary(alpha) -> complex:
    """The connection parameter of a torsion, refused unless purely imaginary."""
    alpha = complex(alpha)
    if abs(alpha.real) > UNITARY_TOL:
        raise DomainError("torsion values require purely imaginary alpha")
    return alpha


@dataclass(frozen=True)
class LineModel(FlowModel):
    """Translation flow on the line, acted on by the whole line."""

    alpha: complex = 0j
    name = "line"
    _spacing = 0.0  # of the translates along the orbit (0: a continuous group)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _connection("alpha", self.alpha))

    def element(self, g) -> float:
        return _real("line group element", g)

    def orbits(self, g, window: float) -> tuple[list[float], list[complex]]:
        g = float(self.element(g))
        return ([g], [self.alpha * g]) if g != 0 and abs(g) <= window else ([], [])

    def validate(self, g=None) -> ModelDiagnostics:
        return ModelDiagnostics(
            nondegenerate=True,
            witness="transverse space is zero-dimensional",
            alpha_in_lattice=alpha_in_two_pi_i_z(self.alpha),
            continuation_available=True,
            laplacian_kernel_nonzero=False,
        )

    def period_numeric(self, g, profile: CutoffProfile, quad: QuadratureSpec) -> float:
        self.element(g)
        _admissible_reach(profile, quad.tol, spacing=self._spacing)
        return self.period


@dataclass(frozen=True)
class IntegerLatticeModel(LineModel):
    """Translation flow on the line, acted on by the integer lattice."""

    name = "lattice"
    _spacing = 1.0  # the integer translates of the line itself (rho = 0)

    def element(self, g) -> int:
        return _integer("lattice group element", g)


@dataclass(frozen=True)
class CircleModel(FlowModel):
    """Rotation flow on the circle R/Z; class r0 = 0 is the identity class."""

    alpha: complex = 0j
    name = "circle"
    infinite_spectrum = True

    def __post_init__(self):
        object.__setattr__(self, "alpha", _connection("alpha", self.alpha))

    def element(self, r0) -> float:
        r0 = _real("circle class", r0)
        if not (0.0 <= r0 < 1.0):
            raise DomainError(f"circle class must lie in [0, 1), got {r0}")
        return r0

    def families(self, r0) -> list[tuple[float, float, complex]]:
        # l = n + r0 (or n itself for the identity class): holonomy e^{alpha*l}.
        return [(1.0, self.element(r0), self.alpha)]

    def validate(self, r0=0.0) -> ModelDiagnostics:
        in_lattice = alpha_in_two_pi_i_z(self.alpha)
        return ModelDiagnostics(
            nondegenerate=True,
            witness="transverse space is zero-dimensional",
            alpha_in_lattice=in_lattice,
            continuation_available=not in_lattice,
            laplacian_kernel_nonzero=in_lattice,
        )

    def torsion(self, r0) -> SeriesResult:
        """The spectral torsion: Ewald's split off the identity class, else a closed form."""
        alpha = _unitary(self.alpha)
        if alpha_in_two_pi_i_z(alpha):
            raise DomainError("torsion needs alpha outside 2*pi*i*Z for circle classes")
        r0 = self.element(r0)
        if r0 == 0.0:
            # (-(2 sinh(alpha/2))^2)^{-1/2} in log space equals the
            # identity-class closed form at sigma = 0.
            return SeriesResult(-0.5 * cmath.log(-((2.0 * cmath.sinh(alpha / 2.0)) ** 2)), 1, 0.0, True)
        return bilateral_exp_sum_ewald(BilateralSumParams(r=r0, alpha=alpha)).scaled(0.5)


def _lattice_basis(order: int) -> np.ndarray:
    """Generators (as rows) of a lattice in the plane x3 = 0 invariant under
    rotation by 2*pi/order; only the crystallographic orders admit one."""
    if order in (1, 2, 4):
        return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    if order in (3, 6):
        return np.array([[1.0, 0.0, 0.0], [0.5, math.sqrt(3.0) / 2.0, 0.0]])
    raise DomainError(
        f"no rotation-invariant plane lattice of order {order} (crystallographic restriction)"
    )


@dataclass(frozen=True)
class EuclideanLatticeModel(FlowModel):
    """Geodesic flow on R^n x S^{n-1} under a crystallographic motion group.

    The group is (a Z v0 + Gamma') x <r> with r in SO(n) of finite order k,
    ker(r - I) = R v0, and Gamma' an r-invariant lattice transverse to v0.
    The connection parameter alpha_v0 is the component of the connection
    one-form along v0 (the transverse components must vanish for the
    connection to be invariant).  Gamma' and the cutoff periods are built
    for n = 3 only, so any other n is refused.

    The closed orbits are one line of geodesics per length +-a l0: the
    direction v0 closes up at a l0 and -v0 at -a l0, the only directions r^m
    fixes.  The sign of det(1 - P) stays the constant +1 rather than being
    read off on the evaluation path: det(1 - P) = det((I - r^m)|v0-perp)^2 > 0
    for every l (``rotations.poincare_determinant_euclidean``, checked by the
    models/orbit-signs selftest suite), so a determinant per orbit would
    change no value.
    """

    n: int = 3
    a: float = 1.0
    rotation: AxisRotation = None
    order: int = 3
    alpha_v0: complex = 0j
    name = "euclid"

    @staticmethod
    def _dimensions(n, order) -> tuple[int, int]:
        n, order = _integer("n", n), _integer("order", order)
        if n != 3:
            raise DomainError(f"the Euclidean model is built for n = 3 only, got n = {n}")
        if order < 1:
            raise DomainError("order must be a positive integer")
        return n, order

    def __post_init__(self):
        n, order = self._dimensions(self.n, self.order)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)
        if self.rotation is None:
            raise DomainError("EuclideanLatticeModel needs a rotation")
        object.__setattr__(self, "alpha_v0", _connection("alpha_v0", self.alpha_v0))
        object.__setattr__(self, "a", _real("translation spacing a", self.a))
        if self.a <= 0:
            raise DomainError("translation spacing a must be positive")
        power = np.linalg.matrix_power(self.rotation.matrix, self.order)
        if np.max(np.abs(power - np.eye(self.n))) > 1e-10:
            raise DomainError(f"rotation is not of order {self.order} within 1e-10")
        # A degenerate rotation (no unique axis) may still be constructed so
        # that validate() can report it; orbit data then refuses to evaluate.

    def _axis(self) -> np.ndarray:
        if self.rotation.axis is None:
            raise DomainError(
                "rotation has no one-dimensional fixed axis; the flow is "
                "degenerate for this model (see validate())"
            )
        return self.rotation.axis

    @classmethod
    def from_angle(
        cls, n: int, a: float, theta: float, order: int, alpha_v0: complex = 0j
    ) -> "EuclideanLatticeModel":
        """Build the model from a rotation angle about the last axis.

        Finite order is structural, so an angle within 1e-6 of an exact
        multiple of 2*pi/order is quantized to it; decimal flag values like
        theta=2.0943951 then still produce an exact order-3 rotation.
        """
        n, order = cls._dimensions(n, order)
        theta = _real("theta", theta)
        exact = TWO_PI * round(theta * order / TWO_PI) / order
        if abs(theta - exact) <= 1e-6:
            theta = exact
        return cls(
            n=n,
            a=a,
            rotation=rotation_about_last_axis(n, theta),
            order=order,
            alpha_v0=complex(alpha_v0),
        )

    # -- group plumbing -----------------------------------------------------

    def element(self, g) -> EuclideanElement:
        if isinstance(g, EuclideanElement):
            return g
        if isinstance(g, (int, float)):
            return EuclideanElement(l0=g)
        raise DomainError(f"cannot interpret {g!r} as a Euclidean group element")

    def _w_prime(self, g: EuclideanElement) -> np.ndarray:
        if g.w_prime is None:
            return np.zeros(self.n)
        w = np.asarray(g.w_prime, dtype=float)
        v0 = self._axis()
        if abs(float(w @ v0)) > 1e-10 * max(1.0, float(np.linalg.norm(w))):
            raise DomainError("w_prime must be orthogonal to the rotation axis")
        return w

    def lattice_basis(self) -> np.ndarray:
        """Rows: generators of Gamma' embedded in the axis complement."""
        return _lattice_basis(self.order)

    def conjugate_element(self, g, lam: int, gamma_coeffs, j: int) -> EuclideanElement:
        """h g h^{-1} for h = (a*lam*v0 + gamma', r^j), gamma' in Gamma'."""
        g = self.element(g)
        basis = self.lattice_basis()
        gamma = np.asarray(gamma_coeffs, dtype=float) @ basis
        rm = np.linalg.matrix_power(self.rotation.matrix, g.m)
        rj = np.linalg.matrix_power(self.rotation.matrix, j)
        new_w = gamma - rm @ gamma + rj @ self._w_prime(g)
        return EuclideanElement(l0=g.l0, m=g.m, w_prime=new_w)

    # -- orbit data ----------------------------------------------------------

    @property
    def period(self) -> float:
        return self.a / self.order

    def orbits(self, g, window: float) -> tuple[list[float], list[complex]]:
        l = self._axial_length(g)
        lengths = [val for val in (-l, l) if abs(val) <= window]
        return lengths, [l * self.alpha_v0] * len(lengths)

    def validate(self, g=None) -> ModelDiagnostics:
        g = self.element(g if g is not None else EuclideanElement(l0=1))
        rm = np.linalg.matrix_power(self.rotation.matrix, g.m)
        try:
            kdim, gapv = unit_eigenvalue_multiplicity(np.linalg.eigvals(rm))
        except DomainError as exc:
            kdim, witness = None, f"kernel classification failed: {exc}"
        else:
            gapv = gapv if kdim == 1 else 0.0
            witness = f"dim ker(r^m - I) = {kdim}; next eigenvalue gap {gapv:.3e}"
        return ModelDiagnostics(
            nondegenerate=(kdim == 1),
            witness=witness,
            alpha_in_lattice=alpha_in_two_pi_i_z(self.alpha_v0),
            continuation_available=True,
            laplacian_kernel_nonzero=False,
        )

    def _axial_length(self, g) -> float:
        """a * l0, the length of g's closed orbits; l0 = 0 closes none."""
        l = self.a * self.element(g).l0
        if l == 0:
            raise DomainError("group element must translate along the axis (l0 != 0)")
        return l

    def period_numeric(self, g, profile: CutoffProfile, quad: QuadratureSpec) -> float:
        self._axial_length(g)
        return _period_euclidean(self, self.element(g), profile, quad)


@dataclass(frozen=True)
class _SphereModel(FlowModel):
    """Geodesic flow on a sphere frame bundle.  The group element is its
    dim - 2 rotation angles alone; each angle theta contributes the orbit
    families +-(theta + 2*pi*Z) with unit holonomy and period 2*pi (log R
    continues off sigma in i*Z).  Each family is one closed orbit per length:
    on SO(3) the flow circle through the x with x e3 = e3, or x e3 = -e3;
    on SO(4) one periodic-point pattern of ``rotations.sphere_fixed_classifier``.
    At theta in pi*Z both close up at every length of the angle, so both are
    listed (tests/test_orbit_counts.py counts the components).  The trivial
    connection (the only invariant flat Hermitian one) is a constant, not a
    field.

    The sign of det(1-P) stays hard-coded at +1 because it is +1 by
    structure.  The frame bundle is the group SO(dim) with its bi-invariant
    metric: the flow is right multiplication by exp(tX) and g acts on the
    left.  Where g h exp(lX) = h, the return map in left-translated
    coordinates is P = Ad(exp(-lX)) = Ad(h^-1 g h): orthogonal, with a fixed
    space as large as the Ad-kernel that validate() measures.  Off that
    space P has eigenvalue pairs e^{+-i phi} and possibly -1, so det(1-P)
    is a product of |1 - e^{i phi}|^2 and 2: positive.
    """

    infinite_spectrum = True
    period = TWO_PI

    def element(self, g) -> tuple[float, ...]:
        if self.dim == 3:
            return (_real("theta", g),)
        try:
            theta1, theta2 = g
        except (TypeError, ValueError):
            raise DomainError(f"{self.name} takes 2 rotation angles, got {g!r}") from None
        return _real("theta1", theta1), _real("theta2", theta2)

    def families(self, g) -> list[tuple[float, float, complex]]:
        """Per angle, theta + 2*pi*Z = d(n + r) and its mirror -d(n + r), both
        for every r > 0: at theta in pi*Z (r = 1/2) the two are one set of
        lengths with two closed orbits at each, which orbit_data merges into
        one atom and the continuation sums.  An angle in 2*pi*Z (r = 0; on
        sphere2 the identity, whose fixed set at each l in 2*pi*Z is all of
        SO(3)) lists one family.  r and the sign of d come from beta =
        ``series._reduce_angle(theta)``, off by 1.6 * 2^-53 |beta| at most, so
        r is about 2 ulp off, relative: each term e^{u(n+r)}/(n+r) of F moves
        by 2 ulp of (|u|(n+r) + 1) times its modulus at most, inside the
        certificate's ROUNDING_ULPS.  (theta / 2pi) % 1 is an ulp off,
        absolute: far more at small r.  An angle past 3.6e17 is refused
        (DomainError)."""
        families = []
        for theta in self.element(g):
            beta = _reduce_angle(theta)
            beta = beta if abs(beta) > 1e-12 else 0.0  # no orbit has |l| <= 1e-12
            d, r = math.copysign(TWO_PI, beta), abs(beta) / TWO_PI
            families.append((d, r, 0j))
            if r:
                families.append((-d, r, 0j))
        return families

    def nondegeneracy(self, g=None) -> tuple[bool, str]:
        """Nondegenerate when the fixed space of Ad(g^-1) on so(dim) is the
        torus of g's rotation planes, one direction per angle: the eigenvalue
        rule alone, with none of validate's other diagnostics."""
        angles = self.element(self._default_g if g is None else g)
        # Ad(g) on so(dim) is the exterior square of g: eigenvalues lam_i lam_j, i < j.
        lam = np.linalg.eigvals(block_rotation(angles, self.dim))
        try:
            kdim, _ = unit_eigenvalue_multiplicity(np.outer(lam, lam)[_upper_pairs(self.dim)])
        except DomainError as exc:
            return False, f"kernel classification failed: {exc}"
        witness = (
            f"dim ker(Ad(g^-1) - 1) = {kdim} on so({self.dim}), "
            f"expected {len(angles)}{self._witness_note}"
        )
        return kdim == len(angles), witness

    def validate(self, g=None) -> ModelDiagnostics:
        """The nondegeneracy verdict and witness, the dense-powers proxy of the
        angles and, at a degenerate element, the spectrum collisions."""
        g = self._default_g if g is None else g
        nondegenerate, witness = self.nondegeneracy(g)
        angles = self.element(g)
        return ModelDiagnostics(
            nondegenerate=nondegenerate,
            witness=witness,
            alpha_in_lattice=True,
            continuation_available=False,
            laplacian_kernel_nonzero=True,
            # A value shared by two angles needs theta1 -+ theta2 in 2*pi*Z,
            # an eigenvalue of Ad(g^-1) at 1: only a degenerate element has one.
            spectrum_collisions=0 if nondegenerate else self._collisions(g),
            **self._angle_diagnostics(*angles),
        )

    def _collisions(self, g) -> int:
        """Values that two different angles share: each angle's distinct values
        (its orbits are sphere2's at that angle), summed, less the distinct
        values of all.  An angle's mirror pair at theta in pi Z is two orbits
        at one value, not a collision."""
        window = 10.0 * TWO_PI
        own = sum(_distinct(Sphere2Model().orbits(theta, window)[0]) for theta in self.element(g))
        return own - _distinct(self.orbits(g, window)[0])

    def torsion(self, g) -> SeriesResult:
        raise NotApplicableError("torsion comparison undefined: Laplacian kernel is nonzero")


@dataclass(frozen=True)
class Sphere2Model(_SphereModel):
    """Geodesic flow on the frame bundle of the 2-sphere; the group element
    is a rotation angle theta."""

    name = "sphere2"
    dim = 3
    _default_g = 1.0
    _witness_note = ""

    def _angle_diagnostics(self, theta: float) -> dict:
        ok, detail = _rational_proxy(theta / TWO_PI)
        return {"dense_powers_ok": ok, "dense_powers_detail": detail}


@dataclass(frozen=True)
class Sphere3Model(_SphereModel):
    """Geodesic flow on the frame bundle of the 3-sphere; the group element
    is a pair of rotation angles (theta1, theta2)."""

    name = "sphere3"
    dim = 4
    _default_g = (1.0, math.sqrt(2.0))
    _witness_note = " (the torus directions; one is quotiented by the isotropy)"

    def _angle_diagnostics(self, t1: float, t2: float) -> dict:
        angles = {"theta1": t1, "theta2": t2, "theta1-theta2": t1 - t2, "theta1+theta2": t1 + t2}
        checks = {label: _rational_proxy(angle / TWO_PI) for label, angle in angles.items()}
        return {
            "dense_powers_ok": all(ok for ok, _ in checks.values()),
            "dense_powers_detail": "; ".join(f"{k}: {detail}" for k, (_, detail) in checks.items()),
        }


# ---------------------------------------------------------------------------
# Module-level operation surface
# ---------------------------------------------------------------------------

def length_spectrum(model: FlowModel, g, window: float) -> list[float]:
    """Delocalised length spectrum of the model at g, cut to 0 < |l| <= window."""
    return model.length_spectrum(g, window)


def orbit_contributions(model: FlowModel, g, l: float) -> list[OrbitContribution]:
    """Per-orbit (sign, holonomy, folded period) data at spectrum value l."""
    return model.orbit_contributions(g, l)


def validate_model(model: FlowModel, g=None) -> ModelDiagnostics:
    """Nondegeneracy and continuation diagnostics; flat_trace_measure and
    fried_residual gate on these verdicts."""
    return model.validate(g)


# ---------------------------------------------------------------------------
# Numerical cutoff-primitive periods
# ---------------------------------------------------------------------------

def chi_primitive_period_numeric(
    model: FlowModel,
    g,
    orbit_id: int = 0,
    chi_profile: CutoffProfile | None = None,
    quad: QuadratureSpec | None = None,
) -> float:
    """Cutoff-primitive period for the profile normalized by its
    group-translate sum (or integral), which makes the period independent
    of the profile.  The line, lattice, circle and spheres report
    ``model.period`` once ``_admissible_reach`` admits the profile: the
    normalized cutoff integrates to it by construction.  The Euclidean
    model integrates it along the closed-up geodesic over the transverse
    cosets, to a/k up to the quadrature error; that checks the quadrature,
    not the coset geometry (the 1-D periodisation unfolds to a/k for any
    coset set).  ``orbit_id`` is ignored: every orbit has the same period.
    """
    return model.period_numeric(g, chi_profile or CutoffProfile(), quad or QuadratureSpec())


def _admissible_reach(
    profile: CutoffProfile, tol: float, compact: bool = False, spacing: float = 0.0, rho2=(0.0,)
) -> float:
    """The cutoff-admissibility rule of every period: the radius beyond which
    an admissible profile is below tol (0 outside its support).

    Admissible means the group translates sum (or integrate) to a positive
    function along the orbit.  DomainError refuses an unknown kind, a
    nonpositive width or radius, a constant profile on a noncompact group,
    and a compact support whose translates leave gaps: the nearest coset
    (squared distance min(rho2)) meets it for flow times |t| <
    sqrt(radius^2 - min(rho2)), which must pass spacing / 2, the half-step
    of the translates along the orbit (0 for a continuous group).
    """
    if profile.kind not in ("gaussian", "raised_cosine", "smoothed_indicator", "constant"):
        raise DomainError(f"unknown cutoff profile kind {profile.kind!r}")
    if not (profile.width > 0 and profile.radius > 0):
        raise DomainError("the cutoff profile width and radius must be positive")
    if profile.kind == "constant":
        if not compact:
            raise DomainError("a constant profile has no decay on a noncompact group")
        return math.inf
    if profile.kind == "gaussian":
        _tolerance(tol, "the tail target tol")
        return profile.width * math.sqrt(2.0 * math.log(1.0 / tol))
    if not profile.radius**2 - np.min(rho2, initial=math.inf) > spacing**2 / 4.0:
        raise DomainError(
            f"the translates of a radius-{profile.radius} cutoff leave gaps along the orbit"
        )
    return profile.radius


# Profile evaluations one Euclidean cutoff period may spend, checked before any
# array is built; every default-QuadratureSpec period at a >= 0.5 fits (<= 7e7).
_PERIOD_BUDGET = 10**8

# Elements of one profile call in a cutoff period: whole axis-shift rows of
# (cosets x nodes) up to this many, or one row when a row is larger.
_PERIOD_BLOCK = 2**14

# The 12-node Gauss-Legendre rule of every cutoff-period panel.
_PERIOD_RULE = gauss_legendre(12)


@functools.lru_cache(maxsize=8)
def _period_nodes(reach: float, panel: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights in the flow parameter s,
    panels of width ``panel`` from -reach, as read-only arrays."""
    nodes, weights = _PERIOD_RULE
    edges = np.arange(-reach, reach + panel, panel)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mids[:, None] + half[:, None] * nodes[None, :]).ravel()
    return _read_only(s), _read_only((half[:, None] * weights[None, :]).ravel())


@functools.lru_cache(maxsize=8)
def _coset_grid(order: int, span: int) -> np.ndarray:
    """The (2 span + 1)^2 points of Gamma' with coefficients in [-span, span],
    as a read-only array of rows."""
    k = np.arange(-span, span + 1)
    coeffs = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    return _read_only(coeffs @ _lattice_basis(order))


def _period_euclidean(
    model: EuclideanLatticeModel, g: EuclideanElement, profile: CutoffProfile, quad: QuadratureSpec
) -> float:
    """Coset-summed period over the transverse lattice, per the trace-formula
    normalization: sum over Gamma' of the line integral of chi along the
    closed-up geodesic through (w, v0), with (I - r) w = w_prime.

    chi = f / D, with D(x) the profile summed over the translates r^j x + t,
    t in Gamma = a Z v0 + Gamma'.  f is radial and Gamma r-invariant, so each
    r^j gives the same sum; D is Gamma-periodic, so at x = w + gamma + s v0 it
    depends on s alone: D(s) = order * sum_k N(s + k a), with
    N(t) = sum_gamma f(|w + gamma + t v0|^2) the numerator summed over cosets.

    N(s + k a) is one array, a row per shift k from -shift_reach; row
    shift_reach (k = 0) is the numerator itself.  A compact profile is
    evaluated only at the (shift, node) pairs whose nearest coset lies inside
    its support, sqrt(min(rho^2) + t^2) < radius: rounded + and sqrt are
    monotone, so at every other pair each coset's value is an exact 0.  The
    Gaussian and constant kinds are evaluated at every pair.  Every distance
    rho^2 + t^2 is >= 0 by construction, so the profile is called unchecked
    (``CutoffProfile._values``), with no pass spent refusing a NaN.  Each
    profile call takes at most as many pairs as whole rows of (cosets x
    nodes) fit in _PERIOD_BLOCK elements, or one row when a row is larger,
    split evenly so that no call takes a single pair: numpy sums a (cosets x
    1) array pairwise, not in coset order.  The cap keeps the memory peak:
    one call over every shift would hold (cosets x shifts x nodes)
    temporaries, about 1 MB each for the default Gaussian, whose period sets
    the peak of the bench certify workload.  Sums run over cosets and then
    over shifts in order, as a row-at-a-time sum does, so the bits depend
    neither on the pruning nor on the block.  The nodes (per reach and
    panel), the coset grid (per order and span) and the transverse block
    behind w (per r^m and axis, in the rotation memo) are built once and
    cached.
    """
    v0 = model._axis()
    rm = np.linalg.matrix_power(model.rotation.matrix, g.m)
    # Basepoint of the closed-up geodesic: (I - r^m) w = w_prime; the rotation
    # check refuses an r^m whose kernel is not the axis alone.
    w = solve_transverse(AxisRotation(matrix=rm, axis=v0), model._w_prime(g))
    w_norm = float(np.linalg.norm(w))

    reach = _admissible_reach(profile, quad.tol * 1e-4)
    # Negated so that a NaN radius is refused too.
    if not reach + w_norm <= quad.radius:
        raise NonConvergentError(
            f"lattice truncation radius {quad.radius} cannot certify the "
            f"profile tail (needs {reach + w_norm:.2f})"
        )

    # The nodes have |s| < reach + panel, so the shifts |k a| <= 2 reach +
    # panel cover every translate within reach of a node.
    span = math.ceil(reach + w_norm) + 2
    panel = min(quad.panel, profile.width / 2.0)
    if not panel > 0:
        raise DomainError("the quadrature panel must be positive")
    shift_reach = math.ceil((2.0 * reach + panel) / model.a)
    work = (2 * span + 1) ** 2 * 12 * math.ceil(2.0 * reach / panel + 1) * (2 * shift_reach + 2)
    if work > _PERIOD_BUDGET:
        raise NonConvergentError(
            f"the cutoff period needs about {work:.2e} profile evaluations, "
            f"over the budget of {_PERIOD_BUDGET:.0e}"
        )

    offsets = _coset_grid(model.order, span) + w
    # Only cosets whose shifted orbit meets the profile support contribute.
    offsets = offsets[np.linalg.norm(offsets, axis=1) <= reach + 1e-9]
    # v0 is orthogonal to Gamma' and to w: |w + gamma + t v0|^2 = rho^2 + t^2.
    rho2 = np.einsum("ij,ij->i", offsets, offsets)
    # The cosets are known only now: their translates must cover the orbit.
    _admissible_reach(profile, quad.tol * 1e-4, spacing=model.a, rho2=rho2)

    s, s_weights = _period_nodes(reach, panel)
    t2 = ((s[None, :] + np.arange(-shift_reach, shift_reach + 1)[:, None] * model.a) ** 2).ravel()
    keep = slice(None)
    if profile.kind in _COMPACT_KINDS:
        # Admissibility (radius^2 - min(rho^2) > a^2 / 4) keeps each node's
        # pair with its nearest shift, |t| <= a / 2: no call has a single pair.
        keep = np.flatnonzero(profile._support(np.min(rho2) + t2)[1])
    kept = t2[keep]
    # With no coset in reach every sum is empty and D = 0.
    per_call = max(1, _PERIOD_BLOCK // max(1, len(rho2) * len(s))) * len(s)
    calls = -(-len(kept) // per_call)
    sums = np.empty(len(kept))
    for j in range(calls):
        lo, hi = len(kept) * j // calls, len(kept) * (j + 1) // calls
        sums[lo:hi] = profile._values(rho2[:, None] + kept[None, lo:hi]).sum(axis=0)
    numerators = np.zeros(len(t2))
    numerators[keep] = sums
    numerators = numerators.reshape(-1, len(s))
    denom = model.order * numerators.sum(axis=0)
    if np.any(denom <= 0):
        raise NonConvergentError("translate sum vanished inside the quadrature ball")
    return float(np.sum(s_weights * numerators[shift_reach] / denom))


# ---------------------------------------------------------------------------
# Plain-text model construction (shared with the CLI)
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> complex:
    """Parse the a+bi parameter syntax (plain reals and bare 'i'; no inf or nan)."""
    # Only an i that ends a term is the imaginary unit; the i of inf is not.
    cleaned = re.sub(r"i(?=[-+)]|$)", "j", str(text).strip().replace(" ", "").lower())
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise DomainError(f"complex number {text!r} must be finite")
    return value


# The keys each model takes: the schema the CLI's --params and --config expose.
_PARAMETER_KEYS = {
    "line": ("g", "alpha"),
    "lattice": ("g", "alpha"),
    "circle": ("r0", "alpha"),
    "euclid": ("n", "a", "theta", "order", "l0", "m", "alpha_v0"),
    "sphere2": ("theta",),
    "sphere3": ("theta1", "theta2"),
}


def model_from_params(name: str, params: dict) -> tuple[FlowModel, object]:
    """Build (model, group element) from a key=value parameter map.

    The schema is ``_PARAMETER_KEYS``; an unknown model, then a key outside
    the model's schema, raises DomainError.
    """
    if name not in _PARAMETER_KEYS:
        raise DomainError(f"unknown model {name!r}; choose {'|'.join(_PARAMETER_KEYS)}")
    keys = _PARAMETER_KEYS[name]
    unknown = [key for key in params if key not in keys]
    if unknown:
        raise DomainError(
            f"model {name!r} takes no parameter {', '.join(map(repr, unknown))}; "
            f"its keys are {', '.join(keys)}"
        )

    def fget(key, default=None):
        if key not in params:
            if default is None:
                raise DomainError(f"model {name!r} requires parameter {key!r}")
            return default
        return _real(f"parameter {key!r}", params[key])

    if name == "line":
        return LineModel(alpha=parse_complex(params.get("alpha", "0"))), fget("g")
    if name == "lattice":
        return IntegerLatticeModel(alpha=parse_complex(params.get("alpha", "0"))), fget("g")
    if name == "circle":
        return CircleModel(alpha=parse_complex(params.get("alpha", "0"))), fget("r0")
    if name == "euclid":
        model = EuclideanLatticeModel.from_angle(
            n=fget("n", 3.0),
            a=fget("a", 1.0),
            theta=fget("theta"),
            order=fget("order"),
            alpha_v0=parse_complex(params.get("alpha_v0", "0")),
        )
        return model, EuclideanElement(l0=fget("l0"), m=fget("m", 1.0))
    if name == "sphere2":
        return Sphere2Model(), fget("theta")
    return Sphere3Model(), (fget("theta1"), fget("theta2"))
