"""The continuation, kernel and every layer above it, against the code it replaced.

``series._continued_family`` writes out its two Lerch halves, takes the
inversion inside ``_lerch_half`` (whose series casts its exponents n + a
to complex once, for the product and the quotient) and casts the disc
coefficient row to complex once per family; its reductions, scans and dots call the ufunc
methods and ``ndarray.dot`` that the array methods and ``@`` wrap.  The
earlier kernel, which looped over the halves, inverted by a recursive call
and let every disc half's ``c @ powers`` cast a real row, is kept below as
the oracle, with the earlier ``_lattice_offsets`` (a loop over the two
signs).  Above the kernel the earlier ``ZetaEvaluation``, ``_float_range``
and ``FlowModel.log_closed``/``_continued`` are kept too, so the whole
``ruelle_log_closed`` path is compared with its earlier code.  Every value,
certificate, term count, method and refusal must have the same bits
(float.hex) or the same type and text, on seeded inputs that reach every
route on each half and on a replica of the continuation workload's mix.
"""

import cmath
import functools
import itertools
import json
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from equizeta import (
    CircleModel,
    EuclideanElement,
    EuclideanLatticeModel,
    IntegerLatticeModel,
    LineModel,
    Sphere2Model,
    Sphere3Model,
    ruelle_log_closed,
    series,
)
from equizeta.cli import CSV_HEADER, DEFAULT_TOL, main
from equizeta.errors import DomainError, SingularPointError
from equizeta.models import _UNDERFLOW
from equizeta.series import (
    _DISC_I,
    _DISC_TABLE,
    _EPS,
    _INV_FACTORIAL,
    _SERIES_N,
    _TWO_PI_LO,
    DISC_RADIUS,
    DISC_TERMS,
    LATTICE_TOL,
    ROUNDING_ULPS,
    SERIES_TERMS,
    TWO_PI,
    _digamma,
    _exp_2pi_i,
    _offset_zero_half,
    _reduce_2pi,
)

# |Im alpha| = 1e300 leaves u0 unreduced: both kernels overflow numpy arrays on the way.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _plain_sum(values):
    """sum() as Python 3.10 and 3.11 run it on floats: left to right from 0
    (3.12 compensates float sums)."""
    total = 0
    for v in values:
        total += v
    return total


# ---------------------------------------------------------------------------
# The oracle: the earlier kernel, verbatim but for two lines, each marked.
# ---------------------------------------------------------------------------

def old_lattice_offsets(alpha: complex, z: complex) -> list[tuple[complex, int, float]]:
    beta_a, m_a = _reduce_2pi(alpha.imag)
    beta_z, m_z = _reduce_2pi(z.imag)
    # Half an ulp of each rounded sum (beta_a, beta_z, their difference and
    # u0), and an ulp of each m times the rest of 2*pi, whose own remainder
    # is below 6e-33.
    shared = _EPS * (abs(beta_a) + abs(beta_z) + (abs(m_a) + abs(m_z) + 1) * _TWO_PI_LO)
    offsets = []
    for sign in (1, -1):
        beta, k = _reduce_2pi(sign * beta_a - beta_z)
        u0 = complex(sign * alpha.real - z.real, beta)
        du = shared + 0.5 * _EPS * (abs(u0.real) + abs(beta))
        offsets.append((u0, sign * m_a - m_z + k, du))
    return offsets


def old_disc_coefficients(s: float) -> np.ndarray:
    """B_k(s)/(k k!) for k = 1..DISC_TERMS in row 0, and in row 1 the
    summed moduli of the convolution that forms each, which bound its
    rounding."""
    return (_DISC_TABLE @ (s**_DISC_I * _INV_FACTORIAL)).reshape(2, DISC_TERMS)


def old_lerch_half(u0: complex, du: float, a: float, b: float, cot: float, coefficients):
    if u0.real >= DISC_RADIUS:
        value, terms, tail, rounding, conditioning = old_lerch_half(-u0, du, b, a, -cot, coefficients)
        jump = complex(cot, math.pi if u0.imag > 0 else -math.pi)
        rounding += ROUNDING_ULPS * _EPS * abs(jump)
        return value + jump, terms, tail, rounding, conditioning
    if u0.real <= -DISC_RADIUS:
        x = _SERIES_N + a
        t = np.exp(u0 * x) / x
        moduli = np.abs(t)
        slope = float(moduli @ x)  # sum |dt/du0|
        q = math.exp(u0.real)
        tail = q ** (SERIES_TERMS + a) / ((SERIES_TERMS + a) * (1.0 - q))
        rounding = ROUNDING_ULPS * _EPS * (float(moduli.sum()) + abs(u0) * slope)
        return complex(t.sum()), SERIES_TERMS, tail, rounding, du * slope
    c, c_moduli = coefficients
    powers = np.full(DISC_TERMS, -u0 if a > b else u0).cumprod()
    log = cmath.log(complex(-u0.real, 0.0) if u0.real > 0.0 and not u0.imag else -u0)
    psi = _digamma(a)
    value = -np.euler_gamma - log - psi - complex(c @ powers)
    moduli = np.euler_gamma + abs(log) + abs(psi) + float(c_moduli @ np.abs(powers))
    rho = abs(u0) / TWO_PI
    tail = 4.0 * rho ** (DISC_TERMS + 1) / ((DISC_TERMS + 1) * (1.0 - rho))
    conditioning = du * (1.0 / (abs(u0) - du) + 2.0)
    return value, DISC_TERMS, tail, ROUNDING_ULPS * _EPS * moduli, conditioning


def old_continued_family(d: float, r: float, alpha: complex, sigma: complex) -> tuple[complex, int, float]:
    z = sigma
    if d != 1.0:  # real factors scale each part alone, which keeps signed zeros
        alpha = complex(d * alpha.real, d * alpha.imag)
        z = complex(abs(d) * z.real, abs(d) * z.imag)
    if not cmath.isfinite(z):
        # Changed: the refusal names sigma (it read f"..., got {z}").
        raise DomainError(f"the continuation needs a finite z = |d| sigma, got sigma = {sigma}")
    halves = old_lattice_offsets(alpha, z)
    if min(abs(u0) for u0, _, _ in halves) < LATTICE_TOL:
        raise SingularPointError(f"sigma = {sigma} is a singular point of the continuation")
    if r:
        small = min(r, 1.0 - r)
        cot = math.pi / math.tan(math.pi * small)  # pi cot(pi r), up to sign
        if small != r:
            cot = -cot
        coefficients = None
        if any(abs(u0.real) < DISC_RADIUS for u0, _, _ in halves):
            coefficients = old_disc_coefficients(small)
    value, terms, est = 0j, 0, 0.0
    for (u0, m, du), sign in zip(halves, (1, -1)):
        if not r:
            h, n, *bounds = _offset_zero_half(u0, du)
        else:
            a, b, c = (r, 1.0 - r, cot) if sign > 0 else (1.0 - r, r, -cot)
            h, n, *bounds = old_lerch_half(u0, du, a, b, c, coefficients)
            if m:  # e^{2 pi i m a}, with e^{2 pi i m (1 - r)} = e^{-2 pi i m r}
                h *= _exp_2pi_i(r, sign * m)
        value += h
        terms += n
        est += _plain_sum(bounds)  # Changed: sum(bounds), which 3.12 compensates.
    return value, terms, est


# The layers above the kernel, verbatim but for the lines marked: the record,
# the range rule of zeta.ruelle_log_closed and FlowModel's log R.

@dataclass(frozen=True)
class OldZetaEvaluation:
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


def old_finite_sigma(sigma) -> complex:
    sigma = complex(sigma)
    if not cmath.isfinite(sigma):
        raise DomainError("sigma must be finite")
    return sigma


def old_float_range(evaluate):
    @functools.wraps(evaluate)
    def checked(model, g, sigma, *args):
        sigma = old_finite_sigma(sigma)
        try:
            ev = evaluate(model, g, sigma, *args)
            if cmath.isfinite(ev.log_R):
                return ev
        except OverflowError:
            pass
        raise DomainError(f"log R at sigma = {sigma} overflows a float")

    return checked


def old_log_closed(self, g, sigma: complex):  # Changed: FlowModel.log_closed, self a model.
    if self.infinite_spectrum:
        return old_continued(self, self.families(g), sigma)  # Changed: self._continued(...).
    value, est_error, terms = 0j, 0.0, 0
    for l, a in zip(*self.orbits(g, math.inf)):
        den, size = 2.0 * abs(l) / self.period, abs(a) + abs(l) * abs(sigma)
        if not _EPS * size <= 1.0 / 24.0:
            raise DomainError(f"the exponent at l = {l} is past the float precision")
        t = cmath.exp(a - abs(l) * sigma) / den
        value, terms = value + t if terms else t, terms + 1
        est_error += _EPS * ((8.0 + 2.0 * size) * abs(t) + abs(value)) + _UNDERFLOW / min(den, 1.0)
    return OldZetaEvaluation(sigma, value, "closed", est_error, terms)


def old_continued(self, families, sigma: complex):  # Changed: FlowModel._continued, self a model.
    value, est_error, terms, method = None, 0.0, 0, "closed"
    for d, r, a in families:
        if r:
            method = "continuation"
        v, n, e = old_continued_family(d, r, a, sigma)  # Changed: _continued_family.
        c = self.period / (2.0 * abs(d))
        value = c * v if value is None else value + c * v
        est_error, terms = est_error + c * e, terms + n
    return OldZetaEvaluation(sigma, value, method, est_error, terms)


@old_float_range
def old_ruelle_log_closed(model, g, sigma):
    return old_log_closed(model, g, sigma)  # Changed: model.log_closed(g, sigma).


# ---------------------------------------------------------------------------
# Inputs and outcomes
# ---------------------------------------------------------------------------

DS = (1.0, -1.0, TWO_PI, -TWO_PI)
N_CALLS = 24000


def outcome(f, *args):
    """The bits of (value, est_error, terms), or the error's type and text."""
    try:
        value, terms, est = f(*args)
    except Exception as exc:  # noqa: BLE001 -- every refusal must match, whatever its type
        return type(exc).__name__, str(exc)
    return value.real.hex(), value.imag.hex(), est.hex(), terms


def _offset(rng) -> float:
    return (0.0, 0.5, 1e-9, 1.0 - 1e-9, float(rng.uniform(0.0, 1.0)))[int(rng.integers(5))]


def _alpha(rng, real_only: bool) -> complex:
    re = 0.0 if rng.random() < 0.25 else float(rng.uniform(-3.0, 3.0))
    if real_only:
        return complex(re, (0.0, -0.0)[int(rng.integers(2))])
    u = rng.random()
    if u < 0.02:
        return complex(re, (1e300, -1e300)[int(rng.integers(2))])  # _reduce_2pi's Fraction path
    return complex(re, float(rng.uniform(-120.0, 120.0)))


def kernel_inputs():
    """N_CALLS seeded (kind, d, r, alpha, sigma), the kinds in turn (plane twice in six):
    - plane: Re sigma in [-5, 5], |Im sigma| <= 50;
    - disc: Re sigma put so that one half's Re u0 lies in [-1.5, 1.5];
    - cut: alpha and sigma real, each imaginary part +0.0 or -0.0;
    - near: within 1e-12..1e-8 of the excluded lattice (the closest refused);
    - on: on the lattice as rounded (refused), or past the floats (refused).
    """
    rng = np.random.default_rng(29)
    kinds = ("plane", "plane", "disc", "cut", "near", "on")
    for i in range(N_CALLS):
        kind = kinds[i % len(kinds)]
        d, r = DS[int(rng.integers(4))], _offset(rng)
        alpha = _alpha(rng, kind == "cut")
        h = (1.0, -1.0)[int(rng.integers(2))]
        if kind == "plane":
            sigma = complex(rng.uniform(-5.0, 5.0), rng.uniform(-50.0, 50.0))
        elif kind == "disc":
            sigma = complex((h * d * alpha.real - rng.uniform(-1.5, 1.5)) / abs(d), rng.uniform(-50.0, 50.0))
        elif kind == "cut":
            sigma = complex(rng.uniform(-5.0, 5.0), (0.0, -0.0)[int(rng.integers(2))])
        else:
            k = int(rng.integers(-3, 4))
            centre = complex(h * d * alpha.real, h * d * alpha.imag + TWO_PI * k) / abs(d)
            if kind == "near":
                sigma = centre + 10.0 ** rng.uniform(-12.0, -8.0) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
            elif rng.random() < 0.75:
                sigma = centre
            else:
                sigma = (complex(1.0, 1e308), complex(1e308, 0.0), complex(math.inf, 0.0),
                         complex(0.5, math.nan))[int(rng.integers(4))]
        yield kind, d, r, alpha, sigma


def half_routes(d, r, alpha, sigma):
    """[(route, m != 0)] of the two halves, as the kernel sends them."""
    if d != 1.0:
        alpha = complex(d * alpha.real, d * alpha.imag)
        sigma = complex(abs(d) * sigma.real, abs(d) * sigma.imag)
    routes = []
    for u0, m, _ in old_lattice_offsets(alpha, sigma):
        if not r:
            route = "offset 0"
        elif u0.real >= DISC_RADIUS:
            route = "inversion on the cut" if not u0.imag else "inversion"
        elif u0.real <= -DISC_RADIUS:
            route = "series"
        else:
            route = "disc on the cut" if u0.real > 0.0 and not u0.imag else "disc"
        routes.append((route, m != 0))
    return routes


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestKernelBits:
    def test_same_bits_on_every_route(self):
        seen = set()
        for kind, d, r, alpha, sigma in kernel_inputs():
            want = outcome(old_continued_family, d, r, alpha, sigma)
            got = outcome(series._continued_family, d, r, alpha, sigma)
            assert got == want, (kind, d, r, alpha, sigma)
            if len(want) == 2:
                seen.add(want[0])
                continue
            for half, (route, m) in enumerate(half_routes(d, r, alpha, sigma)):
                seen.add((half, route))
                seen.add((half, route, "m != 0" if m else "m = 0"))
                if "cut" in route:
                    seen.add((route, math.copysign(1.0, sigma.imag)))
        # Every route on each half, with and without a phase; both refusals.
        for half in (0, 1):
            for route in ("disc", "series", "inversion", "offset 0"):
                assert {(half, route, "m != 0"), (half, route, "m = 0")} <= seen, (half, route)
            assert {(half, "disc on the cut"), (half, "inversion on the cut")} <= seen, half
        for route in ("disc on the cut", "inversion on the cut"):
            assert {(route, 1.0), (route, -1.0)} <= seen, route
        assert {"DomainError", "SingularPointError"} <= seen

    def test_halves_keep_their_five_terms(self):
        # tests/test_continuation.py reads (value, terms, tail, rounding,
        # conditioning) of each half on its own.
        for kind, d, r, alpha, sigma in itertools.islice(kernel_inputs(), 6000):
            if not r or len(outcome(old_continued_family, d, r, alpha, sigma)) == 2:
                continue
            if d != 1.0:
                alpha = complex(d * alpha.real, d * alpha.imag)
                sigma = complex(abs(d) * sigma.real, abs(d) * sigma.imag)
            small = min(r, 1.0 - r)
            cot = math.pi / math.tan(math.pi * small)
            cot = cot if small == r else -cot
            new, old = series._disc_coefficients(small), old_disc_coefficients(small)
            for (u0, _, du), a, b, c in zip(
                old_lattice_offsets(alpha, sigma), (r, 1.0 - r), (1.0 - r, r), (cot, -cot)
            ):
                got = series._lerch_half(u0, du, a, b, c, new)
                want = old_lerch_half(u0, du, a, b, c, old)
                assert got[1] == want[1]
                assert [got[0].real.hex(), got[0].imag.hex(), *(x.hex() for x in got[2:])] == [
                    want[0].real.hex(), want[0].imag.hex(), *(x.hex() for x in want[2:])
                ], (kind, u0, a)

    @pytest.mark.parametrize("s", [0.5, 1e-9, 1e-300, 0.25, 0.3333333333333333, 0.49999999999999994])
    def test_disc_coefficients_cast_once(self, s):
        c, moduli = series._disc_coefficients(s)
        row, row_moduli = old_disc_coefficients(s)
        assert c.dtype == complex and moduli.dtype == float
        assert c.tobytes() == row.astype(complex).tobytes()
        assert moduli.tobytes() == row_moduli.tobytes()

    def test_refusals_name_sigma(self):
        with pytest.raises(DomainError, match=r"needs a finite z = \|d\| sigma, got sigma = \(1\+1e\+308j\)"):
            series._continued_family(TWO_PI, 0.25, 0j, complex(1.0, 1e308))
        with pytest.raises(SingularPointError, match=r"sigma = \(-1\+0j\) is a singular point"):
            series._continued_family(1.0, 0.25, complex(-1.0, 0.0), complex(-1.0, 0.0))


def _closed_cases():
    """(model, g, sigma): circle classes, sphere2 and sphere3 angles (offset 0
    and pi included), at seeded sigma in the plane, on the axis and at 0."""
    rng = np.random.default_rng(2929)
    for i in range(900):
        which = i % 3
        if which == 0:
            alpha = complex(0.0 if i % 2 else rng.uniform(-1.5, 1.5), rng.uniform(-30.0, 30.0))
            model = CircleModel(alpha=alpha)
            g = float(rng.uniform(0.0, 1.0)) if i % 5 else (0.0, 0.5)[i % 2]
        elif which == 1:
            model, g = Sphere2Model(), (0.0, math.pi, float(rng.uniform(-10.0, 10.0)))[int(rng.integers(3))]
        else:
            angles = (0.0, math.pi, float(rng.uniform(-10.0, 10.0)), float(rng.uniform(-10.0, 10.0)))
            model, g = Sphere3Model(), (angles[int(rng.integers(4))], angles[int(rng.integers(4))])
        kind = int(rng.integers(3))
        if kind == 0:
            sigma = 0j
        elif kind == 1:
            sigma = complex(0.0, rng.uniform(-8.0, 8.0))
        else:
            sigma = complex(rng.uniform(-4.0, 4.0), rng.uniform(-8.0, 8.0))
        yield model, g, sigma


def closed_outcome(f, model, g, sigma):
    """The bits and types of a record's fields, or the error's type and text."""
    try:
        ev = f(model, g, sigma)
    except Exception as exc:  # noqa: BLE001
        return type(exc).__name__, str(exc)
    fields = (ev.sigma, ev.log_R, ev.method, ev.est_error, ev.terms)
    return (tuple(type(v).__name__ for v in fields), ev.sigma.real.hex(), ev.sigma.imag.hex(),
            ev.log_R.real.hex(), ev.log_R.imag.hex(), ev.est_error.hex(), ev.terms, ev.method)


def _same_path(cases):
    """The outcomes of the earlier path, each checked against the current one's."""
    want = []
    for case in cases:
        want.append(closed_outcome(old_ruelle_log_closed, *case))
        assert closed_outcome(ruelle_log_closed, *case) == want[-1], case
    return want


def test_ruelle_log_closed_same_bits():
    want = _same_path(list(_closed_cases()))
    methods = {w[-1] for w in want if len(w) == 8}
    assert methods == {"closed", "continuation"}
    assert any(len(w) == 2 for w in want)  # sigma = 0 on the spheres is refused


def _lattice_distance(z: complex, alpha: complex) -> float:
    """Distance from z to the excluded lattice +-alpha + 2*pi*i*Z."""
    best = math.inf
    for w in (z - alpha, z + alpha):
        k = round(w.imag / TWO_PI)
        for kk in (k - 1, k, k + 1):
            best = min(best, abs(w - 1j * TWO_PI * kk))
    return best


def _workload_cases(n=6000):
    """A seeded replica of the continuation workload's input mix: r0 in
    [0.02, 0.98]; alpha imaginary in half the cases, else Re alpha in
    [-1.5, 1.5], with Im alpha in [-6, 6]; sigma = 0 in 30% of cases,
    imaginary (|Im| <= 8) in 20% and in the plane (|Re| <= 4, |Im| <= 8) in
    50%; every point at least 0.05 from the excluded lattice."""
    rng = np.random.default_rng(33)
    sigma_kinds = ["zero"] * (3 * n // 10) + ["imag"] * (n // 5)
    sigma_kinds += ["plane"] * (n - len(sigma_kinds))
    rng.shuffle(sigma_kinds)
    for i, kind in enumerate(sigma_kinds):
        while True:
            r0 = float(rng.uniform(0.02, 0.98))
            alpha = complex(0.0 if i % 2 else rng.uniform(-1.5, 1.5), rng.uniform(-6.0, 6.0))
            if kind == "zero":
                sigma = 0j
            elif kind == "imag":
                sigma = complex(0.0, rng.uniform(-8.0, 8.0))
            else:
                sigma = complex(rng.uniform(-4.0, 4.0), rng.uniform(-8.0, 8.0))
            if _lattice_distance(sigma, alpha) >= 0.05:
                break
        yield CircleModel(alpha=alpha), r0, sigma


def test_workload_mix_same_bits():
    want = _same_path(list(_workload_cases()))
    assert {w[-1] for w in want} == {"continuation"}


def test_edge_sigmas_and_finite_models_same_bits():
    # sigma not finite, past the floats once scaled, given as a string or as
    # a numpy scalar; the finite models' closed form through the same layers.
    sigmas = (complex(math.inf, 0.0), complex(0.0, math.nan), complex(1.0, 1e308), "0.5", "1-2j",
              2, np.float64(0.25), np.complex128(0.3 - 0.2j), 0j)
    models_and_g = [
        (CircleModel(alpha=0.5 + 1j), 0.25), (CircleModel(alpha=1j), 0.0),
        (Sphere2Model(), 1.0), (Sphere3Model(), (1.0, 2.0)),
        (LineModel(alpha=1j), 2.0), (IntegerLatticeModel(alpha=0.2 + 1j), -3),
        (EuclideanLatticeModel.from_angle(3, 1.0, 2.0943951, 3, 0.25j), EuclideanElement(l0=1)),
    ]
    want = _same_path([(m, g, s) for m, g in models_and_g for s in sigmas])
    assert {"DomainError"} <= {w[0] for w in want if len(w) == 2}


@pytest.mark.parametrize("args", [
    (0.5, 1j, "closed", 0.25, 3),
    (np.float64(0.5), np.complex128(1 + 2j), "continuation", np.float64(0.25), 3),
    ("1+2j", "3", "closed", "1e-16", 80),
    (-0.0, complex(-0.0, -0.0), "closed", 0.0, 0),
    (0.5, 1j, "closed", math.nan, 1),
    (0.5, 1j, "closed", -1.0, 1),
    (0.5, 1j, "closed", -0.0, 1),
    (object(), 1j, "closed", -1.0, 1),
    (0.5, "x", "closed", 0.25, 1),
    (0.5, 1j, "closed", None, 1),
])
def test_record_same_fields_and_refusals(args):
    def fields(cls):
        try:
            ev = cls(*args)
        except Exception as exc:  # noqa: BLE001
            return type(exc).__name__, str(exc)
        return [(type(v).__name__, repr(v)) for v in (ev.sigma, ev.log_R, ev.method, ev.est_error, ev.terms)]

    assert fields(series.ZetaEvaluation) == fields(OldZetaEvaluation)


def test_record_stays_a_frozen_dataclass():
    import dataclasses

    ev = series.ZetaEvaluation(np.float64(0.5), 1j, "closed", 0.25, 3)
    assert [f.name for f in dataclasses.fields(ev)] == ["sigma", "log_R", "method", "est_error", "terms"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ev.log_R = 0j
    bumped = dataclasses.replace(ev, log_R=np.complex128(2j))
    assert type(bumped.log_R) is complex and bumped.sigma == 0.5
    assert ev == series.ZetaEvaluation(0.5, 1j, "closed", 0.25, 3) != bumped
    assert hash(ev) == hash(series.ZetaEvaluation(0.5, 1j, "closed", 0.25, 3))
    assert repr(ev) == "ZetaEvaluation(sigma=(0.5+0j), log_R=1j, method='closed', est_error=0.25, terms=3)"
    with pytest.raises(DomainError, match="est_error must be nonnegative"):
        dataclasses.replace(ev, est_error=-1.0)


def test_record_takes_no_more_memory():
    # A run that keeps its records (the bench holds 24,000) must not grow:
    # each record keeps the compact attribute storage of the earlier one.
    def per_record(cls):
        tracemalloc.start()
        records = [cls(0j, 1j, "continuation", 1e-16, 80) for _ in range(2000)]
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        return size / len(records)

    assert per_record(series.ZetaEvaluation) <= per_record(OldZetaEvaluation)


def test_lattice_offsets_same_bits():
    def bits(offsets):
        return [(u0.real.hex(), u0.imag.hex(), m, du.hex()) for u0, m, du in offsets]

    checked = 0
    for _, d, _, alpha, sigma in itertools.islice(kernel_inputs(), 12000):
        z = complex(abs(d) * sigma.real, abs(d) * sigma.imag)
        if d != 1.0:
            alpha = complex(d * alpha.real, d * alpha.imag)
        if cmath.isfinite(z):
            assert bits(series._lattice_offsets(alpha, z)) == bits(old_lattice_offsets(alpha, z)), (alpha, z)
            checked += 1
    assert checked > 10000


class TestSigmaPastTheFloats:
    """At sigma = 1 + 1e308i a sphere family's z = 2 pi sigma is not finite:
    the continuation refuses it with one JSON error line (exit 1) that names
    sigma, not the scaled z."""

    SIGMA = "1+1e308i"
    ERROR = json.dumps({
        "error": "DomainError", "code": 1,
        "message": "the continuation needs a finite z = |d| sigma, got sigma = (1+1e+308j)",
    })

    def test_sphere2_eval(self, capsys):
        code = main(["eval", "--model", "sphere2", "--params", "theta=1", "--sigma", self.SIGMA])
        assert (code, capsys.readouterr().out.splitlines()) == (1, [self.ERROR])

    def test_sphere3_sweep(self, capsys):
        code = main(["sweep", "--model", "sphere3", "--params", "theta1=1,theta2=1.4142135623730951",
                     "--sigma-start", self.SIGMA, "--sigma-end", "2", "--steps", "3"])
        assert (code, capsys.readouterr().out.splitlines()) == (1, [CSV_HEADER, self.ERROR])

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 7 step 2: ruelle_log_closed has no tol gate yet, so the circle "
        "returns est_error 1.7e276 at sigma = 1+1e308i with exit 0"))
    def test_circle_eval_meets_tol_or_refuses(self, capsys):
        code = main(["eval", "--model", "circle", "--params", "r0=0.25,alpha=1i", "--sigma", self.SIGMA])
        out = capsys.readouterr().out
        if code == 2:
            return
        record = json.loads(out)
        log_r = complex(record["logR_re"], record["logR_im"])
        assert code == 0 and record["est_error"] <= DEFAULT_TOL * max(1.0, abs(log_r))
