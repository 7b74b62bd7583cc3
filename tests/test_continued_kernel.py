"""The family kernel of the continuation against the code it replaced.

``series._continued_family`` writes out its two Lerch halves, takes the
inversion inside ``_lerch_half`` and casts the disc coefficient row to
complex once per family.  The earlier kernel, which looped over the halves,
inverted by a recursive call and let every disc half's ``c @ powers`` cast
a real row, is kept below as the oracle.  Every value, certificate, term
count and refusal must have the same bits (float.hex) or the same type and
text, on seeded inputs that reach every route on each half.
"""

import cmath
import itertools
import json
import math

import numpy as np
import pytest

import equizeta.models as models
from equizeta import CircleModel, Sphere2Model, Sphere3Model, ruelle_log_closed, series
from equizeta.cli import CSV_HEADER, DEFAULT_TOL, main
from equizeta.errors import DomainError, SingularPointError
from equizeta.series import (
    _DISC_I,
    _DISC_TABLE,
    _EPS,
    _INV_FACTORIAL,
    _SERIES_N,
    DISC_RADIUS,
    DISC_TERMS,
    LATTICE_TOL,
    ROUNDING_ULPS,
    SERIES_TERMS,
    TWO_PI,
    _digamma,
    _exp_2pi_i,
    _lattice_offsets,
    _offset_zero_half,
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
    halves = _lattice_offsets(alpha, z)
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
    for u0, m, _ in _lattice_offsets(alpha, sigma):
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
                _lattice_offsets(alpha, sigma), (r, 1.0 - r), (1.0 - r, r), (cot, -cot)
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


def closed_outcome(model, g, sigma):
    try:
        ev = ruelle_log_closed(model, g, sigma)
    except Exception as exc:  # noqa: BLE001
        return type(exc).__name__, str(exc)
    return ev.log_R.real.hex(), ev.log_R.imag.hex(), ev.est_error.hex(), ev.terms, ev.method


def test_ruelle_log_closed_same_bits(monkeypatch):
    cases = list(_closed_cases())
    got = [closed_outcome(*case) for case in cases]
    monkeypatch.setattr(models, "_continued_family", old_continued_family)
    want = [closed_outcome(*case) for case in cases]
    for case, a, b in zip(cases, got, want):
        assert a == b, case
    methods = {w[-1] for w in want if len(w) == 5}
    assert methods == {"closed", "continuation"}
    assert any(len(w) == 2 for w in want)  # sigma = 0 on the spheres is refused


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
