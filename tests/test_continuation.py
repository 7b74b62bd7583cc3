"""The continuation of F(z; r, alpha) against mpmath.lerchphi.

F(z) = e^{r(alpha-z)} Phi(e^{alpha-z}, 1, r) + e^{-(1-r)(alpha+z)} Phi(e^{-alpha-z}, 1, 1-r),
with Phi = mpmath.lerchphi at 40 digits (tests/oracle.py), is the oracle.  est_error must
bound the error at every point, and each of its three terms (tail bound,
rounding, conditioning near the excluded lattice) is checked on its own.

A lerchphi value costs about 0.1 s, so the 400-point grid reads its
references from tests/data/lerch_grid.json and recomputes a sample of them
live.  Regenerate the file (about a minute) with

    PYTHONPATH=src python tests/test_continuation.py > tests/data/lerch_grid.json
"""

import cmath
import contextlib
import functools
import io
import json
import math
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from equizeta import (
    CircleModel,
    Sphere2Model,
    Sphere3Model,
    cli,
    ruelle_log_closed,
    ruelle_log_direct,
    series,
    validate_model,
    zeta,
)
from equizeta.selftest import run_selftest
from equizeta.series import BilateralSumParams, bilateral_exp_sum_continued_result

import oracle

GRID = Path(__file__).parent / "data" / "lerch_grid.json"
DPS = 40
TWO_PI = 2.0 * math.pi

lerch_oracle = functools.partial(oracle.lerch_oracle, dps=DPS)
identity_oracle = functools.partial(oracle.identity_oracle, dps=DPS)
sphere2_oracle = functools.lru_cache(functools.partial(oracle.sphere2_oracle, dps=DPS))


def error(value, ref) -> float:
    with mp.workdps(DPS):
        return float(abs(mp.mpc(value) - ref))


def grid_points():
    """400 seeded points: r in (0.01, 0.99), Re alpha and Re z in (-3, 3),
    |Im alpha| < 120, |Im z| < 20."""
    rng = np.random.default_rng(400)
    for _ in range(400):
        r = float(rng.uniform(0.01, 0.99))
        alpha = complex(rng.uniform(-3.0, 3.0), rng.uniform(-120.0, 120.0))
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-20.0, 20.0))
        yield r, alpha, z


def identity_grid():
    """3,000 seeded (alpha, sigma) for the identity class: Re alpha in (-1, 1)
    or 0, |Im alpha| < 40, and sigma a log-uniform distance in (1e-9, 3) from
    a point of the excluded lattice +-alpha + 2*pi*i*Z, in a uniform direction."""
    rng = np.random.default_rng(3000)
    for i in range(3000):
        alpha = complex(0.0 if i % 2 else rng.uniform(-1.0, 1.0), rng.uniform(-40.0, 40.0))
        centre = rng.choice((1.0, -1.0)) * alpha + 2j * math.pi * int(rng.integers(-3, 4))
        distance = 10.0 ** rng.uniform(-9.0, math.log10(3.0))
        yield alpha, centre + distance * cmath.exp(1j * rng.uniform(0.0, TWO_PI))


def certificate_terms(r, alpha, z):
    """(tail, rounding, conditioning), each summed over both halves, as
    bilateral_exp_sum_continued_result sums them into est_error."""
    small = min(r, 1.0 - r)
    cot = math.pi / math.tan(math.pi * small)
    cot = cot if small == r else -cot
    coefficients = series._disc_coefficients(small)
    total = np.zeros(3)
    for (u0, _, du), a, b, c in zip(
        series._lattice_offsets(complex(alpha), complex(z)), (r, 1.0 - r), (1.0 - r, r), (cot, -cot)
    ):
        total += series._lerch_half(u0, du, a, b, c, coefficients)[2:]
    return tuple(total)


def continued(r, alpha, z):
    return bilateral_exp_sum_continued_result(BilateralSumParams(r, complex(alpha)), z)


class TestGrid:
    @staticmethod
    def records():
        return json.loads(GRID.read_text(encoding="utf-8"))

    @staticmethod
    def stored(rec):
        with mp.workdps(DPS):
            return mp.mpc(mp.mpf(rec["F"][0]), mp.mpf(rec["F"][1]))

    def test_grid_has_no_miss(self):
        records = self.records()
        assert len(records) == 400
        for (r, alpha, z), rec in zip(grid_points(), records):
            assert rec["point"] == [r, alpha.real, alpha.imag, z.real, z.imag]
            res = continued(r, alpha, z)
            assert res.converged
            assert error(res.value, self.stored(rec)) <= res.est_error, (r, alpha, z, res)

    def test_stored_references_are_lerchphi(self):
        # Every 40th record, recomputed live, matches its stored value.
        records = self.records()
        for (r, alpha, z), rec in list(zip(grid_points(), records))[::40]:
            stored = self.stored(rec)
            with mp.workdps(DPS):
                assert abs(lerch_oracle(r, alpha, z) - stored) <= mp.mpf(10) ** -25 * abs(stored)


class TestCertificateTerms:
    """Each of est_error's three terms, where it is the one that matters."""

    @pytest.mark.parametrize("a", [0.01, 0.3, 0.5, 0.97])
    @pytest.mark.parametrize("u0", [
        # the disc at its widest |u0|, and the series at its slowest ratio
        0.999 + 3.14159j, -0.999 - 3.14159j, 0.999j,
        -1.0 + 3.14159j, -1.0 - 2.0j, -1.5 + 0.5j,
    ])
    def test_tail_bound(self, u0, a):
        # The exact remainder past the fixed term count, by mpmath, against
        # the closed-form bound that _lerch_half returns.
        small = min(a, 1.0 - a)
        _, terms, tail, _, _ = series._lerch_half(
            u0, 0.0, a, 1.0 - a, math.pi / math.tan(math.pi * a), series._disc_coefficients(small))
        with mp.workdps(80):  # tails reach 1e-50
            u, s = mp.mpc(u0), mp.mpf(a)
            exact = mp.exp(s * u) * mp.lerchphi(mp.exp(u), 1, s)
            if abs(u0.real) < series.DISC_RADIUS:
                partial = -mp.euler - mp.log(-u) - mp.digamma(s) - mp.fsum(
                    mp.bernpoly(k, s) * u**k / (k * mp.factorial(k)) for k in range(1, terms + 1))
            else:
                partial = mp.fsum(mp.exp(u * (n + s)) / (n + s) for n in range(terms))
            remainder = float(abs(exact - partial))
        assert remainder <= tail < 1e-17

    @pytest.mark.parametrize("r, alpha, z", [
        (1e-6, 1j, 0.0), (1e-9, 0.3 + 2j, -0.5 + 1j), (0.999999, 1j, 0.0),
    ])
    def test_rounding_term(self, r, alpha, z):
        # |F| ~ 1/r: the error is ulps of |F|, far above the tail and the
        # conditioning, and the rounding term covers it.
        res = continued(r, alpha, z)
        err = error(res.value, lerch_oracle(r, alpha, z))
        tail, rounding, conditioning = certificate_terms(r, alpha, z)
        assert tail + conditioning < err <= rounding
        assert res.est_error == pytest.approx(tail + rounding + conditioning, rel=1e-12)

    @pytest.mark.parametrize("r, alpha, k, offset", [
        (0.6, 50.1j, 3, 1e-8),
        (0.35, 0.2 + 80.7j, -2, 1e-7 * cmath.exp(2j)),
        (0.8, 30.3j, 1, 3e-9j),
        (0.45, 7.7j, 5, -4e-8j),
    ])
    def test_conditioning_term(self, r, alpha, k, offset):
        # z = -alpha - 2 pi i k + offset: -alpha - z sits |offset| from 2 pi i Z.
        # With k != 0, Im alpha and Im z reduce by different multiples of 2 pi,
        # and the rounding of the reduced u0 (ulps of pi) moves -log(-u0) by
        # about ulps / |offset|: far above the other two terms.
        z = -alpha - 2j * math.pi * k + offset
        res = continued(r, alpha, z)
        err = error(res.value, lerch_oracle(r, alpha, z))
        tail, rounding, conditioning = certificate_terms(r, alpha, z)
        assert tail + rounding < err <= conditioning + tail + rounding
        assert conditioning < 1e-14 / abs(offset)

    def test_bernoulli_table_is_exact(self):
        table = series._bernoulli_table(series.DISC_TERMS)
        with mp.workdps(DPS):
            for k, value in enumerate(table):
                assert value == float(mp.bernoulli(k) / mp.factorial(k)), k


class TestFaultPoints:
    """Inputs on which a circle route missed its certificate (the 2F1 continuation,
    the identity-class and half-class closed forms), each now within est_error."""

    def test_tiny_class_is_fast_and_certified(self):
        model = CircleModel(alpha=1j)
        start = time.perf_counter()
        ev = ruelle_log_closed(model, 1e-13, 0.0)
        assert time.perf_counter() - start < 1.0
        assert error(2.0 * ev.log_R, lerch_oracle(1e-13, 1j, 0.0)) <= 2.0 * ev.est_error

    def test_class_next_to_one_returns_a_value(self):
        ev = ruelle_log_closed(CircleModel(alpha=1j), 1.0 - 1e-13, 0.0)
        assert cmath.isfinite(ev.log_R) and ev.method == "continuation"
        assert error(2.0 * ev.log_R, lerch_oracle(1.0 - 1e-13, 1j, 0.0)) <= 2.0 * ev.est_error

    @pytest.mark.parametrize("r, alpha", [(1e-6, 1j), (0.971, 74.5j), (0.974, 11.2j)])
    def test_within_est_error(self, r, alpha):
        res = continued(r, alpha, 0.0)
        assert error(res.value, lerch_oracle(r, alpha, 0.0)) <= res.est_error

    @pytest.mark.parametrize("r0, alpha, sigma", [
        # r0 next to and at 1/2, each on the continuation
        (0.5 + 9e-13, 0.3 + 1j, 0.5), (0.5 - 9e-13, 0.3 + 1j, 0.5),
        (0.5 + 9e-13, 2j, 1.0), (0.5 - 9e-13, 2j, 1.0),
        (0.5 + 9e-13, 0.8, 1.0), (0.5 - 9e-13, 0.8, 1.0),
        (0.5, 0j, 1e-3),
    ])
    def test_half_class_within_est_error(self, r0, alpha, sigma):
        ev = ruelle_log_closed(CircleModel(alpha=alpha), r0, sigma)
        assert ev.method == "continuation"
        assert error(2.0 * ev.log_R, lerch_oracle(r0, alpha, sigma)) <= 2.0 * ev.est_error

    @pytest.mark.parametrize("alpha, sigma", [(0j, 1e-8), (0j, 1e-3)])
    def test_identity_class_within_est_error(self, alpha, sigma):
        ev = ruelle_log_closed(CircleModel(alpha=alpha), 0.0, sigma)
        assert ev.method == "closed"
        assert error(2.0 * ev.log_R, identity_oracle(alpha, sigma)) <= 2.0 * ev.est_error

    def test_identity_class_grid_has_no_miss(self):
        misses = []
        for alpha, sigma in identity_grid():
            ev = ruelle_log_closed(CircleModel(alpha=alpha), 0.0, sigma)
            if not error(2.0 * ev.log_R, identity_oracle(alpha, sigma)) <= 2.0 * ev.est_error:
                misses.append((alpha, sigma))
        assert not misses, (len(misses), misses[:5])

    @pytest.mark.parametrize("sigma", [5.0, 20.0, 30.0, 40.0])
    def test_identity_class_is_relative_where_e_u0_is_small(self, sigma):
        # |e^{u0}| = e^{-sigma}: 1 - e^{u0} keeps only an absolute ulp of it,
        # so Re log(1 - e^{u0}) must come from log1p to stay relative.
        ev = ruelle_log_closed(CircleModel(alpha=1j), 0.0, sigma)
        ref = identity_oracle(1j, sigma)
        assert error(2.0 * ev.log_R, ref) <= 4.0 * sys.float_info.epsilon * float(abs(ref))

    @pytest.mark.parametrize("sigma", [-800.0, -3000.0 + 2.5j, -720.0 + 710.0j, -1.5 + 0.5j])
    def test_identity_class_past_the_exp_range(self, sigma):
        # Re u0 > 0: each half is the inversion, and past Re u0 = 709 e^{u0} overflows a float.
        ev = ruelle_log_closed(CircleModel(alpha=1j), 0.0, sigma)
        assert ev.method == "closed"
        assert error(2.0 * ev.log_R, identity_oracle(1j, sigma)) <= 2.0 * ev.est_error

    @pytest.mark.parametrize("theta", [0.0, TWO_PI])
    @pytest.mark.parametrize("sigma", [-120.0 + 0.1j, -200.0 + 0.1j])
    def test_sphere2_on_two_pi_z_past_the_exp_range(self, theta, sigma):
        # The offset-0 family of sphere2 at z = 2 pi sigma, with the float 2 pi.
        ev = ruelle_log_closed(Sphere2Model(), theta, sigma)
        z = complex(TWO_PI * sigma.real, TWO_PI * sigma.imag)
        assert error(2.0 * ev.log_R, identity_oracle(0j, z)) <= 2.0 * ev.est_error

    @pytest.mark.parametrize("r0", ["1e-13", "0.9999999999999"])
    def test_cli_exits_zero_with_one_json_line(self, r0):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["eval", "--model", "circle", "--params", f"r0={r0},alpha=1i", "--sigma", "0"])
        assert code == 0
        (line,) = buf.getvalue().splitlines()
        assert json.loads(line)["method"] == "continuation"


class TestSpheres:
    """sphere2 continues through F(2 pi sigma; r, 0), the circle's sum."""

    @pytest.mark.parametrize("theta, sigma", [
        (2.5, -0.3 + 0.2j), (2.5, -1.0 + 0.1j), (1.0, 0.5), (4.0, 0.05),
    ])
    def test_against_lerchphi(self, theta, sigma):
        ev = ruelle_log_closed(Sphere2Model(), theta, sigma)
        assert ev.method == "continuation"
        assert error(ev.log_R, sphere2_oracle(theta, sigma)) <= ev.est_error

    @pytest.mark.parametrize("theta", [TWO_PI - 1e-5, TWO_PI + 1e-5, 2.0 * TWO_PI - 1e-4])
    @pytest.mark.parametrize("route", [ruelle_log_direct, ruelle_log_closed])
    def test_next_to_two_pi_z(self, route, theta):
        # Lengths theta + 2*pi*n formed with the float 2*pi, or the offset
        # (theta / 2pi) % 1, are 1e-5 off here: r must come from the exact
        # reduction of theta.
        assert validate_model(Sphere2Model(), theta).nondegenerate
        ev = route(Sphere2Model(), theta, 0.5)
        assert error(ev.log_R, sphere2_oracle(theta, 0.5)) <= ev.est_error

    @pytest.mark.parametrize("route", [ruelle_log_direct, ruelle_log_closed])
    @pytest.mark.parametrize("theta", [8.372510751886634e16, -8.372510751886634e16, 3165921374885385.0])
    def test_far_angles(self, route, theta):
        # _reduce_2pi leaves |beta| past 2*pi at +-8.37e16 (r past 1, log R
        # of the wrong sign) and past pi at 3.17e15: each angle is reduced
        # exactly, to beta = -0.00986 and 3.072.
        ev = route(Sphere2Model(), theta, 0.3 + 2.0j)
        assert error(ev.log_R, sphere2_oracle(theta, 0.3 + 2.0j)) <= ev.est_error

    @pytest.mark.parametrize("sigma", [1.0, 0.3 + 2.0j, -0.3 + 0.2j])
    @pytest.mark.parametrize("theta", [
        base + offset
        for base in (math.pi, -math.pi, 3.0 * math.pi)
        for offset in (0.0, 1e-13, -1e-13, 1e-11, -1e-11, 1e-9, -1e-9)
    ])
    def test_continuous_across_pi_z(self, theta, sigma):
        # theta + 2*pi*Z and its mirror are listed at every angle off 2*pi*Z:
        # at theta in pi*Z they are one set of lengths with two orbits at
        # each, so log R does not halve next to it.  sphere3 sums its angles.
        cases = [
            (Sphere2Model(), theta, sphere2_oracle(theta, sigma)),
            (Sphere3Model(), (theta, 1.0), sphere2_oracle(theta, sigma) + sphere2_oracle(1.0, sigma)),
        ]
        routes = [ruelle_log_closed, ruelle_log_direct] if complex(sigma).real > 0 else [ruelle_log_closed]
        for model, g, ref in cases:
            for route in routes:
                ev = route(model, g, sigma)
                assert error(ev.log_R, ref) <= ev.est_error, (model.name, route.__name__)

    @staticmethod
    def log_leading_coefficient(theta):
        """log C of one angle off 2*pi*Z, R ~ C sigma^-2 as sigma -> 0:
        -2 log 2 pi - 2 gamma - psi(r) - psi(1 - r), r = (theta mod 2 pi) / 2 pi."""
        with mp.workdps(DPS):
            tp = 2 * mp.pi
            r = (mp.mpf(theta) % tp) / tp
            return float(-2 * mp.log(tp) - 2 * mp.euler - mp.digamma(r) - mp.digamma(1 - r))

    @pytest.mark.parametrize("sigma", [1e-2, 1e-4, 1e-6])
    def test_order_at_zero_on_pi_z(self, sigma):
        # Each angle's R ~ C sigma^-2, with an O(sigma^2) remainder of at most
        # 2 sigma^2: order -2 per angle at theta = pi too, where log C is
        # 2 log(2 / pi); sphere3 at (pi, 1) has order -4 and sums the log C.
        assert self.log_leading_coefficient(math.pi) == pytest.approx(2.0 * math.log(2.0 / math.pi))
        cases = [
            (Sphere2Model(), math.pi, -2.0, 2.0 * math.log(2.0 / math.pi),
             sphere2_oracle(math.pi, sigma)),
            (Sphere3Model(), (math.pi, 1.0), -4.0,
             2.0 * math.log(2.0 / math.pi) + self.log_leading_coefficient(1.0),
             sphere2_oracle(math.pi, sigma) + sphere2_oracle(1.0, sigma)),
        ]
        for model, g, order, log_c, ref in cases:
            ev = ruelle_log_closed(model, g, sigma)
            assert error(ev.log_R, ref) <= ev.est_error, model.name
            gap = abs(ev.log_R - order * math.log(sigma) - log_c)
            assert gap <= -order * sigma**2 + ev.est_error, model.name


class TestOneKernel:
    """The circle's log R and the bilateral sum are one family kernel."""

    @staticmethod
    def points():
        """Seeded (r0, alpha, sigma) over r0 in (0, 1) and at 1/2, with Re(alpha) and
        Re(sigma) wide enough for every route of each half, and |Im| past pi."""
        rng = np.random.default_rng(21)
        for i in range(120):
            r0 = 0.5 if i % 10 == 0 else float(rng.uniform(0.0, 1.0))
            alpha = complex(rng.uniform(-2.0, 2.0), rng.uniform(-12.0, 12.0))
            sigma = complex(rng.uniform(-3.0, 3.0), rng.uniform(-12.0, 12.0))
            yield r0, alpha, sigma

    def test_log_closed_is_half_the_bilateral_sum(self):
        routes, phased = set(), set()
        for r0, alpha, sigma in self.points():
            ev = CircleModel(alpha=alpha).log_closed(r0, sigma)
            res = bilateral_exp_sum_continued_result(BilateralSumParams(r0, alpha), sigma)
            assert (ev.log_R, ev.est_error, ev.terms) == (0.5 * res.value, 0.5 * res.est_error, res.terms_used)
            for half, (u0, m, _) in enumerate(series._lattice_offsets(alpha, sigma)):
                x = u0.real
                routes.add((half, "disc" if abs(x) < 1.0 else "series" if x <= -1.0 else "inversion"))
                phased.add(half if m else None)
        assert len(routes) == 6 and {0, 1} <= phased

    def test_offset_zero_against_the_identity_oracle(self):
        for _, alpha, sigma in list(self.points())[::8]:
            ev = CircleModel(alpha=alpha).log_closed(0.0, sigma)
            assert ev.method == "closed"
            assert error(2.0 * ev.log_R, identity_oracle(alpha, sigma)) <= 2.0 * ev.est_error


class TestOneSideOfTheCut:
    """Real sigma past a real singular point puts u0 on the cut u0 > 0: every
    route of a half takes the limit from Im(sigma) > 0 there."""

    @pytest.mark.parametrize("alpha", [0j, 0.5 + 0j])
    def test_offset_zero(self, alpha):
        # Both halves are inverted: -log(1 - e^{-u0}) - u0 - i pi.
        model, sigma = CircleModel(alpha=alpha), -1.5
        ev = ruelle_log_closed(model, 0.0, sigma)
        assert error(2.0 * ev.log_R, identity_oracle(alpha, sigma)) <= 2.0 * ev.est_error
        above = ruelle_log_closed(model, 0.0, complex(sigma, 1e-12))
        assert abs(ev.log_R - above.log_R) <= 1e-10 and ev.log_R.imag == pytest.approx(-math.pi)

    def test_sphere2_on_two_pi_z(self):
        sigma = -0.3
        ev = ruelle_log_closed(Sphere2Model(), 0.0, sigma)
        z = complex(TWO_PI * sigma, 0.0)
        assert error(2.0 * ev.log_R, identity_oracle(0j, z)) <= 2.0 * ev.est_error
        above = ruelle_log_closed(Sphere2Model(), 0.0, complex(sigma, 1e-12))
        assert abs(ev.log_R - above.log_R) <= 1e-10

    @pytest.mark.parametrize("r0, alpha, sigma", [
        (0.3, 0j, -0.3),         # both halves on the disc
        (0.3, 0j, -1.5),         # both halves inverted
        (0.3, 0.5 + 0j, -0.7),   # one inverted, one on the disc
        (1e-9, -0.425 + 0j, -0.968),
    ])
    def test_continuation(self, r0, alpha, sigma):
        ev = ruelle_log_closed(CircleModel(alpha=alpha), r0, sigma)
        ref = lerch_oracle(r0, alpha, complex(sigma, 1e-12))
        assert error(2.0 * ev.log_R, ref) <= 2.0 * ev.est_error + 1e-10


def test_inputs_not_finite_refused():
    with pytest.raises(series.DomainError, match="alpha must be finite"):
        BilateralSumParams(0.25, complex(math.nan, 1.0))
    for z in (math.nan, complex(0.0, math.inf), complex(-math.inf, 0.0)):
        with pytest.raises(series.DomainError, match="needs a finite z"):
            continued(0.25, 1j, z)


def test_no_evaluation_path_calls_hyp2f1(monkeypatch):
    def refuse(*args):
        raise AssertionError("hyp2f1 called")

    monkeypatch.setattr(series, "hyp2f1", refuse)
    params = "r0=0.3,alpha=0.2+1.5i"
    for argv in (
        ["eval", "--model", "circle", "--params", params, "--sigma", "0"],
        ["eval", "--model", "circle", "--params", params, "--sigma=-1+2i"],
        ["sweep", "--model", "circle", "--params", params, "--sigma-start=-1", "--sigma-end", "1+1i",
         "--steps", "4"],
        ["fried", "--model", "circle", "--params", "r0=0.25,alpha=1i"],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    results = [res for res in run_selftest(seed=1) if res.name != "series/hyp2f1-at-zero"]
    assert results and all(res.passed for res in results), [r for r in results if not r.passed]


def test_nothing_reads_the_resummation_oracle(monkeypatch):
    # Its est_error is an estimate, not a bound: no CLI output or selftest verdict may rest on it.
    def refuse(*args, **kwargs):
        raise AssertionError("bilateral_exp_sum_resummed called")

    monkeypatch.setattr(series, "bilateral_exp_sum_resummed", refuse)
    monkeypatch.setattr(zeta, "bilateral_exp_sum_resummed", refuse)
    monkeypatch.delenv("EQUIZETA_TOL", raising=False)
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))
    for record in golden:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(record["argv"]))
        assert (code, out.getvalue()) == (record["code"], record["stdout"]), record["argv"]
    results = run_selftest(seed=1)
    assert results and all(res.passed for res in results), [r for r in results if not r.passed]


if __name__ == "__main__":
    records = []
    for r, alpha, z in grid_points():
        ref = lerch_oracle(r, alpha, z)
        records.append({
            "point": [r, alpha.real, alpha.imag, z.real, z.imag],
            "F": [mp.nstr(ref.real, 30), mp.nstr(ref.imag, 30)],
        })
    json.dump(records, sys.stdout, indent=0)
    sys.stdout.write("\n")
