"""Series engine tests against independent oracles.

Oracles here never share code with the production paths: raw power-series
loops, huge direct summations, and mpmath reference values.
"""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from equizeta import (
    BilateralSumParams,
    DomainError,
    NonConvergentError,
    SingularPointError,
    atanh_of_exp,
    bilateral_exp_sum_continued,
    bilateral_exp_sum_direct,
    bilateral_exp_sum_resummed,
    hyp2f1,
    log_one_minus,
)
from equizeta import models, series
from equizeta.series import bilateral_exp_sum_continued_result, bilateral_exp_sum_ewald

from oracle import lerch_oracle

mp.mp.dps = 30
SRC = str(Path(__file__).resolve().parent.parent / "src")


def hyp_series_oracle(a, b, c, z, n_terms=200):
    """Plain power-series oracle, fixed term count."""
    total, term = 1.0 + 0j, 1.0 + 0j
    for n in range(n_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
    return total


def bilateral_oracle(r, alpha, z, n_max=10**6):
    """Direct summation over n in [-n_max, n_max] with numpy."""
    n = np.arange(-n_max, n_max + 1)
    x = n + r
    return complex(np.sum(np.exp(alpha * x - np.abs(x) * z) / np.abs(x)))


class TestHyp2F1:
    def test_empty_series(self):
        assert hyp2f1(1, 2, 3, 0).value == 1.0 + 0j

    def test_log_value(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        oracle = hyp_series_oracle(1.0, 1.0, 2.0, 0.5)
        res = hyp2f1(1, 1, 2, 0.5)
        assert abs(res.value - oracle) < 1e-14
        assert abs(res.value - 1.3862943611198906) < 1e-10

    def test_atanh_value(self):
        oracle = hyp_series_oracle(1.0, 0.5, 1.5, 0.25)
        res = hyp2f1(1, 0.5, 1.5, 0.25)
        assert abs(res.value - oracle) < 1e-14
        assert abs(res.value - math.atanh(0.5) / 0.5) < 1e-10

    def test_at_zero_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a, b = rng.normal(size=2)
            c = abs(rng.normal()) + 0.3
            assert hyp2f1(a, b, c, 0.0).value == 1.0 + 0j

    def test_nonpositive_integer_c(self):
        with pytest.raises(DomainError):
            hyp2f1(1, 2, -3, 0.5)
        with pytest.raises(DomainError):
            hyp2f1(1, 2, 0, 0.5)

    def test_singular_locus(self):
        with pytest.raises(NonConvergentError):
            hyp2f1(1, 0.25, 1.25, 1.0)

    @pytest.mark.parametrize(
        "z",
        [
            0.5 + 0.3j,          # series
            0.95j,               # Pfaff region
            -4.0 + 0j,           # Pfaff region
        ],
    )
    @pytest.mark.parametrize("ab", [(1.0, 0.25), (1.0, -0.25), (1.0, 0.75)])
    def test_continuation_against_mpmath(self, z, ab):
        a, b = ab
        ref = complex(mp.hyp2f1(a, b, b + 1.0, mp.mpc(z)))
        res = hyp2f1(a, b, b + 1.0, z)
        assert res.converged
        assert abs(res.value - ref) < 5e-12 + 10.0 * res.est_error

    def test_generic_parameters_against_mpmath(self):
        for (a, b, c) in [(0.5, 1.3, 2.2), (2.0, 0.7, 1.9), (0.3, 0.9, 2.5)]:
            for z in (0.6 - 0.2j, -3.0 + 1.0j):  # series, Pfaff
                ref = complex(mp.hyp2f1(a, b, c, mp.mpc(z)))
                res = hyp2f1(a, b, c, z)
                assert abs(res.value - ref) < 1e-11 * max(1.0, abs(ref))

    def test_z_one_refused(self):
        # Gauss's sum is not a route: z = 1 is refused before the Pfaff map.
        for a, b, c in ((0.5, 1.3, 2.2), (1.0, 0.25, 3.0)):
            with pytest.raises(NonConvergentError, match="no evaluation route covers"):
                hyp2f1(a, b, c, 1.0)
        # A polynomial still terminates there.
        assert hyp2f1(-2.0, 0.5, 1.5, 1.0).value == pytest.approx(1.0 - 2.0 / 3.0 + 0.2, rel=1e-14)

    @pytest.mark.parametrize("a, b, c, z", [
        pytest.param(1.0, 0.25, 1.25, 3.0 + 2.0j, id="inv_z"),
        pytest.param(1.0, 0.25, 1.25, cmath.exp(0.4j), id="logcase"),
        pytest.param(1.0, 0.25, 1.25, cmath.exp(1.0j), id="lerch"),
        pytest.param(1.0, 0.3, 2.5, 1.0, id="gauss_sum"),
    ])
    def test_retired_routes_refuse(self, a, b, c, z):
        # One argument per retired connection formula; each is refused with its arguments named.
        with pytest.raises(NonConvergentError) as info:
            hyp2f1(a, b, c, z)
        a, b, c, z = complex(a), complex(b), complex(c), complex(z)
        assert str(info.value) == f"no evaluation route covers 2F1({a}, {b}; {c}; {z})"

    def test_near_one_still_refused(self):
        # No route covers z = 1 or the band around it.
        with pytest.raises(NonConvergentError):
            hyp2f1(1.0, 0.3, 2.5, 1.0 + 1e-15)
        with pytest.raises(NonConvergentError):
            hyp2f1(1.0, 0.3, 2.5, 1.0 - 1e-15j)


# ---------------------------------------------------------------------------
# Bit-exact guard: the 2F1 loops against the term-by-term originals
# ---------------------------------------------------------------------------

def reference_hyp2f1_series(a, b, c, z):
    """The defining power series as first written: one scalar pass per term."""
    total = 1.0 + 0j
    term = 1.0 + 0j
    n = 0
    while n < series.TERM_CAP:
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
            if abs(term) < series.SERIES_TOL * max(1.0, abs(total)) and tail < series.SERIES_TOL:
                return series.SeriesResult(total, n + 1, tail, True)
        if term == 0:  # polynomial case terminated
            return series.SeriesResult(total, n + 1, 0.0, True)
    return series.SeriesResult(total, n + 1, float("inf"), False)


def result_bits(res):
    """A SeriesResult as exact bits: the value's type, each float by float.hex
    (so -0.0 and 0.0 differ), the term count and the converged flag."""
    v = res.value
    return (type(v), float.hex(float(v.real)), float.hex(float(v.imag)),
            res.terms_used, float.hex(float(res.est_error)), res.converged)


class TestHyp2F1BitExact:
    """Every 2F1 route returns the same bits as the term-by-term originals."""

    @staticmethod
    def cases():
        """Seeded (route, a, b, c, z), at least 3,600 in all."""
        rng = np.random.default_rng(2024)

        def cplx(lo, hi, im):
            return complex(rng.uniform(lo, hi), rng.uniform(-im, im))

        def disc(radius):
            return radius * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())

        for _ in range(1500):
            yield "series", cplx(-4, 4, 3), cplx(-4, 4, 3), cplx(0.2, 5, 3), disc(0.8)
        produced = 0
        while produced < 800:
            w = disc(0.8)  # z = w/(w-1) puts w = z/(z-1) in the series disc
            z = w / (w - 1.0)
            if abs(z) > 0.8:
                produced += 1
                yield "pfaff", cplx(-3, 3, 2), cplx(-3, 3, 2), cplx(0.2, 4, 2), z
        for _ in range(500):
            m = -float(rng.integers(0, 12))
            yield "polynomial", m, cplx(-3, 3, 2), cplx(0.2, 4, 2), cplx(-2, 2, 2)
        for _ in range(400):
            # a -0.0 real part (or a whole -0.0), where a + 0 and a differ in sign
            a = complex(-0.0, rng.choice((-0.0, 0.0, rng.uniform(-2, 2))))
            yield "signed_zero", a, cplx(-3, 3, 2), cplx(0.2, 4, 2), disc(0.8)
            yield "signed_zero", cplx(-3, 3, 2), a, cplx(0.2, 4, 2), disc(0.8)

    def test_routes_match_the_originals(self, monkeypatch):
        cases = list(self.cases())
        assert len(cases) >= 3600
        assert {route for route, *_ in cases} == {"series", "pfaff", "polynomial", "signed_zero"}
        seen = []

        def spy(name, fn):
            def wrapped(*args):
                seen.append(name)
                return fn(*args)
            return wrapped

        def run(route, a, b, c, z):
            seen.clear()
            try:
                out = result_bits(hyp2f1(a, b, c, z))
            except (DomainError, NonConvergentError) as exc:  # the same error and message
                out = (type(exc), str(exc))
            return out, list(seen)

        current = [run(*case) for case in cases]
        monkeypatch.setattr(series, "_hyp2f1_series", spy("series", reference_hyp2f1_series))
        expected_route = {"series": ["series"], "pfaff": ["series"], "polynomial": ["series"]}
        for case, (bits, _) in zip(cases, current):
            ref_bits, ref_seen = run(*case)
            assert bits == ref_bits, case
            if case[0] in expected_route:
                assert ref_seen == expected_route[case[0]], case


class TestQuadratureRules:
    @pytest.mark.parametrize("rule, n", [
        (models._PERIOD_RULE, 12),
    ])
    def test_cached_rule_is_the_fresh_rule_and_read_only(self, rule, n):
        fresh = np.polynomial.legendre.leggauss(n)
        for cached, built in zip(rule, fresh):
            assert np.array_equal(cached, built)
            assert cached.flags.writeable is False
            with pytest.raises(ValueError):
                cached[0] = 0.0


def digamma_points(n: int, seed: int) -> list[float]:
    """Seeded a in (0, 1): n uniform, n log-uniform down to 1e-300, and
    1 - 10^-k for k = 1..16."""
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        (rng.random(n), 10.0 ** rng.uniform(-300.0, 0.0, n), 1.0 - 10.0 ** -np.arange(1.0, 17.0)))
    assert np.all((points > 0.0) & (points < 1.0))
    return points.tolist()


class TestDigamma:
    """The disc route's psi on (0, 1), in place of scipy.special.digamma."""

    def test_scipy_bits(self):
        from scipy import special

        points = digamma_points(50_000, seed=100)
        expected = special.digamma(np.array(points)).tolist()
        misses = [a for a, e in zip(points, expected) if series._digamma(a).hex() != e.hex()]
        assert not misses, (len(misses), misses[:5])

    def test_against_mpmath(self):
        # Relative error in ulps of |psi|, the unit of the disc's rounding term.
        worst = 0.0
        with mp.workdps(40):
            for a in digamma_points(1_492, seed=101):  # 3,000 points
                ref = mp.digamma(mp.mpf(a))
                worst = max(worst, float(abs((series._digamma(a) - ref) / ref)))
        assert worst <= 3.0 * np.finfo(float).eps < series.ROUNDING_ULPS * np.finfo(float).eps


class TestScipyImport:
    """scipy.special is loaded only by the Ewald route."""

    SCRIPT = """
import contextlib, io, sys
import equizeta
from equizeta import CircleModel, NonConvergentError, Sphere2Model, Sphere3Model, cli
from equizeta import hyp2f1, ruelle_log_closed, ruelle_log_direct

def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]

assert not scipy_modules(), "import equizeta"
# The circle's disc (sigma = 0), series (3) and inversion (-3) halves, and the offset-0 rule.
for alpha, sigma in ((1j, 0.0), (1j, 3.0), (1j, -3.0), (0.3 + 1.5j, -1 + 2j)):
    for r0 in (0.25, 0.0):
        ruelle_log_closed(CircleModel(alpha=alpha), r0, sigma)
ruelle_log_closed(Sphere2Model(), 1.0, -0.3 + 0.2j)
ruelle_log_closed(Sphere3Model(), (1.0, 2.0), 0.5 + 0.3j)
ruelle_log_direct(CircleModel(alpha=1j), 0.25, 1.0)
params = ("--params", "r0=0.25,alpha=1i")
for argv in (
    ["eval", "--model", "circle", *params, "--sigma", "0"],
    ["sweep", "--model", "circle", *params, "--sigma-start", "1", "--sigma-end", "2",
     "--steps", "3", "--method", "direct"],
    ["trace", "--model", "circle", *params, "--window", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
# hyp2f1 at zero, on the series, Pfaff and polynomial routes, and refused.
for a, z in ((0.5, 0.0), (0.5, 0.5 + 0.3j), (0.5, 0.95j), (-2.0, 3.0 + 2.0j)):
    hyp2f1(a, 0.25, 1.25, z)
try:
    hyp2f1(1.0, 0.3, 2.5, 1.0)
except NonConvergentError:
    pass
else:
    raise AssertionError("2F1 at z = 1 returned")
assert not scipy_modules(), scipy_modules()
# The circle's Fried check takes the torsion by Ewald's split (erfc, E1).
assert cli.main(["fried", "--model", "circle", *params]) == 0
assert "scipy.special" in scipy_modules()
"""

    def test_evaluation_paths_load_no_scipy(self):
        # A fresh interpreter, so no earlier test has loaded scipy.
        paths = (SRC, os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        argv = ["fried", "--model", "circle", "--params", "r0=0.25,alpha=1i"]
        golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))
        (record,) = [r for r in golden if r["argv"] == argv]
        assert proc.stdout == record["stdout"]


class TestBilateralDirect:
    def test_half_class_closed_identity(self):
        # F(z; 1/2, 0) = 4 atanh(e^{-z/2}); cross-checked by a 1e6-term sum.
        z = 2.0 * math.log(3.0)
        res = bilateral_exp_sum_direct(BilateralSumParams(0.5, 0j), z)
        assert abs(res.value - 4.0 * math.atanh(1.0 / 3.0)) < 1e-12
        assert abs(res.value - bilateral_oracle(0.5, 0j, z)) < 1e-12
        assert abs(res.value - 1.3862943611198906) < 1e-10

    def test_deep_decay(self):
        res = bilateral_exp_sum_direct(BilateralSumParams(0.5, 0j), 20.0)
        oracle = bilateral_oracle(0.5, 0j, 20.0, n_max=200)
        assert abs(res.value - oracle) < 1e-18
        assert abs(res.value - 4.0 * math.e ** (-10.0)) < 1e-9
        assert res.est_error < 1e-14

    def test_matches_oracle_generic(self):
        p = BilateralSumParams(0.25, 1j * math.pi / 3.0, unitary=True)
        res = bilateral_exp_sum_direct(p, 1.0)
        assert abs(res.value - bilateral_oracle(0.25, 1j * math.pi / 3.0, 1.0)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            bilateral_exp_sum_direct(BilateralSumParams(0.5, 0j), -0.5)
        with pytest.raises(DomainError):
            bilateral_exp_sum_direct(BilateralSumParams(0.5, 0j), 1j)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            BilateralSumParams(0.0, 0j)
        with pytest.raises(DomainError):
            BilateralSumParams(1.5, 0j)
        with pytest.raises(DomainError):
            BilateralSumParams(0.5, 0.1 + 1j, unitary=True)


class TestBilateralContinued:
    def test_agrees_with_direct(self):
        p = BilateralSumParams(0.5, 0j)
        direct = bilateral_exp_sum_direct(p, 1.0)
        cont = bilateral_exp_sum_continued(p, 1.0)
        assert abs(direct.value - cont) < 1e-10

    def test_agrees_with_direct_complex_alpha_axis(self):
        p = BilateralSumParams(0.25, 1j * math.pi / 3.0, unitary=True)
        direct = bilateral_exp_sum_direct(p, 1.0)
        cont = bilateral_exp_sum_continued(p, 1.0)
        assert abs(direct.value - cont) < 1e-10

    def test_resummation_refuses_non_unitary_alpha(self):
        # |Re alpha| > Re z: the partial sums grow like e^{|Re alpha| N} and
        # overflow long before the default 1e6 terms.
        with pytest.raises(DomainError, match="resummation needs"):
            bilateral_exp_sum_resummed(BilateralSumParams(0.25, 0.3 + 1j), 0.0)

    def test_resummation_takes_no_depth(self):
        # Three averaging rounds, fixed; no caller ever chose another.
        with pytest.raises(TypeError):
            bilateral_exp_sum_resummed(BilateralSumParams(0.25, 1j), 0.0, n_terms=100, depth=2)

    def test_boundary_value_matches_resummation(self):
        p = BilateralSumParams(1.0 / 3.0, 1j, unitary=True)
        cont = bilateral_exp_sum_continued(p, 0.0)
        resummed = bilateral_exp_sum_resummed(p, 0.0)
        assert abs(cont - resummed.value) < 1e-6

    def test_singular_lattice(self):
        with pytest.raises(SingularPointError):
            bilateral_exp_sum_continued(BilateralSumParams(0.5, 1j), 1j)
        # alpha = 0 puts z = 0 on the lattice: the same guard, the same class
        # that ruelle_log_closed raises there.
        with pytest.raises(SingularPointError):
            bilateral_exp_sum_continued(BilateralSumParams(0.5, 0j), 0.0)

    def test_certificate_against_lerchphi(self):
        # F(z) = e^{r(alpha-z)} Phi(e^{alpha-z}, 1, r)
        #      + e^{-(1-r)(alpha+z)} Phi(e^{-alpha-z}, 1, 1-r) (oracle.lerch_oracle),
        # at seeded points of r in [0.02, 0.98], Re alpha in [-1.5, 1.5],
        # Im alpha in [-6, 6], Re z in [-4, 4], Im z in [-8, 8], kept 0.05 off
        # the excluded lattice +-alpha + 2*pi*i*Z.
        from equizeta.series import bilateral_exp_sum_continued_result

        rng = np.random.default_rng(2023)
        checked = 0
        while checked < 20:
            r = float(rng.uniform(0.02, 0.98))
            alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-6.0, 6.0))
            z = complex(rng.uniform(-4.0, 4.0), rng.uniform(-8.0, 8.0))
            lattice_gap = min(
                abs(z - sgn * alpha - 2j * math.pi * round((z - sgn * alpha).imag / (2 * math.pi)))
                for sgn in (1, -1)
            )
            if lattice_gap < 0.05:
                continue
            res = bilateral_exp_sum_continued_result(BilateralSumParams(r, alpha), z)
            # The errors checked are ~1e-15; 20 digits halve the cost.
            ref = lerch_oracle(r, alpha, z, 20)
            assert abs(res.value - complex(ref)) <= res.est_error, (r, alpha, z)
            checked += 1

    def test_grid_agreement_budgeted(self):
        rng = np.random.default_rng(3)
        from equizeta.series import bilateral_exp_sum_continued_result

        for _ in range(15):
            r = float(rng.uniform(0.05, 0.95))
            alpha = 1j * float(rng.uniform(-5.0, 5.0))
            z = complex(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0))
            p = BilateralSumParams(r, alpha, unitary=True)
            direct = bilateral_exp_sum_direct(p, z)
            cont = bilateral_exp_sum_continued_result(p, z)
            gap = abs(direct.value - cont.value)
            assert gap < 10.0 * (direct.est_error + cont.est_error) + 1e-11


class TestBilateralEwald:
    """The torsion series F(0; r, i*beta) by Ewald's split."""

    @staticmethod
    def unitary_points(seed, n, beta_max):
        rng = np.random.default_rng(seed)
        while n:
            r, beta = float(rng.uniform(0.02, 0.98)), float(rng.uniform(-beta_max, beta_max))
            if abs(beta - 2 * math.pi * round(beta / (2 * math.pi))) >= 0.05:
                n -= 1
                yield BilateralSumParams(r, 1j * beta, unitary=True)

    def test_certificate_against_lerchphi(self):
        # |beta| up to 120 sits ~19 spectral terms off k = 0: a window not
        # centred on round(beta / 2 pi) misses the leading E1 terms.
        for p in self.unitary_points(2026, 40, 120.0):
            res = bilateral_exp_sum_ewald(p)
            ref = lerch_oracle(p.r, p.alpha, 0, mp.mp.dps)
            assert abs(res.value - complex(ref)) <= res.est_error, (p, res)

    def test_agrees_with_continuation(self):
        # beta over the Ewald test's own range: both routes take the phase of
        # the reduced beta exactly, so both certificates hold at any |beta|.
        for p in self.unitary_points(7, 200, 120.0):
            ewald = bilateral_exp_sum_ewald(p)
            cont = bilateral_exp_sum_continued_result(p, 0.0)
            assert abs(ewald.value - cont.value) <= ewald.est_error + cont.est_error, p

    def test_value_independent_of_eta(self, monkeypatch):
        points = list(self.unitary_points(11, 30, 40.0))
        default = [bilateral_exp_sum_ewald(p).value for p in points]
        monkeypatch.setattr(series, "EWALD_ETA", 1.0)
        for p, value in zip(points, default):
            assert abs(bilateral_exp_sum_ewald(p).value - value) < 1e-13, p

    def test_domain(self):
        with pytest.raises(DomainError):
            bilateral_exp_sum_ewald(BilateralSumParams(0.25, 0.3 + 1j))
        with pytest.raises(DomainError):
            bilateral_exp_sum_ewald(BilateralSumParams(0.25, 2j * math.pi, unitary=True))


class TestElementary:
    def test_log_one_minus_values(self):
        assert log_one_minus(0.0) == 0.0
        assert abs(log_one_minus(0.5) - math.log(2.0)) < 1e-15
        # series oracle for 0.5i
        z = 0.5j
        oracle = sum(z**n / n for n in range(1, 10**5))
        val = log_one_minus(z)
        assert abs(val - oracle) < 1e-13
        assert abs(val - (-0.11157177565710492 + 0.4636476090008061j)) < 1e-12

    def test_log_one_minus_domain(self):
        with pytest.raises(DomainError):
            log_one_minus(1.0)
        with pytest.raises(DomainError):
            log_one_minus(1.5)

    def test_log_conjugate_pairs_real(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if abs(z) >= 1:
                continue
            val = log_one_minus(z) + log_one_minus(z.conjugate())
            assert abs(val.imag) < 1e-13

    def test_atanh_of_exp_values(self):
        assert abs(atanh_of_exp(-2.0 * math.log(3.0)) - 0.22314355131420976) < 1e-12
        # leading term dominates in the far tail: 2 atanh(e^z) ~ 2 e^z
        assert abs(atanh_of_exp(-40.0)) < 1e-8
        assert abs(atanh_of_exp(-40.0) - 2.0 * math.exp(-40.0)) < 1e-30
        # half-integer series oracle: sum e^{(n+1/2)*2z}/(n+1/2), z = -1
        z = -1.0
        oracle = sum(
            math.exp((n + 0.5) * 2.0 * z) / (n + 0.5) for n in range(10**4)
        )
        assert abs(atanh_of_exp(z) - oracle) < 1e-12
        assert abs(atanh_of_exp(z) - 0.7719368329053048) < 1e-12

    def test_atanh_of_exp_domain(self):
        with pytest.raises(DomainError):
            atanh_of_exp(0.0)
        with pytest.raises(DomainError):
            atanh_of_exp(0.5 + 1j)


class TestSymmetries:
    def test_conjugation_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            r = float(rng.uniform(0.05, 0.95))
            alpha = 1j * float(rng.uniform(-4.0, 4.0))
            z = complex(rng.uniform(0.2, 4.0), rng.uniform(-2.0, 2.0))
            plus = bilateral_exp_sum_direct(BilateralSumParams(r, alpha, True), z)
            minus = bilateral_exp_sum_direct(
                BilateralSumParams(r, -alpha, True), z.conjugate()
            )
            assert abs(minus.value - plus.value.conjugate()) < 1e-12

    def test_half_class_identity_re_z_positive(self):
        for z in (0.3, 1.0, 2.5, 4.0 + 1.0j):
            p = BilateralSumParams(0.5, 0j)
            got = bilateral_exp_sum_direct(p, z).value
            want = 4.0 * cmath.atanh(cmath.exp(-complex(z) / 2.0))
            assert abs(got - want) < 1e-10
