"""Zeta engine tests: trace atoms, pairing, log R routes, torsion, Fried."""

import cmath
import math
import re

import numpy as np
import pytest

from equizeta import (
    CircleModel,
    DomainError,
    EuclideanElement,
    EuclideanLatticeModel,
    FlowModel,
    IntegerLatticeModel,
    LineModel,
    NonConvergentError,
    NotApplicableError,
    SingularPointError,
    Sphere2Model,
    Sphere3Model,
    flat_trace_measure,
    fried_residual,
    pair_with_test_function,
    product_decomposition_check,
    ruelle_log_closed,
    ruelle_log_direct,
    subgroup_power_check,
    torsion_log,
    torsion_log_resummed,
)
from equizeta import zeta
from equizeta.series import BilateralSumParams, SeriesResult, bilateral_exp_sum_continued_result
from equizeta.zeta import AtomicMeasure

TWO_PI = 2.0 * math.pi
SPHERES = [(Sphere2Model(), 1.0), (Sphere3Model(), (1.0, math.sqrt(2.0)))]


def euclid_model(alpha_v0=0j, a=1.0):
    return EuclideanLatticeModel.from_angle(3, a, TWO_PI / 3.0, 3, alpha_v0)


class TestFlatTraceMeasure:
    def test_line_atom(self):
        m = flat_trace_measure(LineModel(alpha=1j), 2.0, 10.0)
        assert len(m.atoms) == 1
        l, coeff = m.atoms[0]
        assert l == 2.0
        assert abs(coeff - (-cmath.exp(2j))) < 1e-15

    def test_line_identity_empty(self):
        assert flat_trace_measure(LineModel(alpha=1j), 0.0, 10.0).atoms == ()

    def test_circle_identity_atoms(self):
        m = flat_trace_measure(CircleModel(alpha=1j), 0.0, 3.0)
        assert [l for l, _ in m.atoms] == [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]
        for l, coeff in m.atoms:
            assert abs(coeff - (-cmath.exp(1j * l))) < 1e-15

    @pytest.mark.parametrize("theta", [math.pi, -math.pi, 3.0 * math.pi])
    def test_sphere2_on_pi_z_has_two_orbits_per_atom(self, theta):
        # Both families of the angle close up at each length pi + 2*pi*n.
        m = flat_trace_measure(Sphere2Model(), theta, 4.0)
        assert [l for l, _ in m.atoms] == pytest.approx([-math.pi, math.pi], rel=0.0, abs=1e-14)
        assert [c for _, c in m.atoms] == [-2.0 * TWO_PI, -2.0 * TWO_PI]

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(DomainError):
            AtomicMeasure(atoms=((1.0, 1.0 + 0j), (1.0, 2.0 + 0j)), window=2.0)

    def test_degenerate_model_rejected(self):
        m = EuclideanLatticeModel.from_angle(3, 1.0, 0.0, 1, 0j)
        with pytest.raises(DomainError):
            flat_trace_measure(m, EuclideanElement(l0=1), 5.0)


class TestPairing:
    def test_empty(self):
        assert pair_with_test_function(AtomicMeasure(atoms=(), window=1.0), abs) == 0

    def test_single_atom(self):
        m = AtomicMeasure(atoms=((1.0, 2.0 + 0j),), window=2.0)
        assert pair_with_test_function(m, lambda t: 1.0) == 2.0 + 0j

    @pytest.mark.parametrize("sigma", [0.5, 1.0])
    @pytest.mark.parametrize(
        "model,g",
        [(CircleModel(alpha=1j), 0.0), (Sphere2Model(), 1.0)],
    )
    def test_matches_minus_two_log_r_exactly(self, sigma, model, g):
        window = 30.0 / sigma
        measure = flat_trace_measure(model, g, window)
        psi = lambda t: cmath.exp(-sigma * abs(t)) / abs(t)
        paired = pair_with_test_function(measure, psi)
        direct = ruelle_log_direct(model, g, sigma, window=window)
        assert paired == -2.0 * direct.log_R


class TestDirect:
    def test_line_value(self):
        ev = ruelle_log_direct(LineModel(alpha=0j), 2.0, 1.0)
        assert abs(ev.log_R - math.exp(-2.0) / 4.0) < 1e-16
        assert ev.method == "direct"

    def test_circle_identity_matches_series_oracle(self):
        alpha, sigma = 1j, 1.0
        oracle = 0.5 * sum(
            (cmath.exp(n * (alpha - sigma)) + cmath.exp(-n * (alpha + sigma))) / n
            for n in range(1, 400)
        )
        ev = ruelle_log_direct(CircleModel(alpha=alpha), 0.0, sigma)
        assert abs(ev.log_R - oracle) < 1e-12

    def test_sphere2_matches_bulk_oracle(self):
        theta = 1.0
        for sigma in (0.5, 1.0, 2.0):
            n = np.arange(-25000, 25000 + 1)
            vals = np.concatenate([theta + TWO_PI * n, -theta + TWO_PI * n])
            vals = vals[np.abs(vals) > 1e-12]
            oracle = math.pi * math.fsum(np.exp(-np.abs(vals) * sigma) / np.abs(vals))
            ev = ruelle_log_direct(Sphere2Model(), theta, sigma)
            assert abs(ev.log_R - oracle) < 1e-10

    def test_requires_positive_sigma(self):
        with pytest.raises(DomainError):
            ruelle_log_direct(CircleModel(alpha=1j), 0.25, 0.0)
        with pytest.raises(DomainError):
            ruelle_log_direct(Sphere2Model(), 1.0, -1.0)

    def test_divergent_sum_raises(self):
        # |Re(alpha)| >= Re(sigma): the circle tail bound is infinite.
        with pytest.raises(DomainError, match="does not converge absolutely"):
            ruelle_log_direct(CircleModel(alpha=1 + 1j), 0.3, 0.9)
        with pytest.raises(DomainError, match="does not converge absolutely"):
            ruelle_log_direct(CircleModel(alpha=-1.0), 0.3, 1.0, window=5.0)

    def test_orbit_budget_checked_before_orbits(self, monkeypatch):
        # sigma = 2e-5 asks for window 2.5e6, 5e6 circle orbits.
        def refuse(*args, **kwargs):
            raise AssertionError("orbits built past the budget")

        monkeypatch.setattr(CircleModel, "orbits", refuse)
        with pytest.raises(NonConvergentError, match="would exceed the term cap"):
            ruelle_log_direct(CircleModel(alpha=1j), 0.25, 2e-5)

    def test_orbit_budget_covers_trace_and_views(self, monkeypatch):
        # Past the budget no orbit is built: window 3e6 would be 6e6 circle
        # atoms (about 1 GB), and 1e300 no array at all.
        def refuse(*args, **kwargs):
            raise AssertionError("orbits built past the budget")

        monkeypatch.setattr(CircleModel, "orbits", refuse)
        circle = CircleModel(alpha=1j)
        for build in (
            lambda: flat_trace_measure(circle, 0.25, 3e6),
            lambda: circle.orbit_data(0.25, 1e300),
            lambda: circle.length_spectrum(0.25, 3e6),
            lambda: circle.orbit_contributions(0.25, 3e6 + 0.25),
        ):
            with pytest.raises(NonConvergentError, match="would exceed the term cap"):
                build()

    def test_chosen_window_that_misses_tol_raises(self):
        # The window reads only Re(sigma): est_error 0.0398 against tol 1e-12.
        model = CircleModel(alpha=1 + 1j)
        with pytest.raises(NonConvergentError, match="above tol 1e-12"):
            ruelle_log_direct(model, 0.3, 1.05)
        # An explicit window returns its certificate, whatever it is.
        ev = ruelle_log_direct(model, 0.3, 1.05, window=50.0 / 1.05)
        assert 0.03 < ev.est_error < 0.05

    def test_overflow_is_a_domain_error(self):
        want = r"log R at sigma = \(-400\+0j\) overflows a float"
        with pytest.raises(DomainError, match=want):
            ruelle_log_direct(LineModel(), 2.0, -400.0)
        with pytest.raises(DomainError, match=want):
            ruelle_log_closed(LineModel(), 2.0, -400.0)
        with pytest.raises(DomainError, match=r"log R at sigma = 0j overflows a float"):
            ruelle_log_closed(LineModel(alpha=400), 2.0, 0.0)

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_non_finite_sum_is_a_domain_error(self):
        # The holonomy e^{800} overflows to inf, so the sum is not a finite float.
        with pytest.raises(DomainError, match=r"sigma = \(1\+0j\) overflows a float"):
            ruelle_log_direct(euclid_model(alpha_v0=400), EuclideanElement(l0=2), 1.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, 1.0, 2.0, math.nan])
    def test_tol_outside_the_unit_interval_refused(self, tol):
        # The range the Gaussian tail target already had, for the direct sum
        # (self-windowed or not) and for an applicable Fried comparison.
        want = rf"^tol must lie in \(0, 1\), got {tol}$"
        with pytest.raises(DomainError, match=want):
            ruelle_log_direct(CircleModel(alpha=1j), 0.25, 1.0, tol=tol)
        with pytest.raises(DomainError, match=want):
            ruelle_log_direct(LineModel(), 2.0, 1.0, tol=tol, window=5.0)
        with pytest.raises(DomainError, match=want):
            fried_residual(CircleModel(alpha=1j), 0.25, tol)

    @pytest.mark.parametrize("window", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("model, g", [
        (CircleModel(alpha=1j), 0.25), (Sphere2Model(), 1.0), (LineModel(), 2.0),
    ], ids=lambda v: getattr(v, "name", None))
    def test_window_not_positive_refused(self, model, g, window):
        # Refused before the tail bound, which divides by the window.
        with pytest.raises(DomainError, match="^window must be positive$"):
            ruelle_log_direct(model, g, 1.0, window=window)
        with pytest.raises(DomainError, match="^window must be positive$"):
            flat_trace_measure(model, g, window)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)])
    @pytest.mark.parametrize("route, model, g", [
        (ruelle_log_direct, CircleModel(alpha=1j), 0.25),
        (ruelle_log_closed, LineModel(alpha=1j), 2.0),
        (ruelle_log_closed, CircleModel(alpha=1j), 0.25),
        (ruelle_log_closed, Sphere2Model(), 1.0),
    ], ids=["direct", "line-closed", "circle-continuation", "sphere-continuation"])
    def test_sigma_not_finite_refused(self, route, model, g, sigma):
        # Refused before any evaluation: inf once gave the line closed form 0,
        # and nan reached the continuation.
        with pytest.raises(DomainError, match="^sigma must be finite$"):
            route(model, g, sigma)

    def test_finite_models_any_sigma(self):
        ev = ruelle_log_direct(euclid_model(), EuclideanElement(l0=1), -2.0)
        assert abs(ev.log_R - math.exp(2.0) / 3.0) < 1e-12


class TestLinearWork:
    """The direct sum and the flat trace read the orbit data once: the number
    of orbit builds does not grow with the window."""

    COUNTED = ("orbits", "length_spectrum", "orbit_contributions")

    def calls(self, monkeypatch, model, run):
        counts = {}
        cls = type(model)
        for name in self.COUNTED:
            if not hasattr(cls, name):
                continue

            def counting(*args, _fn=getattr(cls, name), _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(cls, name, counting)
        run()
        monkeypatch.undo()
        return counts

    @pytest.mark.parametrize(
        "model, g",
        [
            (CircleModel(alpha=0.3 + 1j), 0.25),
            (Sphere2Model(), 1.0),
            (Sphere3Model(), (1.0, math.sqrt(2.0))),
        ],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_spectrum_builds_do_not_grow_with_the_window(self, monkeypatch, model, g):
        for run in (
            lambda w: ruelle_log_direct(model, g, 0.5, window=w),
            lambda w: flat_trace_measure(model, g, w),
        ):
            small = self.calls(monkeypatch, model, lambda: run(50.0))
            large = self.calls(monkeypatch, model, lambda: run(500.0))
            assert small == large == {"orbits": 1}


class TestClosed:
    def test_euclid_at_zero(self):
        ev = ruelle_log_closed(euclid_model(), EuclideanElement(l0=1), 0.0)
        assert abs(ev.log_R - 1.0 / 3.0) < 1e-16

    def test_euclid_scaling(self):
        # spacing a scales both the spectrum and the folded period.
        m = euclid_model(alpha_v0=0.5j, a=2.0)
        ev = ruelle_log_closed(m, EuclideanElement(l0=1), 0.7)
        want = (2.0 / 3.0) * cmath.exp(-2.0 * 0.7 + 2.0 * 0.5j) / 2.0
        assert abs(ev.log_R - want) < 1e-15
        direct = ruelle_log_direct(m, EuclideanElement(l0=1), 0.7)
        assert abs(direct.log_R - ev.log_R) < 1e-14

    def test_finite_terms_count_the_orbits(self):
        # One orbit on the line, two on euclid (+-a l0), none at g = 0, where
        # log R is an exact 0 with est_error 0.
        assert ruelle_log_closed(LineModel(alpha=1j), 2.0, 0.5).terms == 1
        assert ruelle_log_closed(euclid_model(), EuclideanElement(l0=2), 0.5).terms == 2
        ev = ruelle_log_closed(LineModel(alpha=1j), 0.0, 0.5)
        assert (ev.log_R, ev.est_error, ev.terms) == (0j, 0.0, 0)

    def test_finite_term_past_the_float_precision_refused(self):
        # |a| + |l||sigma| = 2e15: the exponent's rounding is past 1/24 of a
        # radian, so no certificate of the linear rule holds; just inside, one does.
        with pytest.raises(DomainError, match="l = 2.0 is past the float precision"):
            ruelle_log_closed(LineModel(alpha=1e15j), 2.0, 1.0)
        ev = ruelle_log_closed(LineModel(alpha=1e13j), 2.0, 1.0)
        assert 0.0 < ev.est_error < abs(ev.log_R)

    def test_underflowed_term_keeps_a_bound(self):
        # e^{-1000} / 10 underflows to 0: the certificate still covers it.
        ev = ruelle_log_closed(LineModel(alpha=0j), 5.0, 200.0)
        assert ev.log_R == 0j and 0.0 < ev.est_error < 1e-300

    def test_circle_half_matches_direct_series(self):
        # The class r0 = 1/2 continues like any other, against the defining
        # bilateral series and, independently, the atanh identity.
        from equizeta import BilateralSumParams, atanh_of_exp, bilateral_exp_sum_direct

        for alpha in (0j, 1j * math.pi / 3.0, 1j * math.pi):
            for sigma in (0.5, 1.0, 2.0):
                ev = ruelle_log_closed(CircleModel(alpha=alpha), 0.5, sigma)
                assert ev.method == "continuation"
                series = bilateral_exp_sum_direct(
                    BilateralSumParams(0.5, alpha), sigma
                ).value
                atanh = atanh_of_exp((alpha - sigma) / 2.0) + atanh_of_exp((-alpha - sigma) / 2.0)
                assert abs(ev.log_R - 0.5 * series) < 1e-10
                assert abs(ev.log_R - 0.5 * atanh) <= ev.est_error + 1e-15

    def test_circle_generic_continuation(self):
        ev = ruelle_log_closed(CircleModel(alpha=1j), 0.25, 0.0)
        assert ev.method == "continuation"
        assert ev.est_error < 1e-10

    def test_singular_point(self):
        with pytest.raises(SingularPointError):
            ruelle_log_closed(CircleModel(alpha=0j), 0.25, 0.0)
        with pytest.raises(SingularPointError):
            ruelle_log_closed(CircleModel(alpha=0j), 0.0, 0.0)

    @pytest.mark.parametrize("sigma", [0j, 1j, -2j])
    @pytest.mark.parametrize(
        "model, g",
        # theta in 2*pi*Z is the offset-0 family: the same lattice rule
        SPHERES + [(Sphere2Model(), 0.0), (Sphere2Model(), TWO_PI), (Sphere2Model(), 2.0 * TWO_PI)],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_sphere_singular_points(self, model, g, sigma):
        # 2*pi*sigma meets the excluded lattice 2*pi*i*Z; the error names sigma itself.
        message = re.escape(f"sigma = {sigma} is a singular point")
        with pytest.raises(SingularPointError, match=message):
            ruelle_log_closed(model, g, sigma)

    def test_sphere_offset_zero_family_continues(self):
        # theta in 2*pi*Z (a degenerate element) lists the one family 2*pi*n,
        # n != 0: log R = -log(1 - e^{-2 pi sigma}), closed, and continued past
        # Re(sigma) = 0.
        for theta in (0.0, TWO_PI, 2.0 * TWO_PI):
            assert Sphere2Model().families(theta) == [(TWO_PI, 0.0, 0j)]
            closed = ruelle_log_closed(Sphere2Model(), theta, 0.5)
            direct = ruelle_log_direct(Sphere2Model(), theta, 0.5)
            assert closed.method == "closed"
            assert abs(closed.log_R - direct.log_R) <= closed.est_error + direct.est_error
            assert abs(closed.log_R + math.log(-math.expm1(-math.pi))) <= closed.est_error
            assert cmath.isfinite(ruelle_log_closed(Sphere2Model(), theta, -0.3 + 0.2j).log_R)
        # One angle in 2*pi*Z leaves the other's families on the continuation.
        closed = ruelle_log_closed(Sphere3Model(), (0.0, 1.0), 0.5)
        direct = ruelle_log_direct(Sphere3Model(), (0.0, 1.0), 0.5)
        assert closed.method == "continuation"
        assert abs(closed.log_R - direct.log_R) <= closed.est_error + direct.est_error

    def test_sphere3_is_the_sum_over_its_angles(self):
        angles = (1.0, math.sqrt(2.0))
        for sigma in (0.5, -0.3 + 0.2j, -1.0 + 0.1j):
            whole = ruelle_log_closed(Sphere3Model(), angles, sigma)
            parts = [ruelle_log_closed(Sphere2Model(), theta, sigma) for theta in angles]
            gap = abs(whole.log_R - parts[0].log_R - parts[1].log_R)
            assert whole.method == "continuation"
            assert gap <= whole.est_error + parts[0].est_error + parts[1].est_error

    def test_sphere_half_rule_matches_the_direct_sum(self):
        # At theta = pi the mirror family -(theta + 2*pi*Z) is the same set of
        # lengths, listed again: two closed orbits close up at each length.
        assert len(Sphere2Model().families(math.pi)) == 2
        direct = ruelle_log_direct(Sphere2Model(), math.pi, 0.7)
        closed = ruelle_log_closed(Sphere2Model(), math.pi, 0.7)
        assert abs(direct.log_R - closed.log_R) <= direct.est_error + closed.est_error

    @pytest.mark.parametrize("sigma", [0.05, 0.2, 1.0, 5.0, 0.3 + 2.0j])
    @pytest.mark.parametrize(
        "model, g",
        SPHERES + [(Sphere2Model(), 2.5), (Sphere2Model(), -4.0), (Sphere3Model(), (0.4, -2.9))],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_sphere_direct_continuation_agreement(self, model, g, sigma):
        direct = ruelle_log_direct(model, g, sigma)
        closed = ruelle_log_closed(model, g, sigma)
        assert closed.method == "continuation"
        assert abs(direct.log_R - closed.log_R) <= direct.est_error + closed.est_error

    @pytest.mark.parametrize("r0", [0.25, 1.0 / 3.0, 0.5, 0.75])
    @pytest.mark.parametrize("sigma", [0.2, 0.5, 1.0, 2.0, 5.0])
    def test_direct_closed_agreement_grid(self, r0, sigma):
        m = CircleModel(alpha=1j)
        direct = ruelle_log_direct(m, r0, sigma)
        closed = ruelle_log_closed(m, r0, sigma)
        gap = abs(direct.log_R - closed.log_R)
        assert gap < 10.0 * (direct.est_error + closed.est_error) + 1e-12


class TestTorsion:
    def test_line(self):
        assert abs(torsion_log(LineModel(alpha=1j), 2.0) - cmath.exp(2j) / 4.0) < 1e-16

    def test_circle_identity_value(self):
        # (-(2 sinh(alpha/2))^2)^{-1/2} at alpha = i equals 1/(2 sin(1/2)).
        val = torsion_log(CircleModel(alpha=1j), 0.0)
        want = -math.log(2.0 * math.sin(0.5))
        assert abs(val - want) < 1e-14
        assert abs(cmath.exp(val) - 1.0 / (2.0 * math.sin(0.5))) < 1e-14

    def test_euclid(self):
        assert abs(torsion_log(euclid_model(), EuclideanElement(l0=1)) - 1.0 / 3.0) < 1e-16

    def test_finite_spectra_read_torsion_off_log_r(self):
        # log R(0) itself, bit for bit the sum over the orbits of
        # e^{alpha l} / (2|l| / period): the line's one orbit, euclid's two.
        rng = np.random.default_rng(26)
        for _ in range(200):
            alpha, g = 1j * float(rng.uniform(-50.0, 50.0)), float(rng.uniform(-20.0, 20.0))
            n = int(rng.integers(-9, 10))
            assert torsion_log(LineModel(alpha=alpha), g) == cmath.exp(alpha * g) / (2.0 * abs(g))
            if n:
                assert torsion_log(IntegerLatticeModel(alpha=alpha), n) == (
                    cmath.exp(alpha * n) / (2.0 * abs(n)))
                model = euclid_model(alpha_v0=alpha, a=abs(g) or 1.0)
                l = model.a * n
                term = cmath.exp(l * alpha) / (2.0 * abs(l) / model.period)
                assert torsion_log(model, EuclideanElement(l0=n)) == term + term
        assert torsion_log(LineModel(alpha=1j), 0.0) == 0j

    def test_alpha_conditions(self):
        with pytest.raises(DomainError):
            torsion_log(LineModel(alpha=0.2 + 1j), 1.0)
        with pytest.raises(DomainError):
            torsion_log(CircleModel(alpha=0j), 0.25)

    def test_spheres_not_applicable(self):
        with pytest.raises(NotApplicableError):
            torsion_log(Sphere2Model(), 1.0)

    def test_resummed_route_is_independent(self):
        m = CircleModel(alpha=1j)
        prod = torsion_log(m, 0.25)
        oracle = torsion_log_resummed(m, 0.25)
        assert abs(prod - oracle.value) < 1e-6
        assert abs(prod - oracle.value) > 0.0  # genuinely different routes

    def test_non_unitary_circle_class_refused(self):
        # Off the unitary line both routes refuse with the library's error.
        with pytest.raises(DomainError):
            torsion_log_resummed(CircleModel(alpha=0.3 + 1j), 0.25)
        with pytest.raises(DomainError, match="purely imaginary"):
            torsion_log(CircleModel(alpha=0.3 + 1j), 0.25)

    @pytest.mark.parametrize("model, g", [
        (LineModel(alpha=1j), 2.0), (CircleModel(alpha=1j), 0.0),
        (IntegerLatticeModel(alpha=1j), 2.0), (euclid_model(alpha_v0=1j), EuclideanElement(l0=1)),
        (Sphere2Model(), 1.0), (Sphere2Model(), TWO_PI), (Sphere3Model(), (1.0, math.sqrt(2.0))),
    ])
    def test_resummed_route_only_on_circle_non_identity_classes(self, model, g):
        message = "^resummed torsion applies to circle non-identity classes$"
        with pytest.raises(DomainError, match=message):
            torsion_log_resummed(model, g)

    def test_resummed_route_reads_the_family(self, monkeypatch):
        # Offset and connection come from families(g): the model needs no alpha of its own.
        class OneFamily(FlowModel):
            infinite_spectrum = True

            def families(self, g):
                return [(1.0, g, 1.5j)]

        seen = []
        monkeypatch.setattr(zeta, "bilateral_exp_sum_resummed",
                            lambda params: seen.append(params) or SeriesResult(2.0, 1, 0.0, True))
        assert torsion_log_resummed(OneFamily(), 0.25).value == 1.0
        assert seen == [BilateralSumParams(0.25, 1.5j)]

    def test_certificate_is_a_python_float(self):
        assert type(CircleModel(alpha=1j).torsion(0.25).est_error) is float

    @pytest.mark.parametrize("route, model, g", [
        pytest.param(torsion_log, CircleModel, 0.25, id="CircleModel-0.25"),
        pytest.param(torsion_log, CircleModel, 0.0, id="CircleModel-0.0"),
        pytest.param(torsion_log, LineModel, 2.0, id="LineModel-2.0"),
        pytest.param(
            lambda m, g: torsion_log_resummed(m, g).value, CircleModel, 0.25,
            id="resummed-CircleModel-0.25",
        ),
    ])
    def test_one_unitarity_threshold(self, route, model, g):
        # Every model and route draws the unitary line at the same |Re(alpha)|.
        with pytest.raises(DomainError, match="purely imaginary"):
            route(model(alpha=1e-13 + 1j), g)
        assert cmath.isfinite(route(model(alpha=1e-15 + 1j), g))


class TestFried:
    def test_line_exact(self):
        rep = fried_residual(LineModel(alpha=1j), 2.0)
        assert rep.applicable
        assert rep.residual == 0j

    def test_circle_two_route(self):
        rep = fried_residual(CircleModel(alpha=1j), 1.0 / 3.0)
        assert rep.applicable
        assert abs(rep.residual) < 1e-12
        assert abs(rep.residual) <= rep.est_error
        assert "Ewald split" in rep.reason

    def test_holds_reads_tol(self):
        # |residual| + est_error is about 4.6e-15 at r0 = 0.25, alpha = i.
        model = CircleModel(alpha=1j)
        assert fried_residual(model, 0.25, 1e-15).holds is False
        assert fried_residual(model, 0.25, 1e-12).holds is True
        assert fried_residual(Sphere2Model(), 1.0, 1.0).holds is False

    def test_certificate_is_a_python_float(self):
        assert type(fried_residual(CircleModel(alpha=1j), 0.25).est_error) is float

    def test_circle_identity(self):
        rep = fried_residual(CircleModel(alpha=1j), 0.0)
        assert rep.applicable
        assert abs(rep.residual) < 1e-14

    def test_sphere_not_applicable(self):
        rep = fried_residual(Sphere2Model(), 1.0)
        assert not rep.applicable
        assert rep.residual is None
        assert "kernel" in rep.reason

    def test_alpha_lattice_not_applicable(self):
        rep = fried_residual(CircleModel(alpha=0j), 0.25)
        assert not rep.applicable

    def test_euclid(self):
        rep = fried_residual(euclid_model(alpha_v0=1j), EuclideanElement(l0=1))
        assert rep.applicable
        assert abs(rep.residual) < 1e-14

    def test_degenerate_element_not_applicable(self):
        # r = I fixes all of R^3: flat_trace_measure refuses it, and so must Fried.
        model = EuclideanLatticeModel.from_angle(3, 1.0, 0.0, 1, 1j)
        rep = fried_residual(model, EuclideanElement(l0=1))
        assert not rep.applicable
        assert rep.residual is None
        assert rep.reason == "the flow is degenerate at this element: " + (
            "dim ker(r^m - I) = 3; next eigenvalue gap 0.000e+00")
        with pytest.raises(DomainError, match="degenerate"):
            flat_trace_measure(model, EuclideanElement(l0=1), 5.0)


class TestOneLatticeRule:
    """validate, fried, the closed form, the continuation and the torsion all
    read the one lattice distance: alpha within 1e-10 of 2*pi*i*Z is refused
    everywhere, and alpha just outside is accepted everywhere."""

    BAND = (1e-11j, 5e-11 + 0j, complex(0.0, TWO_PI + 3e-11))

    @pytest.mark.parametrize("alpha", BAND)
    @pytest.mark.parametrize("r0", [0.0, 0.25, 0.5])
    def test_band_is_refused_the_same_way(self, alpha, r0):
        model = CircleModel(alpha=alpha)
        diag = model.validate(r0)
        assert diag.alpha_in_lattice and not diag.continuation_available
        rep = fried_residual(model, r0)
        assert rep.applicable is False and rep.residual is None
        with pytest.raises(SingularPointError):
            ruelle_log_closed(model, r0, 0.0)
        with pytest.raises(DomainError):
            torsion_log(model, r0)

    @pytest.mark.parametrize("r0", [0.0, 0.25, 0.5])
    def test_just_outside_the_band_stays_applicable(self, r0):
        model = CircleModel(alpha=2e-10j)
        diag = model.validate(r0)
        assert not diag.alpha_in_lattice and diag.continuation_available
        rep = fried_residual(model, r0)
        assert rep.applicable is True
        assert cmath.isfinite(ruelle_log_closed(model, r0, 0.0).log_R)
        assert cmath.isfinite(torsion_log(model, r0))

    def test_exactly_below_the_tolerance(self):
        # sigma at distance d from a seeded lattice point +-alpha + 2*pi*i*k
        # (and alpha at distance d from 2*pi*i*Z with sigma = 0): the
        # identity-class closed form, the continuation and F itself raise
        # SingularPointError exactly when d < 1e-10, on the lattice too.
        rng = np.random.default_rng(1013)
        for case in range(40):
            alpha = complex(rng.uniform(-1.5, 1.5), rng.uniform(-6.0, 6.0))
            k = int(rng.integers(-1, 2))
            r0 = float(rng.uniform(0.02, 0.98))
            for d in (0.0, 0.5e-10, 0.9e-10, 1.1e-10, 2e-10):
                step = d * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
                if case % 4 == 3:
                    alpha, sigma = 2j * math.pi * k + step, 0j
                else:
                    sigma = (1 if case % 2 else -1) * alpha + 2j * math.pi * k + step
                model = CircleModel(alpha=alpha)
                calls = (
                    lambda: model.log_closed(0.0, sigma).log_R,
                    lambda: ruelle_log_closed(model, r0, sigma).log_R,
                    lambda: bilateral_exp_sum_continued_result(BilateralSumParams(r0, alpha), sigma).value,
                )
                for call in calls:
                    if d < 1e-10:
                        with pytest.raises(SingularPointError):
                            call()
                    else:
                        assert cmath.isfinite(call())


class TestStructuralChecks:
    def test_product_decomposition(self):
        for sigma in (1.0, 2.0):
            lhs, rhs, diff = product_decomposition_check(1j, sigma, 60)
            assert diff < 1e-12
        gaps = [product_decomposition_check(1j, 1.0, n)[2] for n in (10, 20, 40)]
        assert gaps[0] > gaps[1] > gaps[2] or gaps[2] < 5e-16

    def test_product_needs_positive_sigma(self):
        with pytest.raises(DomainError):
            product_decomposition_check(1j, 0.0, 10)

    def test_subgroup_power(self):
        for g, alpha, sigma in ((2, 1j, 1.0), (-3, 0j, 0.5), (1, 0.5j * math.pi, 2.0)):
            lhs, rhs, diff = subgroup_power_check(g, alpha, sigma)
            assert diff == 0.0

    def test_subgroup_power_compares_two_routes(self):
        # Closed form against the lattice direct sum: a rounding gap (5.7e-14
        # here), within the summed certificates (3.3e-13).
        g, alpha, sigma = 4, 0.3 + 2j, -1.5
        lhs, rhs, diff = subgroup_power_check(g, alpha, sigma)
        est = (
            ruelle_log_closed(LineModel(alpha=alpha), float(g), sigma).est_error
            + ruelle_log_direct(IntegerLatticeModel(alpha=alpha), g, sigma).est_error
        )
        assert diff <= est
        assert rhs == ruelle_log_direct(IntegerLatticeModel(alpha=alpha), g, sigma).log_R

    def test_subgroup_rejects_non_integer(self):
        with pytest.raises(DomainError):
            subgroup_power_check(0, 1j, 1.0)
        with pytest.raises(DomainError):
            subgroup_power_check(1.5, 1j, 1.0)


class TestRealness:
    @pytest.mark.parametrize("sigma", [0.4, 1.0, 2.5])
    def test_real_log_r_where_guaranteed(self, sigma):
        # half class, identity class and spheres pair their atoms into
        # conjugates; generic r0 does not and log R is honestly complex.
        assert abs(ruelle_log_closed(CircleModel(alpha=1j), 0.5, sigma).log_R.imag) < 1e-10
        assert abs(ruelle_log_direct(CircleModel(alpha=1j), 0.0, sigma).log_R.imag) < 1e-10
        assert abs(ruelle_log_direct(Sphere2Model(), 1.0, sigma).log_R.imag) < 1e-10
        generic = ruelle_log_direct(CircleModel(alpha=1j), 0.25, sigma).log_R
        assert abs(generic.imag) > 1e-6

    def test_modulus_law_identity_class(self):
        alpha = 1j
        for sigma in (0.5, 1.0, 3.0):
            classical = sum(cmath.exp(n * (alpha - sigma)) / n for n in range(1, 300))
            ev = ruelle_log_direct(CircleModel(alpha=alpha), 0.0, sigma)
            assert abs(ev.log_R - classical.real) < 1e-10
