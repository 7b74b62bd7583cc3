"""Zeta engine tests: trace atoms, pairing, log R routes, torsion, Fried."""

import cmath
import math

import numpy as np
import pytest

from equizeta import (
    CircleModel,
    DomainError,
    EuclideanElement,
    EuclideanLatticeModel,
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
from equizeta.zeta import AtomicMeasure

TWO_PI = 2.0 * math.pi


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

    def test_circle_half_matches_direct_series(self):
        # tanh-form closed route against the defining bilateral series.
        from equizeta import BilateralSumParams, bilateral_exp_sum_direct

        for alpha in (0j, 1j * math.pi / 3.0, 1j * math.pi):
            for sigma in (0.5, 1.0, 2.0):
                ev = ruelle_log_closed(CircleModel(alpha=alpha), 0.5, sigma)
                assert ev.method == "closed"
                series = bilateral_exp_sum_direct(
                    BilateralSumParams(0.5, alpha), sigma
                ).value
                assert abs(ev.log_R - 0.5 * series) < 1e-10

    def test_circle_generic_continuation(self):
        ev = ruelle_log_closed(CircleModel(alpha=1j), 0.25, 0.0)
        assert ev.method == "continuation"
        assert ev.est_error < 1e-10

    def test_singular_point(self):
        with pytest.raises(SingularPointError):
            ruelle_log_closed(CircleModel(alpha=0j), 0.25, 0.0)
        with pytest.raises(SingularPointError):
            ruelle_log_closed(CircleModel(alpha=0j), 0.0, 0.0)

    def test_sphere_not_applicable(self):
        with pytest.raises(NotApplicableError):
            ruelle_log_closed(Sphere2Model(), 1.0, 0.0)
        with pytest.raises(NotApplicableError):
            ruelle_log_closed(Sphere3Model(), (1.0, math.sqrt(2.0)), 1.0)

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
        (CircleModel, 0.25), (CircleModel, 0.0), (LineModel, 2.0),
    ])
    def test_one_unitarity_threshold(self, model, g):
        # Every model draws the unitary line at the same |Re(alpha)|.
        with pytest.raises(DomainError, match="purely imaginary"):
            torsion_log(model(alpha=1e-13 + 1j), g)
        assert cmath.isfinite(torsion_log(model(alpha=1e-15 + 1j), g))


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
