"""The model protocol: a geometry defined outside the package, and the one
record every log R comes back in."""

import cmath
from dataclasses import dataclass

import numpy as np
import pytest

import equizeta
import equizeta.models as models
import equizeta.series as series
import equizeta.zeta
from equizeta import (
    CircleModel,
    DomainError,
    EuclideanElement,
    EuclideanLatticeModel,
    FlowModel,
    IntegerLatticeModel,
    LineModel,
    ModelDiagnostics,
    SeriesResult,
    Sphere2Model,
    Sphere3Model,
    ZetaEvaluation,
    chi_primitive_period_numeric,
    flat_trace_measure,
    fried_residual,
    pair_with_test_function,
    ruelle_log_closed,
    ruelle_log_direct,
    torsion_log,
    torsion_log_resummed,
)


@dataclass(frozen=True)
class ProbeModel(FlowModel):
    """Finite spectrum {-3, 3} with holonomy exponent alpha*l; only the
    orbits and diagnostics are implemented, everything else is inherited."""

    alpha: complex = 0.1 + 0.5j
    name = "probe"

    def orbits(self, g, window):
        lengths = [l for l in (3.0, -3.0) if abs(l) <= window]
        return lengths, [self.alpha * l for l in lengths]

    def validate(self, g=None):
        return ModelDiagnostics(
            nondegenerate=True,
            witness="probe",
            alpha_in_lattice=False,
            continuation_available=True,
            laplacian_kernel_nonzero=False,
        )


class TestProbeModel:
    def test_direct_sums_the_whole_finite_spectrum(self):
        model = ProbeModel()
        sigma = 0.5
        ev = ruelle_log_direct(model, None, sigma)
        # 2 log R = sum over l = +-3 of e^{alpha l} e^{-3 sigma} / 3
        want = cmath.exp(-3.0 * sigma) * cmath.cosh(3.0 * model.alpha) / 3.0
        assert ev.terms == 2
        assert abs(ev.log_R - want) < 1e-15
        assert ev.est_error <= 1e-15

    def test_flat_trace_pairing_identity(self):
        model = ProbeModel()
        sigma = 0.7 + 0.3j
        measure = flat_trace_measure(model, None, 10.0)
        assert [l for l, _ in measure.atoms] == [-3.0, 3.0]
        paired = pair_with_test_function(
            measure, lambda t: cmath.exp(-sigma * abs(t)) / abs(t)
        )
        assert paired == -2.0 * ruelle_log_direct(model, None, sigma, window=10.0).log_R

    def test_views_of_the_orbits_agree(self):
        model = ProbeModel()
        lengths, weights = model.orbit_data(None, 10.0)
        assert lengths.tolist() == model.length_spectrum(None, 10.0) == [-3.0, 3.0]
        assert weights.tolist() == [
            sum(c.weight for c in model.orbit_contributions(None, l)) for l in (-3.0, 3.0)
        ]
        assert weights.tolist() == [cmath.exp(model.alpha * l) for l in (-3.0, 3.0)]
        lengths, weights = model.orbit_data(None, 1.0)
        assert lengths.size == 0 and weights.size == 0
        assert model.length_spectrum(None, 1.0) == []
        with pytest.raises(DomainError, match="not in the delocalised length spectrum"):
            model.orbit_contributions(None, 1.0)

    def test_closed_form_is_derived_from_the_orbits(self):
        # 2 log R = sum over l = +-3 of e^{alpha l - 3 sigma} / 3, term by term
        # as the derived rule forms it, with a certificate that is not 0.
        model = ProbeModel()
        for sigma in (0.5, -1.0 + 2.0j, 0j):
            ev = ruelle_log_closed(model, None, sigma)
            terms = [cmath.exp(model.alpha * l - 3.0 * sigma) / (2.0 * 3.0 / 1.0) for l in (3.0, -3.0)]
            assert (ev.log_R, ev.method, ev.terms) == (terms[0] + terms[1], "closed", 2)
            assert ev.est_error > 0.0
            direct = ruelle_log_direct(model, None, sigma, window=10.0)
            assert abs(ev.log_R - direct.log_R) <= ev.est_error + direct.est_error

    def test_base_protocol_errors(self):
        # A finite spectrum has a closed form and a torsion; the probe's
        # alpha is not unitary, so its torsion (and so fried) is refused.
        model = ProbeModel()
        with pytest.raises(DomainError, match="purely imaginary"):
            fried_residual(model, None)
        with pytest.raises(DomainError, match="purely imaginary"):
            torsion_log(model, None)
        assert cmath.isfinite(torsion_log(ProbeModel(alpha=0.5j), None))
        with pytest.raises(DomainError, match="no torsion value registered"):
            torsion_log(FamilyProbeModel(), None)
        with pytest.raises(DomainError, match="resummed torsion"):
            torsion_log_resummed(model, None)
        assert not hasattr(FlowModel, "torsion_oracle")
        assert not hasattr(FlowModel, "connection")
        with pytest.raises(DomainError, match="no cutoff-period rule"):
            chi_primitive_period_numeric(model, None)


@dataclass(frozen=True)
class FamilyProbeModel(FlowModel):
    """Two orbit families and a period: the orbits, the tail bound, the
    continuation and the cutoff period are all inherited from ``families``."""

    name = "family-probe"
    infinite_spectrum = True
    period = 3.0
    validate = ProbeModel.validate

    def element(self, g):
        return g

    def families(self, g):
        return [(0.5, 0.25, 0.2 + 1j), (-2.0, 0.4, -0.1j)]


class TestFamilyProbeModel:
    def test_orbits_are_the_families(self):
        # Each orbit carries its holonomy exponent alpha * l.
        lengths, exponents = FamilyProbeModel().orbits(None, 2.0)
        want = [(0.5 * (n + 0.25), 0.2 + 1j) for n in range(-4, 4)]
        want += [(-2.0 * (n + 0.4), -0.1j) for n in (-1, 0)]
        assert sorted(zip(lengths.tolist(), exponents.tolist())) == sorted(
            (l, alpha * l) for l, alpha in want
        )

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 0.7 + 2.0j])
    def test_direct_sum_and_continuation_agree(self, sigma):
        model = FamilyProbeModel()
        direct = ruelle_log_direct(model, None, sigma)
        closed = ruelle_log_closed(model, None, sigma)
        assert closed.method == "continuation"
        assert abs(direct.log_R - closed.log_R) <= direct.est_error + closed.est_error

    @pytest.mark.parametrize("families, method", [
        ([(0.5, 0.0, 0.2 + 1j), (-2.0, 0.4, -0.1j)], "continuation"),
        ([(0.5, 0.0, 0.2 + 1j), (-2.0, 0.0, -0.1j)], "closed"),
    ])
    def test_offset_zero_families(self, monkeypatch, families, method):
        # An offset-0 family (lengths d*n, n != 0) takes the closed form of
        # F(z; 0, alpha); the method is "closed" only when every family does.
        monkeypatch.setattr(FamilyProbeModel, "families", lambda self, g: families)
        model = FamilyProbeModel()
        for sigma in (0.5, 1.0, 0.7 + 2.0j):
            direct = ruelle_log_direct(model, None, sigma)
            closed = ruelle_log_closed(model, None, sigma)
            assert closed.method == method
            assert abs(direct.log_R - closed.log_R) <= direct.est_error + closed.est_error
        assert cmath.isfinite(ruelle_log_closed(model, None, -0.5 + 0.3j).log_R)

    def test_circle_and_spheres_answer_through_their_families(self):
        for cls in (CircleModel, Sphere2Model, Sphere3Model, models._SphereModel):
            assert "log_closed" not in vars(cls) and "_continued" not in vars(cls)

    def test_finite_models_answer_through_their_orbits(self):
        # Line, lattice and euclid define their orbits; FlowModel derives the
        # closed form and the torsion from them.
        for cls in (LineModel, IntegerLatticeModel, EuclideanLatticeModel):
            assert "log_closed" not in vars(cls) and "torsion" not in vars(cls)

    def test_past_the_convergence_line_and_the_period(self):
        model = FamilyProbeModel()
        assert cmath.isfinite(ruelle_log_closed(model, None, -0.5 + 0.3j).log_R)
        with pytest.raises(DomainError, match="does not converge absolutely"):
            ruelle_log_direct(model, None, 0.15)
        assert chi_primitive_period_numeric(model, None) == 3.0


class TestOneRecordPerAnswer:
    @pytest.mark.parametrize("model, g, sigma", [
        (LineModel(alpha=1j), 2.0, 0.5),
        (IntegerLatticeModel(alpha=1j), -3, 0.5),
        (CircleModel(alpha=1j), 0.0, 0.5),
        (CircleModel(alpha=1j), 0.5, 0.5),
        (CircleModel(alpha=1j), 0.25, 0.5),
        (EuclideanLatticeModel.from_angle(3, 1.0, 2.0943951, 3, 0.25j), EuclideanElement(l0=1), 0.5),
        (Sphere2Model(), 1.0, 0.5),
        (Sphere3Model(), (1.0, 2.0), -0.3 + 0.2j),
    ])
    def test_log_closed_returns_the_record(self, model, g, sigma):
        ev = model.log_closed(g, complex(sigma))
        assert type(ev) is ZetaEvaluation
        assert ev == ruelle_log_closed(model, g, sigma)
        assert type(ev.log_R) is complex and type(ev.est_error) is float

    def test_record_is_one_class(self):
        assert equizeta.ZetaEvaluation is equizeta.zeta.ZetaEvaluation is series.ZetaEvaluation

    def test_record_holds_python_numbers(self):
        # The 2F1 routes may hand back numpy scalars; CSV prints repr.
        ev = ZetaEvaluation(np.float64(0.5), np.complex128(1 + 2j), "closed", np.float64(0.25), 3)
        assert repr((ev.sigma, ev.log_R, ev.est_error)) == "((0.5+0j), (1+2j), 0.25)"
        with pytest.raises(DomainError, match="est_error must be nonnegative"):
            ZetaEvaluation(0.5, 1j, "closed", -1.0, 1)

    def test_scaled_certificate(self):
        res = SeriesResult(2.0 - 1j, 7, 1e-3, False).scaled(-0.5j)
        assert res == SeriesResult(-0.5j * (2.0 - 1j), 7, 0.5 * 1e-3, False)
