"""The model protocol: a geometry defined outside the package, and the
continuation's convergence flag reaching the caller."""

import cmath
import json
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
    NonConvergentError,
    SeriesResult,
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
from equizeta.cli import main


@dataclass(frozen=True)
class ProbeModel(FlowModel):
    """Finite spectrum {-3, 3} with holonomy e^{alpha*l}; only the orbits
    and diagnostics are implemented, everything else is inherited."""

    alpha: complex = 0.1 + 0.5j
    name = "probe"

    def orbits(self, g, window):
        lengths = [l for l in (3.0, -3.0) if abs(l) <= window]
        return lengths, [cmath.exp(self.alpha * l) for l in lengths]

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

    def test_base_protocol_errors(self):
        model = ProbeModel()
        with pytest.raises(DomainError, match="no closed form registered"):
            ruelle_log_closed(model, None, 1.0)
        with pytest.raises(DomainError, match="no closed form registered"):
            fried_residual(model, None)
        with pytest.raises(DomainError, match="no torsion value registered"):
            torsion_log(model, None)
        with pytest.raises(DomainError, match="resummed torsion"):
            torsion_log_resummed(model, None)
        with pytest.raises(DomainError, match="resummed torsion"):
            model.torsion_oracle(None, 10)
        with pytest.raises(DomainError, match="no cutoff-period rule"):
            chi_primitive_period_numeric(model, None)


class TestContinuationConvergenceFlag:
    @pytest.fixture
    def unconverged(self, monkeypatch):
        def fake(params, z, tol=1e-14):
            return SeriesResult(1.0 + 0j, 7, 1e-3, False)

        monkeypatch.setattr(models, "bilateral_exp_sum_continued_result", fake)

    def test_library_raises(self, unconverged):
        model = CircleModel(alpha=1j)
        with pytest.raises(NonConvergentError):
            ruelle_log_closed(model, 0.25, 0.0)
        with pytest.raises(NonConvergentError):
            fried_residual(model, 0.25)

    def test_cli_exit_code(self, unconverged, capsys):
        code = main(["eval", "--model", "circle", "--params", "r0=0.25,alpha=1i", "--sigma", "0"])
        assert code == 2
        assert json.loads(capsys.readouterr().out)["error"] == "NonConvergentError"


class TestOneRecordPerAnswer:
    @pytest.mark.parametrize("model, g, sigma", [
        (LineModel(alpha=1j), 2.0, 0.5),
        (IntegerLatticeModel(alpha=1j), -3, 0.5),
        (CircleModel(alpha=1j), 0.0, 0.5),
        (CircleModel(alpha=1j), 0.5, 0.5),
        (CircleModel(alpha=1j), 0.25, 0.5),
        (EuclideanLatticeModel.from_angle(3, 1.0, 2.0943951, 3, 0.25j), EuclideanElement(l0=1), 0.5),
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
