"""Flow-model tests: spectra, orbit data, cutoff periods, diagnostics."""

import cmath
import math
import tracemalloc
from dataclasses import dataclass, field

import numpy as np
import pytest

from equizeta import (
    AxisRotation,
    CircleModel,
    CutoffProfile,
    DomainError,
    EuclideanElement,
    EuclideanLatticeModel,
    IntegerLatticeModel,
    LineModel,
    NonConvergentError,
    QuadratureSpec,
    Sphere2Model,
    Sphere3Model,
    chi_primitive_period_numeric,
    length_spectrum,
    orbit_contributions,
    ruelle_log_closed,
    ruelle_log_direct,
    validate_model,
)
from equizeta import models, rotations

TWO_PI = 2.0 * math.pi


def euclid_model(alpha_v0=0j, a=1.0):
    return EuclideanLatticeModel.from_angle(3, a, TWO_PI / 3.0, 3, alpha_v0)


class TestLengthSpectrum:
    def test_line(self):
        m = LineModel()
        assert length_spectrum(m, 2.0, 10.0) == [2.0]
        assert length_spectrum(m, 0.0, 10.0) == []
        assert length_spectrum(m, -3.0, 10.0) == [-3.0]
        assert length_spectrum(m, 12.0, 10.0) == []

    def test_lattice_requires_integer(self):
        m = IntegerLatticeModel()
        assert length_spectrum(m, 3, 10.0) == [3.0]
        with pytest.raises(DomainError):
            length_spectrum(m, 0.5, 10.0)

    def test_circle_class(self):
        m = CircleModel()
        assert length_spectrum(m, 0.25, 2.5) == [-1.75, -0.75, 0.25, 1.25, 2.25]

    def test_circle_identity(self):
        m = CircleModel()
        assert length_spectrum(m, 0.0, 3.0) == [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]

    def test_sphere2(self):
        got = length_spectrum(Sphere2Model(), 1.0, 8.0)
        want = sorted(
            [1.0, 1.0 - TWO_PI, 1.0 + TWO_PI, -1.0, -1.0 + TWO_PI, -1.0 - TWO_PI]
        )
        assert np.allclose(got, want, atol=1e-12)

    def test_sphere3_merges_families(self):
        got = length_spectrum(Sphere3Model(), (1.0, math.sqrt(2.0)), 8.0)
        fam = []
        for theta in (1.0, math.sqrt(2.0)):
            for base in (theta, -theta):
                for n in (-2, -1, 0, 1, 2):
                    val = base + TWO_PI * n
                    if 0 < abs(val) <= 8.0:
                        fam.append(val)
        assert np.allclose(got, sorted(fam), atol=1e-12)

    def test_sphere3_collision_does_not_crash(self):
        spec = length_spectrum(Sphere3Model(), (1.0, 1.0), 8.0)
        assert all(b - a > 1e-10 for a, b in zip(spec, spec[1:]))

    def test_euclid(self):
        m = euclid_model()
        assert length_spectrum(m, EuclideanElement(l0=1), 10.0) == [-1.0, 1.0]
        assert length_spectrum(m, EuclideanElement(l0=-2), 10.0) == [-2.0, 2.0]
        with pytest.raises(DomainError):
            length_spectrum(m, EuclideanElement(l0=0), 10.0)

    def test_symmetry_identity_and_spheres(self):
        for model, g in (
            (CircleModel(), 0.0),
            (Sphere2Model(), 1.0),
            (Sphere3Model(), (1.0, math.sqrt(2.0))),
        ):
            spec = length_spectrum(model, g, 20.0)
            for v in spec:
                assert any(abs(v + u) < 1e-10 for u in spec)


class TestOrbitContributions:
    def test_line(self):
        m = LineModel(alpha=1j)
        (c,) = orbit_contributions(m, 2.0, 2.0)
        assert c.sign == 1
        assert abs(c.holonomy - cmath.exp(2j)) < 1e-15
        assert c.period == 1.0

    def test_euclid(self):
        m = euclid_model(alpha_v0=0j)
        (c,) = orbit_contributions(m, EuclideanElement(l0=1), 1.0)
        assert (c.sign, c.holonomy, c.period) == (1, 1.0 + 0j, pytest.approx(1.0 / 3.0))
        m2 = euclid_model(alpha_v0=1j)
        (c2,) = orbit_contributions(m2, EuclideanElement(l0=1), -1.0)
        assert abs(c2.holonomy - cmath.exp(1j)) < 1e-15  # independent of the sign

    def test_sphere2_weight_reproduces_pi_coefficient(self):
        # log R(sigma) = (1/2) sum weight e^{-|l|s}/|l| must carry the overall
        # factor pi: weight = 2*pi per spectrum value.
        m = Sphere2Model()
        (c,) = orbit_contributions(m, 1.0, 1.0)
        assert c.weight == TWO_PI

    def test_sphere3_collision_gives_two_orbits(self):
        cs = orbit_contributions(Sphere3Model(), (1.0, 1.0), 1.0)
        assert len(cs) == 2

    def test_not_in_spectrum(self):
        with pytest.raises(DomainError):
            orbit_contributions(LineModel(), 2.0, 1.0)

    @pytest.mark.parametrize("l", [math.nan, math.inf, -math.inf])
    def test_non_finite_length_refused(self, l):
        with pytest.raises(DomainError, match="l must be finite"):
            orbit_contributions(CircleModel(alpha=1j), 0.25, l)

    @pytest.mark.filterwarnings("error")
    def test_overflowed_holonomy_is_silent(self):
        # e^{800 * 1.3} overflows: the holonomy is inf, with no numpy warning.
        (c,) = CircleModel(alpha=800 + 1j).orbit_contributions(0.3, 1.3)
        assert (c.holonomy.real, c.holonomy.imag) == (math.inf, math.inf)

    def test_identity_class_atom_symmetry(self):
        m = CircleModel(alpha=1j)
        for n in (1, 2, 5):
            up = orbit_contributions(m, 0.0, float(n))[0].weight
            down = orbit_contributions(m, 0.0, float(-n))[0].weight
            assert abs(down - up.conjugate()) < 1e-15

    def test_all_signs_positive(self):
        cases = [
            (LineModel(alpha=1j), 2.0),
            (CircleModel(alpha=1j), 0.25),
            (euclid_model(), EuclideanElement(l0=1)),
            (Sphere2Model(), 1.0),
            (Sphere3Model(), (1.0, math.sqrt(2.0))),
        ]
        for model, g in cases:
            for l in length_spectrum(model, g, 9.0):
                assert all(c.sign == 1 for c in orbit_contributions(model, g, l))


# The theta1 family's length 2*pi*(2 + r1), r1 = 1/(2*pi), and the theta2
# family's one ulp above it: the theta2 value lies just outside a window
# ending at the theta1 value.
EDGE_THETA2 = 1.000000000000001
EDGE_WINDOW = TWO_PI * (2.0 + 1.0 / TWO_PI)


class TestOrbitData:
    """orbit_data is the array form of length_spectrum and orbit_contributions."""

    @pytest.mark.parametrize(
        "model, g, window",
        [
            (LineModel(alpha=0.3 + 1j), -2.5, 10.0),
            (IntegerLatticeModel(alpha=-0.2 + 2j), 3, 10.0),
            (CircleModel(alpha=0.3 + 2j), 0.25, 40.0),
            (CircleModel(alpha=1j), 0.0, 40.0),
            (CircleModel(alpha=-0.7), 0.5, 40.0),
            (euclid_model(0.2 + 0.5j), EuclideanElement(l0=2), 10.0),
            (Sphere2Model(), 1.0, 60.0),
            (Sphere2Model(), math.pi, 60.0),  # +theta and -theta families meet
            (Sphere3Model(), (1.0, math.sqrt(2.0)), 60.0),
            (Sphere3Model(), (1.0, 1.0 + TWO_PI), 60.0),  # the families collide
            (Sphere3Model(), (1.0, EDGE_THETA2), EDGE_WINDOW),
        ],
        ids=lambda v: getattr(v, "name", None),
    )
    def test_matches_the_per_length_view(self, model, g, window):
        lengths, weights = model.orbit_data(g, window)
        assert lengths.tolist() == length_spectrum(model, g, window)
        assert len(weights) == len(lengths)
        for l, w in zip(lengths.tolist(), weights.tolist()):
            assert w == sum(c.weight for c in orbit_contributions(model, g, l))

    def test_sphere3_collisions_merge(self):
        _, weights = Sphere3Model().orbit_data((1.0, 1.0 + TWO_PI), 60.0)
        assert weights.tolist() == [2.0 * TWO_PI + 0j] * len(weights)
        assert TWO_PI * (2.0 + EDGE_THETA2 / TWO_PI) == math.nextafter(EDGE_WINDOW, math.inf)
        lengths, weights = Sphere3Model().orbit_data((1.0, EDGE_THETA2), EDGE_WINDOW)
        assert lengths[-1] == EDGE_WINDOW and weights[-1] == 2.0 * TWO_PI

    def test_empty_window_and_bad_window(self):
        lengths, weights = CircleModel().orbit_data(0.25, 0.1)
        assert lengths.size == 0 and weights.size == 0
        with pytest.raises(DomainError):
            Sphere2Model().orbit_data(1.0, 0.0)

    def test_euclid_non_integer_element_refused(self):
        # 2.7 was read as l0 = 2; -0.3 was refused as a pure rotation.
        m = euclid_model()
        for g in (2.7, -0.3):
            want = f"l0 must be an integer, got {g}"
            with pytest.raises(DomainError, match=want):
                m.orbits(g, 10.0)
            with pytest.raises(DomainError, match=want):
                m.log_closed(g, 0.3)
            with pytest.raises(DomainError, match=want):
                chi_primitive_period_numeric(m, g)

    def test_integer_fields_raise_domain_error(self):
        # Each was a numpy TypeError ("exponent must be an integer") or a truncation.
        with pytest.raises(DomainError, match="m must be an integer, got 1.5"):
            EuclideanElement(l0=2, m=1.5)
        with pytest.raises(DomainError, match="order must be an integer, got 3.5"):
            EuclideanLatticeModel.from_angle(3, 1.0, TWO_PI / 3.0, 3.5)
        with pytest.raises(DomainError, match="n must be an integer, got 3.7"):
            EuclideanLatticeModel.from_angle(3.7, 1.0, TWO_PI / 3.0, 3)
        rotation = euclid_model().rotation
        with pytest.raises(DomainError, match="order must be an integer, got 3.5"):
            EuclideanLatticeModel(rotation=rotation, order=3.5)
        with pytest.raises(DomainError, match="order must be a positive integer"):
            EuclideanLatticeModel(rotation=rotation, order=0)
        with pytest.raises(TypeError):
            EuclideanLatticeModel(rotation=rotation, lattice_spacing=2.0)
        assert EuclideanElement(l0=2.0, m=-1.0) == EuclideanElement(l0=2, m=-1)

    @pytest.mark.parametrize("build, message", [
        (lambda: CircleModel().element("x"), "circle class must be a real number"),
        (lambda: CircleModel(alpha=1j).orbit_data(math.nan, 5.0), "circle class must be finite"),
        (lambda: EuclideanLatticeModel.from_angle(3, math.nan, 1.0, 3), "spacing a must be finite"),
        (lambda: EuclideanLatticeModel.from_angle(3, math.inf, 1.0, 3), "spacing a must be finite"),
        (lambda: EuclideanLatticeModel.from_angle(3, 1.0, math.nan, 3), "theta must be finite"),
        (lambda: EuclideanLatticeModel.from_angle(3, 1.0, "x", 3), "theta must be a real number"),
        (lambda: LineModel().log_closed(math.nan, 1.0), "line group element must be finite"),
        (lambda: ruelle_log_direct(LineModel(), math.nan, 1.0), "line group element must be finite"),
    ], ids=[
        "circle-str", "circle-nan", "euclid-a-nan", "euclid-a-inf", "euclid-theta-nan",
        "euclid-theta-str", "line-closed-nan", "line-direct-nan",
    ])
    def test_real_inputs_refused(self, build, message):
        # One rule for every real input: a finite real, else DomainError.
        with pytest.raises(DomainError, match=message):
            build()

    @pytest.mark.parametrize("build", [
        lambda: CircleModel(alpha=complex(math.nan, 1.0)).validate(0.25),
        lambda: CircleModel(alpha=complex(0.0, math.inf)),
        lambda: LineModel(alpha=complex(0.0, math.nan)).log_closed(2.0, 1.0),
        lambda: IntegerLatticeModel(alpha=math.inf),
        lambda: euclid_model(alpha_v0=complex(math.nan, 0.0)),
        lambda: EuclideanLatticeModel(rotation=euclid_model().rotation, alpha_v0=complex(0.0, -math.inf)),
    ], ids=["circle-validate", "circle-inf", "line-closed", "lattice-inf", "euclid-nan", "euclid-inf"])
    def test_connection_not_finite_refused(self, build):
        # One connection rule, applied where each model is built.
        with pytest.raises(DomainError, match="must be finite"):
            build()

    def test_connection_stored_as_complex(self):
        assert LineModel(alpha=2).alpha == 2 + 0j and isinstance(LineModel(alpha=2).alpha, complex)
        assert IntegerLatticeModel(alpha=1j).alpha == 1j
        assert euclid_model(alpha_v0=0.5).alpha_v0 == 0.5 + 0j
        with pytest.raises(DomainError, match="alpha must be a complex number"):
            CircleModel(alpha="x")

    def test_only_three_dimensions(self):
        # Gamma' and the periods exist for n = 3 alone; any other n is refused
        # before a rotation matrix is built.
        want = "the Euclidean model is built for n = 3 only, got n = 5"
        with pytest.raises(DomainError, match=want):
            EuclideanLatticeModel.from_angle(5, 1.0, TWO_PI / 3.0, 3, 0j)
        with pytest.raises(DomainError, match="got n = 2"):
            EuclideanLatticeModel(n=2, rotation=euclid_model().rotation)


class TestChiPeriods:
    def test_line_gaussian(self):
        val = chi_primitive_period_numeric(
            LineModel(), 2.0, chi_profile=CutoffProfile(kind="gaussian", width=0.5)
        )
        assert abs(val - 1.0) < 1e-8

    def test_circle_constant(self):
        val = chi_primitive_period_numeric(
            CircleModel(), 0.25, chi_profile=CutoffProfile(kind="constant")
        )
        assert abs(val - 1.0) < 1e-12

    def test_lattice(self):
        val = chi_primitive_period_numeric(
            IntegerLatticeModel(), 2, chi_profile=CutoffProfile(kind="gaussian", width=0.4)
        )
        assert abs(val - 1.0) < 1e-8

    @pytest.mark.parametrize("model, g", [
        (LineModel(), "x"),
        (IntegerLatticeModel(), 0.5),
        (CircleModel(), 1.5),
        (euclid_model(), 2.7),
        (Sphere2Model(), "x"),
        (Sphere3Model(), (1.0,)),
    ], ids=lambda v: getattr(v, "name", None))
    def test_period_reads_the_element_as_orbits_does(self, model, g):
        # The period returned 1.0, 2*pi or a/k for these elements.
        with pytest.raises(Exception) as from_orbits:
            model.orbits(g, 10.0)
        with pytest.raises(from_orbits.type) as from_period:
            chi_primitive_period_numeric(model, g)
        assert str(from_period.value) == str(from_orbits.value)

    @pytest.mark.parametrize("element", ["plain", "offset"])
    @pytest.mark.parametrize("a", [0.7, 1.0, 1.5])
    @pytest.mark.parametrize("order", [2, 3, 4, 6])
    def test_euclid_two_profiles(self, order, a, element):
        m = EuclideanLatticeModel.from_angle(3, a, TWO_PI / order, order, 0j)
        if element == "offset":
            g = EuclideanElement(l0=-2, w_prime=m.lattice_basis()[0])
        else:
            g = EuclideanElement(l0=1)
        for profile in (
            CutoffProfile(kind="smoothed_indicator", width=0.5, radius=1.4),
            CutoffProfile(kind="raised_cosine", radius=1.3),
        ):
            val = chi_primitive_period_numeric(m, g, chi_profile=profile)
            assert abs(val - a / order) < 1e-6

    def test_euclid_wide_raised_cosine(self):
        # Lattice points, nodes and axis shifts all grow with the radius, so
        # the cost grows like radius^4; radius 6 runs in a fraction of a second.
        val = chi_primitive_period_numeric(
            euclid_model(), EuclideanElement(l0=1),
            chi_profile=CutoffProfile(kind="raised_cosine", radius=6.0),
        )
        assert abs(val - 1.0 / 3.0) < 1e-6

    @pytest.mark.parametrize(
        "profile, quad",
        [
            # the panel is min(quad.panel, width / 2): ~6e10 nodes
            (CutoffProfile(kind="raised_cosine", width=1e-9), QuadratureSpec()),
            # a ~4e8-point transverse lattice
            (CutoffProfile(kind="raised_cosine", radius=1e4), QuadratureSpec(radius=1e4)),
        ],
        ids=["narrow-panel", "wide-lattice"],
    )
    def test_euclid_work_budget(self, profile, quad):
        tracemalloc.start()
        try:
            with pytest.raises(NonConvergentError, match="budget"):
                chi_primitive_period_numeric(
                    euclid_model(), EuclideanElement(l0=1), chi_profile=profile, quad=quad
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize(
        "profile, quad",
        [
            (CutoffProfile(kind="raised_cosine", width=-1.0), QuadratureSpec()),
            (CutoffProfile(kind="raised_cosine"), QuadratureSpec(panel=0.0)),
        ],
        ids=["negative-width", "zero-panel"],
    )
    def test_euclid_nonpositive_panel(self, profile, quad):
        # An empty node set would otherwise integrate to a silent 0.
        with pytest.raises(DomainError, match="positive"):
            chi_primitive_period_numeric(
                euclid_model(), EuclideanElement(l0=1), chi_profile=profile, quad=quad
            )

    def test_euclid_gaussian_and_offset_element(self):
        m = euclid_model()
        g = EuclideanElement(l0=1, w_prime=m.lattice_basis()[0])
        val = chi_primitive_period_numeric(
            m, g, chi_profile=CutoffProfile(kind="gaussian", width=0.35)
        )
        assert abs(val - 1.0 / 3.0) < 1e-6

    @pytest.mark.parametrize("radius", [math.nan, -1.0])
    def test_truncation_radius_refused(self, radius):
        # NaN fails every comparison, so the check must refuse it as it
        # refuses a negative radius rather than let it through.
        with pytest.raises(NonConvergentError, match="lattice truncation radius"):
            chi_primitive_period_numeric(
                euclid_model(), EuclideanElement(l0=1),
                chi_profile=CutoffProfile(kind="raised_cosine", radius=1.3),
                quad=QuadratureSpec(radius=radius),
            )

    def test_truncation_radius_infinite(self):
        val = chi_primitive_period_numeric(
            euclid_model(), EuclideanElement(l0=1),
            chi_profile=CutoffProfile(kind="raised_cosine", radius=1.3),
            quad=QuadratureSpec(radius=math.inf),
        )
        assert abs(val - 1.0 / 3.0) < 1e-6

    def test_truncation_certificate(self):
        m = euclid_model()
        with pytest.raises(Exception) as err:
            chi_primitive_period_numeric(
                m,
                EuclideanElement(l0=1),
                chi_profile=CutoffProfile(kind="gaussian", width=0.5),
                quad=QuadratureSpec(radius=1.0),
            )
        assert "certify" in str(err.value)

    def test_sphere_primitive_period(self):
        val = chi_primitive_period_numeric(Sphere2Model(), 1.0)
        assert abs(val - TWO_PI) < 1e-12

    PROFILES = {
        "default": CutoffProfile(),
        "constant": CutoffProfile(kind="constant"),
        "cosine-radius-minus-1": CutoffProfile(kind="raised_cosine", radius=-1.0),
        "cosine-radius-0.3": CutoffProfile(kind="raised_cosine", radius=0.3),
        "bogus-kind": CutoffProfile(kind="bogus"),
        "gaussian-width-minus-0.3": CutoffProfile(kind="gaussian", width=-0.3),
    }
    # The profiles each group admits; every other one raises DomainError.
    ADMITS = {
        "line": {"default", "cosine-radius-0.3"},
        "lattice": {"default"},
        "circle": {"default", "constant", "cosine-radius-0.3"},
        "sphere2": {"default", "constant", "cosine-radius-0.3"},
        "sphere3": {"default", "constant", "cosine-radius-0.3"},
        "euclid": {"default"},
    }
    MODELS = {
        "line": lambda: (LineModel(), 2.0),
        "lattice": lambda: (IntegerLatticeModel(), 2),
        "circle": lambda: (CircleModel(), 0.25),
        "sphere2": lambda: (Sphere2Model(), 1.0),
        "sphere3": lambda: (Sphere3Model(), (1.0, math.sqrt(2.0))),
        "euclid": lambda: (euclid_model(), EuclideanElement(l0=1)),
    }

    @pytest.mark.parametrize("model_name", list(MODELS))
    @pytest.mark.parametrize("profile_name", list(PROFILES))
    def test_admissibility_table(self, profile_name, model_name):
        model, g = self.MODELS[model_name]()
        profile = self.PROFILES[profile_name]
        if profile_name not in self.ADMITS[model_name]:
            with pytest.raises(DomainError):
                chi_primitive_period_numeric(model, g, chi_profile=profile)
        elif model_name == "euclid":
            # The one period that is integrated: a/k up to the quadrature.
            val = chi_primitive_period_numeric(model, g, chi_profile=profile)
            assert abs(val - 1.0 / 3.0) < 1e-12
        else:
            assert chi_primitive_period_numeric(model, g, chi_profile=profile) == model.period

    @pytest.mark.parametrize("radius, admitted", [(0.5, False), (0.55, True)])
    def test_gap_boundary(self, radius, admitted):
        # Translates spaced 1 along the orbit cover it when the support's
        # half-length (the radius, at rho = 0) passes 1/2.
        profile = CutoffProfile(kind="raised_cosine", radius=radius)
        for model, g in ((euclid_model(), EuclideanElement(l0=1)), (IntegerLatticeModel(), 1)):
            if admitted:
                val = chi_primitive_period_numeric(model, g, chi_profile=profile)
                assert abs(val - model.period) < 1e-6
            else:
                with pytest.raises(DomainError, match="gaps"):
                    chi_primitive_period_numeric(model, g, chi_profile=profile)

    @pytest.mark.parametrize("model_name, tol", [
        ("line", 0.0), ("line", 2.0), ("circle", 2.0), ("euclid", 0.0),
    ])
    def test_gaussian_tail_target(self, model_name, tol):
        # The Gaussian reach is the radius where it falls below tol.
        model, g = self.MODELS[model_name]()
        with pytest.raises(DomainError, match="tail target"):
            chi_primitive_period_numeric(model, g, quad=QuadratureSpec(tol=tol))

    def test_profile_meeting_no_coset(self):
        # The offset element's orbit lies 1/sqrt(3) from every coset.
        m = euclid_model()
        g = EuclideanElement(l0=1, w_prime=m.lattice_basis()[0])
        with pytest.raises((DomainError, NonConvergentError)):
            chi_primitive_period_numeric(
                m, g, chi_profile=CutoffProfile(kind="raised_cosine", radius=0.3)
            )


PROFILE_KINDS = ["gaussian", "raised_cosine", "smoothed_indicator", "constant"]


class TestCutoffProfile:
    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    @pytest.mark.parametrize("dist2", [[math.nan, -1.0, 0.0], [math.nan], [-1.0], [0.5, -1e-300]])
    def test_nan_or_negative_distance_refused(self, kind, dist2):
        # No kind has a value there: every kind refuses alike.
        with pytest.raises(DomainError, match="squared distance"):
            CutoffProfile(kind=kind)(np.array(dist2))

    @pytest.mark.parametrize("kind", PROFILE_KINDS)
    def test_checked_call_returns_the_unchecked_values(self, kind):
        profile = CutoffProfile(kind=kind)
        dist2 = np.linspace(0.0, 3.0, 31)
        assert profile(dist2).tolist() == profile._values(dist2).tolist()
        assert profile(np.array([-0.0, 0.0])).tolist() == [1.0, 1.0]

    def test_period_takes_the_unchecked_path(self, monkeypatch):
        def refuse(self, dist2):
            raise AssertionError("checked profile call")

        monkeypatch.setattr(CutoffProfile, "__call__", refuse)
        for kind in PROFILE_KINDS[:3]:
            val = chi_primitive_period_numeric(
                euclid_model(), EuclideanElement(l0=1), chi_profile=CutoffProfile(kind=kind, radius=1.3)
            )
            assert abs(val - 1.0 / 3.0) < 1e-6


@dataclass(frozen=True)
class CountingProfile(CutoffProfile):
    """A profile that records the number of elements of each call the
    Euclidean period makes (it calls the unchecked evaluation)."""

    sizes: list = field(default_factory=list, compare=False)

    def _values(self, dist2):
        self.sizes.append(dist2.size)
        return super()._values(dist2)


def period_or_refusal(order, a, m, w_prime, kind, width, radius, panel) -> str:
    """The Euclidean period as float.hex, or the refusal as 'Type: message'."""
    try:
        model = EuclideanLatticeModel.from_angle(3, a, TWO_PI / order, order)
        w = None if w_prime is None else np.array([*w_prime, 0.0])
        g = EuclideanElement(l0=1, m=m, w_prime=w)
        profile = CutoffProfile(kind=kind, width=width, radius=radius)
        return chi_primitive_period_numeric(
            model, g, chi_profile=profile, quad=QuadratureSpec(panel=panel)
        ).hex()
    except (DomainError, NonConvergentError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestEuclidPeriodBlocks:
    """The Euclidean cutoff period fills its numerators N(s + k a) in blocks
    of whole axis-shift rows, from cached nodes and coset grid."""

    # Seeded over orders 1-6, a in [0.3, 2.5], m in [-7, 7], w' zero or not,
    # the four profile kinds and panels 0.08, 0.12 and 0.2, recorded from the
    # row-at-a-time evaluation: (order, a, m, w', kind, width, radius, panel,
    # the period's float.hex or its refusal).
    TABLE = [
        (2, 0.76, -7, None, 'raised_cosine', 0.45, 2.1, 0.12, '0x1.851eb8391f5cep-2'),
        (4, 1.09, 3, None, 'gaussian', 0.48, 1.93, 0.08, '0x1.170a3d70a3c07p-2'),
        (6, 1.1, -1, None, 'gaussian', 0.48, 1.73, 0.2, '0x1.7777777777594p-3'),
        (4, 1.41, 2, None, 'smoothed_indicator', 0.53, 1.4, 0.08, '0x1.68f5c30c90580p-2'),
        (4, 1.66, -1, None, 'raised_cosine', 0.49, 2.02, 0.12, '0x1.a8f5c2b153828p-2'),
        (2, 0.62, 5, None, 'raised_cosine', 0.28, 0.61, 0.08, '0x1.3d70a3d79ee92p-2'),
        (2, 0.39, -7, (0.55, 0.55), 'smoothed_indicator', 0.52, 0.64, 0.08, '0x1.8f5c2a7e0954ap-3'),
        (4, 1.02, 7, None, 'smoothed_indicator', 0.26, 1.5, 0.08, '0x1.051eb7d5b5492p-2'),
        (4, 0.64, -1, (0.34, 0.79), 'smoothed_indicator', 0.53, 1.55, 0.12, '0x1.47ae1497e8fcbp-3'),
        (4, 1.9, -3, (4.49, 2.52), 'smoothed_indicator', 0.21, 1.49, 0.12, '0x1.e66674b690b99p-2'),
        (6, 0.6, 2, None, 'smoothed_indicator', 0.59, 0.8, 0.12, '0x1.9999999999998p-4'),
        (4, 1.95, -1, (7.78, 5.42), 'smoothed_indicator', 0.4, 1.55, 0.08, '0x1.f3333347201b6p-2'),
        (2, 0.45, -5, None, 'smoothed_indicator', 0.43, 1.48, 0.2, '0x1.ccccd6e784b80p-3'),
        (3, 0.94, -1, (0.62, 2.41), 'gaussian', 0.51, 1.13, 0.2, '0x1.40da740da7200p-2'),
        (4, 0.9, 7, None, 'smoothed_indicator', 0.32, 2.04, 0.2, '0x1.ccccd30626922p-3'),
        (4, 1.34, -2, (-0.28, -8.16), 'smoothed_indicator', 0.37, 0.81, 0.2, '0x1.5709f78db68e6p-2'),
        (3, 0.9, -7, None, 'smoothed_indicator', 0.55, 1.77, 0.12, '0x1.3333333333333p-2'),
        (4, 1.28, -3, None, 'gaussian', 0.2, 1.95, 0.08, '0x1.47ae147ae136ep-2'),
        (3, 2.45, -7, None, 'gaussian', 0.32, 0.95, 0.12, '0x1.a222222222172p-1'),
        (4, 1.18, -2, (-0.32, 0.8), 'raised_cosine', 0.31, 1.61, 0.2, '0x1.2e147b6785c9ap-2'),
        (4, 0.33, -3, None, 'raised_cosine', 0.54, 1.1, 0.2, '0x1.51eb885afa68ap-4'),
        (3, 1.99, 1, None, 'gaussian', 0.27, 1.89, 0.2, '0x1.53a06d3a06ca2p-1'),
        (3, 2.15, -7, (0.43, 0.75), 'raised_cosine', 0.26, 1.66, 0.12, '0x1.6eeeefceef5c0p-1'),
        (4, 0.95, 1, (-0.03, 0.69), 'raised_cosine', 0.57, 1.31, 0.12, '0x1.e66665a155b0ep-3'),
        (3, 2.03, 4, (-0.08, -0.81), 'gaussian', 0.34, 0.87, 0.2, '0x1.5a740da740ad2p-1'),
        (6, 0.9, 2, None, 'raised_cosine', 0.22, 1.4, 0.08, '0x1.33333368a7432p-3'),
        (2, 0.78, -1, (-11.69, -0.22), 'raised_cosine', 0.22, 1.85, 0.2, '0x1.8f5c2956242cfp-2'),
        (6, 0.9, 2, (0.55, -0.35), 'gaussian', 0.25, 2.07, 0.08, '0x1.3333333333222p-3'),
        (2, 1.4, 1, None, 'gaussian', 0.27, 2.16, 0.12, '0x1.6666666665d50p-1'),
        (4, 1.46, 6, (0.19, 0.72), 'gaussian', 0.59, 2.05, 0.12, '0x1.75c28f5c28dc6p-2'),
        (6, 0.32, -4, None, 'raised_cosine', 0.43, 1.96, 0.2, '0x1.b4e81a3adcf5ep-5'),
        (6, 2.36, -1, (-5.44, -0.41), 'gaussian', 0.27, 1.31, 0.08, '0x1.92c5f92c5f838p-2'),
        (3, 0.96, 1, (11.93, -4.23), 'raised_cosine', 0.34, 1.97, 0.12, 'NonConvergentError: lattice truncation radius 9.0 cannot certify the profile tail (needs 9.28)'),
        (1, 2.06, -4, None, 'gaussian', 0.42, 1.8, 0.2, 'DomainError: rotation has no one-dimensional fixed axis; the flow is degenerate for this model (see validate())'),
        (4, 1.64, 3, None, 'constant', 0.58, 0.86, 0.08, 'DomainError: a constant profile has no decay on a noncompact group'),
        (4, 1.08, 0, None, 'constant', 0.33, 1.38, 0.12, 'DomainError: axis given but ker(r - I) has dimension 3'),
        (5, 1.39, -4, None, 'gaussian', 0.54, 1.14, 0.2, 'DomainError: no rotation-invariant plane lattice of order 5 (crystallographic restriction)'),
        (3, 1.46, -4, (0.49, -0.2), 'raised_cosine', 0.27, 0.72, 0.12, 'DomainError: the translates of a radius-0.72 cutoff leave gaps along the orbit'),
        # no coset within reach of the orbit: an empty row
        (4, 1.0, 1, (0.5, 0.5), 'gaussian', 0.05, 1.2, 0.12, 'NonConvergentError: translate sum vanished inside the quadrature ball'),
    ]

    @pytest.mark.parametrize(
        "order, a, m, w_prime, kind, width, radius, panel, expected", TABLE,
        ids=[f"{i:02d}" for i in range(len(TABLE))],
    )
    def test_seeded_table(self, order, a, m, w_prime, kind, width, radius, panel, expected):
        assert period_or_refusal(order, a, m, w_prime, kind, width, radius, panel) == expected

    @pytest.mark.parametrize("kind, radius, order, a, cosets, nodes, shifts", [
        # row = cosets x nodes per axis shift; 2**14 elements hold 8, 12 or 1 rows
        ("raised_cosine", 1.3, 3, 1.0, 7, 264, 7),
        ("raised_cosine", 1.3, 3, 0.7, 7, 264, 9),
        ("raised_cosine", 1.3, 4, 0.7, 5, 264, 9),
        ("smoothed_indicator", 1.3, 3, 1.0, 7, 264, 7),
        ("gaussian", 1.3, 3, 1.0, 19, 528, 13),
        # a row past 2**14 elements: one row's worth per call
        ("raised_cosine", 6.0, 3, 1.0, 127, 1212, 27),
    ])
    def test_profile_calls(self, kind, radius, order, a, cosets, nodes, shifts):
        profile = CountingProfile(kind=kind, radius=radius)
        model = EuclideanLatticeModel.from_angle(3, a, TWO_PI / order, order)
        chi_primitive_period_numeric(model, EuclideanElement(l0=1), chi_profile=profile)
        row = cosets * nodes
        evaluated = sum(profile.sizes)
        # Every coset at each (shift, node) pair evaluated: a compact profile
        # only where the nearest coset is inside its support, the Gaussian
        # at every pair, shift 0 not again.
        assert evaluated % cosets == 0
        if kind == "gaussian":
            assert evaluated == shifts * row
        else:
            assert evaluated < shifts * row / 2
        # Calls split the pairs evenly, at most a block's worth of whole
        # rows each, and never take a single pair.
        pairs, per_call = evaluated // cosets, max(1, 2**14 // row) * nodes
        assert len(profile.sizes) == -(-pairs // per_call)
        assert all(size % cosets == 0 and size // cosets > 1 for size in profile.sizes)
        assert all(size <= max(2**14, row) for size in profile.sizes)

    @pytest.mark.parametrize("kind", ["raised_cosine", "smoothed_indicator"])
    def test_outside_the_nearest_coset_every_coset_is_zero(self, kind):
        # The rule that prunes a (shift, node) pair: where the nearest coset
        # is outside the support, each coset's value is an exact 0.
        rng = np.random.default_rng(7)
        profile = CutoffProfile(kind=kind, width=0.4, radius=1.3)
        edge = [0, 0]
        for _ in range(200):
            rho2 = rng.uniform(0.0, 1.69, size=int(rng.integers(1, 30)))
            t2 = rng.uniform(0.0, 2.0, size=400) ** 2
            # pairs whose nearest coset sits on the support's edge
            t2[:50] = 1.69 - np.min(rho2) + rng.uniform(-1e-15, 1e-15, size=50)
            inside = profile._support(np.min(rho2) + t2)[1]
            values = profile(rho2[:, None] + t2[None])
            assert not np.any(values[:, ~inside])
            edge[0] += int(np.sum(inside[:50]))
            edge[1] += int(np.sum(~inside[:50]))
        assert min(edge) > 1000

    def test_cached_arrays_are_read_only(self):
        chi_primitive_period_numeric(
            euclid_model(), EuclideanElement(l0=1),
            chi_profile=CutoffProfile(kind="raised_cosine", radius=1.3),
        )
        nodes = models._period_nodes(1.3, 0.12)
        grid = models._coset_grid(3, 4)
        assert nodes is models._period_nodes(1.3, 0.12) and grid is models._coset_grid(3, 4)
        for array in (*nodes, grid):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestValidate:
    def test_euclid_nondegenerate(self):
        d = validate_model(euclid_model(), EuclideanElement(l0=1))
        assert d.nondegenerate
        assert "dim ker" in d.witness

    def test_euclid_degenerate_identity_rotation(self):
        m = EuclideanLatticeModel.from_angle(3, 1.0, 0.0, 1, 0j)
        d = validate_model(m, EuclideanElement(l0=1))
        assert not d.nondegenerate
        assert "= 3" in d.witness

    def test_circle_alpha_lattice_flags(self):
        d = validate_model(CircleModel(alpha=0j), 0.5)
        assert not d.continuation_available
        assert d.laplacian_kernel_nonzero
        d2 = validate_model(CircleModel(alpha=1j), 0.5)
        assert d2.continuation_available
        assert not d2.laplacian_kernel_nonzero
        d3 = validate_model(CircleModel(alpha=TWO_PI * 1j), 0.5)
        assert not d3.continuation_available

    def test_sphere_flags(self):
        d = validate_model(Sphere2Model(), 1.0)
        assert d.nondegenerate
        assert d.laplacian_kernel_nonzero
        assert not d.continuation_available
        assert d.dense_powers_ok

    def test_sphere_dense_powers_proxy(self):
        d = validate_model(Sphere2Model(), TWO_PI / 3.0)
        assert not d.dense_powers_ok  # 1/3 is a tiny-denominator rational
        d2 = validate_model(Sphere3Model(), (1.0, 1.0))
        assert not d2.dense_powers_ok  # theta1 - theta2 = 0

    def test_sphere3_nondegenerate(self):
        d = validate_model(Sphere3Model(), (1.0, math.sqrt(2.0)))
        assert d.nondegenerate

    @pytest.mark.parametrize(
        "model, g",
        [
            (Sphere2Model(), 1e-7),
            (Sphere2Model(), TWO_PI + 3e-7),
            (Sphere3Model(), (1.0, 1.0 + 1e-7)),
        ],
    )
    def test_sphere_dead_band_is_degenerate(self, model, g):
        d = validate_model(model, g)
        assert not d.nondegenerate
        assert d.witness.startswith("kernel classification failed")

    @pytest.mark.parametrize(
        "g, collisions",
        [
            ((math.pi, math.sqrt(2.0)), 0), ((0.0, math.sqrt(2.0)), 0), ((1.0, 1.0), 40),
            # degenerate elements with both angles in pi Z, then nondegenerate ones
            ((math.pi, math.pi), 20), ((math.pi, -math.pi), 20), ((math.pi, 3.0 * math.pi), 20),
            ((0.0, 0.0), 20), ((TWO_PI, math.pi), 0), ((math.pi, 0.0), 0),
        ],
    )
    def test_sphere3_collisions_are_between_families(self, g, collisions):
        # Only values that two different angles share count: an angle's own
        # +theta and -theta families that meet (theta in pi Z) are two orbits
        # at one value, not a collision.  Nondegenerate elements report 0.
        assert validate_model(Sphere3Model(), g).spectrum_collisions == collisions

    def test_sphere3_trace_builds_families_once(self, monkeypatch):
        # Only a degenerate element needs the collision count, which builds
        # the orbits again out to 10*2*pi.
        from equizeta import flat_trace_measure

        calls = []
        build = models._SphereModel.families

        def counted(self, g):
            calls.append(g)
            return build(self, g)

        monkeypatch.setattr(models._SphereModel, "families", counted)
        flat_trace_measure(Sphere3Model(), (1.0, math.sqrt(2.0)), 50.0)
        assert len(calls) == 1

    def test_sphere_kernel_is_the_exterior_square_count(self):
        # sphere2: 1 + 2 [theta in 2 pi Z]; sphere3: 2 + 2 [theta1 - theta2 in
        # 2 pi Z] + 2 [theta1 + theta2 in 2 pi Z], on seeded angles and on
        # elements built exactly on each degeneracy.
        rng = np.random.default_rng(14)
        cases = []
        for _ in range(40):
            t, k = float(rng.uniform(-20.0, 20.0)), int(rng.integers(-3, 4))
            cases += [
                (Sphere2Model(), t, 1),
                (Sphere2Model(), TWO_PI * k, 3),
                (Sphere3Model(), (t, float(rng.uniform(-20.0, 20.0))), 2),
                (Sphere3Model(), (t, t + TWO_PI * k), 4),
                (Sphere3Model(), (t, TWO_PI * k - t), 4),
                (Sphere3Model(), (TWO_PI * k, TWO_PI * (k + 2)), 6),
                (Sphere3Model(), (math.pi, math.pi * (2 * k + 1)), 6),
            ]
        for model, g, want in cases:
            d = validate_model(model, g)
            assert d.witness.startswith(f"dim ker(Ad(g^-1) - 1) = {want} on so({model.dim})")
            assert d.nondegenerate == (want == model.dim - 2)

    @pytest.mark.parametrize("model, g", [
        (Sphere3Model(), 1.0),
        (Sphere3Model(), (1.0, 2.0, 3.0)),
        (Sphere3Model(), (1.0, math.nan)),
        (Sphere3Model(), (math.inf, 1.0)),
        (Sphere3Model(), ("x", 1.0)),
        (Sphere3Model(), "x"),
        (Sphere2Model(), math.nan),
        (Sphere2Model(), -math.inf),
        (Sphere2Model(), "x"),
        (Sphere2Model(), (1.0,)),
    ], ids=repr)
    def test_sphere_element_refused(self, model, g):
        # Every reader of a sphere element refuses it with the library's error.
        with pytest.raises(DomainError):
            model.element(g)
        with pytest.raises(DomainError):
            validate_model(model, g)
        with pytest.raises(DomainError):
            ruelle_log_direct(model, g, 1.0)

    @pytest.mark.parametrize("g", ["12", b"12", "1,2", bytearray(b"12")], ids=repr)
    def test_sphere3_refuses_a_string_of_two_angles(self, g):
        # A two-character string unpacks as two characters, each float() reads
        # ("12" would be theta = (1, 2)); it is not a pair of reals.
        message = f"sphere3 takes 2 rotation angles, got {g!r}"
        with pytest.raises(DomainError) as refused:
            Sphere3Model().element(g)
        assert str(refused.value) == message
        with pytest.raises(DomainError, match="sphere3 takes 2 rotation angles"):
            ruelle_log_closed(Sphere3Model(), g, 1.0)

    def test_sphere_rejects_nontrivial_connection(self):
        # The trivial connection is a constant: there is no alpha to set.
        with pytest.raises(TypeError, match="alpha"):
            Sphere2Model(alpha=1j)
        with pytest.raises(TypeError, match="alpha"):
            Sphere3Model(alpha=1j)

    def test_crystallographic_restriction(self):
        m = EuclideanLatticeModel.from_angle(3, 1.0, TWO_PI / 5.0, 5, 0j)
        with pytest.raises(DomainError):
            m.lattice_basis()

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 6])
    def test_lattice_is_rotation_invariant(self, order):
        # The Euclidean period's normaliser is one translate sum for all
        # powers of r, which needs r to map Gamma' onto itself.
        m = EuclideanLatticeModel.from_angle(3, 1.0, TWO_PI / order, order, 0j)
        basis = m.lattice_basis()
        rotated = basis @ m.rotation.matrix.T
        coeffs = np.round(rotated[:, :2] @ np.linalg.inv(basis[:, :2]))
        assert np.max(np.abs(coeffs @ basis - rotated)) < 1e-12

    def test_angle_quantization(self):
        # decimal flag angles snap to the exact finite-order multiple
        m = EuclideanLatticeModel.from_angle(3, 1.0, 2.0943951, 3, 0j)
        assert m.rotation.matrix[0, 0] == pytest.approx(math.cos(TWO_PI / 3.0), abs=1e-15)
        with pytest.raises(DomainError):
            EuclideanLatticeModel.from_angle(3, 1.0, 1.0, 6, 0j)


class TestModelFromParams:
    def test_line(self):
        from equizeta import model_from_params

        model, g = model_from_params("line", {"g": "2", "alpha": "0+1i"})
        assert isinstance(model, LineModel)
        assert model.alpha == 1j
        assert g == 2.0

    def test_euclid(self):
        from equizeta import model_from_params

        model, g = model_from_params(
            "euclid",
            {"n": "3", "a": "1", "theta": "2.0943951023931953", "order": "3", "l0": "1"},
        )
        assert isinstance(model, EuclideanLatticeModel)
        assert g.l0 == 1

    def test_unknown_model(self):
        from equizeta import model_from_params

        with pytest.raises(DomainError):
            model_from_params("torus", {})

    def test_missing_parameter(self):
        from equizeta import model_from_params

        with pytest.raises(DomainError):
            model_from_params("sphere3", {"theta1": "1"})

    @pytest.mark.parametrize("name, params", [
        ("line", {"g": "2", "r0": "0.25"}),
        ("lattice", {"g": "2", "theta": "1"}),
        ("circle", {"r0": "0.25", "alhpa": "1i"}),
        ("euclid", {"n": "3", "theta": "2.0943951", "order": "3", "l0": "1", "alpha": "1i"}),
        ("sphere2", {"theta": "1", "alpha": "0"}),
        ("sphere3", {"theta1": "1", "theta2": "2", "theta": "3"}),
    ])
    def test_unknown_key_refused(self, name, params):
        from equizeta import model_from_params

        (key,) = set(params) - set(models._PARAMETER_KEYS[name])
        with pytest.raises(DomainError, match=f"^model '{name}' takes no parameter '{key}'; its keys are "):
            model_from_params(name, params)


class TestConjugationInvariance:
    def test_spectrum_invariant(self):
        rng = np.random.default_rng(41)
        m = euclid_model()
        g = EuclideanElement(l0=2, m=1, w_prime=m.lattice_basis()[1])
        base = length_spectrum(m, g, 12.0)
        for _ in range(20):
            conj = m.conjugate_element(
                g,
                lam=int(rng.integers(-4, 5)),
                gamma_coeffs=rng.integers(-3, 4, size=2).astype(float),
                j=int(rng.integers(0, 3)),
            )
            assert np.allclose(length_spectrum(m, conj, 12.0), base, atol=1e-12)
            # Holonomy and period survive conjugation as well.
            for l in base:
                c0 = orbit_contributions(m, g, l)[0]
                c1 = orbit_contributions(m, conj, l)[0]
                assert abs(c0.holonomy - c1.holonomy) < 1e-14
                assert c0.period == c1.period


class TestOneClassification:
    """An AxisRotation classifies its matrix once per distinct (matrix,
    axis) in a process: the first model construction checks orthogonality
    once and derives the axis once, through the unchecked step behind
    axis_and_kernel, and a Euclidean cutoff period, which gives the axis,
    classifies r^m once without deriving it.  A construction with the bytes
    of an earlier one classifies nothing; a refusal is never stored."""

    NAMES = ("axis_and_kernel", "_axis_of", "_check_special_orthogonal")
    NONE = dict.fromkeys(NAMES, 0)

    def counts(self, monkeypatch, run):
        calls = dict.fromkeys(self.NAMES, 0)
        for mod in (rotations, models):
            for name in self.NAMES:
                original = getattr(mod, name, None)
                if original is None:
                    continue

                def counting(*args, _fn=original, _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, counting)
        run()
        monkeypatch.undo()
        return calls

    def calls(self, monkeypatch, run):
        """Axis derivations, checked or not."""
        counts = self.counts(monkeypatch, run)
        return counts["axis_and_kernel"] + counts["_axis_of"]

    def test_from_angle(self, monkeypatch):
        # The first construction classifies once, an equal-bytes repeat
        # classifies nothing and gets the same floats, and a matrix one ulp
        # away is classified again.
        once = {"axis_and_kernel": 0, "_axis_of": 1, "_check_special_orthogonal": 1}
        built = []
        assert self.counts(monkeypatch, lambda: built.append(euclid_model())) == once
        assert self.counts(monkeypatch, lambda: built.append(euclid_model())) == self.NONE
        first, again = (m.rotation for m in built)
        assert again.axis.tolist() == first.axis.tolist()
        assert again.matrix.tobytes() == first.matrix.tobytes()
        m = first.matrix.copy()
        m[0, 0] = np.nextafter(m[0, 0], 2.0)
        assert self.counts(monkeypatch, lambda: AxisRotation(matrix=m)) == once

    def test_public_axis_and_kernel_keeps_its_check(self, monkeypatch):
        run = lambda: rotations.axis_and_kernel(rotations.block_rotation((1.0,), 3))
        assert self.counts(monkeypatch, run) == {
            "axis_and_kernel": 1, "_axis_of": 1, "_check_special_orthogonal": 1,
        }
        with pytest.raises(DomainError, match="not orthogonal within 1e-10"):
            rotations.axis_and_kernel(np.diag([1.0, 1.0 + 1e-9, 1.0]))

    @pytest.mark.parametrize("matrix, axis, message", [
        (np.ones((2, 3)), None, "expected a square matrix, got shape (2, 3)"),
        (np.diag([1.0, 1.0 + 1e-11, 1.0]), None, "matrix is not orthogonal within 1e-12 (defect 2.000e-11)"),
        (np.diag([1.0, 1.0, -1.0]), None, "matrix must have determinant +1"),
        (np.eye(3), [0.0, 0.0, 1.0], "axis given but ker(r - I) has dimension 3"),
        (rotations.block_rotation((1.0,), 3), [1.0, 0.0, 0.0], "axis is not fixed by the rotation"),
    ], ids=["square", "orthogonal", "determinant", "kernel", "axis"])
    def test_refusals(self, monkeypatch, matrix, axis, message):
        # A refusal is never stored: every attempt runs the orthogonality
        # check and the classification again, with the message it had.
        def run():
            for _ in range(2):
                with pytest.raises(DomainError) as refused:
                    AxisRotation(matrix=matrix, axis=None if axis is None else np.array(axis))
                assert str(refused.value) == message

        assert self.counts(monkeypatch, run)["_check_special_orthogonal"] == 2
        assert rotations._CLASSIFIED.cache_info().currsize == 0

    def test_period(self, monkeypatch):
        # The first period classifies r^m once, with the axis given, and
        # takes one SVD, for the transverse basis; a repeat classifies
        # nothing and takes no SVD, and gets the same float.
        m = euclid_model()
        profile = CutoffProfile(kind="raised_cosine", radius=1.3)
        values = []
        run = lambda: values.append(
            chi_primitive_period_numeric(m, EuclideanElement(l0=1), chi_profile=profile))
        rule, svd = rotations.unit_eigenvalue_multiplicity, np.linalg.svd

        def counted_run():
            calls = {"classify": 0, "svd": 0}

            def classify(*args):
                calls["classify"] += 1
                return rule(*args)

            def counted_svd(*args, **kwargs):
                calls["svd"] += 1
                return svd(*args, **kwargs)

            with monkeypatch.context() as patched:
                patched.setattr(rotations, "unit_eigenvalue_multiplicity", classify)
                patched.setattr(models, "unit_eigenvalue_multiplicity", classify)
                patched.setattr(np.linalg, "svd", counted_svd)
                assert self.calls(patched, run) == 0
            return calls

        assert counted_run() == {"classify": 1, "svd": 1}
        assert counted_run() == {"classify": 0, "svd": 0}
        assert values[1].hex() == values[0].hex()

    def test_axis_derived_without_from_matrix(self):
        rot = AxisRotation(matrix=np.eye(3)[[1, 2, 0]])
        assert np.allclose(rot.axis, np.ones(3) / math.sqrt(3.0))
