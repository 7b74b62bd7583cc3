"""Flow-model tests: spectra, orbit data, cutoff periods, diagnostics."""

import cmath
import math
import tracemalloc

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


# The theta1 family meets the theta2 family at 1 + 2*pi, one ulp apart: the
# theta2 value lies just outside a window ending at the theta1 value.
EDGE_THETA2 = math.nextafter(1.0 + TWO_PI, math.inf)


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
            (Sphere3Model(), (1.0, EDGE_THETA2), 1.0 + TWO_PI),
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
        lengths, weights = Sphere3Model().orbit_data((1.0, EDGE_THETA2), 1.0 + TWO_PI)
        assert lengths[-1] == 1.0 + TWO_PI and weights[-1] == 2.0 * TWO_PI

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
        [((math.pi, math.sqrt(2.0)), 0), ((0.0, math.sqrt(2.0)), 0), ((1.0, 1.0), 40)],
    )
    def test_sphere3_collisions_are_between_families(self, g, collisions):
        # +theta and -theta values that meet are one family, not a collision.
        assert validate_model(Sphere3Model(), g).spectrum_collisions == collisions

    def test_sphere3_trace_builds_families_once(self, monkeypatch):
        # Only a degenerate element needs the collision count, which builds
        # the families again out to 10*2*pi.
        from equizeta import flat_trace_measure

        windows = []
        build = models._SphereModel._families

        def counted(angles, window):
            windows.append(window)
            return build(angles, window)

        monkeypatch.setattr(models._SphereModel, "_families", staticmethod(counted))
        flat_trace_measure(Sphere3Model(), (1.0, math.sqrt(2.0)), 50.0)
        assert len(windows) == 1

    def test_sphere_rejects_nontrivial_connection(self):
        with pytest.raises(DomainError):
            Sphere2Model(alpha=1j)
        with pytest.raises(DomainError):
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
    """An AxisRotation classifies its matrix once: axis_and_kernel runs once
    per model construction and once per Euclidean cutoff period."""

    def calls(self, monkeypatch, run):
        calls = []
        for mod in (rotations, models):
            original = getattr(mod, "axis_and_kernel", None)
            if original is None:
                continue

            def counting(*args, _fn=original, **kwargs):
                calls.append(1)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, "axis_and_kernel", counting)
        run()
        monkeypatch.undo()
        return len(calls)

    def test_from_angle(self, monkeypatch):
        assert self.calls(monkeypatch, euclid_model) == 1

    def test_period(self, monkeypatch):
        m = euclid_model()
        profile = CutoffProfile(kind="raised_cosine", radius=1.3)
        run = lambda: chi_primitive_period_numeric(m, EuclideanElement(l0=1), chi_profile=profile)
        assert self.calls(monkeypatch, run) == 1

    def test_axis_derived_without_from_matrix(self):
        rot = AxisRotation(matrix=np.eye(3)[[1, 2, 0]])
        assert np.allclose(rot.axis, np.ones(3) / math.sqrt(3.0))
