"""Every orbit weight against a count of fixed-point components.

The equivariant trace formula weights each delocalised length l by the
closed orbits that close up to g there: the components of the set of points
whose orbit g carries back onto itself at time l (each geometry's own sign
convention; every spectrum here is symmetric).  Each oracle below counts
those components at one (g, l) from the rotations geometry alone, and never
reads a model's families.  At every length of ``orbit_data`` the weight must
be ``period`` times that count (every connection here is trivial, so each
holonomy is 1), and at lengths off the spectrum the count must be 0.
"""

import math

import numpy as np
import pytest

from equizeta import (
    AxisRotation,
    CircleModel,
    EuclideanElement,
    EuclideanLatticeModel,
    EuclideanMotion,
    Sphere2Model,
    Sphere3Model,
    euclidean_fixed_condition,
    solve_transverse,
    sphere_fixed_classifier,
    validate_model,
)
from equizeta.rotations import W_MINUS, W_PLUS, block_rotation

TWO_PI = 2.0 * math.pi


def circle_components(model, r0, l):
    """The rotation flow x -> x + t on R/Z meets the rotation by r0 at time l
    where x + l = x + r0 mod 1: at every x at once, so the fixed set is the
    whole circle (one component) or empty."""
    x = np.linspace(0.0, 1.0, 8, endpoint=False)
    gap = np.remainder(x + l - (x + r0), 1.0)
    closes = np.minimum(gap, 1.0 - gap) <= 1e-9
    assert closes.all() or not closes.any()
    return int(closes.all())


# x e3 = e3 and x e3 = -e3: one point of each flow circle that can close.
SO3_REPRESENTATIVES = (np.eye(3), np.diag([1.0, -1.0, -1.0]))


def sphere2_components(model, theta, l):
    """Components of {x in SO(3) : g x exp(lX) = x}, with g and exp(lX) the
    rotations by theta and l about e3.

    x^-1 g x = exp(-lX) puts x e3 on the axis of g, +-e3 when g is not I:
    the fixed set is the flow circle through I (x e3 = e3, l in -theta +
    2 pi Z) and the one through diag(1, -1, -1) (x e3 = -e3, l in theta +
    2 pi Z), two disjoint circles where both hold (theta in pi Z).  At g = I
    (theta in 2 pi Z) and l in 2 pi Z every x is fixed: SO(3), one component.
    """
    g, flow = block_rotation((theta,), 3), block_rotation((l,), 3)
    fixed = [np.allclose(g @ x @ flow, x, rtol=0.0, atol=1e-9) for x in SO3_REPRESENTATIVES]
    if np.allclose(g, np.eye(3), rtol=0.0, atol=1e-9):
        return int(any(fixed))
    return sum(fixed)


def _blocks(diagonal, w):
    z = np.zeros((2, 2))
    return np.block([[w, z], [z, w]]) if diagonal else np.block([[z, w], [w, z]])


# One point of each periodic-point pattern of the 3-sphere frame flow: block
# diagonal (type 1) or antidiagonal (type 2), with epsilon = det of the blocks.
SO4_REPRESENTATIVES = tuple(_blocks(diagonal, w) for diagonal in (True, False) for w in (W_PLUS, W_MINUS))


def sphere3_components(model, thetas, l):
    """Components of the periodic points of period l, by the (type, epsilon)
    that ``sphere_fixed_classifier`` gives each pattern.  At a nondegenerate
    g they are the points x with x e1, x e2 spanning the plane of theta1 or
    of theta2, and the type and epsilon are constant on each component."""
    classes = (sphere_fixed_classifier(x, thetas, l) for x in SO4_REPRESENTATIVES)
    return len({(c.kind, c.epsilon) for c in classes if c.kind != "not_periodic"})


def euclid_components(model, g, l):
    """Directions v = +-v0 (the unit vectors r^m fixes) whose geodesics close
    up to g at time l (``euclidean_fixed_condition``), through the one
    basepoint orthogonal to the axis with (I - r^m) w = w': each is one line
    of basepoints w + R v, one component."""
    v0 = model.rotation.axis
    rm = AxisRotation(np.linalg.matrix_power(model.rotation.matrix, g.m), axis=v0)
    w_prime = np.zeros(3) if g.w_prime is None else np.asarray(g.w_prime, dtype=float)
    motion = EuclideanMotion(translation=model.a * g.l0 * v0 + w_prime, rotation=rm)
    w = solve_transverse(rm, w_prime)
    return sum(euclidean_fixed_condition(motion, l, w, v) for v in (v0, -v0))


def euclid(order, a=1.0):
    return EuclideanLatticeModel.from_angle(3, a, TWO_PI / order, order)


PI = math.pi
CASES = [
    *[(CircleModel(), r0, circle_components) for r0 in (0.0, 0.25, 0.5, 1e-5, 1.0 - 1e-5, 0.7)],
    *[
        (Sphere2Model(), theta, sphere2_components)
        for theta in (
            PI, -PI, 3.0 * PI, -5.0 * PI, 0.0, TWO_PI, -TWO_PI,
            TWO_PI + 1e-5, TWO_PI - 1e-5, 1e-5, -1e-5, 1.0, 2.5, -4.0,
        )
    ],
    *[
        (Sphere3Model(), thetas, sphere3_components)
        for thetas in (
            (PI, 1.0), (1.0, PI), (PI, math.sqrt(2.0)), (3.0 * PI, 2.5), (-PI, -0.4),
            (TWO_PI + 1e-5, 1.0), (1.0, TWO_PI - 1e-5), (PI, TWO_PI + 1e-5),
            (1.0, math.sqrt(2.0)), (2.5, -0.4),
        )
    ],
    *[
        (euclid(order, a), EuclideanElement(l0=l0, m=m, w_prime=w), euclid_components)
        for order, a, l0, m, w in (
            (3, 1.0, 1, 1, None), (4, 0.7, -2, 1, None), (6, 1.3, 3, -1, None),
            (3, 2.0, 5, 2, np.array([1.0, 0.0, 0.0])), (4, 1.0, 1, 3, np.array([0.0, 1.0, 0.0])),
            (2, 0.5, 7, 1, None),
        )
    ],
]
# An angle in 2 pi Z next to a generic one is a nondegenerate element whose
# orbits at each l in 2 pi Z are the two orientations of the great circle
# that g fixes (type 1, epsilon = +-1), but the model lists the angle's
# family once.
TWO_ORIENTATIONS = [
    pytest.param(Sphere3Model(), thetas, sphere3_components, marks=pytest.mark.xfail(
        strict=True, reason="one family for an angle in 2 pi Z; the classifier finds two orbits"))
    for thetas in ((0.0, math.sqrt(2.0)), (1.0, TWO_PI))
]


def case_id(value):
    return getattr(value, "name", None) or getattr(value, "__name__", None)


class TestComponentCounts:
    @pytest.mark.parametrize("window", [20.0, 60.0])
    @pytest.mark.parametrize("model, g, components", CASES + TWO_ORIENTATIONS, ids=case_id)
    def test_weight_is_period_times_components(self, model, g, components, window):
        lengths, weights = model.orbit_data(g, window)
        assert len(lengths)
        counts = [components(model, g, l) for l in lengths.tolist()]
        assert min(counts) >= 1
        assert weights.tolist() == pytest.approx([model.period * n for n in counts], rel=1e-14)

    @pytest.mark.parametrize("model, g, components", CASES, ids=case_id)
    def test_no_component_off_the_spectrum(self, model, g, components):
        # Midpoints between neighbouring lengths, and between 0 and the
        # shortest on each side.
        lengths = np.concatenate([model.orbit_data(g, 60.0)[0], [0.0]])
        lengths.sort()
        for l in (0.5 * (lengths[1:] + lengths[:-1])).tolist():
            assert components(model, g, l) == 0, l

    @pytest.mark.parametrize("model, g, components", CASES, ids=case_id)
    def test_sampled_elements(self, model, g, components):
        # Every sampled element is nondegenerate but the identity of SO(3),
        # whose fixed set at l in 2 pi Z is the whole group.
        identity = isinstance(model, Sphere2Model) and abs(math.remainder(g, TWO_PI)) == 0.0
        assert validate_model(model, g).nondegenerate != identity
