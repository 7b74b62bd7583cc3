"""Certificate audit: error <= est_error against mpmath at 40 digits.

One cell per (model, route, region), each a seeded grid checked point by
point: every est_error must be positive and at least the distance from log R
to its mpmath value.  The references are computed inline, one ``exp`` a
point, so no stored table is needed.

The cells here are the finite models (line, lattice and euclid) on two
routes: the closed form, ``FlowModel.log_closed`` summed over their orbits,
and the direct sum ``ruelle_log_direct``.  The direct cells miss today and
are strict xfails, so that each fails as soon as its certificate is mended.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from equizeta import (
    EuclideanElement,
    EuclideanLatticeModel,
    IntegerLatticeModel,
    LineModel,
    ruelle_log_closed,
    ruelle_log_direct,
)

DPS = 40


def _alpha(rng, k):
    """Im alpha in [-10, 10]; every other point also has Re alpha in [-1, 1]."""
    return complex(rng.uniform(-1.0, 1.0) if k % 2 else 0.0, rng.uniform(-10.0, 10.0))


def _sigma(rng):
    return complex(rng.uniform(-3.0, 3.0), rng.uniform(-20.0, 20.0))


def _line_reference(alpha, g, sigma):
    """e^{alpha g - |g| sigma} / (2|g|), the one orbit at l = g."""
    g = mp.mpf(g)
    return mp.exp(mp.mpc(alpha) * g - abs(g) * mp.mpc(sigma)) / (2 * abs(g))


def _euclid_reference(a, order, l0, alpha, sigma):
    """Two orbits at l = +-a l0, each (a / k) e^{l alpha - |l| sigma} / (2|l|)."""
    l = mp.mpf(a) * l0
    return (mp.mpf(a) / order) * mp.exp(l * mp.mpc(alpha) - abs(l) * mp.mpc(sigma)) / abs(l)


def line_points(n=2000, seed=31):
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n):
        g, alpha, sigma = float(rng.uniform(-5.0, 5.0)), _alpha(rng, k), _sigma(rng)
        points.append((LineModel(alpha=alpha), g, sigma, (alpha, g, sigma)))
    return points


def lattice_points(n=500, seed=32):
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n):
        g = int(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
        alpha, sigma = _alpha(rng, k), _sigma(rng)
        points.append((IntegerLatticeModel(alpha=alpha), g, sigma, (alpha, g, sigma)))
    return points


def euclid_points(n=600, seed=33):
    rng = np.random.default_rng(seed)
    points = []
    for k in range(n):
        order = int(rng.choice([2, 3, 4, 6]))
        a, l0 = float(rng.uniform(0.5, 2.0)), int(rng.choice([-3, -2, -1, 1, 2, 3]))
        alpha, sigma = _alpha(rng, k), _sigma(rng)
        model = EuclideanLatticeModel.from_angle(3, a, 2.0 * math.pi / order, order, alpha)
        points.append((model, EuclideanElement(l0=l0), sigma, (a, order, l0, alpha, sigma)))
    return points


CELLS = {
    "line-closed": (line_points, _line_reference, ruelle_log_closed),
    "lattice-closed": (lattice_points, _line_reference, ruelle_log_closed),
    "euclid-closed": (euclid_points, _euclid_reference, ruelle_log_closed),
    "line-direct": (line_points, _line_reference, ruelle_log_direct),
    "lattice-direct": (lattice_points, _line_reference, ruelle_log_direct),
    "euclid-direct": (euclid_points, _euclid_reference, ruelle_log_direct),
}

# The direct sum's floor 1e-15 max(1, |total|) does not count the rounding of
# each exponent x = l alpha - |l| sigma, about eps |x| relative in e^x: some
# points of each direct cell miss until the certificate does (ROADMAP item 2(a)).
DIRECT_MISSES = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 2(a): the direct sum's floor 1e-15 max(1, |total|) "
    "does not count the rounding of the exponent",
)


def audit(cell):
    """(est_error, error) at every point of the cell, in grid order."""
    points, reference, route = CELLS[cell]
    rows = []
    with mp.workdps(DPS):
        for model, g, sigma, args in points():
            ev = route(model, g, sigma)
            rows.append((ev.est_error, float(abs(mp.mpc(ev.log_R) - reference(*args)))))
    return rows


@pytest.mark.parametrize("cell", [
    pytest.param(cell, marks=DIRECT_MISSES) if cell.endswith("-direct") else cell for cell in CELLS
])
def test_every_certificate_is_a_positive_bound(cell):
    rows = audit(cell)
    misses = [(k, est, err) for k, (est, err) in enumerate(rows) if not 0.0 < est or err > est]
    assert misses == []
