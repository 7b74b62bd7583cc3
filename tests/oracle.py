"""mpmath oracles of the bilateral sum F(z; r, alpha), written once.

F(z; r, alpha) = sum over n in Z of e^{alpha(n + r) - z|n + r|} / |n + r|, the
sum behind every family of the circle and the spheres.  Each oracle takes the
working precision in decimal digits, so every caller keeps its own, and none
reads the library: sphere2's log R is built from its geometry by hand, not
from ``model.families``.
"""

import mpmath as mp


def lerch_oracle(r, alpha, z, dps):
    """F(z; r, alpha) = e^{r(alpha-z)} Phi(e^{alpha-z}, 1, r)
    + e^{-(1-r)(alpha+z)} Phi(e^{-alpha-z}, 1, 1-r), with Phi = mpmath.lerchphi,
    as an mpc at dps digits (0 < r < 1)."""
    with mp.workdps(dps):
        a, w, s = mp.mpc(alpha), mp.mpc(z), mp.mpf(r)
        return mp.exp(s * (a - w)) * mp.lerchphi(mp.exp(a - w), 1, s) + mp.exp(
            -(1 - s) * (a + w)
        ) * mp.lerchphi(mp.exp(-a - w), 1, 1 - s)


def identity_oracle(alpha, z, dps):
    """F(z; 0, alpha) = -log(1 - e^{alpha-z}) - log(1 - e^{-alpha-z}), as an
    mpc at dps digits."""
    with mp.workdps(dps):
        a, w = mp.mpc(alpha), mp.mpc(z)
        return -mp.log(1 - mp.exp(a - w)) - mp.log(1 - mp.exp(-a - w))


def sphere2_oracle(theta, sigma, dps):
    """sphere2's log R at the float theta off 2 pi Z, as an mpc at dps digits.

    The angle's closed orbits have lengths theta + 2 pi n (the circle through
    the identity of SO(3)) and -(theta + 2 pi n) (the circle through
    diag(1, -1, -1)), each of weight 2 pi: two orbits per length at theta in
    pi Z.  With r = (theta mod 2 pi) / 2 pi the |l| are 2 pi (n + r) and
    2 pi (n + 1 - r), n >= 0, each twice, so
    log R = (1/2) sum 2 pi e^{-sigma |l|} / |l| = F(2 pi sigma; r, 0).
    """
    with mp.workdps(dps):
        tp = 2 * mp.pi
        return lerch_oracle((mp.mpf(theta) % tp) / tp, 0, tp * mp.mpc(sigma), dps)
