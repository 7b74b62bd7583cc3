#!/usr/bin/env python3
"""Geodesic flow on the frame bundles of the 2- and 3-sphere.

Here the classical zeta function does not exist at all (every point of the
sphere lies on a closed geodesic), but a rotation g with angles generating
a dense subgroup closes exactly one frame-flow orbit per admissible time,
and the equivariant sum converges for Re(sigma) > 0.  Each angle's orbits
are two arithmetic families, so log R continues past Re(sigma) = 0 like the
circle's, except at sigma in i*Z: sigma = 0 is a singular point.  The
trivial connection forces a nonzero Laplacian kernel, log R blows up along
sigma -> 0+, and the torsion comparison is reported as not applicable
rather than checked.
"""

import math

import numpy as np

from equizeta import (
    SingularPointError,
    Sphere2Model,
    Sphere3Model,
    fried_residual,
    length_spectrum,
    rot2,
    ruelle_log_closed,
    ruelle_log_direct,
    sphere_fixed_classifier,
    validate_model,
)


def main():
    s2, s3 = Sphere2Model(), Sphere3Model()
    theta = 1.0
    angles = (1.0, math.sqrt(2.0))

    print("== spectra are unions of shifted angle classes ==")
    print(f"  sphere2, theta = {theta}: {np.round(length_spectrum(s2, theta, 9.0), 6)}")
    print(f"  sphere3, angles {angles}: {np.round(length_spectrum(s3, angles, 9.0), 6)}")

    print("\n== dense-powers diagnostic (rational-approximation proxy) ==")
    for g, model in ((theta, s2), (angles, s3)):
        diag = validate_model(model, g)
        print(f"  {model.name}: nondegenerate {diag.nondegenerate}, dense powers {diag.dense_powers_ok}")
        print(f"    {diag.dense_powers_detail}")

    print("\n== log R grows without bound toward sigma = 0 and continues past Re(sigma) = 0 ==")
    for sigma in (2.0, 1.0, 0.5, 0.2, 0.1, 0.05):
        ev = ruelle_log_direct(s2, theta, sigma)
        print(f"  sigma = {sigma:5.2f}: log R = {ev.log_R.real:9.4f}  (terms {ev.terms})")
    past = ruelle_log_closed(s2, theta, -0.3 + 0.2j)
    print(f"  sigma = -0.3+0.2i: log R = {past.log_R:.10f} ({past.method})")
    try:
        ruelle_log_closed(s2, theta, 0.0)
    except SingularPointError as exc:
        print(f"  {exc}")
    rep = fried_residual(s2, theta)
    print(f"  fried verdict: applicable = {rep.applicable} ({rep.reason})")

    print("\n== the 3-sphere sum splits into two 2-sphere families ==")
    window = 150.0
    combined = ruelle_log_direct(s3, angles, 1.0, window=window).log_R
    split = sum(
        ruelle_log_direct(s2, t, 1.0, window=window).log_R for t in angles
    )
    print(f"  combined {combined.real:.12f} vs split {split.real:.12f}")

    print("\n== classifying candidate periodic points in SO(4) ==")
    samples = {
        "identity (block diagonal)": np.eye(4),
        "swap of the two planes": np.block(
            [[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
        ),
        "torus element (a, d rotations)": np.block(
            [[rot2(0.3), np.zeros((2, 2))], [np.zeros((2, 2)), rot2(0.9)]]
        ),
    }
    for label, x in samples.items():
        for l in (angles[0], angles[1]):
            cls = sphere_fixed_classifier(x, angles, l)
            print(f"  {label:28s} at l = {l:.4f}: {cls.kind}" + (
                f" (epsilon {cls.epsilon:+d})" if cls.epsilon else ""
            ))


if __name__ == "__main__":
    main()
