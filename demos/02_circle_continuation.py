#!/usr/bin/env python3
"""Rotation flow on the circle: series, continuation, and the value at 0.

A class r0 in (0,1) has spectrum {n + r0} and its log-zeta is the bilateral
sum F(sigma; r0, alpha).  For Re(sigma) > 0 the sum converges absolutely;
reaching sigma = 0 (the torsion comparison point) takes the continuation
through Lerch's transcendent, which exists whenever alpha is not in
2*pi*i*Z.  The class r0 = 1/2 takes the same continuation, checked here
against its atanh terms.  The value at 0 is then cross-checked against a
delayed-averaging resummation of the conditionally convergent boundary
series, and the Fried residual compares it with the spectral torsion by
Ewald's split: genuinely different routes.  The identity class r0 = 0 has
one logarithm per half, a closed form.
"""

import math

from equizeta import (
    BilateralSumParams,
    CircleModel,
    atanh_of_exp,
    bilateral_exp_sum_continued,
    bilateral_exp_sum_direct,
    bilateral_exp_sum_resummed,
    fried_residual,
    product_decomposition_check,
    ruelle_log_closed,
    ruelle_log_direct,
)


def main():
    alpha = 1j
    model = CircleModel(alpha=alpha)

    print("== direct sums agree with the continued evaluation on Re(sigma) > 0 ==")
    params = BilateralSumParams(r=0.25, alpha=alpha, unitary=True)
    for sigma in (2.0, 1.0, 0.5, 0.1):
        direct = bilateral_exp_sum_direct(params, sigma)
        cont = bilateral_exp_sum_continued(params, sigma)
        print(
            f"  sigma = {sigma:4.2f}: direct {direct.value:+.12f} "
            f"(terms {direct.terms_used}), continued {cont:+.12f}, "
            f"gap {abs(direct.value - cont):.1e}"
        )

    print("\n== continuation through sigma = 0 ==")
    for sigma in (0.5, 0.25, 0.0, -0.25):
        ev = ruelle_log_closed(model, 0.25, sigma)
        print(f"  sigma = {sigma:+5.2f}: log R = {ev.log_R:+.12f} [{ev.method}]")

    print("\n== two-route check at sigma = 0 against resummation ==")
    for r0 in (0.25, 1.0 / 3.0, 0.75):
        cont = ruelle_log_closed(model, r0, 0.0).log_R
        resummed = bilateral_exp_sum_resummed(
            BilateralSumParams(r=r0, alpha=alpha, unitary=True), 0.0
        )
        print(
            f"  r0 = {r0:.4f}: continuation {cont:+.10f}, "
            f"resummed {0.5 * resummed.value:+.10f}, "
            f"gap {abs(cont - 0.5 * resummed.value):.2e}"
        )
        rep = fried_residual(model, r0)
        print(f"            fried residual {abs(rep.residual):.2e} ({rep.reason})")

    print("\n== the class r0 = 1/2: the continuation against its atanh terms ==")
    for sigma in (0.5, 1.0, 2.0):
        cont = ruelle_log_closed(model, 0.5, sigma)
        atanh = 0.5 * (atanh_of_exp((alpha - sigma) / 2.0) + atanh_of_exp((-alpha - sigma) / 2.0))
        direct = ruelle_log_direct(model, 0.5, sigma)
        print(
            f"  sigma = {sigma:4.2f}: {cont.method} {cont.log_R:+.12f} "
            f"vs atanh {atanh:+.12f} (gap {abs(cont.log_R - atanh):.1e}) "
            f"vs direct (gap {abs(cont.log_R - direct.log_R):.1e})"
        )

    print("\n== identity class and the conjugacy-class product ==")
    ident = ruelle_log_closed(model, 0.0, 0.0)
    print(f"  log R^e(0) = {ident.log_R:+.12f}  (R^e(0) = {math.exp(ident.log_R.real):.9f})")
    for n_max in (10, 20, 40, 60):
        lhs, rhs, diff = product_decomposition_check(alpha, 1.0, n_max)
        print(f"  lattice product, |g| <= {n_max:2d}: gap to circle modulus {diff:.3e}")


if __name__ == "__main__":
    main()
