"""Rotation-utility tests: axis extraction, transverse solves, Poincare
determinants, the exterior-power trace identity, and the SO(4) classifier."""

import itertools
import math

import numpy as np
import pytest

from equizeta import (
    AxisRotation,
    DomainError,
    EuclideanMotion,
    RotationBlock,
    axis_and_kernel,
    euclidean_fixed_condition,
    poincare_determinant_euclidean,
    rot2,
    rotation_about_last_axis,
    signed_wedge_trace,
    solve_transverse,
    sphere_fixed_classifier,
)
from equizeta import rotations

W_MINUS = np.array([[0.0, 1.0], [1.0, 0.0]])


def so3_about_e3(theta):
    m = np.eye(3)
    m[:2, :2] = rot2(theta)
    return m


def random_so(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestRotationBlock:
    def test_angle_normalized(self):
        assert RotationBlock(3.0 * math.pi).theta == pytest.approx(math.pi)
        assert RotationBlock(-math.pi).theta == pytest.approx(math.pi)
        assert RotationBlock(0.3).theta == 0.3

    def test_matrix_special_orthogonal(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(-10, 10, size=12):
            m = RotationBlock(float(theta)).matrix
            assert np.max(np.abs(m.T @ m - np.eye(2))) < 1e-12
            assert abs(np.linalg.det(m) - 1.0) < 1e-12


class TestAxisAndKernel:
    def test_rotation_axis(self):
        kdim, v0 = axis_and_kernel(so3_about_e3(2.0 * math.pi / 3.0))
        assert kdim == 1
        assert np.allclose(v0, [0.0, 0.0, 1.0], atol=1e-12)

    def test_identity(self):
        kdim, v0 = axis_and_kernel(np.eye(3))
        assert kdim == 3
        assert v0 is None

    def test_so4_two_blocks(self):
        m = np.zeros((4, 4))
        m[:2, :2] = rot2(1.1)
        m[2:, 2:] = rot2(2.3)
        kdim, v0 = axis_and_kernel(m)
        assert kdim == 0
        assert v0 is None

    def test_rejects_non_orthogonal(self):
        with pytest.raises(DomainError):
            axis_and_kernel(np.diag([1.0, 2.0, 1.0]))

    def test_sign_convention(self):
        # Axis sign: first nonzero component positive, deterministic.
        kdim, v0 = axis_and_kernel(so3_about_e3(1.0))
        assert v0[2] > 0

    def test_dimension_is_read_from_the_matrix(self):
        # n was a field that construction overwrote; it takes no value now.
        m = so3_about_e3(1.0)
        with pytest.raises(TypeError):
            AxisRotation(matrix=m, n=7)
        assert AxisRotation(matrix=m).n == 3


class TestGivenAxis:
    def test_no_svd(self, monkeypatch):
        # A given axis is checked against the matrix, not derived from it.
        m = so3_about_e3(2.0 * math.pi / 3.0)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        monkeypatch.setattr(rotations, "axis_and_kernel", lambda r: calls.append(1))
        rot = AxisRotation(matrix=m, axis=np.array([0.0, 0.0, 2.0]))
        assert calls == []
        assert rot.axis.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("matrix, axis, message", [
        (np.eye(3), [0.0, 0.0, 1.0], "dimension 3"),
        (so3_about_e3(1.0), [1.0, 0.0, 0.0], "not fixed"),
        (np.diag([1.0, 2.0, 1.0]), [0.0, 0.0, 1.0], "not orthogonal"),
    ], ids=["kernel", "axis", "orthogonality"])
    def test_checks_kept(self, matrix, axis, message):
        with pytest.raises(DomainError, match=message):
            AxisRotation(matrix=matrix, axis=np.array(axis))


def numpy_unit_eigenvalue_multiplicity(eigvals):
    """The eigenvalue-one rule in numpy array operations, kept as the oracle."""
    dist = np.sort(np.abs(np.asarray(eigvals) - 1.0))
    if np.any((dist > rotations.EIG_GAP) & (dist < rotations.EIG_REJECT_BAND)):
        raise DomainError("eigenvalue too close to 1 to classify reliably; refusing to coerce")
    mult = int(np.sum(dist <= rotations.EIG_GAP))
    return mult, float(dist[mult]) if mult < len(dist) else math.inf


def classified(rule, eigvals):
    try:
        mult, gap = rule(eigvals)
    except DomainError as exc:
        return str(exc)
    return type(mult), mult, type(gap), gap.hex()


class TestUnitEigenvalueMultiplicity:
    def test_matches_the_numpy_oracle(self):
        # 20,000 seeded sets, n = 2-5, real and complex: a planted exact 1
        # beside distances inside the gap, in the 1e-8-1e-6 dead band and
        # beyond.
        rng = np.random.default_rng(2024)
        scales = np.array([0.0, 1e-12, 1e-9, 3e-9, 1e-8, 2e-8, 1e-7, 1e-6, 2e-6, 1e-3, 1.0])
        refusals = 0
        for _ in range(20_000):
            n = int(rng.integers(2, 6))
            dist = scales[rng.integers(0, len(scales), size=n)] * rng.uniform(0.5, 1.5, size=n)
            dist[rng.integers(0, n)] = 0.0
            if rng.random() < 0.5:
                eigvals = 1.0 + dist * rng.choice([-1.0, 1.0], size=n)
            else:
                eigvals = 1.0 + dist * np.exp(1j * rng.uniform(-math.pi, math.pi, size=n))
            want = classified(numpy_unit_eigenvalue_multiplicity, eigvals)
            assert classified(rotations.unit_eigenvalue_multiplicity, eigvals) == want
            refusals += isinstance(want, str)
        assert 2_000 < refusals < 18_000

    def test_empty_and_exact(self):
        assert rotations.unit_eigenvalue_multiplicity([]) == (0, math.inf)
        assert rotations.unit_eigenvalue_multiplicity([1.0, 1.0]) == (2, math.inf)


class TestSolveTransverse:
    def test_zero(self):
        rot = rotation_about_last_axis(3, 2.0)
        assert np.allclose(solve_transverse(rot, np.zeros(3)), 0.0)

    def test_half_turn(self):
        # theta = pi: (I - r) acts as 2I on the transverse plane.
        rot = rotation_about_last_axis(3, math.pi)
        w = solve_transverse(rot, np.array([2.0, 0.0, 0.0]))
        assert np.allclose(w, [1.0, 0.0, 0.0], atol=1e-12)

    def test_residual_generic(self):
        rot = rotation_about_last_axis(3, 2.0 * math.pi / 3.0)
        w_prime = np.array([1.0, 0.0, 0.0])
        w = solve_transverse(rot, w_prime)
        assert np.linalg.norm((np.eye(3) - rot.matrix) @ w - w_prime) < 1e-10
        assert abs(w @ rot.axis) < 1e-12

    def test_rejects_non_orthogonal_rhs(self):
        rot = rotation_about_last_axis(3, 1.0)
        with pytest.raises(DomainError):
            solve_transverse(rot, np.array([0.0, 0.0, 1.0]))


class TestFixedCondition:
    def test_axis_translation(self):
        rot = rotation_about_last_axis(3, 2.0 * math.pi / 3.0)
        v0 = rot.axis
        g = EuclideanMotion(translation=1.5 * v0, rotation=rot)
        assert euclidean_fixed_condition(g, 1.5, np.zeros(3), v0)

    def test_unfixed_direction(self):
        rot = rotation_about_last_axis(3, 2.0 * math.pi / 3.0)
        g = EuclideanMotion(translation=rot.axis, rotation=rot)
        assert not euclidean_fixed_condition(g, 1.0, np.zeros(3), np.array([1.0, 0, 0]))

    def test_transverse_offset(self):
        rot = rotation_about_last_axis(3, 2.0 * math.pi / 3.0)
        v0 = rot.axis
        w_prime = np.array([0.7, -0.2, 0.0])
        g = EuclideanMotion(translation=2.0 * v0 + w_prime, rotation=rot)
        x = solve_transverse(rot, w_prime)  # (r - I) x = -w_prime
        assert euclidean_fixed_condition(g, 2.0, x, v0)

    def test_unit_vector_required(self):
        rot = rotation_about_last_axis(3, 1.0)
        g = EuclideanMotion(translation=rot.axis, rotation=rot)
        with pytest.raises(DomainError):
            euclidean_fixed_condition(g, 1.0, np.zeros(3), np.array([0.0, 0.0, 2.0]))

    def test_conjugation_equivariance(self):
        rng = np.random.default_rng(17)
        base = rotation_about_last_axis(3, 2.0 * math.pi / 3.0)
        v0 = base.axis
        for _ in range(20):
            l = float(rng.uniform(0.5, 3.0))
            w_prime = np.cross(v0, rng.normal(size=3))
            g = EuclideanMotion(translation=l * v0 + w_prime, rotation=base)
            x = solve_transverse(base, w_prime)
            hr = random_so(rng, 3)
            ht = rng.normal(size=3)
            conj_mat = hr @ base.matrix @ hr.T
            conj = EuclideanMotion(
                translation=ht + hr @ g.translation - conj_mat @ ht,
                rotation=AxisRotation.from_matrix(conj_mat),
            )
            assert euclidean_fixed_condition(g, l, x, v0) == euclidean_fixed_condition(
                conj, l, hr @ x + ht, hr @ v0
            )


class TestPoincareDeterminant:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (2.0 * math.pi / 3.0, 9.0),   # (2 - 2cos)^2 = 3^2
            (math.pi, 16.0),
            (math.pi / 2.0, 4.0),
        ],
    )
    def test_values(self, theta, expected):
        rot = rotation_about_last_axis(3, theta)
        data = poincare_determinant_euclidean(rot, 1.0)
        assert data.det_sign == 1
        assert abs(data.det_abs - expected) < 1e-12

    def test_independent_of_l(self):
        rot = rotation_about_last_axis(3, 1.234)
        vals = [poincare_determinant_euclidean(rot, l).det_abs for l in (0.5, 1.0, 7.0)]
        assert max(vals) - min(vals) <= 1e-12 * max(vals)

    def test_requires_axis(self):
        with pytest.raises(DomainError):
            poincare_determinant_euclidean(AxisRotation.from_matrix(np.eye(3)), 1.0)


def brute_wedge_trace(a):
    n = a.shape[0]
    total = 0.0 + 0j
    for j in range(1, n + 1):
        tr = sum(
            np.linalg.det(a[np.ix_(rows, rows)])
            for rows in itertools.combinations(range(n), j)
        )
        total += (-1) ** j * j * tr
    return total


class TestSignedWedgeTrace:
    def test_one_by_one(self):
        assert signed_wedge_trace(np.array([[1.0]])) == -1.0

    def test_examples(self):
        assert abs(signed_wedge_trace(np.diag([1.0, 2.0])) - 1.0) < 1e-12
        assert abs(signed_wedge_trace(np.diag([1.0, 3.0, 0.5])) - 1.0) < 1e-12

    def test_equals_quotient_determinant(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            eigs = rng.uniform(1.4, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            eigs[0] = 1.0
            q = random_so(rng, n)
            m = q @ np.diag(eigs) @ q.T
            got = signed_wedge_trace(m)
            want = -np.prod(1.0 - eigs[1:])
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 6))
            eigs = rng.uniform(1.3, 2.8, size=n) * rng.choice([-1.0, 1.0], size=n)
            eigs[0] = 1.0
            q = random_so(rng, n)
            m = q @ np.diag(eigs) @ q.T
            assert abs(signed_wedge_trace(m) - brute_wedge_trace(m)) < 1e-8
            checked += 1

    def test_rejects_multiplicity(self):
        with pytest.raises(DomainError):
            signed_wedge_trace(np.eye(2))


class TestSphereClassifier:
    THETAS = (1.0, math.sqrt(2.0))

    def test_identity_is_type1(self):
        cls = sphere_fixed_classifier(np.eye(4), self.THETAS, self.THETAS[0])
        assert cls.kind == "type1"
        assert cls.epsilon == 1
        assert np.allclose(cls.first, np.eye(2))
        assert np.allclose(cls.second, np.eye(2))

    def test_antidiagonal_is_type2(self):
        x = np.zeros((4, 4))
        x[:2, 2:] = np.eye(2)
        x[2:, :2] = np.eye(2)
        cls = sphere_fixed_classifier(x, self.THETAS, self.THETAS[1])
        assert cls.kind == "type2"
        assert cls.epsilon == 1

    def test_reflected_blocks_flip_epsilon(self):
        x = np.zeros((4, 4))
        x[:2, :2] = rot2(0.7) @ W_MINUS
        x[2:, 2:] = rot2(-1.2) @ W_MINUS
        cls = sphere_fixed_classifier(x, self.THETAS, -self.THETAS[0])
        assert cls.kind == "type1"
        assert cls.epsilon == -1

    def test_generic_not_periodic(self):
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(10):
            x = random_so(rng, 4)
            cls = sphere_fixed_classifier(x, self.THETAS, self.THETAS[0])
            hits += cls.kind != "not_periodic"
        assert hits == 0

    def test_wrong_period_rejected(self):
        cls = sphere_fixed_classifier(np.eye(4), self.THETAS, self.THETAS[0] + 0.5)
        assert cls.kind == "not_periodic"

    def test_conjugation_gate(self):
        # Whenever the classifier accepts, x^T g x = diag(r(l), h) must hold.
        rng = np.random.default_rng(37)
        g = np.zeros((4, 4))
        g[:2, :2] = rot2(self.THETAS[0])
        g[2:, 2:] = rot2(self.THETAS[1])
        accepted = 0
        for _ in range(60):
            w = np.eye(2) if rng.integers(0, 2) else W_MINUS
            eps = 1 if w is not W_MINUS else -1
            x = np.zeros((4, 4))
            if rng.integers(0, 2):
                x[:2, :2] = rot2(float(rng.uniform(0, 7))) @ w
                x[2:, 2:] = rot2(float(rng.uniform(0, 7))) @ w
                l = eps * self.THETAS[0] + 2 * math.pi * int(rng.integers(-2, 3))
            else:
                x[:2, 2:] = rot2(float(rng.uniform(0, 7))) @ w
                x[2:, :2] = rot2(float(rng.uniform(0, 7))) @ w
                l = eps * self.THETAS[1] + 2 * math.pi * int(rng.integers(-2, 3))
            if abs(l) < 1e-9:
                continue
            cls = sphere_fixed_classifier(x, self.THETAS, l)
            assert cls.kind in ("type1", "type2")
            conj = x.T @ g @ x
            assert np.max(np.abs(conj[:2, :2] - rot2(l))) < 1e-8
            accepted += 1
        assert accepted >= 40

    def test_rejects_non_special_orthogonal(self):
        bad = np.eye(4)
        bad[3, 3] = -1.0
        with pytest.raises(DomainError):
            sphere_fixed_classifier(bad, self.THETAS, 1.0)
