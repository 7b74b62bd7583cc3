"""Matrix-level rotation-group utilities for the flow models.

Covers exactly what the worked geometries need: 2x2 rotation blocks,
axis/kernel extraction for SO(n), transverse linear solves against (I-r),
the Euclidean closed-up-to-g condition, the block Poincare determinant,
the signed exterior-power trace identity, and an SO(4) periodic-point
classifier.  The closed-up condition, the determinant and the classifier
are the oracles of the orbit data, off the evaluation path:
tests/test_orbit_counts.py counts the fixed-point components behind every
orbit weight with them, and the models/orbit-signs selftest suite checks the
sign +1 of det(1 - P).  This module is the only place that decides whether
an eigenvalue is 1 (``unit_eigenvalue_multiplicity``: a gap of 1e-8,
borderline inputs rejected instead of coerced) and the only place that
derives a rotation axis (``axis_and_kernel``, only for an AxisRotation built
without one).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrixError
from .series import _read_only

EIG_GAP = 1e-8
# Inputs whose eigenvalues sit in the dead band around the gap are rejected.
EIG_REJECT_BAND = 1e-6


def normalize_angle(theta: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    t = math.remainder(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    return t


def rot2(theta: float) -> np.ndarray:
    """The 2x2 rotation matrix r(theta)."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def block_rotation(angles, n: int) -> np.ndarray:
    """diag(r(theta_1), ..., r(theta_k), 1, ..., 1) in SO(n)."""
    m = np.eye(n)
    for j, theta in enumerate(angles):
        m[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = rot2(theta)
    return m


@dataclass(frozen=True)
class RotationBlock:
    """A plane rotation by ``theta``, normalized to (-pi, pi]."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", normalize_angle(self.theta))

    @property
    def matrix(self) -> np.ndarray:
        return rot2(self.theta)


def _check_special_orthogonal(m: np.ndarray, tol: float) -> None:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    defect = np.max(np.abs(m.T @ m - np.eye(m.shape[0])))
    if defect > tol:
        raise DomainError(f"matrix is not orthogonal within {tol} (defect {defect:.3e})")
    if abs(np.linalg.det(m) - 1.0) > max(tol, 1e-10):
        raise DomainError("matrix must have determinant +1")


def unit_eigenvalue_multiplicity(eigvals) -> tuple[int, float]:
    """Multiplicity of the eigenvalue 1 among ``eigvals`` (within EIG_GAP)
    and the distance from 1 of the next eigenvalue (inf if none); an
    eigenvalue in the dead band up to 1e-6 raises DomainError."""
    # numpy forms the distances (its complex abs, not Python's); a handful of
    # eigenvalues is then compared faster as a list.
    dist = np.sort(np.abs(np.asarray(eigvals) - 1.0)).tolist()
    if any(EIG_GAP < d < EIG_REJECT_BAND for d in dist):
        raise DomainError(
            "eigenvalue too close to 1 to classify reliably; refusing to coerce"
        )
    mult = sum(d <= EIG_GAP for d in dist)
    return mult, dist[mult] if mult < len(dist) else math.inf


def _kernel_dim(r: np.ndarray) -> int:
    """dim ker(r - I) by the one eigenvalue-one rule."""
    return unit_eigenvalue_multiplicity(np.linalg.eigvals(r))[0]


def axis_and_kernel(r: np.ndarray):
    """Multiplicity of the eigenvalue 1 of an SO(n) matrix, plus the axis.

    Returns ``(kernel_dim, v0)`` where ``v0`` is the unit kernel vector of
    r - I (sign fixed by making its first nonzero component positive) when
    the kernel is one-dimensional, and None otherwise.
    """
    r = np.asarray(r, dtype=float)
    _check_special_orthogonal(r, 1e-10)
    kernel_dim = _kernel_dim(r)
    if kernel_dim != 1:
        return kernel_dim, None
    # Null vector of r - I via SVD; the smallest singular vector is the axis.
    _, _, vt = np.linalg.svd(r - np.eye(r.shape[0]))
    v0 = vt[-1]
    v0 = v0 / np.linalg.norm(v0)
    for comp in v0:
        if abs(comp) > 1e-8:
            if comp < 0:
                v0 = -v0
            break
    return 1, v0


@dataclass(frozen=True)
class AxisRotation:
    """An SO(n) matrix together with its rotation axis, when unique.

    ``axis`` is the unit vector spanning ker(matrix - I) and is present
    exactly when that kernel is one-dimensional.  The matrix is classified
    once, at construction.  The axis is derived by ``axis_and_kernel`` only
    when it is not given; a given axis is checked against the matrix after
    one orthogonality check and one kernel classification by the same
    eigenvalue-one rule, with no SVD.
    """

    matrix: np.ndarray
    axis: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        _check_special_orthogonal(m, 1e-12)
        object.__setattr__(self, "matrix", m)
        if self.axis is None:
            kdim, v0 = axis_and_kernel(m)
        else:
            kdim = _kernel_dim(m)
            if kdim != 1:
                raise DomainError(f"axis given but ker(r - I) has dimension {kdim}")
            v0 = np.asarray(self.axis, dtype=float)
        if v0 is not None:
            v0 = v0 / np.linalg.norm(v0)
            if np.linalg.norm(m @ v0 - v0) > 1e-10:
                raise DomainError("axis is not fixed by the rotation")
        object.__setattr__(self, "axis", v0)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "AxisRotation":
        return cls(matrix=m)


def rotation_about_last_axis(n: int, theta: float) -> AxisRotation:
    """Block rotation diag(r(theta), ..., 1) in SO(n) fixing e_n (n odd)."""
    if n < 3 or n % 2 == 0:
        raise DomainError(f"a one-dimensional rotation axis needs odd n >= 3, got {n}")
    return AxisRotation.from_matrix(block_rotation([theta] * (n // 2), n))


@dataclass(frozen=True)
class EuclideanMotion:
    """A rigid motion x -> r x + y of Euclidean space."""

    translation: np.ndarray
    rotation: AxisRotation

    def __post_init__(self):
        y = np.asarray(self.translation, dtype=float)
        if y.shape != (self.rotation.n,):
            raise DomainError("translation/rotation dimensions disagree")
        object.__setattr__(self, "translation", y)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.rotation.matrix @ np.asarray(x, dtype=float) + self.translation


@dataclass(frozen=True)
class PoincareData:
    """Sign and absolute value of det(1 - P) for one closed-up orbit."""

    l: float
    det_sign: int
    det_abs: float

    def __post_init__(self):
        if self.det_sign not in (-1, 1):
            raise DomainError("det_sign must be +-1")
        if not self.det_abs > 0:
            raise DomainError("det_abs must be positive (nondegeneracy)")


@functools.lru_cache(maxsize=8)
def _axis_complement(axis: tuple[float, ...]) -> np.ndarray:
    """Orthonormal basis (columns) of the plane orthogonal to a unit axis,
    from the SVD of I - v0 v0^T, as a read-only array."""
    n = len(axis)
    v0 = np.array(axis)
    return _read_only(np.linalg.svd(np.eye(n) - np.outer(v0, v0))[0][:, : n - 1])


def _transverse(r: AxisRotation) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (columns) orthogonal to the axis, built once per
    axis, and I - r on it."""
    basis = _axis_complement(tuple(r.axis.tolist()))
    return basis, basis.T @ (np.eye(r.n) - r.matrix) @ basis


def solve_transverse(r: AxisRotation, w_prime: np.ndarray) -> np.ndarray:
    """The unique w orthogonal to the axis with (I - r) w = w_prime."""
    if r.axis is None:
        raise DomainError("rotation has no distinguished axis")
    w_prime = np.asarray(w_prime, dtype=float)
    v0 = r.axis
    if abs(float(w_prime @ v0)) > 1e-10 * max(1.0, float(np.linalg.norm(w_prime))):
        raise DomainError("w_prime must be orthogonal to the rotation axis")
    basis, a = _transverse(r)
    rhs = basis.T @ w_prime
    if abs(np.linalg.det(a)) < 1e-12:
        raise SingularMatrixError(
            "(I - r) is singular transverse to the axis; input violates the "
            "one-dimensional-kernel invariant"
        )
    w = basis @ np.linalg.solve(a, rhs)
    residual = np.linalg.norm((np.eye(r.n) - r.matrix) @ w - w_prime)
    if residual > 1e-10 * max(1.0, float(np.linalg.norm(w_prime))):
        raise SingularMatrixError(f"transverse solve residual too large: {residual:.3e}")
    return w


def euclidean_fixed_condition(g: EuclideanMotion, l: float, x: np.ndarray, v: np.ndarray) -> bool:
    """Whether the geodesic through (x, v) closes up to g at time l.

    True iff r v = v and (r - I) w = l v - y, with w the component of x
    orthogonal to v.
    """
    v = np.asarray(v, dtype=float)
    if abs(np.linalg.norm(v) - 1.0) > 1e-10:
        raise DomainError("direction v must be a unit vector")
    x = np.asarray(x, dtype=float)
    r = g.rotation.matrix
    if np.linalg.norm(r @ v - v) > 1e-9:
        return False
    w = x - float(x @ v) * v
    lhs = (r - np.eye(g.rotation.n)) @ w
    rhs = l * v - g.translation
    return bool(np.linalg.norm(lhs - rhs) <= 1e-9)


def poincare_determinant_euclidean(r: AxisRotation, l: float) -> PoincareData:
    """det(1 - P) for a Euclidean closed-up geodesic, two ways.

    The linearised return map transverse to the orbit is the block matrix
    [[r, -l r], [0, r]] on v0-perp + v0-perp, so det(1 - P) equals
    det((I-r)|_{v0-perp})^2 regardless of l.  Both the restricted and the
    assembled-block determinants are computed and must agree to 1e-10.
    """
    if r.axis is None:
        raise DomainError("Poincare determinant needs a one-dimensional kernel")
    basis, i_minus_r = _transverse(r)
    n1 = r.n - 1
    restricted = float(np.linalg.det(i_minus_r)) ** 2

    r_t = basis.T @ r.matrix @ basis
    block = np.zeros((2 * n1, 2 * n1))
    block[:n1, :n1] = np.eye(n1) - r_t
    block[:n1, n1:] = l * r_t
    block[n1:, n1:] = np.eye(n1) - r_t
    assembled = float(np.linalg.det(block))

    if abs(assembled - restricted) > 1e-10 * max(1.0, abs(restricted)):
        raise SingularMatrixError(
            f"block and restricted determinants disagree: {assembled} vs {restricted}"
        )
    return PoincareData(l=l, det_sign=1, det_abs=restricted)


def signed_wedge_trace(a: np.ndarray):
    """sum_j (-1)^j j tr(wedge^j A) for A with a simple eigenvalue 1.

    Computed from eigenvalues via elementary symmetric polynomials; equals
    -det((1-A) restricted to the quotient by ker(1-A)).
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("expected a square matrix")
    eigvals = np.linalg.eigvals(a)
    mult, _ = unit_eigenvalue_multiplicity(eigvals)
    if mult != 1:
        raise DomainError(f"eigenvalue 1 must be simple, found multiplicity {mult}")
    # Char poly of A: coeffs[j] = (-1)^j e_j(eigvals), so (-1)^j j e_j = j coeffs[j].
    coeffs = np.poly(eigvals)
    total = 0.0 + 0j
    for j in range(1, a.shape[0] + 1):
        total += j * coeffs[j]
    if np.isrealobj(a) and abs(total.imag) < 1e-9 * max(1.0, abs(total.real)):
        return float(total.real)
    return complex(total)


# ---------------------------------------------------------------------------
# SO(4) periodic-point classifier for the 3-sphere geodesic flow
# ---------------------------------------------------------------------------

W_PLUS = np.eye(2)
W_MINUS = np.array([[0.0, 1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class SphereFixClass:
    """Classification of x in SO(4) against the two periodic-point patterns.

    kind "type1": block-diagonal x = diag(a w_eps, d w_eps) with the period
    in eps*theta1 + 2*pi*Z; kind "type2": block-antidiagonal with the period
    in eps*theta2 + 2*pi*Z; kind "not_periodic" otherwise.  ``first`` and
    ``second`` carry the SO(2) factors (a, d) resp. (b, c).
    """

    kind: str
    epsilon: int | None = None
    first: np.ndarray | None = None
    second: np.ndarray | None = None


NOT_PERIODIC = SphereFixClass(kind="not_periodic")


def sphere_fixed_classifier(x: np.ndarray, thetas, l: float) -> SphereFixClass:
    """Classify a candidate SO(4) point of the 3-sphere frame flow.

    The final gate is always the direct conjugation identity
    x^T g x = diag(r(l), h) with h in SO(2), for g = diag(r(theta1),
    r(theta2)); the block-pattern shortcut only selects which branch to
    test.  Determinant +1 forces the same w_eps factor in both blocks of
    either pattern.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (4, 4):
        raise DomainError("classifier expects a 4x4 matrix")
    _check_special_orthogonal(x, 1e-9)
    theta1, theta2 = float(thetas[0]), float(thetas[1])

    a, b = x[:2, :2], x[:2, 2:]
    c, d = x[2:, :2], x[2:, 2:]
    diag_like = max(np.max(np.abs(b)), np.max(np.abs(c))) <= 1e-9
    antidiag_like = max(np.max(np.abs(a)), np.max(np.abs(d))) <= 1e-9
    if not (diag_like or antidiag_like):
        return NOT_PERIODIC

    g = block_rotation((theta1, theta2), 4)
    conj = x.T @ g @ x
    off = max(np.max(np.abs(conj[:2, 2:])), np.max(np.abs(conj[2:, :2])))
    target = rot2(l)
    if off > 1e-8 or np.max(np.abs(conj[:2, :2] - target)) > 1e-8:
        return NOT_PERIODIC
    h = conj[2:, 2:]
    if np.max(np.abs(h.T @ h - np.eye(2))) > 1e-8 or np.linalg.det(h) < 0:
        return NOT_PERIODIC

    kind, theta, first, second = ("type1", theta1, a, d) if diag_like else ("type2", theta2, b, c)
    eps = 1 if np.linalg.det(first) > 0 else -1
    if not abs(math.remainder(l - eps * theta, 2.0 * math.pi)) <= 1e-9:
        return NOT_PERIODIC
    w = W_PLUS if eps == 1 else W_MINUS
    return SphereFixClass(kind=kind, epsilon=eps, first=first @ w, second=second @ w)

