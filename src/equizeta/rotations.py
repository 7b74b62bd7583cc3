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
derives a rotation axis (``axis_and_kernel``, and its unchecked step for an
AxisRotation built without one).

What the module derives from a rotation is derived once per distinct
(matrix, axis) in a process: an AxisRotation's classification (the
orthogonality check, the eigenvalue-one rule and the checked unit axis) and
the transverse block behind ``solve_transverse`` and
``poincare_determinant_euclidean`` (the basis orthogonal to the axis, I - r,
the block on the basis and its determinant).  Each is kept in a bounded
least-recently-used memo (ROTATION_MEMO_SIZE entries) keyed by the bytes of
the float64 arrays it reads, so a repeat gets the floats its own derivation
would give.  A refusal is never stored: it is derived again, with the same
message, on every attempt.
"""

from __future__ import annotations

import collections
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularMatrixError
from .series import _read_only

EIG_GAP = 1e-8
# Inputs whose eigenvalues sit in the dead band around the gap are rejected.
EIG_REJECT_BAND = 1e-6

# Entries of each rotation memo: the bench certify workload meets 44-46
# distinct (matrix, axis) keys in a run.
ROTATION_MEMO_SIZE = 64

_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")
_MISSING = object()


class _Memo:
    """A bounded least-recently-used memo of what is derived from a rotation.

    ``lookup(key, derive)`` returns the value stored under ``key``, or
    stores and returns ``derive()``; an exception from ``derive`` stores
    nothing.  ``cache_info`` and ``cache_clear`` read as
    ``functools.lru_cache``'s.  The store is locked, as lru_cache's is, so
    threads may share it; ``derive`` runs outside the lock."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._values = collections.OrderedDict()
        self._hits = self._misses = 0
        self._lock = threading.Lock()

    def lookup(self, key, derive):
        with self._lock:
            value = self._values.get(key, _MISSING)
            if value is not _MISSING:
                self._values.move_to_end(key)
                self._hits += 1
                return value
            self._misses += 1
        value = derive()
        with self._lock:
            self._values[key] = value
            if len(self._values) > self.maxsize:
                self._values.popitem(last=False)
        return value

    def cache_info(self) -> _CacheInfo:
        with self._lock:
            return _CacheInfo(self._hits, self._misses, self.maxsize, len(self._values))

    def cache_clear(self) -> None:
        with self._lock:
            self._values.clear()
            self._hits = self._misses = 0


# AxisRotation's checked unit axis (or None) per (shape, matrix bytes, axis).
_CLASSIFIED = _Memo(ROTATION_MEMO_SIZE)
# ``_transverse``'s read-only block per (matrix bytes, axis bytes).
_TRANSVERSE = _Memo(ROTATION_MEMO_SIZE)


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


@functools.cache
def _eye(n: int) -> np.ndarray:
    """The n x n identity, built once per n, read-only."""
    return _read_only(np.eye(n))


def _norm(x: np.ndarray) -> float:
    """The Euclidean norm of a real vector: np.linalg.norm's float, sqrt(x . x),
    without its dispatch."""
    return math.sqrt(x.dot(x))


def _refuse_non_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise DomainError("matrix has a non-finite entry")


def _check_special_orthogonal(m: np.ndarray, tol: float) -> None:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    _refuse_non_finite(m)
    _refuse_not_special_orthogonal(np.abs(m.T @ m - _eye(m.shape[0])).max(), np.linalg.det(m), tol)


def _check_special_orthogonal_stack(ms: np.ndarray, tol: float) -> None:
    """``_check_special_orthogonal`` of each matrix of a float stack of
    same-size square matrices, in order, up to the first refused one: one
    matmul and one det call for the stack's finite matrices (the floats of
    each matrix's own), none for the others."""
    finite = np.isfinite(ms).all(axis=(1, 2)).tolist()
    good = ms if all(finite) else ms[[i for i, ok in enumerate(finite) if ok]]
    defects = np.abs(good.swapaxes(1, 2) @ good - _eye(ms.shape[1])).max(axis=(1, 2)).tolist()
    checked = zip(defects, np.linalg.det(good).tolist())
    for ok in finite:
        if not ok:
            raise DomainError("matrix has a non-finite entry")
        _refuse_not_special_orthogonal(*next(checked), tol)


def _refuse_not_special_orthogonal(defect: float, det: float, tol: float) -> None:
    """The orthogonality and determinant tests of one finite matrix, from
    its defect max |m^T m - I| and its determinant."""
    if not defect <= tol:
        raise DomainError(f"matrix is not orthogonal within {tol} (defect {defect:.3e})")
    if not abs(det - 1.0) <= max(tol, 1e-10):
        raise DomainError("matrix must have determinant +1")


def unit_eigenvalue_multiplicity(eigvals) -> tuple[int, float]:
    """Multiplicity of the eigenvalue 1 among ``eigvals`` (within EIG_GAP)
    and the distance from 1 of the next eigenvalue (inf if none); an
    eigenvalue in the dead band up to 1e-6 raises DomainError."""
    return _unit_rule(_unit_distances(eigvals))


def _unit_distances(eigvals) -> list:
    """The distances |lam - 1| of the eigenvalues along the last axis, each
    set in ascending order, as (nested) lists: numpy forms them (its complex
    abs, not Python's); a handful of distances is then compared faster as a
    list."""
    return np.sort(np.abs(np.asarray(eigvals) - 1.0)).tolist()


def _unit_rule(dist: list) -> tuple[int, float]:
    """``unit_eigenvalue_multiplicity`` of one set of ascending distances."""
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
    return _axis_of(r)


def _axis_of(r: np.ndarray):
    """``axis_and_kernel`` of a float matrix the caller has already checked
    special orthogonal."""
    kernel_dim = _kernel_dim(r)
    if kernel_dim != 1:
        return kernel_dim, None
    # Null vector of r - I via SVD; the smallest singular vector is the axis.
    _, _, vt = np.linalg.svd(r - _eye(r.shape[0]))
    v0 = vt[-1]
    v0 = v0 / _norm(v0)
    for comp in v0:
        if abs(comp) > 1e-8:
            if comp < 0:
                v0 = -v0
            break
    return 1, v0


def _classified_axis(m: np.ndarray, axis: np.ndarray | None):
    """AxisRotation's classification of a float matrix: the checked unit
    axis, given or derived, as a read-only array, or None when the kernel of
    m - I is not one-dimensional and no axis is given."""
    _check_special_orthogonal(m, 1e-12)
    if axis is None:
        kdim, v0 = _axis_of(m)
    else:
        kdim = _kernel_dim(m)
        if kdim != 1:
            raise DomainError(f"axis given but ker(r - I) has dimension {kdim}")
        v0 = axis
    if v0 is not None:
        v0 = v0 / _norm(v0)
        if _norm(m @ v0 - v0) > 1e-10:
            raise DomainError("axis is not fixed by the rotation")
        v0.flags.writeable = False
    return v0


@dataclass(frozen=True)
class AxisRotation:
    """An SO(n) matrix together with its rotation axis, when unique.

    ``axis`` is the unit vector spanning ker(matrix - I) and is present
    exactly when that kernel is one-dimensional.  The matrix is classified
    once per distinct (matrix, axis) in a process, after one orthogonality
    check (1e-12): a construction whose matrix and given axis (or none) have
    the float64 bytes of an earlier one's takes that classification from a
    bounded memo, and a refusal is never stored.  The axis is derived as
    ``axis_and_kernel`` derives it only when it is not given, without that
    function's second, looser check; a given axis is checked against the
    matrix after one kernel classification by the same eigenvalue-one rule,
    with no SVD.  Each construction holds its own writable copy of the axis.
    """

    matrix: np.ndarray
    axis: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        axis = None if self.axis is None else np.asarray(self.axis, dtype=float)
        key = (m.shape, m.tobytes(), None if axis is None else (axis.shape, axis.tobytes()))
        v0 = _CLASSIFIED.lookup(key, lambda: _classified_axis(m, axis))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "axis", None if v0 is None else v0.copy())

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


def _transverse(r: AxisRotation) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The orthonormal basis (columns) orthogonal to the axis, I - r, the
    block a = basis^T (I - r) basis and det(a), read-only, derived once per
    (matrix, axis) bytes."""
    return _TRANSVERSE.lookup(
        (r.matrix.tobytes(), r.axis.tobytes()), lambda: _transverse_block(r.matrix, r.axis)
    )


def _transverse_block(m: np.ndarray, v0: np.ndarray) -> tuple:
    """``_transverse`` of a matrix and its unit axis: the basis from the SVD
    of I - v0 v0^T."""
    n = len(v0)
    basis = _read_only(np.linalg.svd(_eye(n) - np.outer(v0, v0))[0][:, : n - 1])
    i_minus_r = _read_only(_eye(n) - m)
    a = _read_only(basis.T @ i_minus_r @ basis)
    return basis, i_minus_r, a, float(np.linalg.det(a))


def solve_transverse(r: AxisRotation, w_prime: np.ndarray) -> np.ndarray:
    """The unique w orthogonal to the axis with (I - r) w = w_prime."""
    if r.axis is None:
        raise DomainError("rotation has no distinguished axis")
    w_prime = np.asarray(w_prime, dtype=float)
    v0 = r.axis
    if abs(float(w_prime @ v0)) > 1e-10 * max(1.0, _norm(w_prime)):
        raise DomainError("w_prime must be orthogonal to the rotation axis")
    basis, i_minus_r, a, det_a = _transverse(r)
    rhs = basis.T @ w_prime
    if abs(det_a) < 1e-12:
        raise SingularMatrixError(
            "(I - r) is singular transverse to the axis; input violates the "
            "one-dimensional-kernel invariant"
        )
    w = basis @ np.linalg.solve(a, rhs)
    residual = _norm(i_minus_r @ w - w_prime)
    if residual > 1e-10 * max(1.0, _norm(w_prime)):
        raise SingularMatrixError(f"transverse solve residual too large: {residual:.3e}")
    return w


def euclidean_fixed_condition(g: EuclideanMotion, l: float, x: np.ndarray, v: np.ndarray) -> bool:
    """Whether the geodesic through (x, v) closes up to g at time l.

    True iff r v = v and (r - I) w = l v - y, with w the component of x
    orthogonal to v.
    """
    v = np.asarray(v, dtype=float)
    if abs(_norm(v) - 1.0) > 1e-10:
        raise DomainError("direction v must be a unit vector")
    x = np.asarray(x, dtype=float)
    r = g.rotation.matrix
    if _norm(r @ v - v) > 1e-9:
        return False
    w = x - float(x @ v) * v
    lhs = (r - _eye(g.rotation.n)) @ w
    rhs = l * v - g.translation
    return _norm(lhs - rhs) <= 1e-9


def poincare_determinant_euclidean(r: AxisRotation, l: float) -> PoincareData:
    """det(1 - P) for a Euclidean closed-up geodesic, two ways.

    The linearised return map transverse to the orbit is the block matrix
    [[r, -l r], [0, r]] on v0-perp + v0-perp, so det(1 - P) equals
    det((I-r)|_{v0-perp})^2 regardless of l.  Both the restricted and the
    assembled-block determinants are computed and must agree to 1e-10.
    """
    if r.axis is None:
        raise DomainError("Poincare determinant needs a one-dimensional kernel")
    basis, _, _, det_a = _transverse(r)
    n1 = r.n - 1
    restricted = det_a**2

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


def _char_poly(lams: list) -> tuple[list[float], list[float]]:
    """Real and imaginary parts of the coefficients c_0..c_n of
    prod (x - lam) over the eigenvalues ``lams``, with np.poly's floats.

    From c = (1, 0, ..., 0), each eigenvalue lam updates c_k <- c_k - lam c_{k-1}
    for k from the top down.  The complex product is summed part by part in
    the order numpy's convolve sums it, as a two-term complex dot:
    Re c_k <- (Re c_k - Re c_{k-1} Re lam) + Im c_{k-1} Im lam, and
    Im c_k <- (Im c_k - Im c_{k-1} Re lam) - Re c_{k-1} Im lam; Python's
    complex product rounds Re(lam c) as one difference and would not give
    np.poly's floats.  For real eigenvalues the imaginary parts stay 0.
    """
    re = [1.0] + [0.0] * len(lams)
    im = [0.0] * (len(lams) + 1)
    for i, lam in enumerate(lams, 1):
        lr, li = lam.real, lam.imag
        for k in range(i, 0, -1):
            re[k], im[k] = (
                (re[k] - re[k - 1] * lr) + im[k - 1] * li,
                (im[k] - im[k - 1] * lr) - re[k - 1] * li,
            )
    return re, im


def signed_wedge_trace(a: np.ndarray):
    """sum_j (-1)^j j tr(wedge^j A) for A with a simple eigenvalue 1.

    Computed from the eigenvalues: the characteristic coefficients
    c_j = (-1)^j e_j(eigenvalues) come from the recurrence
    c_k <- c_k - lam c_{k-1} over the eigenvalues (``_char_poly``, np.poly's
    floats without its convolve call per eigenvalue), and (-1)^j j e_j = j c_j.
    The sum equals -det((1-A) restricted to the quotient by ker(1-A)).  A
    non-finite entry is refused.  The one-element case of
    ``signed_wedge_traces``.
    """
    (out,) = signed_wedge_traces(np.asarray(a)[None])
    if isinstance(out, DomainError):
        raise out
    return out


def signed_wedge_traces(stack: np.ndarray) -> list:
    """``signed_wedge_trace`` of each matrix of a stack of same-size square
    matrices, in order: its float or complex, or the DomainError that refuses
    it.  A stack that is not one of square matrices is refused whole.

    One eigvals call for the stack's finite matrices; then, per matrix, the
    eigenvalue-one rule, ``_char_poly`` and the sum, as for one matrix.
    numpy returns one dtype for the whole stack, complex if any matrix has a
    complex eigenvalue; a real matrix's eigenvalues then carry imaginary parts
    0, which change no float and pass np.poly's realness rule as they are.
    """
    stack = np.asarray(stack)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DomainError("expected a square matrix")
    finite = np.isfinite(stack).all(axis=(1, 2)).tolist()
    out = [None if ok else DomainError("matrix has a non-finite entry") for ok in finite]
    rows = [i for i, ok in enumerate(finite) if ok]
    eigvals = np.linalg.eigvals(stack if len(rows) == len(stack) else stack[rows])
    real_kind, real_input = eigvals.dtype.kind != "c", np.isrealobj(stack)
    for i, lams, dist in zip(rows, eigvals.tolist(), _unit_distances(eigvals)):
        try:
            mult, _ = _unit_rule(dist)
        except DomainError as exc:
            out[i] = exc
            continue
        if mult != 1:
            out[i] = DomainError(f"eigenvalue 1 must be simple, found multiplicity {mult}")
            continue
        re, im = _char_poly(lams)
        # np.poly keeps the real parts when the eigenvalues are closed under conjugation.
        real = real_kind or sorted((z.real, z.imag) for z in lams) == sorted(
            (z.real, -z.imag) for z in lams
        )
        total_re = total_im = 0.0
        for j in range(1, len(lams) + 1):
            total_re += j * re[j]
            total_im += 0.0 if real else j * im[j]
        if real_input and abs(total_im) < 1e-9 * max(1.0, abs(total_re)):
            out[i] = total_re
        else:
            out[i] = complex(total_re, total_im)
    return out


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
    either pattern.  The one-element case of ``sphere_fixed_classes``.
    """
    return sphere_fixed_classes(np.asarray(x, dtype=float)[None], thetas, (l,))[0]


def sphere_fixed_classes(xs: np.ndarray, thetas, ls) -> list[SphereFixClass]:
    """``sphere_fixed_classifier`` of each x of a stack of 4x4 matrices at
    its period in ``ls``, all at ``thetas``, in order.  A matrix that is not
    special orthogonal within 1e-9 is refused (DomainError), the first one in
    order.

    One matmul or det call per step for the stack: the block patterns, the
    conjugations x^T g x and their blocks' tests for the patterned x, then
    the sign of det(first) and the period.  Each test is the one a matrix
    classified alone meets, on the same floats, so each x gets the same
    class; a patterned x that fails a test is not_periodic, whatever the
    tests after it find.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[1:] != (4, 4):
        raise DomainError("classifier expects a 4x4 matrix")
    _check_special_orthogonal_stack(xs, 1e-9)
    theta1, theta2 = float(thetas[0]), float(thetas[1])

    blocks = np.abs(xs).reshape(-1, 2, 2, 2, 2).max(axis=(2, 4))  # max |entry| of [[a, b], [c, d]]
    diag_like = np.maximum(blocks[:, 0, 1], blocks[:, 1, 0]) <= 1e-9
    antidiag_like = np.maximum(blocks[:, 0, 0], blocks[:, 1, 1]) <= 1e-9
    out = [NOT_PERIODIC] * len(xs)
    idx = np.flatnonzero(diag_like | antidiag_like).tolist()
    if not idx:
        return out

    x = xs[idx]
    conj = x.swapaxes(1, 2) @ block_rotation((theta1, theta2), 4) @ x
    off = np.abs(conj).reshape(-1, 2, 2, 2, 2).max(axis=(2, 4))
    target = np.stack([rot2(ls[i]) for i in idx])
    h = conj[:, 2:, 2:]
    refused = (
        (np.maximum(off[:, 0, 1], off[:, 1, 0]) > 1e-8)
        | (np.abs(conj[:, :2, :2] - target).max(axis=(1, 2)) > 1e-8)
        | (np.abs(h.swapaxes(1, 2) @ h - _eye(2)).max(axis=(1, 2)) > 1e-8)
        # No det(h) < 0 test: SO(4) and the block gates above leave det h within 1e-7 of +1.
    ).tolist()
    diag = diag_like[idx][:, None, None]
    first = np.where(diag, x[:, :2, :2], x[:, :2, 2:])
    second = np.where(diag, x[:, 2:, 2:], x[:, 2:, :2])
    positive = np.linalg.det(first) > 0
    w = np.where(positive[:, None, None], W_PLUS, W_MINUS)
    first, second = first @ w, second @ w
    for k, (i, is_diag, is_positive) in enumerate(zip(idx, diag.ravel().tolist(), positive.tolist())):
        if refused[k]:
            continue
        kind, theta = ("type1", theta1) if is_diag else ("type2", theta2)
        eps = 1 if is_positive else -1
        if abs(math.remainder(ls[i] - eps * theta, 2.0 * math.pi)) <= 1e-9:
            out[i] = SphereFixClass(kind=kind, epsilon=eps, first=first[k], second=second[k])
    return out
