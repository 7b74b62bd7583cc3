"""The rotation memos: what ``rotations`` derives from a rotation (an
AxisRotation's classification, the transverse block behind solve_transverse
and poincare_determinant_euclidean) is derived once per distinct (matrix,
axis) bytes in a process.  A warm lookup must give the floats of a cold
derivation, whatever the memory layout of the matrix; a refusal is never
stored; each memo is bounded."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from equizeta import rotations
from equizeta.errors import DomainError
from equizeta.models import (
    CutoffProfile,
    EuclideanElement,
    EuclideanLatticeModel,
    chi_primitive_period_numeric,
)
from equizeta.rotations import (
    ROTATION_MEMO_SIZE,
    AxisRotation,
    block_rotation,
    poincare_determinant_euclidean,
    solve_transverse,
)

ORDERS = (1, 2, 3, 4, 6)


def _clear():
    rotations._CLASSIFIED.cache_clear()
    rotations._TRANSVERSE.cache_clear()


def _hex(values):
    return None if values is None else tuple(float(v).hex() for v in np.ravel(values).tolist())


def _so3(rng):
    q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _seeded_rotations(seed=5, draws=12):
    """(matrix, axis or None): the from_angle rotations at each order and
    their powers r^m with the axis given, QR-random SO(3) matrices with the
    axis derived and then given, and rotations by 2 pi / k about a random
    axis (a conjugated block rotation), derived and given."""
    rng = np.random.default_rng(seed)
    out = []
    for order in ORDERS:
        rot = EuclideanLatticeModel.from_angle(3, 1.0, 2.0 * math.pi / order, order).rotation
        out.append((rot.matrix, None))
        for m in range(1, order):
            out.append((np.linalg.matrix_power(rot.matrix, m), rot.axis))
    for _ in range(draws):
        q = _so3(rng)
        out += [(q, None), (q, AxisRotation(matrix=q).axis)]
        h = _so3(rng)
        order = (2, 3, 4, 6)[int(rng.integers(0, 4))]
        conj = h @ block_rotation((2.0 * math.pi / order,), 3) @ h.T
        out += [(conj, None), (conj, h[:, 2] * float(rng.uniform(0.5, 2.0)))]
    _clear()
    return out


def _fingerprint(matrix, axis):
    """float.hex of everything the rotation layer gives for one rotation:
    the matrix and axis of its AxisRotation, a transverse solve and the
    Poincare determinant."""
    rot = AxisRotation(matrix=matrix, axis=axis)
    out = [_hex(rot.matrix), _hex(rot.axis)]
    if rot.axis is not None:
        v0 = rot.axis
        w_prime = np.array([0.3, -1.1, 0.7])
        w_prime = w_prime - float(w_prime @ v0) * v0
        out.append(_hex(solve_transverse(rot, w_prime)))
        out.append(_hex(poincare_determinant_euclidean(rot, 1.7).det_abs))
    return out


def _layouts(matrix):
    """The C-ordered matrix, a Fortran-ordered copy and a transposed-back view."""
    return (
        np.ascontiguousarray(matrix),
        np.asfortranarray(matrix),
        np.ascontiguousarray(matrix.T).T,
    )


def test_warm_lookups_give_the_cold_floats():
    cases = _seeded_rotations()
    assert sum(axis is None for _, axis in cases) >= 20
    for matrix, axis in cases:
        _clear()
        cold = _fingerprint(matrix, axis)
        hits = rotations._CLASSIFIED.cache_info().hits
        assert _fingerprint(matrix, axis) == cold
        assert rotations._CLASSIFIED.cache_info().hits == hits + 1


def test_every_layout_gets_the_c_ordered_floats():
    # Cold: each layout classified from scratch; warm: each layout looked up
    # after the C-ordered original filled the memos.
    for matrix, axis in _seeded_rotations(seed=6):
        c_order, *others = _layouts(matrix)
        assert not others[0].flags.c_contiguous and not others[1].flags.c_contiguous
        _clear()
        want = _fingerprint(c_order, axis)
        for other in others:
            assert _fingerprint(other, axis) == want
            _clear()
            assert _fingerprint(other, axis) == want
            _clear()
            _fingerprint(c_order, axis)


@pytest.mark.parametrize("kind", ["raised_cosine", "gaussian"])
def test_warm_periods_give_the_cold_floats(kind):
    profile = CutoffProfile(kind=kind, radius=1.3)
    for order in ORDERS[1:]:
        for m in range(1, order):
            g = EuclideanElement(l0=1, m=m)
            _clear()
            model = EuclideanLatticeModel.from_angle(3, 1.0, 2.0 * math.pi / order, order)
            cold = chi_primitive_period_numeric(model, g, chi_profile=profile)
            model = EuclideanLatticeModel.from_angle(3, 1.0, 2.0 * math.pi / order, order)
            assert chi_primitive_period_numeric(model, g, chi_profile=profile).hex() == cold.hex()
            assert rotations._TRANSVERSE.cache_info().hits >= 1


def test_mutated_axis_leaves_later_constructions_intact():
    m = block_rotation((1.0,), 3)
    given = np.array([0.0, 0.0, 2.0])
    for axis in (None, given):
        first = AxisRotation(matrix=m, axis=axis)
        want = _hex(first.axis)
        assert first.axis.flags.writeable
        first.axis[:] = -7.0
        later = AxisRotation(matrix=m, axis=axis)
        assert _hex(later.axis) == want
        assert later.axis is not first.axis
    # The caller's axis array is not the memo's either.
    given[:] = 5.0
    assert _hex(AxisRotation(matrix=m, axis=np.array([0.0, 0.0, 2.0])).axis) == want


def test_each_memo_is_bounded():
    rots = [AxisRotation(matrix=block_rotation((0.5 + 0.01 * k,), 3)) for k in range(ROTATION_MEMO_SIZE + 1)]
    for rot in rots:
        solve_transverse(rot, np.array([1.0, 0.0, 0.0]))
    for memo in (rotations._CLASSIFIED, rotations._TRANSVERSE):
        info = memo.cache_info()
        assert (info.maxsize, info.currsize) == (ROTATION_MEMO_SIZE, ROTATION_MEMO_SIZE)
    # The least recently used key, the first, went: building it again
    # classifies, and the last is still a hit.
    misses = rotations._CLASSIFIED.cache_info().misses
    AxisRotation(matrix=rots[-1].matrix)
    assert rotations._CLASSIFIED.cache_info().misses == misses
    AxisRotation(matrix=rots[0].matrix)
    assert rotations._CLASSIFIED.cache_info().misses == misses + 1


@pytest.mark.parametrize("matrix, axis, message", [
    (np.where(np.eye(3) > 0, math.nan, 0.0), None, "matrix has a non-finite entry"),
    (np.diag([1.0, 1.0, -1.0]), None, "matrix must have determinant +1"),
    (block_rotation((1e-7,), 3), None, "eigenvalue too close to 1 to classify reliably; refusing to coerce"),
    (np.eye(3), np.array([0.0, 0.0, 1.0]), "axis given but ker(r - I) has dimension 3"),
    (block_rotation((1.0,), 3), np.array([1.0, 0.0, 0.0]), "axis is not fixed by the rotation"),
], ids=["non-finite", "not-special-orthogonal", "dead-band", "kernel", "axis"])
def test_refusals_are_never_stored(monkeypatch, matrix, axis, message):
    checks = []
    check = rotations._check_special_orthogonal
    monkeypatch.setattr(
        rotations, "_check_special_orthogonal", lambda *args: checks.append(1) or check(*args))
    for attempt in range(3):
        with pytest.raises(DomainError) as refused:
            AxisRotation(matrix=matrix, axis=axis)
        assert str(refused.value) == message
        assert len(checks) == attempt + 1
    assert rotations._CLASSIFIED.cache_info().currsize == 0


def _lookups(matrix):
    """float.hex of a rotation's axis and of its transverse block's det."""
    rot = AxisRotation(matrix=matrix)
    return _hex(rot.axis), _hex(rotations._transverse(rot)[3])


def test_threads_share_the_memos():
    # More threads than cores draw at random among a few more keys than a
    # memo holds, with a short switch interval, so that a key is often
    # evicted by one thread between another's lookup and its move to the
    # recent end: every lookup gets the cold floats, none raises, and each
    # memo stays bounded.
    matrices = [block_rotation((0.5 + 0.01 * k,), 3) for k in range(ROTATION_MEMO_SIZE + 2)]
    want = [_lookups(m) for m in matrices]
    rounds = 3000
    same, errors = [], []

    def work(seed):
        try:
            for k in np.random.default_rng(seed).integers(0, len(matrices), size=rounds).tolist():
                same.append(_lookups(matrices[k]) == want[k])
        except Exception as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(j,)) for j in range(min(2 * (os.cpu_count() or 1), 16) + 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(same) == len(threads) * rounds and all(same)
    for memo in (rotations._CLASSIFIED, rotations._TRANSVERSE):
        assert memo.cache_info().currsize == ROTATION_MEMO_SIZE
