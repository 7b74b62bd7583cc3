"""The stacked rotation suites of the selftest against the code they replaced.

``equizeta.selftest`` draws each rotation suite's samples first, in the
order the earlier per-sample loops drew them, does the suite's own linear
algebra (the QR factors, the conjugations, the brute-force minors) once per
stack of same-size matrices, and then calls the library function under test
once per sample, in draw order.  The earlier suites are kept below verbatim
as the oracle, with ``signed_wedge_trace``'s earlier np.poly route.  On
seeded runs both must hand the library the same matrices and vectors
(float.hex), call it as often, and report the same detail; under injected
library faults both must fail.  The classifier suite then asks the
classifier at most twice more, about an accepted x at a wrong period,
which catches a period-blind classifier that the earlier suite passes.

The module is not assertion-rewritten (PYTEST_DONT_REWRITE), so that the
kept suites' failure details read as they read in the library.
"""

import itertools
import math

import numpy as np
import pytest

import equizeta.selftest as selftest
from equizeta import rotations
from equizeta.errors import DomainError
from equizeta.rotations import (
    AxisRotation,
    EuclideanMotion,
    SphereFixClass,
    block_rotation,
    euclidean_fixed_condition,
    rot2,
    rotation_about_last_axis,
    signed_wedge_trace,
    solve_transverse,
    sphere_fixed_classifier,
    unit_eigenvalue_multiplicity,
)

SEEDS = range(40)


# ---------------------------------------------------------------------------
# The oracle: the earlier suites and signed_wedge_trace route, verbatim.
# ---------------------------------------------------------------------------

def _brute_wedge_trace(a):
    """sum_j (-1)^j j tr(wedge^j a), each trace the sum of the principal j x j
    minors in combinations order: one det call over the stacked minors."""
    n = a.shape[0]
    total = 0.0 + 0j
    for j in range(1, n + 1):
        rows = np.array(list(itertools.combinations(range(n), j)))
        minors = a[rows[:, :, None], rows[:, None, :]]
        tr = sum(np.linalg.det(minors).tolist(), 0.0 + 0j)
        total += (-1) ** j * j * tr
    return total


def old_wedge_trace_oracle(rng):
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        m = rng.normal(size=(n, n))
        # Condition the matrix to have a simple eigenvalue exactly 1.
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        d = rng.uniform(1.5, 3.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        d[0] = 1.0
        m = q @ np.diag(d) @ q.T
        try:
            fast = signed_wedge_trace(m)
        except Exception:
            continue
        brute = _brute_wedge_trace(m)
        assert abs(fast - brute) < 1e-8 * max(1.0, abs(brute)), (
            f"wedge-trace mismatch {fast} vs {brute}"
        )
        checked += 1
    return "eigenvalue route matches explicit exterior powers on 100 matrices"


def _random_euclidean_motion(rng) -> EuclideanMotion:
    theta = float(rng.uniform(0.4, 2.7))
    rot = rotation_about_last_axis(3, theta)
    return EuclideanMotion(translation=rng.normal(size=3), rotation=rot)


def old_fixed_condition_equivariance(rng):
    base_rot = rotation_about_last_axis(3, 2.0 * math.pi / 3.0)
    v0 = base_rot.axis
    for _ in range(20):
        l = float(rng.uniform(-3.0, 3.0)) or 1.0
        w_prime = np.cross(v0, rng.normal(size=3))
        g = EuclideanMotion(translation=l * v0 + w_prime, rotation=base_rot)
        # (r - I) x = -w_prime, i.e. (I - r) x = w_prime: the orbit basepoint.
        x = solve_transverse(base_rot, w_prime)
        assert euclidean_fixed_condition(g, l, x, v0), "base fixed condition failed"
        h = _random_euclidean_motion(rng)
        hr = h.rotation.matrix
        conj_rot = AxisRotation.from_matrix(hr @ base_rot.matrix @ hr.T)
        conj_trans = h.translation + hr @ g.translation - (
            hr @ base_rot.matrix @ hr.T
        ) @ h.translation
        hg = EuclideanMotion(translation=conj_trans, rotation=conj_rot)
        lhs = euclidean_fixed_condition(g, l, x, v0)
        rhs = euclidean_fixed_condition(hg, l, h.apply(x), hr @ v0)
        assert lhs == rhs, "conjugation equivariance broken"
    return "fixed condition equivariant under 20 sampled conjugators"


def old_classifier_consistency(rng):
    thetas = (1.0, math.sqrt(2.0))
    g = block_rotation(thetas, 4)
    hits = 0
    for _ in range(40):
        kind = rng.integers(0, 3)
        if kind < 2:
            # kind 0: block-diagonal x (type 1); kind 1: block-antidiagonal (type 2).
            x = np.zeros((4, 4))
            w = np.eye(2) if rng.integers(0, 2) else np.array([[0.0, 1.0], [1.0, 0.0]])
            top, bottom = (slice(0, 2), slice(2, 4)) if kind == 0 else (slice(2, 4), slice(0, 2))
            x[:2, top] = rot2(float(rng.uniform(0, 2 * math.pi))) @ w
            x[2:, bottom] = rot2(float(rng.uniform(0, 2 * math.pi))) @ w
            eps = 1 if np.allclose(w, np.eye(2)) else -1
            l = eps * thetas[kind] + 2.0 * math.pi * int(rng.integers(-2, 3))
        else:
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            x = q
            l = thetas[0]
        if abs(l) < 1e-9:
            continue
        cls = sphere_fixed_classifier(x, thetas, l)
        if cls.kind != "not_periodic":
            hits += 1
            conj = x.T @ g @ x
            target = rot2(l)
            assert np.max(np.abs(conj[:2, :2] - target)) < 1e-8, (
                "classifier accepted x violating the conjugation identity"
            )
    assert hits >= 10, f"classifier accepted too few structured samples ({hits})"
    return f"classifier self-consistent; {hits} structured hits verified"


def old_signed_wedge_trace(a):
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
# Harness: run a suite pair with the library calls recorded or faulted.
# ---------------------------------------------------------------------------

PAIRS = {
    "wedge": (old_wedge_trace_oracle, selftest._suite_wedge_trace_oracle),
    "fixed": (old_fixed_condition_equivariance, selftest._suite_fixed_condition_equivariance),
    "classifier": (old_classifier_consistency, selftest._suite_classifier_consistency),
}
PATCHED = ("signed_wedge_trace", "sphere_fixed_classifier", "euclidean_fixed_condition",
           "solve_transverse")


def _hex(value):
    if isinstance(value, np.ndarray):
        return tuple(_hex(v) for v in value.ravel().tolist())
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    return float(value).hex()


def _run(fn, seed):
    results = []
    selftest._record(results, "suite", lambda: fn(np.random.default_rng(seed)))
    return results[0].passed, results[0].detail


def _run_recorded(monkeypatch, fn, seed, wrap=None):
    """(passed, detail, log): the log holds every call the suite made into
    the library functions of PATCHED, arguments and result as float.hex.
    ``wrap(name, fn)`` may replace a library function by a faulty one."""
    log = []

    def recorder(name, call):
        def recorded(*args):
            parts = []
            for arg in args:
                if isinstance(arg, EuclideanMotion):
                    parts += [_hex(arg.translation), _hex(arg.rotation.matrix)]
                elif isinstance(arg, AxisRotation):
                    parts.append(_hex(arg.matrix))
                elif isinstance(arg, tuple):
                    parts.append(tuple(_hex(v) for v in arg))
                else:
                    parts.append(_hex(arg))
            try:
                out = call(*args)
            except Exception as exc:
                log.append((name, tuple(parts), type(exc).__name__))
                raise
            result = out.kind if isinstance(out, SphereFixClass) else (
                out if isinstance(out, bool) else _hex(out))
            log.append((name, tuple(parts), result))
            return out
        return recorded

    for name in PATCHED:
        call = getattr(rotations, name)
        if wrap is not None:
            call = wrap(name, call)
        patched = recorder(name, call)
        monkeypatch.setattr(selftest, name, patched)
        monkeypatch.setitem(globals(), name, patched)
    passed, detail = _run(fn, seed)
    monkeypatch.undo()
    return passed, detail, log


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def _wrong_period_calls(calls, extra):
    """Check that each extra classifier call asks again about an x accepted
    among ``calls``, at its period plus 0.5, and was refused; the first
    block-diagonal and the first block-antidiagonal hit at most, in that order."""
    hits = [(x, l, kind) for name, (x, _, l), kind in calls
            if name == "sphere_fixed_classifier" and kind != "not_periodic"]
    firsts = [next(hit for hit in hits if hit[2] == kind)
              for kind in ("type1", "type2") if any(hit[2] == kind for hit in hits)]
    assert len(extra) == len(firsts) <= 2
    for (name, (x, _, l), kind), (hit_x, hit_l, _) in zip(extra, firsts):
        assert (name, x, kind) == ("sphere_fixed_classifier", hit_x, "not_periodic")
        assert float.fromhex(l) == float.fromhex(hit_l) + 0.5


@pytest.mark.parametrize("suite", sorted(PAIRS))
def test_same_samples_calls_and_detail(suite, monkeypatch):
    # The classifier suite then makes at most two wrong-period calls of its
    # own, which the earlier suite did not make.
    old, new = PAIRS[suite]
    for seed in SEEDS:
        want = _run_recorded(monkeypatch, old, seed)
        got = _run_recorded(monkeypatch, new, seed)
        assert want[0], (suite, seed, want[1])
        assert got[:2] == want[:2], (suite, seed)
        calls, extra = got[2][:len(want[2])], got[2][len(want[2]):]
        assert calls == want[2], (suite, seed)
        if suite == "classifier":
            _wrong_period_calls(calls, extra)
        else:
            assert extra == [], (suite, seed)


def test_wedge_calls_skip_as_before(monkeypatch):
    # A refused sample is skipped and replaced by the next draw: the same
    # matrices are checked as before, and as many are drawn.
    refuse = {"count": 0}

    def wrap(name, call):
        if name != "signed_wedge_trace":
            return call

        def every_seventh_refused(a):
            refuse["count"] += 1
            if refuse["count"] % 7 == 0:
                raise DomainError("refused")
            return call(a)
        return every_seventh_refused

    old, new = PAIRS["wedge"]
    for seed in range(5):
        refuse["count"] = 0
        want = _run_recorded(monkeypatch, old, seed, wrap)
        refuse["count"] = 0
        got = _run_recorded(monkeypatch, new, seed, wrap)
        assert want[0] and len(want[2]) > 100
        assert got == want


def test_stacked_brute_force_traces():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        stack = rng.normal(size=(9, n, n))
        want = [_brute_wedge_trace(a) for a in stack]
        assert [_hex(v) for v in selftest._brute_wedge_traces(stack)] == [_hex(v) for v in want]


def _scaled_wedge(name, call):
    if name != "signed_wedge_trace":
        return call
    return lambda a: call(a) * (1.0 + 1e-6)


def _classifier_accepts_all(name, call):
    if name != "sphere_fixed_classifier":
        return call
    # Every x accepted: the random SO(4) samples violate the conjugation identity.
    return lambda x, thetas, l: SphereFixClass(kind="type1", epsilon=1)


def _classifier_rejects_all(name, call):
    if name != "sphere_fixed_classifier":
        return call
    return lambda x, thetas, l: rotations.NOT_PERIODIC


def _classifier_ignores_the_period(name, call):
    if name != "sphere_fixed_classifier":
        return call

    def accepts_block_patterns(x, thetas, l):
        # Every block-diagonal or block-antidiagonal x is accepted, at any l.
        for kind, first, zeros in (("type1", x[:2, :2], x[:2, 2:]), ("type2", x[:2, 2:], x[:2, :2])):
            if np.abs(zeros).max() <= 1e-9:
                return SphereFixClass(kind=kind, epsilon=1 if np.linalg.det(first) > 0 else -1)
        return call(x, thetas, l)
    return accepts_block_patterns


def test_period_blind_classifier_fails_the_suite(monkeypatch):
    # Every block-patterned sample is drawn at a true period, so the earlier
    # suite passes under this fault; the wrong-period calls catch it.
    old, new = PAIRS["classifier"]
    for seed in range(5):
        want = _run_recorded(monkeypatch, old, seed, _classifier_ignores_the_period)
        got = _run_recorded(monkeypatch, new, seed, _classifier_ignores_the_period)
        assert want[0], want
        assert not got[0], got
        assert got[1] == "classifier accepted a block-patterned x at a wrong period"


BASE = block_rotation([2.0 * math.pi / 3.0], 3)


def _fixed_condition_negated_when_conjugated(name, call):
    if name != "euclidean_fixed_condition":
        return call

    def negated(g, l, x, v):
        out = call(g, l, x, v)
        return out if np.array_equal(g.rotation.matrix, BASE) else not out
    return negated


@pytest.mark.parametrize("suite, fault", [
    ("wedge", _scaled_wedge),
    ("classifier", _classifier_accepts_all),
    ("classifier", _classifier_rejects_all),
    ("fixed", _fixed_condition_negated_when_conjugated),
])
def test_library_faults_fail_both(suite, fault, monkeypatch):
    old, new = PAIRS[suite]
    for seed in range(5):
        want = _run_recorded(monkeypatch, old, seed, fault)[:2]
        got = _run_recorded(monkeypatch, new, seed, fault)[:2]
        assert not want[0] and not got[0], (want, got)
        assert got[1] == want[1]


def _wedge_inputs(rng, count):
    """Seeded square matrices n = 1..6 given a simple eigenvalue 1 where
    possible: general real ones (conjugate pairs), complex, symmetric and
    integer ones, plus refusals at multiplicity 0 and 2."""
    for t in range(count):
        n = int(rng.integers(1, 7))
        kind = t % 5
        if kind == 0:
            m = rng.normal(size=(n, n))
        elif kind == 1:
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        elif kind == 2:
            m = rng.normal(size=(n, n))
            m = m + m.T
        elif kind == 3:
            m = np.round(2.0 * rng.normal(size=(n, n)))
        else:
            yield np.diag([1.0, 1.0] + rng.uniform(2.0, 3.0, size=n - 1).tolist())
            yield rng.uniform(2.0, 3.0) * np.eye(n)
            continue
        lam = np.linalg.eigvals(m)
        real = [v.real for v in lam.tolist() if v.imag == 0]
        if kind == 1:
            m = m - (lam[0] - 1.0) * np.eye(n)
        elif real:
            m = m - (real[0] - 1.0) * np.eye(n)
        yield m


def test_signed_wedge_trace_is_the_np_poly_route():
    rng = np.random.default_rng(2024)
    seen = {"float": 0, "complex": 0, "pairs": 0, "refused": 0}
    for m in _wedge_inputs(rng, 4000):
        try:
            want = old_signed_wedge_trace(m)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                signed_wedge_trace(m)
            assert str(got.value) == str(exc)
            seen["refused"] += 1
            continue
        got = signed_wedge_trace(m)
        assert type(got) is type(want) and _hex(got) == _hex(want), m
        seen["complex" if isinstance(got, complex) else "float"] += 1
        seen["pairs"] += bool(np.isrealobj(m) and np.iscomplexobj(np.linalg.eigvals(m)))
    assert seen["float"] + seen["complex"] >= 3000
    assert min(seen.values()) >= 300, seen
