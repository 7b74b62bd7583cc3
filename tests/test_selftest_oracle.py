"""The stacked rotation suites of the selftest against the code they replaced.

``equizeta.selftest`` draws each rotation suite's samples first, in the
order the earlier per-sample loops drew them, and does the suite's own
linear algebra (the QR factors, the conjugations, the brute-force minors)
once per stack of same-size matrices.  The wedge-trace and classifier
suites hand the library each stack at once, through the stacked cores
``signed_wedge_traces`` and ``sphere_fixed_classes``; the fixed-condition
suite calls the library once per sample.  The earlier suites are kept below
verbatim as the oracle, with ``signed_wedge_trace``'s earlier np.poly route
and the earlier scalar classifier.  The harness records every stack
element a core is handed, arguments and result as float.hex, and the
earlier suites reach the same cores through the scalar functions, each a
one-element stack.  On seeded runs both suites must hand the library the
same matrices and vectors, in draw order (the wedge suite's grouped by
size within each round of draws), and report the same detail; under
injected library faults both must fail.  The classifier suite then asks the
classifier at most twice more, about an accepted x at a wrong period,
which catches a period-blind classifier that the earlier suite passes.

The module is not assertion-rewritten (PYTEST_DONT_REWRITE), so that the
kept suites' failure details read as they read in the library.
"""

import itertools
import math
import zlib

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
    signed_wedge_traces,
    solve_transverse,
    sphere_fixed_classes,
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


def _old_check_special_orthogonal(m, tol):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix has a non-finite entry")
    defect = np.abs(m.T @ m - np.eye(m.shape[0])).max()
    if not defect <= tol:
        raise DomainError(f"matrix is not orthogonal within {tol} (defect {defect:.3e})")
    if not abs(np.linalg.det(m) - 1.0) <= max(tol, 1e-10):
        raise DomainError("matrix must have determinant +1")


def old_sphere_fixed_classifier(x, thetas, l):
    x = np.asarray(x, dtype=float)
    if x.shape != (4, 4):
        raise DomainError("classifier expects a 4x4 matrix")
    _old_check_special_orthogonal(x, 1e-9)
    theta1, theta2 = float(thetas[0]), float(thetas[1])

    a, b = x[:2, :2], x[:2, 2:]
    c, d = x[2:, :2], x[2:, 2:]
    diag_like = max(np.abs(b).max(), np.abs(c).max()) <= 1e-9
    antidiag_like = max(np.abs(a).max(), np.abs(d).max()) <= 1e-9
    if not (diag_like or antidiag_like):
        return rotations.NOT_PERIODIC

    g = block_rotation((theta1, theta2), 4)
    conj = x.T @ g @ x
    off = max(np.abs(conj[:2, 2:]).max(), np.abs(conj[2:, :2]).max())
    target = rot2(l)
    if off > 1e-8 or np.abs(conj[:2, :2] - target).max() > 1e-8:
        return rotations.NOT_PERIODIC
    h = conj[2:, 2:]
    if np.abs(h.T @ h - np.eye(2)).max() > 1e-8 or np.linalg.det(h) < 0:
        return rotations.NOT_PERIODIC

    kind, theta, first, second = ("type1", theta1, a, d) if diag_like else ("type2", theta2, b, c)
    eps = 1 if np.linalg.det(first) > 0 else -1
    if not abs(math.remainder(l - eps * theta, 2.0 * math.pi)) <= 1e-9:
        return rotations.NOT_PERIODIC
    w = rotations.W_PLUS if eps == 1 else rotations.W_MINUS
    return SphereFixClass(kind=kind, epsilon=eps, first=first @ w, second=second @ w)


# ---------------------------------------------------------------------------
# Harness: run a suite pair with the library calls recorded or faulted.
# ---------------------------------------------------------------------------

PAIRS = {
    "wedge": (old_wedge_trace_oracle, selftest._suite_wedge_trace_oracle),
    "fixed": (old_fixed_condition_equivariance, selftest._suite_fixed_condition_equivariance),
    "classifier": (old_classifier_consistency, selftest._suite_classifier_consistency),
}
# The stacked cores, each recorded element by element; the scalar functions
# reach them through the rotations module.
CORES = {
    "signed_wedge_traces": lambda stack: [(m,) for m in stack],
    "sphere_fixed_classes": lambda xs, thetas, ls: [(x, thetas, l) for x, l in zip(xs, ls)],
}
SCALARS = ("euclidean_fixed_condition", "solve_transverse")


def _hex(value):
    if isinstance(value, np.ndarray):
        return tuple(_hex(v) for v in value.ravel().tolist())
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    return float(value).hex()


def _hex_args(args):
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
    return tuple(parts)


def _hex_result(out):
    if isinstance(out, Exception):
        return ("raised", type(out).__name__)
    if isinstance(out, SphereFixClass):
        return out.kind
    return out if isinstance(out, bool) else _hex(out)


def _run(fn, seed):
    results = []
    selftest._record(results, "suite", lambda: fn(np.random.default_rng(seed)))
    return results[0].passed, results[0].detail


def _run_recorded(monkeypatch, fn, seed, fault=None):
    """(passed, detail, log, stacks): the log holds every stack element the
    suite handed a core of CORES and every call of a function of SCALARS,
    arguments and result as float.hex; stacks holds each core call's name
    and element count.  ``fault(name, args, out)`` may replace an element's
    result, or a call's, by a wrong one (a refusal is an exception, which a
    core returns and a scalar raises)."""
    log, stacks = [], []

    def element(name, args, out):
        if fault is not None:
            out = fault(name, args, out)
        log.append((name, _hex_args(args), _hex_result(out)))
        return out

    def recorded_core(name, core):
        def call(*args):
            stacks.append((name, len(args[0])))
            try:
                outs = core(*args)
            except Exception as exc:
                log.append((name, None, _hex_result(exc)))
                raise
            return [element(name, el, out) for el, out in zip(CORES[name](*args), outs)]
        return call

    def recorded_scalar(name, scalar):
        def call(*args):
            try:
                out = scalar(*args)
            except Exception as exc:
                out = exc
            out = element(name, args, out)
            if isinstance(out, Exception):
                raise out
            return out
        return call

    for name in CORES:
        patched = recorded_core(name, getattr(rotations, name))
        monkeypatch.setattr(rotations, name, patched)
        monkeypatch.setattr(selftest, name, patched)
    for name in SCALARS:
        patched = recorded_scalar(name, getattr(rotations, name))
        monkeypatch.setattr(selftest, name, patched)
        monkeypatch.setitem(globals(), name, patched)
    passed, detail = _run(fn, seed)
    monkeypatch.undo()
    return passed, detail, log, stacks


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def _in_stack_order(log):
    """A per-sample wedge log in the order of the stacked suite: each round
    of draws (100, then as many as the round before refused) grouped by
    matrix size, the sizes in order of first draw."""
    out, rest, count = [], list(log), 100
    while count:
        drawn, rest = rest[:count], rest[count:]
        sizes = {}
        for call in drawn:
            sizes.setdefault(len(call[1][0]), []).append(call)
        out += [call for group in sizes.values() for call in group]
        count = sum(result[0] == "raised" for _, _, result in drawn)
    assert rest == []
    return out


def _wrong_period_calls(calls, extra):
    """Check that each extra classifier element asks again about an x
    accepted among ``calls``, at its period plus 0.5, and was refused; the
    first block-diagonal and the first block-antidiagonal hit at most, in
    that order."""
    hits = [(x, l, kind) for name, (x, _, l), kind in calls
            if name == "sphere_fixed_classes" and kind != "not_periodic"]
    firsts = [next(hit for hit in hits if hit[2] == kind)
              for kind in ("type1", "type2") if any(hit[2] == kind for hit in hits)]
    assert len(extra) == len(firsts) <= 2
    for (name, (x, _, l), kind), (hit_x, hit_l, _) in zip(extra, firsts):
        assert (name, x, kind) == ("sphere_fixed_classes", hit_x, "not_periodic")
        assert float.fromhex(l) == float.fromhex(hit_l) + 0.5


@pytest.mark.parametrize("suite", sorted(PAIRS))
def test_same_samples_calls_and_detail(suite, monkeypatch):
    # The earlier suites hand the cores one element per call.  The wedge
    # suite hands its core one stack per size and round; the classifier
    # suite one stack of its samples, then at most two wrong-period
    # elements of its own, which the earlier suite did not ask.
    old, new = PAIRS[suite]
    for seed in SEEDS:
        want = _run_recorded(monkeypatch, old, seed)
        got = _run_recorded(monkeypatch, new, seed)
        assert want[0], (suite, seed, want[1])
        assert got[:2] == want[:2], (suite, seed)
        assert all(count == 1 for _, count in want[3])
        if suite == "wedge":
            assert got[2] == _in_stack_order(want[2]), seed
            sizes = {len(call[1][0]) for call in want[2]}
            assert [name for name, _ in got[3]] == ["signed_wedge_traces"] * len(sizes)
            continue
        calls, extra = got[2][:len(want[2])], got[2][len(want[2]):]
        assert calls == want[2], (suite, seed)
        if suite == "classifier":
            _wrong_period_calls(calls, extra)
            assert got[3] == [("sphere_fixed_classes", len(calls))] + [
                ("sphere_fixed_classes", 1)] * len(extra)
        else:
            assert extra == [] and got[3] == [], (suite, seed)


def _every_seventh_refused(name, args, out):
    # A sample is refused by its bits, so that both suites refuse the same ones.
    if name == "signed_wedge_traces" and zlib.crc32(args[0].tobytes()) % 7 == 0:
        return DomainError("refused")
    return out


def test_wedge_calls_skip_as_before(monkeypatch):
    # A refused sample is skipped and replaced by the next draw: the same
    # matrices are checked as before, and as many are drawn.
    old, new = PAIRS["wedge"]
    for seed in range(5):
        want = _run_recorded(monkeypatch, old, seed, _every_seventh_refused)
        got = _run_recorded(monkeypatch, new, seed, _every_seventh_refused)
        assert want[0] and len(want[2]) > 100
        assert got[:2] == want[:2]
        assert got[2] == _in_stack_order(want[2])
        assert len(got[3]) > len({len(call[1][0]) for call in want[2]})


def test_stacked_brute_force_traces():
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        stack = rng.normal(size=(9, n, n))
        want = [_brute_wedge_trace(a) for a in stack]
        assert [_hex(v) for v in selftest._brute_wedge_traces(stack)] == [_hex(v) for v in want]


def _scaled_wedge(name, args, out):
    if name != "signed_wedge_traces" or isinstance(out, Exception):
        return out
    return out * (1.0 + 1e-6)


def _classifier_accepts_all(name, args, out):
    # Every x accepted: the random SO(4) samples violate the conjugation identity.
    return SphereFixClass(kind="type1", epsilon=1) if name == "sphere_fixed_classes" else out


def _classifier_rejects_all(name, args, out):
    return rotations.NOT_PERIODIC if name == "sphere_fixed_classes" else out


def _classifier_ignores_the_period(name, args, out):
    if name != "sphere_fixed_classes":
        return out
    # Every block-diagonal or block-antidiagonal x is accepted, at any l.
    x = args[0]
    for kind, first, zeros in (("type1", x[:2, :2], x[:2, 2:]), ("type2", x[:2, 2:], x[:2, :2])):
        if np.abs(zeros).max() <= 1e-9:
            return SphereFixClass(kind=kind, epsilon=1 if np.linalg.det(first) > 0 else -1)
    return out


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


def _fixed_condition_negated_when_conjugated(name, args, out):
    if name != "euclidean_fixed_condition":
        return out
    return out if np.array_equal(args[0].rotation.matrix, BASE) else not out


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


def _assert_wedge_value(got, want, m):
    """The type of the kept np.poly route's value, that value within
    1e-12 max(1, |want|) and the brute-force minors' within 1e-9 max(1, |b|):
    the derivative form and np.poly's coefficients round differently."""
    assert type(got) is type(want), (m, got, want)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (m, got, want)
    b = _brute_wedge_trace(m)
    assert abs(got - b) <= 1e-9 * max(1.0, abs(b)), (m, got, b)


def test_signed_wedge_trace_is_near_the_np_poly_route():
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
        _assert_wedge_value(got, want, m)
        seen["complex" if isinstance(got, complex) else "float"] += 1
        seen["pairs"] += bool(np.isrealobj(m) and np.iscomplexobj(np.linalg.eigvals(m)))
    assert seen["float"] + seen["complex"] >= 3000
    assert min(seen.values()) >= 300, seen


# ---------------------------------------------------------------------------
# The stacked cores against the kept scalar routes
# ---------------------------------------------------------------------------

def _expected_wedge(m):
    """The kept np.poly route's value or refusal text for one matrix."""
    if not np.isfinite(m).all():
        return "matrix has a non-finite entry"
    try:
        return old_signed_wedge_trace(m)
    except DomainError as exc:
        return str(exc)


def test_wedge_core_is_near_the_np_poly_route_on_stacks():
    # Same-size stacks of the seeded inputs above, real and complex apart:
    # a real stack mixes rows with real eigenvalues and rows with conjugate
    # pairs (numpy then returns complex eigenvalues for every row), rows of
    # multiplicity 0 and 2, and a few rows given a NaN or infinite entry.
    rng = np.random.default_rng(77)
    stacks = {}
    for m in _wedge_inputs(rng, 3000):
        stacks.setdefault((len(m), np.iscomplexobj(m)), []).append(m)
    seen = {"mixed stacks": 0, "real rows there": 0, "refused": 0, "non-finite": 0}
    for (n, _), ms in stacks.items():
        for start in range(0, len(ms), 40):
            stack = np.stack(ms[start:start + 40])
            for k in rng.choice(len(stack), size=min(3, len(stack)), replace=False).tolist():
                stack[k].flat[rng.integers(n * n)] = (math.nan, math.inf, -math.inf)[k % 3]
            got = signed_wedge_traces(stack)
            assert len(got) == len(stack)
            for m, out in zip(stack, got):
                want = _expected_wedge(m)
                if isinstance(want, str):
                    assert isinstance(out, DomainError) and str(out) == want, (m, out)
                    seen["non-finite" if "non-finite" in want else "refused"] += 1
                else:
                    _assert_wedge_value(out, want, m)
            finite = np.isfinite(stack).all(axis=(1, 2))
            lams = np.linalg.eigvals(stack[finite])
            if np.isrealobj(stack) and np.iscomplexobj(lams):
                seen["mixed stacks"] += 1
                seen["real rows there"] += int((lams.imag == 0).all(axis=1).sum())
    assert min(seen.values()) >= 20, seen


def test_wedge_core_refuses_what_is_no_stack():
    for bad in (np.eye(3), np.zeros((2, 3, 2)), np.zeros((1, 1, 2, 2))):
        with pytest.raises(DomainError, match="expected a square matrix"):
            signed_wedge_traces(bad)
    assert signed_wedge_traces(np.zeros((0, 3, 3))) == []


THETAS = (1.0, math.sqrt(2.0))


def _so4(rng):
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _classifier_inputs(rng, count):
    """Seeded (x, l): block-diagonal and block-antidiagonal x at a true
    period, just off it (inside and outside the 1e-9 period test) and half a
    unit off; unpatterned SO(4) points; and periods with |l| < 1e-9."""
    for _ in range(count):
        kind = int(rng.integers(0, 3))
        if kind == 2:
            x = _so4(rng)
            l = THETAS[int(rng.integers(0, 2))]
        else:
            eps = 1 if rng.integers(0, 2) else -1
            w = rotations.W_PLUS if eps == 1 else rotations.W_MINUS
            x = np.zeros((4, 4))
            top, bottom = (slice(0, 2), slice(2, 4)) if kind == 0 else (slice(2, 4), slice(0, 2))
            x[:2, top] = rot2(float(rng.uniform(0, 2 * math.pi))) @ w
            x[2:, bottom] = rot2(float(rng.uniform(0, 2 * math.pi))) @ w
            l = eps * THETAS[kind] + 2.0 * math.pi * int(rng.integers(-2, 3))
        l += (0.0, 0.0, 1e-10, 5e-9, 0.5)[int(rng.integers(0, 5))]
        if rng.random() < 0.05:
            l = (0.0, 1e-12, -3e-10)[int(rng.integers(0, 3))]
        yield x, l


def _same_class(got, want):
    assert (got.kind, got.epsilon) == (want.kind, want.epsilon)
    for a, b in ((got.first, want.first), (got.second, want.second)):
        assert (a is None and b is None) or _hex(a) == _hex(b)


def test_classifier_core_is_the_scalar_route_on_stacks():
    rng = np.random.default_rng(91)
    seen = {"type1": 0, "type2": 0, "not_periodic": 0, "small l": 0}
    for _ in range(30):
        samples = list(_classifier_inputs(rng, 40))
        got = sphere_fixed_classes(
            np.stack([x for x, _ in samples]), THETAS, [l for _, l in samples])
        assert len(got) == len(samples)
        for (x, l), cls in zip(samples, got):
            want = old_sphere_fixed_classifier(x, THETAS, l)
            _same_class(cls, want)
            _same_class(sphere_fixed_classifier(x, THETAS, l), want)
            seen[cls.kind] += 1
            seen["small l"] += abs(l) < 1e-9
    assert min(seen.values()) >= 20, seen


def _not_special_orthogonal(rng, x):
    bad = x.copy()
    which = int(rng.integers(0, 3))
    if which == 0:
        bad[int(rng.integers(0, 4)), int(rng.integers(0, 4))] = (math.nan, math.inf)[int(rng.integers(0, 2))]
    elif which == 1:
        bad *= 1.0 + 1e-6
    else:
        bad[:, 0] = -bad[:, 0]
    return bad


def test_classifier_core_raises_the_first_refusal():
    # A stack with elements that are not in SO(4) raises the error the
    # per-sample loop raises first.
    rng = np.random.default_rng(93)
    messages = set()
    for _ in range(60):
        samples = list(_classifier_inputs(rng, 12))
        for k in rng.choice(12, size=int(rng.integers(1, 4)), replace=False).tolist():
            samples[k] = (_not_special_orthogonal(rng, samples[k][0]), samples[k][1])
        want = None
        for x, l in samples:
            try:
                old_sphere_fixed_classifier(x, THETAS, l)
            except DomainError as exc:
                want = str(exc)
                break
        with pytest.raises(DomainError) as got:
            sphere_fixed_classes(np.stack([x for x, _ in samples]), THETAS, [l for _, l in samples])
        assert str(got.value) == want
        messages.add(want.split(" (")[0])
    assert len(messages) == 3, messages
    with pytest.raises(DomainError, match="4x4"):
        sphere_fixed_classes(np.eye(4), THETAS, [1.0])
