"""The direct route: the array sum against the term-by-term loop, one orbit
build per sweep, sweep rows against single evaluations, and the flat trace's
nondegeneracy gate."""

import cmath
import json
import math

import numpy as np
import pytest

import equizeta.models as models
import equizeta.zeta as zeta
from equizeta import (
    CircleModel,
    DomainError,
    EquizetaError,
    EuclideanElement,
    EuclideanLatticeModel,
    IntegerLatticeModel,
    LineModel,
    ModelDiagnostics,
    NonConvergentError,
    Sphere2Model,
    Sphere3Model,
    ZetaEvaluation,
    flat_trace_measure,
    ruelle_log_direct,
)
from equizeta.cli import CSV_HEADER, main
from equizeta.rotations import block_rotation, unit_eigenvalue_multiplicity

TWO_PI = 2.0 * math.pi
PI = math.pi


def loop_direct(model, g, sigma, tol=1e-12, window=None) -> ZetaEvaluation:
    """ruelle_log_direct with the terms summed one at a time in a Python loop,
    one cmath.exp each: the oracle of the array sum."""
    zeta._tolerance(tol)
    sigma = complex(sigma)
    if not cmath.isfinite(sigma):
        raise DomainError("sigma must be finite")
    try:
        if model.infinite_spectrum and sigma.real <= 0:
            raise DomainError("direct evaluation needs Re(sigma) > 0 for this model")
        w = zeta._direct_window(model, sigma, tol) if window is None else window
        if not w > 0:
            raise DomainError("window must be positive")
        tail = model.tail_bound(g, sigma, w)
        if not math.isfinite(tail):
            raise DomainError(f"the orbit sum does not converge absolutely at sigma = {sigma}")
        lengths, weights = model.orbit_data(g, w)
        total = 0.0 + 0j
        for l, weight in zip(lengths.tolist(), weights.tolist()):
            total += weight * (cmath.exp(-sigma * abs(l)) / abs(l))
        ev = ZetaEvaluation(
            sigma, 0.5 * total, "direct", 0.5 * tail + 1e-15 * max(1.0, abs(total)), len(lengths)
        )
        finite = cmath.isfinite(ev.log_R)
    except OverflowError:
        finite = False
    if not finite:
        raise DomainError(f"log R at sigma = {sigma} overflows a float")
    if window is None and ev.est_error > tol * max(1.0, abs(ev.log_R)):
        raise NonConvergentError(
            f"the direct sum at sigma = {ev.sigma} has est_error {ev.est_error:.3e}, "
            f"above tol {tol:g}"
        )
    return ev


def outcome(evaluate, *args, **kwargs):
    """The bits of an evaluation (float.hex), or its error's type and text."""
    try:
        ev = evaluate(*args, **kwargs)
    except EquizetaError as exc:
        return type(exc).__name__, str(exc)
    return ev.log_R.real.hex(), ev.log_R.imag.hex(), ev.est_error.hex(), ev.terms


def euclid(alpha_v0, a=1.0, order=3):
    return EuclideanLatticeModel.from_angle(3, a, TWO_PI / order, order, alpha_v0)


def seeded_grid():
    """(id, model, g, sigma, window) over every model, seeded."""
    rng = np.random.default_rng(27)
    uniform = lambda lo, hi: float(rng.uniform(lo, hi))
    cases = []

    def add(label, model, g, sigma, windows=(None,)):
        for window in windows:
            cases.append((f"{label}-{len(cases)}", model, g, sigma, window))

    for _ in range(12):
        sigma = complex(10 ** uniform(-1.4, 0.5), uniform(-5, 5) if rng.random() < 0.5 else 0.0)
        add("circle-imag", CircleModel(alpha=1j * uniform(-6, 6)), uniform(0, 1), sigma,
            (None, uniform(1, 60)))
        alpha = complex(uniform(-1.5, 1.5), uniform(-6, 6))
        add("circle-complex", CircleModel(alpha=alpha), uniform(0, 1),
            complex(abs(alpha.real) + 10 ** uniform(-1, 0.5), uniform(-3, 3)), (None, uniform(1, 60)))
        theta = [uniform(-8, 8), PI * int(rng.integers(-3, 4)), TWO_PI * int(rng.integers(-2, 3))]
        for t in theta:
            add("sphere2", Sphere2Model(), t, complex(10 ** uniform(-1, 0.5), uniform(-3, 3)),
                (None, uniform(1, 80)))
        for pair in [(uniform(-8, 8), uniform(-8, 8)), (PI, uniform(-8, 8)), (TWO_PI, uniform(-8, 8))]:
            add("sphere3", Sphere3Model(), pair, complex(10 ** uniform(-1, 0.5), uniform(-3, 3)),
                (None, uniform(1, 80)))
        sigma = complex(uniform(-3, 3), uniform(-3, 3))
        add("line", LineModel(alpha=complex(uniform(-1, 1), uniform(-6, 6))), uniform(-5, 5), sigma,
            (None, uniform(0.5, 6)))
        add("lattice", IntegerLatticeModel(alpha=complex(uniform(-1, 1), uniform(-6, 6))),
            int(rng.integers(-4, 5)) or 1, sigma, (None, uniform(0.5, 6)))
        add("euclid", euclid(complex(uniform(-1, 1), uniform(-6, 6)), a=uniform(0.3, 2)),
            EuclideanElement(l0=int(rng.choice([-2, -1, 1, 2]))), sigma, (None, uniform(0.5, 6)))
    # Re(alpha) > 0: the holonomy e^{1.5 l} overflows inside the window.
    add("overflow", CircleModel(alpha=1.5 + 1j), 0.3, 1.56 + 0j, (800.0, 400.0, None))
    # A finite spectrum at Re(sigma) < 0: exponents past the float range, and
    # past cmath.exp's scaled range.
    for sigma in (-708.5, -708.9, -709.5, -710.5, 1000.0):
        add("line-edge", LineModel(alpha=1j), 1.0, complex(sigma))
    return cases


GRID = seeded_grid()


class TestArraySum:
    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @pytest.mark.parametrize("label, model, g, sigma, window", GRID, ids=[c[0] for c in GRID])
    def test_bits_match_the_loop(self, label, model, g, sigma, window):
        want = outcome(loop_direct, model, g, sigma, window=window)
        assert outcome(ruelle_log_direct, model, g, sigma, window=window) == want

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_overflowed_holonomy_keeps_its_text(self):
        with pytest.raises(DomainError) as refused:
            ruelle_log_direct(CircleModel(alpha=1.5 + 1j), 0.3, 1.56, window=800)
        assert str(refused.value) == "log R at sigma = (1.56+0j) overflows a float"

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_grid_reaches_every_outcome(self):
        # The grid covers sums that return, miss tol and overflow.
        kinds = {outcome(loop_direct, m, g, s, window=w)[0] for _, m, g, s, w in GRID}
        assert {"DomainError", "NonConvergentError"} <= kinds
        assert len(kinds) > 2

    def test_pairing_is_minus_twice_log_r(self):
        model, sigma = Sphere2Model(), 0.3 + 0.7j
        measure = flat_trace_measure(model, PI, 40.0)
        paired = zeta.pair_with_test_function(
            measure, lambda t: cmath.exp(-sigma * abs(t)) / abs(t))
        assert paired == -2.0 * ruelle_log_direct(model, PI, sigma, window=40.0).log_R


class TestOneBuild:
    """A direct sweep builds the orbits once, at its largest window."""

    @pytest.mark.parametrize("model, g, window", [
        (CircleModel(alpha=0.3 + 2j), 0.25, 60.0),
        (Sphere2Model(), PI, 80.0),  # the merge path: two orbits per length
        (Sphere2Model(), 1.0, 80.0),
        (Sphere3Model(), (1.0, 1.0 + TWO_PI), 60.0),  # degenerate: shared values merge
        (Sphere3Model(), (PI, math.sqrt(2.0)), 60.0),
        (LineModel(alpha=1j), 2.0, 5.0),
    ])
    def test_a_cut_is_the_build_at_its_window(self, model, g, window):
        table = model._orbit_table(g, window)
        for w in (window, window / 3.0, 2.0 * PI, 2.0 * PI + 1e-11, 1.0, 0.3):
            lengths, weights = model._window_cut(table, w)
            want_lengths, want_weights = model.orbit_data(g, w)
            assert lengths.tobytes() == want_lengths.tobytes()
            assert weights.tobytes() == want_weights.tobytes()

    def builds(self, monkeypatch, run):
        windows = []
        orbits = models.FlowModel.orbits

        def counted(self, g, window):
            windows.append(window)
            return orbits(self, g, window)

        monkeypatch.setattr(models.FlowModel, "orbits", counted)
        run()
        return windows

    def test_one_build_per_sweep(self, monkeypatch):
        model, sigmas = CircleModel(alpha=1j), [0.4, 0.2, 0.1, 0.3]
        evs = []
        windows = self.builds(monkeypatch, lambda: evs.extend(
            zeta._direct_evaluations(model, 0.25, sigmas, 1e-12)))
        assert windows == [50.0 / 0.1 + models._FAMILY_TOL]
        assert [outcome(lambda ev=ev: ev) for ev in evs] == [
            outcome(loop_direct, model, 0.25, s) for s in sigmas]

    def test_refused_sigma_after_the_rows(self, monkeypatch):
        # Re(sigma) <= 0 at the third sigma: the build takes the first two,
        # their rows come first, then the refusal.
        model, sigmas = CircleModel(alpha=1j), [0.4, 0.2, -0.1, 0.01]
        evs = []

        def run():
            with pytest.raises(DomainError, match="needs Re"):
                for ev in zeta._direct_evaluations(model, 0.25, sigmas, 1e-12):
                    evs.append(ev)

        assert self.builds(monkeypatch, run) == [50.0 / 0.2 + models._FAMILY_TOL]
        assert [ev.sigma for ev in evs] == [0.4, 0.2]

    def test_first_sigma_refused_builds_nothing(self, monkeypatch):
        run = lambda: pytest.raises(DomainError, ruelle_log_direct, CircleModel(), 0.25, -1.0)
        assert self.builds(monkeypatch, run) == []


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def sigma_flag(re_text: str, im_text: str) -> str:
    """The --sigma value of a CSV row's sigma_re, sigma_im (exact reprs)."""
    return f"{re_text}{'' if im_text.startswith('-') else '+'}{im_text}i"


def sweep_sigma(start: complex, end: complex, steps: int, k: int) -> complex:
    return start + (end - start) * (k / (steps - 1))


def assert_rows_are_evaluations(capsys, model, params, start, end, steps, *extra):
    """Every row of a direct sweep is the CSV row of an eval at its sigma, and
    a failing sweep ends in the error line and exit code of an eval at the
    sigma that failed.  Returns (exit code, number of rows, last line)."""
    code, out = run_cli(
        capsys, "sweep", "--model", model, "--params", params, "--sigma-start", repr(start),
        "--sigma-end", repr(end), "--steps", str(steps), "--method", "direct", *extra)
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    rows = lines[1:] if code == 0 else lines[1:-1]
    for row in rows:
        re_text, im_text = row.split(",")[:2]
        eval_code, eval_out = run_cli(
            capsys, "eval", "--model", model, "--params", params,
            "--sigma", sigma_flag(re_text, im_text), "--method", "direct", "--format", "csv", *extra)
        assert eval_code == 0
        assert eval_out.splitlines()[1] == row
    if code != 0:
        sigma = sweep_sigma(complex(start), complex(end), steps, len(rows))
        eval_code, eval_out = run_cli(
            capsys, "eval", "--model", model, "--params", params,
            "--sigma", sigma_flag(repr(sigma.real), repr(sigma.imag)), "--method", "direct",
            "--format", "csv", *extra)
        assert (eval_code, eval_out.splitlines()) == (code, [lines[-1]])
    return code, len(rows), lines[-1]


class TestSweepRows:
    @pytest.mark.parametrize("model, params, start, end", [
        ("sphere3", "theta1=1,theta2=1.4142135623730951", 0.6, 0.1),
        ("sphere2", "theta=3.141592653589793", 0.9, 0.2),
        ("circle", "r0=0.3,alpha=2.5i", 0.12 + 1j, 0.04 - 0.5j),
        ("circle", "r0=0,alpha=0.4+1i", 2.0, 1.2),
        ("lattice", "g=3,alpha=0.2+1i", -2.0, 2.0),
        ("euclid", "n=3,a=1,theta=2.0943951,order=3,l0=2,alpha_v0=0.25i", 3.0, -1.0),
    ])
    def test_rows_of_passing_sweeps(self, capsys, model, params, start, end):
        assert assert_rows_are_evaluations(capsys, model, params, start, end, 5)[:2] == (0, 5)

    def test_re_sigma_crossing_zero(self, capsys):
        code, rows, last = assert_rows_are_evaluations(
            capsys, "circle", "r0=0.25,alpha=1i", 0.5, -0.5, 5)
        assert (code, rows) == (1, 2)
        assert "needs Re(sigma) > 0" in last

    def test_re_alpha_positive(self, capsys):
        # The direct certificate misses tol as sigma nears Re(alpha) = 1.
        code, rows, last = assert_rows_are_evaluations(
            capsys, "circle", "r0=0.3,alpha=1+1i", 2.0, 1.05, 4)
        assert code == 2 and rows >= 1
        assert "above tol 1e-12" in last

    def test_last_sigma_past_the_orbit_budget(self, capsys):
        code, rows, last = assert_rows_are_evaluations(
            capsys, "circle", "r0=0.25,alpha=1i", 0.002, 0.00002, 3)
        assert (code, rows) == (2, 2)
        assert "would exceed the term cap" in last

    def test_tol_flag(self, capsys):
        assert assert_rows_are_evaluations(
            capsys, "sphere2", "theta=1", 0.3, 0.05, 4, "--tol", "1e-6")[:2] == (0, 4)


class TestImaginaryPartPastTheFloats:
    """At sigma = 1 + 1e308i the exponent -sigma|l| has an infinite imaginary
    part: e^(-sigma|l|) has no value, and the direct route refuses sigma with
    one JSON error line (exit 1), not a traceback."""

    @staticmethod
    def error_line(sigma: complex) -> str:
        message = (f"e^(-sigma|l|) has no value at sigma = {sigma}: "
                   "the exponent's imaginary part overflows a float")
        return json.dumps({"error": "DomainError", "code": 1, "message": message})

    @pytest.mark.parametrize("model, params", [
        ("circle", "r0=0.25,alpha=1i"), ("sphere2", "theta=1"), ("line", "g=2,alpha=0.5i"),
    ])
    def test_eval(self, capsys, model, params):
        code, out = run_cli(capsys, "eval", "--model", model, "--params", params,
                            "--sigma", "1+1e308i", "--method", "direct")
        assert (code, out.splitlines()) == (1, [self.error_line(1 + 1e308j)])

    def test_sweep_prints_its_finished_rows(self, capsys):
        code, out = run_cli(capsys, "sweep", "--model", "circle", "--params", "r0=0.25,alpha=1i",
                            "--sigma-start", "1", "--sigma-end", "1+1e308i", "--steps", "3",
                            "--method", "direct")
        lines = out.splitlines()
        assert (code, len(lines)) == (1, 3)
        assert lines[1].startswith("1.0,0.0,")
        assert lines[2] == self.error_line(1 + 5e307j)
        code, rows, last = assert_rows_are_evaluations(
            capsys, "circle", "r0=0.25,alpha=1i", 1.0, 1 + 1e308j, 3)
        assert (code, rows, last) == (1, 1, lines[2])


def validate_oracle(model, g) -> ModelDiagnostics:
    """A sphere's diagnostics as validate made them before nondegeneracy was
    its own answer: one eigenvalue rule, then every proxy and collision."""
    angles = model.element(g)
    lam = np.linalg.eigvals(block_rotation(angles, model.dim))
    try:
        kdim, _ = unit_eigenvalue_multiplicity(np.outer(lam, lam)[np.triu_indices(model.dim, 1)])
    except DomainError as exc:
        kdim, witness = None, f"kernel classification failed: {exc}"
    else:
        witness = (f"dim ker(Ad(g^-1) - 1) = {kdim} on so({model.dim}), "
                   f"expected {len(angles)}{model._witness_note}")
    nondegenerate = kdim == len(angles)
    return ModelDiagnostics(
        nondegenerate=nondegenerate,
        witness=witness,
        alpha_in_lattice=True,
        continuation_available=False,
        laplacian_kernel_nonzero=True,
        spectrum_collisions=0 if nondegenerate else model._collisions(g),
        **model._angle_diagnostics(*angles),
    )


NEAR_ONE_OFFSETS = (0.0, 1e-12, 1e-9, 5e-9, 2e-8, 5e-7, 2e-6, 1e-3)


def sphere_elements():
    rng = np.random.default_rng(7)
    out = [(Sphere2Model(), t) for t in (0.0, 1e-7, PI, TWO_PI, -3 * PI, 1.0)]
    out += [(Sphere2Model(), float(t)) for t in rng.uniform(-10, 10, 8)]
    out += [(Sphere3Model(), pair) for pair in (
        (1.0, 1.0), (1.0, -1.0), (0.0, 0.0), (1.0, 1.00000001), (PI, 1.0), (0.0, math.sqrt(2.0)),
        (1.0, 1.0 + TWO_PI))]
    out += [(Sphere3Model(), tuple(float(t) for t in rng.uniform(-10, 10, 2))) for _ in range(8)]
    # Angles at seeded offsets from where an eigenvalue of Ad(g^-1) meets 1:
    # sphere2 near k pi, sphere3 with theta2 near +-theta1 + 2 pi k.  No offset
    # is 1e-8 or 1e-6, the rule's own edges, where rounding alone decides.
    rng = np.random.default_rng(39)
    for k in range(-3, 4):
        for offset in NEAR_ONE_OFFSETS:
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            out.append((Sphere2Model(), k * PI + sign * offset))
    out += [(Sphere2Model(), float(t)) for t in rng.uniform(-20, 20, 16)]
    for theta1 in rng.uniform(-10, 10, 4).tolist():
        for mirror in (1.0, -1.0):
            for k in (-1, 0, 1):
                for offset in NEAR_ONE_OFFSETS:
                    sign = 1.0 if rng.uniform() < 0.5 else -1.0
                    out.append((Sphere3Model(), (theta1, mirror * theta1 + TWO_PI * k + sign * offset)))
    return out


DEGENERATE_TEXT = [
    (Sphere2Model(), 0.0, "dim ker(Ad(g^-1) - 1) = 3 on so(3), expected 1"),
    (Sphere2Model(), 1e-7,
     "kernel classification failed: eigenvalue too close to 1 to classify reliably; refusing to coerce"),
    (Sphere2Model(), TWO_PI, "dim ker(Ad(g^-1) - 1) = 3 on so(3), expected 1"),
    (Sphere3Model(), (1.0, 1.0), "dim ker(Ad(g^-1) - 1) = 4 on so(4), expected 2 "
     "(the torus directions; one is quotiented by the isotropy)"),
    (Sphere3Model(), (0.0, 0.0), "dim ker(Ad(g^-1) - 1) = 6 on so(4), expected 2 "
     "(the torus directions; one is quotiented by the isotropy)"),
    (euclid(0j, order=1), EuclideanElement(l0=1),
     "dim ker(r^m - I) = 3; next eigenvalue gap 0.000e+00"),
]


class TestTraceGate:
    def counted(self, monkeypatch):
        calls = {"proxy": 0, "collisions": 0}
        proxy, collisions = models._rational_proxy, models._SphereModel._collisions

        def counted_proxy(*args):
            calls["proxy"] += 1
            return proxy(*args)

        def counted_collisions(*args):
            calls["collisions"] += 1
            return collisions(*args)

        monkeypatch.setattr(models, "_rational_proxy", counted_proxy)
        monkeypatch.setattr(models._SphereModel, "_collisions", counted_collisions)
        return calls

    @pytest.mark.parametrize("model, g", [
        (Sphere2Model(), 1.0), (Sphere2Model(), PI), (Sphere3Model(), (1.0, math.sqrt(2.0))),
        (Sphere3Model(), (PI, 2.5)),
    ])
    def test_trace_reads_only_nondegeneracy(self, monkeypatch, model, g):
        calls = self.counted(monkeypatch)
        assert flat_trace_measure(model, g, 30.0).atoms
        assert calls == {"proxy": 0, "collisions": 0}
        model.validate(g)
        assert calls["proxy"] > 0

    @pytest.mark.parametrize("model, g", sphere_elements())
    def test_validate_unchanged(self, model, g):
        diag = model.validate(g)
        assert diag == validate_oracle(model, g)
        assert model.nondegeneracy(g) == (diag.nondegenerate, diag.witness)

    @pytest.mark.parametrize("model, g, witness", DEGENERATE_TEXT)
    def test_degenerate_text(self, model, g, witness):
        with pytest.raises(DomainError) as refused:
            flat_trace_measure(model, g, 4.0)
        assert str(refused.value) == f"model is degenerate at this element: {witness}"

    def test_base_answer_is_validate(self):
        for model, g in [(CircleModel(alpha=1j), 0.25), (LineModel(), 1.0), (euclid(1j), 1)]:
            diag = model.validate(g)
            assert model.nondegeneracy(g) == (diag.nondegenerate, diag.witness)
