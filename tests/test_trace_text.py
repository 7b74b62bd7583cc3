"""The trace text written from the atom arrays: stdout against a dict per
atom and json.dumps on seeded trace calls, the formatter against json.dumps
on synthetic arrays, and the atom check with its refusals."""

import json
import math

import numpy as np
import pytest

import equizeta.cli as cli
from equizeta import (
    CircleModel,
    DomainError,
    EquizetaError,
    Sphere2Model,
    Sphere3Model,
    flat_trace_measure,
)
from equizeta.zeta import AtomicMeasure, _check_atoms, _trace_atoms

PI = math.pi
TWO_PI = 2.0 * math.pi

pytestmark = [
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
]


def dict_json_trace(args) -> int:
    """The trace verb as a dict per atom and json.dumps: the oracle of the
    text written from the atom arrays."""
    model, g = cli.build_model(args.model, cli.parse_params(args.params, args.config))
    if not math.isfinite(args.window):
        raise cli.ConfigError("window must be finite")
    try:
        measure = flat_trace_measure(model, g, args.window)
    except DomainError as exc:
        # The library refuses a coefficient that is not finite; the verb
        # refuses it where JSON cannot carry it.
        if not str(exc).startswith("the flat-trace coefficient at l = "):
            raise
        raise DomainError("the result is not a finite number; JSON cannot carry it") from exc
    payload = {
        "atoms": [
            {"l": l, "coeff_re": c.real, "coeff_im": c.imag} for l, c in measure.atoms
        ],
        "window": measure.window,
    }
    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise DomainError("the result is not a finite number; JSON cannot carry it") from exc
    cli._emit(text, args.output)
    return cli.EXIT_OK


def oracle_main(argv) -> int:
    try:
        return dict_json_trace(cli._parser().parse_args(argv))
    except (cli.ConfigError, EquizetaError) as exc:
        cli._report_error(exc)
        return cli._code_for(exc)


def window_text(rng, lo, hi) -> str:
    return repr(float(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def special_angle(rng) -> float:
    """An angle in pi*Z (where both families of the angle merge into one
    atom of weight -4 pi) or in 2*pi*Z, now and then."""
    return float(PI * rng.integers(-4, 5))


def circle_cases(rng, n):
    cases = []
    for k in range(n):
        r0 = 0.0 if k % 8 == 0 else float(rng.uniform(0.0, 1.0))
        alpha = complex(0.0, rng.uniform(-6.0, 6.0))
        if k % 5 == 1:
            alpha += float(rng.uniform(-0.5, 0.5))
        if k % 40 == 3:
            alpha = complex(800.0, alpha.imag)  # e^{800 l} overflows: refused
        params = f"r0={r0!r},alpha={alpha.real!r}{alpha.imag:+.17g}i"
        cases.append(["--model", "circle", "--params", params, "--window", window_text(rng, 0.1, 300.0)])
    return cases


def sphere2_cases(rng, n):
    cases = []
    for k in range(n):
        theta = special_angle(rng) if k % 4 == 0 else float(rng.uniform(-TWO_PI, 2 * TWO_PI))
        cases.append(["--model", "sphere2", "--params", f"theta={theta!r}",
                      "--window", window_text(rng, 0.5, 300.0)])
    return cases


def sphere3_cases(rng, n):
    cases = []
    for k in range(n):
        t1 = special_angle(rng) if k % 4 == 0 else float(rng.uniform(-TWO_PI, 2 * TWO_PI))
        t2 = special_angle(rng) if k % 6 == 1 else float(rng.uniform(-TWO_PI, 2 * TWO_PI))
        cases.append(["--model", "sphere3", "--params", f"theta1={t1!r},theta2={t2!r}",
                      "--window", window_text(rng, 0.5, 200.0)])
    return cases


def line_cases(rng, n, model="line"):
    cases = []
    for k in range(n):
        g = float(rng.integers(-5, 6)) if model == "lattice" else float(rng.uniform(-5.0, 5.0))
        alpha = complex(rng.uniform(-0.5, 0.5), rng.uniform(-6.0, 6.0))
        if k % 25 == 2:
            alpha = complex(400.0, 0.0)  # e^{400 |g|} past the floats: refused
        params = f"g={g!r},alpha={alpha.real!r}{alpha.imag:+.17g}i"
        cases.append(["--model", model, "--params", params, "--window", window_text(rng, 0.5, 20.0)])
    return cases


def euclid_cases(rng, n):
    cases = []
    for k in range(n):
        order = int(rng.choice([2, 3, 4, 6]))
        turns = 0 if k % 10 == 0 else int(rng.integers(1, order))  # theta = 0 fixes R^3: refused
        params = (
            f"n=3,a={float(rng.uniform(0.5, 2.0))!r},theta={TWO_PI * turns / order!r},"
            f"order={order},l0={int(rng.choice([-3, -2, -1, 1, 2, 3]))},m={int(rng.integers(1, 4))},"
            f"alpha_v0={float(rng.uniform(-0.3, 0.3))!r}{rng.uniform(-3.0, 3.0):+.17g}i"
        )
        cases.append(["--model", "euclid", "--params", params, "--window", window_text(rng, 0.5, 30.0)])
    return cases


# Windows with no atoms, integer window text and the files of --output.
SPECIAL = [
    ["--model", "circle", "--params", "r0=0.5,alpha=1i", "--window", "0.25"],
    ["--model", "line", "--params", "g=5,alpha=1i", "--window", "1"],
    ["--model", "lattice", "--params", "g=0,alpha=1i", "--window", "10"],
    ["--model", "sphere2", "--params", "theta=1", "--window", "0.5"],
    ["--model", "sphere2", "--params", "theta=0", "--window", "10"],
    ["--model", "circle", "--params", "r0=0.25,alpha=1i", "--window", "10"],
    ["--model", "sphere3", "--params", f"theta1={PI!r},theta2=1", "--window", "10"],
    ["--model", "circle", "--params", "r0=0,alpha=0", "--window", "600"],
    ["--model", "circle", "--params", "r0=0.25,alpha=800", "--window", "2"],
    ["--model", "circle", "--params", "r0=0.25,alpha=1i", "--window", "0"],
    ["--model", "circle", "--params", "r0=0.25,alpha=1i", "--window", "-3"],
]

# 1,060 seeded calls over the six models.
SEEDED = {
    "circle": lambda rng: circle_cases(rng, 320),
    "sphere2": lambda rng: sphere2_cases(rng, 220),
    "sphere3": lambda rng: sphere3_cases(rng, 220),
    "line": lambda rng: line_cases(rng, 100),
    "lattice": lambda rng: line_cases(rng, 100, "lattice"),
    "euclid": lambda rng: euclid_cases(rng, 100),
}


def outcomes(capsys, run, argv):
    code = run(["trace", *argv])
    return code, capsys.readouterr().out


def first_difference(got: str, want: str):
    """None for equal texts, else the first differing offset with a little
    context of each (a diff of whole traces would be long and slow)."""
    if got == want:
        return None
    i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return i, got[max(0, i - 40):i + 40], want[max(0, i - 40):i + 40]


class TestTraceBytes:
    @pytest.mark.parametrize("model", sorted(SEEDED))
    def test_seeded_stdout_and_exit_code(self, capsys, model):
        rng = np.random.default_rng(sum(map(ord, model)))
        codes, differing = set(), []
        for argv in SEEDED[model](rng):
            want_code, want = outcomes(capsys, oracle_main, argv)
            got_code, got = outcomes(capsys, cli.main, argv)
            difference = first_difference(got, want)
            if (got_code, difference) != (want_code, None):
                differing.append((argv, got_code, want_code, difference))
            codes.add(want_code)
        assert differing == []
        assert 0 in codes

    @pytest.mark.parametrize("argv", SPECIAL, ids=lambda a: " ".join(a[1::2]))
    def test_special_stdout_and_exit_code(self, capsys, argv):
        got_code, got = outcomes(capsys, cli.main, argv)
        want_code, want = outcomes(capsys, oracle_main, argv)
        assert (got_code, first_difference(got, want)) == (want_code, None)

    @pytest.mark.parametrize("argv", SPECIAL, ids=lambda a: " ".join(a[1::2]))
    def test_output_file(self, capsys, tmp_path, argv):
        ours, theirs = tmp_path / "ours.json", tmp_path / "theirs.json"
        got = outcomes(capsys, cli.main, [*argv, "--output", str(ours)])
        assert got == outcomes(capsys, oracle_main, [*argv, "--output", str(theirs)])
        assert ours.exists() == theirs.exists() == (got[0] == 0)
        if got[0] == 0:
            assert got[1] == ""
            assert first_difference(ours.read_bytes().decode(), theirs.read_bytes().decode()) is None

    def test_merged_pi_atoms(self, capsys):
        code, out = outcomes(capsys, cli.main, ["--model", "sphere2", "--params", f"theta={PI!r}",
                                                "--window", "4"])
        assert code == 0
        assert out == ('{"atoms": [{"l": -3.141592653589793, "coeff_re": -12.566370614359172, '
                       '"coeff_im": -0.0}, {"l": 3.141592653589793, "coeff_re": '
                       '-12.566370614359172, "coeff_im": -0.0}], "window": 4.0}\n')


def dumps(lengths, coeffs, window):
    return json.dumps({
        "atoms": [{"l": l, "coeff_re": c.real, "coeff_im": c.imag}
                  for l, c in zip(lengths.tolist(), coeffs.tolist())],
        "window": window,
    }, allow_nan=False)


def assert_formats(lengths, coeffs, window):
    assert first_difference(cli._trace_json(lengths, coeffs, window), dumps(lengths, coeffs, window)) is None


class TestFormatter:
    COLUMN = [0.0, -0.0, 5e-324, -5e-324, 1e-5, -1e-5, 1e16, 1e22, -1e22,
              123456789012345678.0, 0.1, -0.1, 0.1, 2.5, -2.5, 2.5, -TWO_PI, -TWO_PI]

    def test_edge_values(self):
        values = np.array(self.COLUMN)
        rolled = np.roll(values, 5)
        coeffs = rolled + 1j * values[::-1]
        assert_formats(values, coeffs, 30.0)
        assert_formats(values, np.conj(coeffs), 1e22)

    def test_signed_zeros(self):
        coeffs = np.array([complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)])
        lengths = np.array([-0.0, 0.0, -0.0])
        assert_formats(lengths, coeffs, 1.0)
        assert cli._trace_json(lengths, coeffs, 1.0).count("-0.0") == 6

    def test_zero_and_one_atom(self):
        empty = np.array([], dtype=float)
        assert cli._trace_json(empty, empty.astype(complex), 2.0) == '{"atoms": [], "window": 2.0}'
        one = np.array([-1.25])
        assert_formats(one, np.array([-TWO_PI - 0.0j]), 2.0)

    def test_across_blocks(self, monkeypatch):
        # Blocks of 7 atoms: each block formats its own distinct values.
        monkeypatch.setattr(cli, "_TRACE_BLOCK", 7)
        rng = np.random.default_rng(5)
        for n in (6, 7, 8, 21, 50):
            lengths = np.sort(rng.choice([-3.5, 0.1, 1e16, 5e-324, 2.0], n) * rng.integers(1, 4, n))
            coeffs = rng.choice([-TWO_PI, 1e-5, -0.0, 0.0], n) + 1j * rng.choice([-0.0, 0.3, -0.3], n)
            assert_formats(lengths, coeffs, 50.0)

    def test_random_values(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**63 - 2**52, 3000, dtype=np.int64)  # finite doubles of either sign
        values = (bits * rng.choice([1, -1], 3000)).view(np.float64)
        lengths, coeffs = values[:1000], values[1000:2000] + 1j * values[2000:]
        assert_formats(lengths, coeffs, 0.5)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_refused(self, bad, column):
        values = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        values[1][column] = bad
        lengths = np.array([v[0] for v in values])
        coeffs = np.array([complex(v[1], v[2]) for v in values])
        with pytest.raises(DomainError) as refused:
            cli._trace_json(lengths, coeffs, 10.0)
        assert str(refused.value) == "the result is not a finite number; JSON cannot carry it"
        with pytest.raises(ValueError):
            dumps(lengths, coeffs, 10.0)


class TestAtomCheck:
    OUTSIDE = "atom at {} outside window {}"
    ASCENDING = "atoms must be strictly ascending (no duplicates)"

    def refusal(self, lengths, window):
        atoms = tuple((l, 1.0 + 0j) for l in lengths)
        with pytest.raises(DomainError) as measure_refused:
            AtomicMeasure(atoms=atoms, window=window)
        with pytest.raises(DomainError) as check_refused:
            _check_atoms(np.array(lengths, dtype=float), window)
        assert str(check_refused.value) == str(measure_refused.value)
        return str(measure_refused.value)

    def test_messages(self):
        assert self.refusal([1.0, 2.5], 2.0) == self.OUTSIDE.format(2.5, 2.0)
        assert self.refusal([1.0, 1.0], 2.0) == self.ASCENDING
        assert self.refusal([1.0, 1.0 + 5e-13], 2.0) == self.ASCENDING

    def test_window_shown_as_given(self):
        assert self.refusal([-3.0], 2) == self.OUTSIDE.format(-3.0, 2)
        with pytest.raises(DomainError, match=r"^atom at 3 outside window 2$"):
            AtomicMeasure(atoms=((3, 1.0),), window=2)

    def test_first_failing_atom_reported(self):
        # Not ascending at the second atom, outside at the third.
        assert self.refusal([0.5, 0.5, 9.0], 2.0) == self.ASCENDING
        # Outside at the second atom, not ascending at the third.
        assert self.refusal([0.5, 7.0, 1.0, 1.0], 2.0) == self.OUTSIDE.format(7.0, 2.0)

    def test_outside_wins_over_ascending(self):
        # -5 is outside the window and below the atom before it.
        assert self.refusal([1.0, -5.0], 2.0) == self.OUTSIDE.format(-5.0, 2.0)

    def test_edge_of_window(self):
        AtomicMeasure(atoms=((-2.0 - 1e-13, 1.0), (2.0 + 1e-13, 1.0)), window=2.0)
        assert self.refusal([2.0 + 1e-11], 2.0) == self.OUTSIDE.format(2.0 + 1e-11, 2.0)

    def test_nan_passes(self):
        # No comparison with a NaN length fails, as in a loop over the atoms.
        AtomicMeasure(atoms=((math.nan, 1.0), (1.0, 1.0)), window=2.0)
        AtomicMeasure(atoms=((1.0, 1.0), (math.nan, 1.0), (0.5, 1.0)), window=2.0)
        AtomicMeasure(atoms=((1.0, 1.0),), window=math.nan)
        _check_atoms(np.array([1.0, math.nan, 0.5]), 2.0)
        assert self.refusal([math.nan, 0.5, 0.5], 2.0) == self.ASCENDING

    def test_empty_and_valid(self):
        AtomicMeasure(atoms=(), window=1.0)
        m = AtomicMeasure(atoms=((-1.0, 2.0 + 0j), (0.5, -1j)), window=1.0)
        assert m.atoms == ((-1.0, 2.0 + 0j), (0.5, -1j))

    @pytest.mark.parametrize("model, g", [
        (CircleModel(alpha=0.7j), 0.3), (Sphere2Model(), PI), (Sphere3Model(), (PI, 1.0)),
    ])
    def test_measure_wraps_the_arrays(self, model, g):
        lengths, coeffs = _trace_atoms(model, g, 25.0)
        measure = flat_trace_measure(model, g, 25.0)
        assert measure.atoms == tuple(zip(lengths.tolist(), coeffs.tolist()))
        assert measure.window == 25.0

    def test_degenerate_sphere_refused(self):
        with pytest.raises(DomainError) as refused:
            flat_trace_measure(Sphere3Model(), (1.0, 1.0), 5.0)
        assert str(refused.value).startswith("model is degenerate at this element: ")
        with pytest.raises(DomainError) as arrays_refused:
            _trace_atoms(Sphere3Model(), (1.0, 1.0), 5.0)
        assert str(arrays_refused.value) == str(refused.value)

    def test_non_finite_trace_is_one_error_line(self, capsys):
        code, out = outcomes(capsys, cli.main, ["--model", "circle", "--params", "r0=0.25,alpha=800",
                                                "--window", "2"])
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out) == {
            "error": "DomainError", "code": 1,
            "message": "the result is not a finite number; JSON cannot carry it",
        }
