"""CLI contract tests: verbs, formats, exit codes, determinism."""

import cmath
import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest

import oracle
from equizeta.cli import CSV_HEADER, main, parse_complex
from equizeta.errors import DomainError
from equizeta.selftest import run_selftest


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strict_json(line):
    """json.loads that refuses the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(line, parse_constant=refuse)


EUCLID = "n=3,a=1,theta=2.0943951,order=3,l0=2,alpha_v0=0.25i"


class TestParseComplex:
    def test_forms(self):
        assert parse_complex("1") == 1.0
        assert parse_complex("-2.5") == -2.5
        assert parse_complex("0+1i") == 1j
        assert parse_complex("1i") == 1j
        assert parse_complex("-0.5-2i") == -0.5 - 2j
        assert parse_complex("3.14159i") == 3.14159j
        assert parse_complex("(1+2I)") == 1 + 2j
        assert parse_complex("i") == 1j

    def test_rejects_garbage(self):
        from equizeta.cli import ConfigError

        with pytest.raises(ConfigError):
            parse_complex("two plus i")


class TestEval:
    def test_line_json(self, capsys):
        code, out = run_cli(
            capsys,
            "eval", "--model", "line", "--params", "g=2,alpha=0+1i",
            "--sigma", "1", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)
        want = cmath.exp(2j - 2.0) / 4.0
        assert abs(row["logR_re"] - want.real) < 1e-12
        assert abs(row["logR_im"] - want.imag) < 1e-12
        assert row["method"] == "closed"
        assert abs(row["R_modulus"] - math.exp(row["logR_re"])) < 1e-12
        assert "est_error" in row and row["est_error"] >= 0

    @pytest.mark.parametrize("theta", ["2.0943951", "2.0943951023931953"])
    def test_euclid_value(self, capsys, theta):
        code, out = run_cli(
            capsys,
            "eval", "--model", "euclid",
            "--params", f"n=3,a=1,theta={theta},order=3,l0=1,alpha_v0=0",
            "--sigma", "0",
        )
        assert code == 0
        assert abs(json.loads(out)["logR_re"] - 1.0 / 3.0) < 1e-12

    @pytest.mark.parametrize("method", ["closed", "auto"])
    def test_sphere_singular_point(self, capsys, method):
        code, out = run_cli(
            capsys,
            "eval", "--model", "sphere2", "--params", "theta=1",
            "--sigma", "0", "--method", method,
        )
        assert code == 3
        err = json.loads(out)
        assert err["code"] == 3
        assert err["error"] == "SingularPointError"
        assert err["message"] == "sigma = 0j is a singular point of the continuation"

    def test_sphere_continues_past_zero(self, capsys):
        argv = ["eval", "--model", "sphere2", "--params", "theta=2.5", "--sigma=-0.3+0.2i"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert strict_json(out)["method"] == "continuation"

    def test_invalid_tol(self, capsys):
        code, out = run_cli(
            capsys,
            "eval", "--model", "line", "--params", "g=2", "--sigma", "1",
            "--tol", "1",
        )
        assert code == 1
        assert json.loads(out)["code"] == 1

    def test_unknown_model(self, capsys):
        code, out = run_cli(capsys, "eval", "--model", "torus", "--params", "g=1", "--sigma", "1")
        assert code == 1
        # The model is checked before its keys.
        assert json.loads(out)["message"].startswith("unknown model 'torus'")

    @pytest.mark.parametrize("argv, key, keys", [
        ("eval --model circle --params r0=0.25,alhpa=1i --sigma 1", "'alhpa'", "r0, alpha"),
        ("fried --model euclid --params n=3,a=1,theta=2.0943951,order=3,l0=1,alpha=1i",
         "'alpha'", "n, a, theta, order, l0, m, alpha_v0"),
        ("eval --model line --params g=2,r0=0.25,x=1 --sigma 1", "'r0', 'x'", "g, alpha"),
    ])
    def test_unknown_parameter_refused(self, capsys, argv, key, keys):
        code, out = run_cli(capsys, *argv.split())
        assert code == 1
        (line,) = out.splitlines()
        model = argv.split()[2]
        assert strict_json(line)["message"] == f"model {model!r} takes no parameter {key}; its keys are {keys}"

    def test_nonconvergent_exit_code(self, capsys):
        # Re(sigma) so small that the direct window breaches the term cap.
        code, out = run_cli(
            capsys,
            "eval", "--model", "circle", "--params", "r0=0.25,alpha=1i",
            "--sigma", "1e-9", "--method", "direct",
        )
        assert code == 2
        assert json.loads(out)["error"] == "NonConvergentError"

    def test_divergent_direct_sum_exit_code(self, capsys):
        # Re(alpha) = 1 >= Re(sigma) = 0.9: no finite tail bound, no result.
        code, out = run_cli(
            capsys,
            "eval", "--model", "circle", "--params", "r0=0.3,alpha=1+1i",
            "--sigma=0.9", "--method", "direct",
        )
        assert code == 1
        assert json.loads(out)["error"] == "DomainError"

    def test_divergent_sum_past_the_float_range(self, capsys):
        # e^{|Re alpha| - Re sigma} = e^{999} is past the float range; the
        # exponents are compared before any exp, so this is divergence.
        code, out = run_cli(
            capsys,
            "eval", "--model", "circle", "--params", "r0=0.3,alpha=1000",
            "--sigma", "1", "--method", "direct",
        )
        assert code == 1
        assert strict_json(out)["message"] == (
            "the orbit sum does not converge absolutely at sigma = (1+0j)")

    def test_missing_param(self, capsys):
        code, out = run_cli(capsys, "eval", "--model", "line", "--sigma", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            "trace --model sphere2 --params theta=inf --window 5",
            "eval --model sphere2 --params theta=nan --sigma 1",
            "trace --model circle --params r0=0.2,alpha=1i --window inf",
            "trace --model circle --params r0=0.2,alpha=1i --window nan",
            "eval --model sphere3 --params theta1=1,theta2=inf --sigma 1 --method direct",
            "eval --model line --params g=inf,alpha=1i --sigma 1",
            "eval --model line --params g=2,alpha=1e400i --sigma 1",
            "trace --model line --params g=2 --window inf",
            "eval --model circle --params r0=0.25,alpha=1i --sigma nan",
            "eval --model line --params g=2,alpha=inf --sigma 1",
            "eval --model line --params g=2,alpha=infi --sigma 1",
            "eval --model line --params g=2 --sigma inf",
        ],
    )
    def test_non_finite_input_refused(self, capsys, argv):
        code, out = run_cli(capsys, *argv.split())
        assert code == 1
        assert len(out.splitlines()) == 1
        assert json.loads(out)["code"] == 1
        assert "must be finite" in json.loads(out)["message"]

    @pytest.mark.parametrize("verb", [
        "eval --model line --params g=2,alpha=1i --sigma 1",
        "sweep --model line --params g=2,alpha=1i --sigma-start 1 --sigma-end 2 --steps 2",
        "fried --model line --params g=2,alpha=1i",
        "trace --model line --params g=2 --window 5",
    ])
    def test_seed_only_on_selftest(self, capsys, verb):
        # Only selftest samples inputs; the other verbs take no --seed.
        code, out = run_cli(capsys, *verb.split(), "--seed", "7")
        assert code == 1
        assert len(out.splitlines()) == 1
        assert "--seed" in json.loads(out)["message"]

    def test_env_tol_override(self, capsys, monkeypatch):
        monkeypatch.setenv("EQUIZETA_TOL", "5")
        code, out = run_cli(capsys, "eval", "--model", "line", "--params", "g=2", "--sigma", "1")
        assert code == 1
        monkeypatch.setenv("EQUIZETA_TOL", "1e-10")
        code, _ = run_cli(capsys, "eval", "--model", "line", "--params", "g=2", "--sigma", "1")
        assert code == 0

    def test_csv_and_plain_formats(self, capsys):
        code, out = run_cli(
            capsys,
            "eval", "--model", "line", "--params", "g=2", "--sigma", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == CSV_HEADER
        code, out = run_cli(
            capsys,
            "eval", "--model", "line", "--params", "g=2", "--sigma", "1",
            "--format", "plain",
        )
        assert code == 0
        assert "logR=" in out and "est_error=" in out

    @pytest.mark.parametrize("sigma", ["-1+2i", "-1i", "-1e-3", "-3", "-.5"])
    def test_negative_sigma_as_separate_token(self, capsys, sigma):
        argv = ["eval", "--model", "circle", "--params", "r0=0.25,alpha=0.5i"]
        code, out = run_cli(capsys, *argv, "--sigma", sigma)
        assert code == 0
        row = json.loads(out)
        assert complex(row["sigma_re"], row["sigma_im"]) == parse_complex(sigma)
        assert run_cli(capsys, *argv, f"--sigma={sigma}") == (code, out)

    def test_missing_sigma_value_still_rejected(self, capsys):
        code, out = run_cli(capsys, "eval", "--model", "line", "--params", "g=2", "--sigma")
        assert code == 1
        assert json.loads(out)["error"] == "ConfigError"

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("g=2\nalpha=0+1i\n")
        code, out = run_cli(
            capsys,
            "eval", "--model", "line", "--config", str(cfg), "--sigma", "1",
        )
        assert code == 0
        want = cmath.exp(2j - 2.0) / 4.0
        assert abs(json.loads(out)["logR_im"] - want.imag) < 1e-12

    def test_config_file_unknown_key_refused(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("r0=0.25\nalpha_v0=1i\n")
        code, out = run_cli(capsys, "eval", "--model", "circle", "--config", str(cfg), "--sigma", "1")
        assert code == 1
        (line,) = out.splitlines()
        assert strict_json(line) == {
            "error": "ConfigError", "code": 1,
            "message": "model 'circle' takes no parameter 'alpha_v0'; its keys are r0, alpha"}

    @pytest.mark.parametrize("model, params, name, value", [
        ("euclid", "n=3,a=1,theta=2.0943951,order=3,l0=2,m=1.5", "m", "1.5"),
        ("euclid", "n=3,a=1,theta=2.0943951,order=3.5,l0=2", "order", "3.5"),
        ("euclid", "n=3.7,a=1,theta=2.0943951,order=3,l0=2", "n", "3.7"),
        ("euclid", "n=3,a=1,theta=2.0943951,order=3,l0=2.5", "l0", "2.5"),
        ("lattice", "g=2.5", "lattice group element", "2.5"),
    ])
    def test_non_integer_parameter_refused(self, capsys, model, params, name, value):
        # An integer input is refused with the model's message, never truncated.
        code, out = run_cli(capsys, "eval", "--model", model, "--params", params, "--sigma", "0.3")
        assert code == 1
        assert len(out.splitlines()) == 1
        assert json.loads(out)["message"] == f"{name} must be an integer, got {value}"

    @pytest.mark.parametrize("n", ["5", "20001"])
    def test_euclid_other_dimensions_refused(self, capsys, n):
        # n = 20001 used to build a 20001 x 20001 rotation and die in numpy.
        params = f"n={n},a=1,theta=2.0943951,order=3,l0=1"
        code, out = run_cli(capsys, "eval", "--model", "euclid", "--params", params, "--sigma", "1")
        assert code == 1
        assert len(out.splitlines()) == 1
        assert strict_json(out)["message"] == f"the Euclidean model is built for n = 3 only, got n = {n}"

    def test_modulus_past_the_largest_float(self, capsys):
        # log R = 6276.9 is finite; |R| = e^{6276.9} is not a float.
        argv = ["eval", "--model", "sphere2", "--params", "theta=1e-3", "--sigma", "1"]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        row = strict_json(out)
        assert row["R_modulus"] is None
        assert 6276 < row["logR_re"] < 6278
        code, out = run_cli(capsys, *argv, "--format", "plain")
        assert code == 0
        assert " |R|=inf " in out

    @pytest.mark.parametrize("argv", [
        "eval --model line --params g=2 --sigma=-400",
        "eval --model line --params g=2 --sigma=-400 --method direct",
        f"eval --model euclid --params {EUCLID} --sigma=-400",
        f"eval --model euclid --params {EUCLID} --sigma=-400 --method direct",
        "eval --model line --params g=2,alpha=400 --sigma 1",
    ])
    def test_overflowing_log_r_is_a_domain_error(self, capsys, argv):
        code, out = run_cli(capsys, *argv.split())
        assert code == 1
        assert len(out.splitlines()) == 1
        assert strict_json(out)["error"] == "DomainError"
        assert "overflows a float" in strict_json(out)["message"]

    def test_identity_class_past_the_exp_range(self, capsys):
        # e^{800 +- i} overflows a float, log R = -(1/2) sum log(1 - e^{800 +- i}) does not.
        code, out = run_cli(
            capsys, "eval", "--model", "circle", "--params", "r0=0,alpha=1i", "--sigma=-800")
        assert code == 0
        row = strict_json(out)
        assert row["method"] == "closed" and row["R_modulus"] == 0.0
        with mpmath.workdps(40):
            ref = -sum(mpmath.log(1 - mpmath.exp(800 + s * 1j)) for s in (1, -1)) / 2
            err = abs(mpmath.mpc(row["logR_re"], row["logR_im"]) - ref)
        assert err <= row["est_error"] < 1e-11

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    @pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
    def test_non_finite_direct_sum_is_a_domain_error(self, capsys, fmt):
        # The holonomy e^{800} overflows; no format may print nan.
        params = "n=3,a=1,theta=2.0943951,order=3,l0=2,alpha_v0=400"
        code, out = run_cli(
            capsys, "eval", "--model", "euclid", "--params", params, "--sigma", "1",
            "--method", "direct", "--format", fmt,
        )
        assert code == 1
        assert len(out.splitlines()) == 1
        assert strict_json(out)["message"] == "log R at sigma = (1+0j) overflows a float"

    def test_direct_sum_that_misses_tol_exits_2(self, capsys):
        # The window the sum picks leaves est_error 0.0398 against tol 1e-12.
        code, out = run_cli(
            capsys, "eval", "--model", "circle", "--params", "r0=0.3,alpha=1+1i",
            "--sigma=1.05", "--method", "direct",
        )
        assert code == 2
        assert len(out.splitlines()) == 1
        assert strict_json(out)["error"] == "NonConvergentError"
        assert "above tol 1e-12" in strict_json(out)["message"]


class TestSweep:
    def test_sphere_monotone(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--model", "sphere2", "--params", "theta=1",
            "--sigma-start", "0.2", "--sigma-end", "2", "--steps", "10",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11
        vals = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_circle_half_matches_closed_form(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--model", "circle",
            "--params", "r0=0.5,alpha=" + repr(math.pi) + "i",
            "--sigma-start", "0.5", "--sigma-end", "2", "--steps", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert len(lines) == 4
        for line in lines:
            parts = line.split(",")
            sigma, log_re = float(parts[0]), float(parts[2])
            # at alpha = i*pi the paired half-integer atoms cancel exactly
            series = 2.0 * sum(
                math.cos(math.pi * (n + 0.5)) * math.exp(-(n + 0.5) * sigma) / (n + 0.5)
                for n in range(200)
            )
            assert abs(log_re - 0.5 * series) < 1e-12

    def test_negative_complex_range_as_separate_tokens(self, capsys):
        argv = ["sweep", "--model", "line", "--params", "g=2,alpha=1i", "--steps", "3"]
        code, out = run_cli(capsys, *argv, "--sigma-start", "-0.5-2i", "--sigma-end", "-1e-3")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3 and rows[0].startswith("-0.5,-2.0,")
        same = run_cli(capsys, *argv, "--sigma-start=-0.5-2i", "--sigma-end=-1e-3")
        assert same == (code, out)

    def test_trivial_element_rows(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--model", "line", "--params", "g=0,alpha=1i",
            "--sigma-start", "1", "--sigma-end", "2", "--steps", "3",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_bad_range(self, capsys):
        code, _ = run_cli(
            capsys,
            "sweep", "--model", "line", "--params", "g=1",
            "--sigma-start", "1", "--sigma-end", "1", "--steps", "5",
        )
        assert code == 1
        code, _ = run_cli(
            capsys,
            "sweep", "--model", "line", "--params", "g=1",
            "--sigma-start", "1", "--sigma-end", "2", "--steps", "1",
        )
        assert code == 1

    def test_steps_capped(self, capsys):
        argv = ["sweep", "--model", "line", "--params", "g=1", "--sigma-start", "1", "--sigma-end", "2"]
        code, out = run_cli(capsys, *argv, "--steps", "10001")
        assert code == 1
        assert len(out.splitlines()) == 1
        assert strict_json(out)["message"] == "sweep needs steps <= 10000"
        code, out = run_cli(capsys, *argv, "--steps", "10000")
        assert code == 0
        assert len(out.splitlines()) == 10001
        code, out = run_cli(capsys, *argv, "--steps", "1")
        assert strict_json(out)["message"] == "sweep needs steps >= 2"

    def test_failing_row_aborts_with_partial_output(self, capsys):
        # the direct method hits Re(sigma) <= 0 as the range crosses zero
        code, out = run_cli(
            capsys,
            "sweep", "--model", "circle", "--params", "r0=0.25,alpha=0",
            "--sigma-start", "1", "--sigma-end", "-1", "--steps", "3",
            "--method", "direct",
        )
        assert code != 0
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) >= 2  # partial rows plus the error object
        assert "error" in lines[-1]

    def test_overflowing_row_ends_in_a_domain_error(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--model", "line", "--params", "g=2",
            "--sigma-start", "1", "--sigma-end=-1000", "--steps", "3",
        )
        assert code == 1
        lines = out.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3 and lines[1].startswith("1.0,0.0,")
        assert strict_json(lines[2])["error"] == "DomainError"


class TestFried:
    def test_overflowing_log_r_at_zero_is_a_domain_error(self, capsys):
        # e^{800} at sigma = 0 overflows a float.
        code, out = run_cli(capsys, "fried", "--model", "line", "--params", "g=2,alpha=400")
        assert code == 1
        assert len(out.splitlines()) == 1
        assert strict_json(out)["message"] == "log R at sigma = 0j overflows a float"

    def test_alpha_near_the_lattice_is_a_report(self, capsys):
        # alpha 1e-11 from 2*pi*i*Z: validate and the evaluation agree, so the
        # verb reports not applicable instead of printing an error object.
        code, out = run_cli(capsys, "fried", "--model", "circle", "--params", "r0=0.25,alpha=1e-11i")
        assert code == 3
        rep = strict_json(out)
        assert rep["applicable"] is False and "error" not in rep

    def test_line_ok(self, capsys):
        code, out = run_cli(capsys, "fried", "--model", "line", "--params", "g=2,alpha=1i")
        assert code == 0
        rep = json.loads(out)
        assert rep["applicable"] is True
        assert rep["residual_abs"] == 0.0

    def test_circle_two_route_ok(self, capsys):
        code, out = run_cli(
            capsys,
            "fried", "--model", "circle",
            "--params", "r0=0.3333333333333333,alpha=1i", "--tol", "1e-8",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["residual_abs"] < 1e-8

    def test_sphere3_not_applicable(self, capsys):
        code, out = run_cli(
            capsys,
            "fried", "--model", "sphere3",
            "--params", "theta1=1,theta2=" + repr(math.sqrt(2.0)),
        )
        assert code == 3
        assert json.loads(out)["applicable"] is False

    def test_non_unitary_circle_class(self, capsys):
        # A non-unitary class has no torsion value: exit 1 with the error
        # object, as on the line, not a traceback.
        code, out = run_cli(capsys, "fried", "--model", "circle", "--params", "r0=0.25,alpha=0.3+1i")
        assert code == 1
        assert json.loads(out) == {
            "error": "DomainError", "code": 1,
            "message": "torsion values require purely imaginary alpha",
        }

    def test_tiny_real_part_is_not_unitary(self, capsys):
        # The circle refuses a real part of 1e-13 with the line's message.
        code, out = run_cli(
            capsys, "fried", "--model", "circle", "--params", "r0=0.25,alpha=1e-13+1i"
        )
        assert code == 1
        assert json.loads(out) == {
            "error": "DomainError", "code": 1,
            "message": "torsion values require purely imaginary alpha",
        }

    def test_violation_exit_code(self, capsys):
        # an absurdly tight tolerance turns the tiny two-route residual into
        # a reported violation: exit 4, not an error object
        code, out = run_cli(
            capsys,
            "fried", "--model", "circle",
            "--params", "r0=0.25,alpha=1i", "--tol", "1e-300",
        )
        assert code == 4
        assert json.loads(out)["applicable"] is True

    def test_certificate_must_meet_tol(self, capsys):
        # |residual| 4.4e-16 is below tol, but residual + est_error 4.1e-15 is not.
        code, out = run_cli(
            capsys,
            "fried", "--model", "circle", "--params", "r0=0.25,alpha=1i", "--tol", "1e-15",
        )
        assert code == 4
        rep = strict_json(out)
        assert rep["residual_abs"] < 1e-15 <= rep["residual_abs"] + rep["est_error"]

    def test_degenerate_element_not_applicable(self, capsys):
        # r = I: ker(r - I) is all of R^3, and trace refuses the element too.
        params = "n=3,a=1,theta=0,order=1,l0=1"
        code, out = run_cli(capsys, "fried", "--model", "euclid", "--params", params)
        assert code == 3
        rep = strict_json(out)
        assert rep["applicable"] is False
        assert rep["reason"].startswith("the flow is degenerate at this element: dim ker")
        code, out = run_cli(capsys, "trace", "--model", "euclid", "--params", params, "--window", "5")
        assert code == 1


class TestTrace:
    @pytest.mark.parametrize("model, params", [
        ("circle", "r0=0.25,alpha=1i"),
        ("sphere2", "theta=1"),
    ])
    @pytest.mark.parametrize("window", ["3e6", "1e300"])
    def test_window_past_the_orbit_budget_exits_2(self, capsys, monkeypatch, model, params, window):
        # Past the budget no orbit is built: 3e6 would be 6e6 circle atoms
        # (about 1 GB), and 1e300 no array at all.
        from equizeta.models import FlowModel

        def refuse(self, g, window):
            raise AssertionError("orbits built past the budget")

        for cls in FlowModel.__subclasses__():
            monkeypatch.setattr(cls, "orbits", refuse)
        code, out = run_cli(
            capsys, "trace", "--model", model, "--params", params, "--window", window
        )
        assert code == 2
        assert len(out.splitlines()) == 1
        assert strict_json(out)["message"] == f"window {float(window):.3g} would exceed the term cap"

    def test_line_atom(self, capsys):
        code, out = run_cli(
            capsys,
            "trace", "--model", "line", "--params", "g=2,alpha=0", "--window", "10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["window"] == 10.0
        assert payload["atoms"] == [{"l": 2.0, "coeff_re": -1.0, "coeff_im": -0.0}]

    def test_line_identity_empty(self, capsys):
        code, out = run_cli(
            capsys,
            "trace", "--model", "line", "--params", "g=0,alpha=0", "--window", "10",
        )
        assert code == 0
        assert json.loads(out)["atoms"] == []

    def test_circle_identity(self, capsys):
        code, out = run_cli(
            capsys,
            "trace", "--model", "circle", "--params", "r0=0,alpha=0",
            "--window", "2.5",
        )
        assert code == 0
        atoms = json.loads(out)["atoms"]
        assert [a["l"] for a in atoms] == [-2.0, -1.0, 1.0, 2.0]
        assert all(a["coeff_re"] == -1.0 for a in atoms)

    @pytest.mark.parametrize(
        "model, params",
        [
            ("sphere2", f"theta={1e-7!r}"),
            ("sphere2", f"theta={2 * math.pi + 3e-7!r}"),
            ("sphere3", f"theta1=1,theta2={1 + 1e-7!r}"),
        ],
    )
    def test_dead_band_sphere_refused(self, capsys, model, params):
        # An eigenvalue of Ad(g) between 1e-8 and 1e-6 from 1 is not classified.
        code, out = run_cli(capsys, "trace", "--model", model, "--params", params, "--window", "5")
        assert code == 1
        assert "kernel classification failed" in json.loads(out)["message"]

    def test_non_finite_atom_is_a_domain_error(self, capsys):
        # The holonomy e^{800} overflows to inf; JSON has no token for it.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(
                capsys, "trace", "--model", "line", "--params", "g=2,alpha=400", "--window", "5"
            )
        assert caught == []
        assert code == 1
        assert len(out.splitlines()) == 1
        assert strict_json(out)["error"] == "DomainError"

    @pytest.mark.parametrize("model, params", [
        ("circle", "r0=0.3,alpha=700+1i"),
        ("line", "g=2,alpha=400"),
    ])
    def test_overflowed_holonomy_leaves_stderr_empty(self, capfd, model, params):
        # A fresh interpreter, its stdout and stderr captured at the file
        # descriptors: the refusal is the one JSON line, and no numpy
        # RuntimeWarning about the overflowed exp comes before it.
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = (src, os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        argv = ["trace", "--model", model, "--params", params, "--window", "7"]
        code = subprocess.run([sys.executable, "-m", "equizeta.cli", *argv], env=env).returncode
        out, err = capfd.readouterr()
        assert (code, err) == (1, "")
        assert [strict_json(line) for line in out.splitlines()] == [{
            "error": "DomainError", "code": 1,
            "message": "the result is not a finite number; JSON cannot carry it",
        }]

    @pytest.mark.parametrize("verb", [
        "trace --model line --params g=2 --window 5",
        "selftest",
    ])
    def test_tol_only_where_read(self, capsys, verb):
        # Trace atoms and the selftest suites read no tolerance.
        code, out = run_cli(capsys, *verb.split(), "--tol", "1e-8")
        assert code == 1
        assert len(out.splitlines()) == 1
        assert "--tol" in json.loads(out)["message"]

    def test_env_tol_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("EQUIZETA_TOL", "5")
        code, out = run_cli(
            capsys, "trace", "--model", "line", "--params", "g=2", "--window", "5"
        )
        assert code == 0
        assert [a["l"] for a in json.loads(out)["atoms"]] == [2.0]


class TestSphereAngles:
    """Sphere angles far from the origin: reduced exactly up to 3.6e17, refused
    (exit 1, one JSON line, nothing on stderr) past it."""

    BIG = "8.372510751886634e+16"  # one 2*pi reduction leaves |beta| past 2*pi here

    @staticmethod
    def run_quiet(capsys, *argv):
        """run_cli, asserting that stderr stays empty and no warning is raised."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(list(argv))
        captured = capsys.readouterr()
        assert (captured.err, caught) == ("", [])
        return code, captured.out

    @staticmethod
    @functools.lru_cache
    def reference(*thetas):
        """sphere2 (or sphere3, its angles summed) log R at sigma = 1 by mpmath."""
        return sum(float(oracle.sphere2_oracle(float(t), 1.0, 40).real) for t in thetas)

    @pytest.mark.parametrize("model, params, thetas", [
        ("sphere2", f"theta={BIG}", (BIG,)),
        ("sphere2", "theta=3165921374885385.0", ("3165921374885385.0",)),
        ("sphere3", f"theta1={BIG},theta2=1", (BIG, 1.0)),
    ])
    def test_far_angles_meet_their_certificate(self, capsys, model, params, thetas):
        # At the first, log R read -643.64 with est_error 1.1e-12 (the oracle
        # gives +631.09); the second, |beta| > pi with r < 1, was right and stays so.
        code, out = self.run_quiet(
            capsys, "eval", "--model", model, "--params", params, "--sigma", "1")
        row = strict_json(out)
        assert code == 0 and row["logR_im"] == 0.0
        assert abs(row["logR_re"] - self.reference(*thetas)) <= row["est_error"]

    @pytest.mark.parametrize("argv, angle", [
        ("eval --model sphere2 --params theta=1e18 --sigma 1", "1e+18"),
        ("eval --model sphere2 --params theta=1e300 --sigma 1", "1e+300"),
        ("trace --model sphere2 --params theta=1e300 --window 5", "1e+300"),
        ("eval --model sphere3 --params theta1=1,theta2=-1e300 --sigma 1", "-1e+300"),
        ("trace --model sphere3 --params theta1=1e18,theta2=1 --window 5", "1e+18"),
    ])
    def test_angles_past_the_range_are_refused(self, capsys, argv, angle):
        code, out = self.run_quiet(capsys, *argv.split())
        assert code == 1 and len(out.splitlines()) == 1
        assert strict_json(out) == {
            "error": "DomainError", "code": 1,
            "message": f"angle {angle} is past the range of the 2*pi reduction, |angle| <= 3.6e+17",
        }

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 15: _SphereModel.families snaps a reduced angle with "
        "|beta| <= 1e-12 to 0, so theta = 5e-13 returns the theta = 0 value"))
    def test_angle_next_to_two_pi_z_is_not_snapped(self, capsys):
        code, out = self.run_quiet(
            capsys, "eval", "--model", "sphere2", "--params", "theta=5e-13", "--sigma", "1")
        row = strict_json(out)
        assert code == 0
        assert abs(row["logR_re"] - self.reference(5e-13)) <= row["est_error"]


class TestSelftestAndDeterminism:
    def test_selftest_passes(self, capsys):
        code, out = run_cli(capsys, "selftest", "--seed", "1")
        assert code == 0
        assert "suites passed" in out

    PARAMS = ["--model", "circle", "--params", "r0=0.25,alpha=1i"]

    @pytest.mark.parametrize("argv", [
        ["eval", *PARAMS, "--sigma", "0"],
        ["sweep", *PARAMS, "--sigma-start", "1", "--sigma-end", "2", "--steps", "3"],
        ["fried", *PARAMS],
        ["trace", *PARAMS, "--window", "3"],
        ["selftest", "--seed", "1"],
    ], ids=lambda argv: argv[0])
    def test_only_selftest_imports_the_suites(self, argv):
        # A fresh interpreter's -X importtime log names equizeta.selftest for
        # the selftest verb alone.
        src = str(Path(__file__).resolve().parent.parent / "src")
        paths = (src, os.environ.get("PYTHONPATH"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "equizeta.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout
        assert ("equizeta.selftest" in proc.stderr) == (argv[0] == "selftest")

    def test_output_determinism(self, capsys):
        argv = [
            "sweep", "--model", "circle", "--params", "r0=0.25,alpha=1i",
            "--sigma-start", "0.5", "--sigma-end", "2", "--steps", "6",
        ]
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2
        code, fried1 = run_cli(
            capsys, "fried", "--model", "circle", "--params", "r0=0.25,alpha=1i"
        )
        _, fried2 = run_cli(
            capsys, "fried", "--model", "circle", "--params", "r0=0.25,alpha=1i"
        )
        assert fried1 == fried2

    def test_reused_parser_carries_no_state(self, capsys, monkeypatch):
        # main parses with one parser per process; each call in this order
        # prints what it prints as the first call on a fresh parser.
        from equizeta import cli

        fried = ["fried", "--model", "circle", "--params", "r0=0.25,alpha=1i"]
        steps = [
            (["eval", "--model", "line", "--params", "g=2", "--sigma", "1", "--tol", "1"], None),
            (fried + ["--tol", "1e-6"], None),
            (fried, None),
            (fried, "1e-8"),
        ]

        def run(argv, env_tol):
            if env_tol is None:
                monkeypatch.delenv("EQUIZETA_TOL", raising=False)
            else:
                monkeypatch.setenv("EQUIZETA_TOL", env_tol)
            return run_cli(capsys, *argv)

        first = []
        for argv, env_tol in steps:
            cli._parser.cache_clear()
            first.append(run(argv, env_tol))
        cli._parser.cache_clear()
        in_order = [run(argv, env_tol) for argv, env_tol in steps]
        assert cli._parser.cache_info().misses == 1
        assert in_order == first
        assert [code for code, _ in in_order] == [1, 0, 0, 0]
        assert [json.loads(out)["tol"] for _, out in in_order[1:]] == [1e-6, 1e-12, 1e-8]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "row.json"
        code, out = run_cli(
            capsys,
            "eval", "--model", "line", "--params", "g=2", "--sigma", "1",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["method"] == "closed"

    @pytest.mark.parametrize("seed", [-1, 1.5, "1", None])
    def test_selftest_seed_refused(self, seed):
        with pytest.raises(DomainError, match="seed must be a non-negative integer"):
            run_selftest(seed)

    @pytest.mark.parametrize("argv, error, message", [
        (["selftest", "--seed", "-1"], "DomainError", "seed must be a non-negative integer, got -1"),
        (["eval", *PARAMS, "--sigma", "1", "--output", "{tmp}/no-such-dir/x.json"],
         "ConfigError", "cannot write output file: [Errno 2] No such file or directory"),
        (["eval", *PARAMS, "--sigma", "1", "--output", "{tmp}"],
         "ConfigError", "cannot write output file: [Errno 21] Is a directory"),
    ], ids=["negative-seed", "missing-output-dir", "output-is-a-directory"])
    def test_refusal_is_one_json_line(self, capsys, tmp_path, argv, error, message):
        code = main([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        payload = strict_json(line)
        assert (code, payload["code"], payload["error"], captured.err) == (1, 1, error, "")
        assert payload["message"].startswith(message)
