"""Command-line front end.

Verbs: eval | sweep | fried | trace | selftest.  Model parameters arrive as
plain key=value pairs (comma-separated on the flag, or one per line via
--config); complex numbers use the a+bi syntax.  Exit codes:

    0  success
    1  invalid configuration or arguments
    2  a series or quadrature did not converge
    3  not applicable / singular point requested
    4  Fried comparison applicable but |residual| + est_error not below tol

Errors are emitted as a single-line JSON object so callers can parse them.
JSON output is strict: a non-finite number ends in that error object (exit 1).
Output is deterministic: identical arguments yield byte-identical JSON/CSV,
and selftest's --seed fixes the inputs its suites sample.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .errors import (
    DomainError,
    EquizetaError,
    NonConvergentError,
    NotApplicableError,
    SingularPointError,
)
from .models import model_from_params
from .models import parse_complex as _parse_complex_domain
from .selftest import run_selftest
from .zeta import (
    flat_trace_measure,
    fried_residual,
    ruelle_log_closed,
    ruelle_log_direct,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENT = 2
EXIT_NOT_APPLICABLE = 3
EXIT_FRIED_VIOLATION = 4

CSV_HEADER = "sigma_re,sigma_im,logR_re,logR_im,method,est_error,terms"

DEFAULT_TOL = 1e-12

# A sweep holds its rows until the end: this caps its time and memory.
MAX_SWEEP_STEPS = 10_000

_SIGMA_FLAGS = ("--sigma", "--sigma-start", "--sigma-end")


class ConfigError(Exception):
    """Invalid CLI configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the contract says 1
        raise ConfigError(message)


def parse_complex(text: str) -> complex:
    """Parse the a+bi flag syntax (also accepts plain reals and 'i')."""
    try:
        return _parse_complex_domain(text)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def parse_params(pairs_text: str | None, config_path: str | None) -> dict[str, str]:
    params: dict[str, str] = {}
    if config_path:
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config line is not key=value: {line!r}")
            key, value = line.split("=", 1)
            params[key.strip()] = value.strip()
    if pairs_text:
        for pair in pairs_text.split(","):
            if "=" not in pair:
                raise ConfigError(f"parameter is not key=value: {pair!r}")
            key, value = pair.split("=", 1)
            params[key.strip()] = value.strip()
    return params


def build_model(name: str, params: dict[str, str]):
    """Construct (model, group element); configuration faults map to exit 1."""
    try:
        return model_from_params(name, params)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _tol_from(args) -> float:
    raw = args.tol if args.tol is not None else os.environ.get("EQUIZETA_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"tolerance must be a real number, got {raw!r}") from exc
    if not (0.0 < tol <= 1e-2):
        raise ConfigError(f"tolerance must lie in (0, 1e-2], got {tol}")
    return tol


def _json(payload: dict) -> str:
    try:
        return json.dumps(payload, allow_nan=False)
    except ValueError as exc:
        raise DomainError("the result is not a finite number; JSON cannot carry it") from exc


def _emit(text: str, output: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _evaluate(model, g, sigma: complex, method: str, tol: float):
    if method == "direct":
        return ruelle_log_direct(model, g, sigma, tol=tol)
    return ruelle_log_closed(model, g, sigma)  # closed and auto: the closed form or continuation


def _modulus(ev) -> float:
    try:
        return math.exp(ev.log_R.real)
    except OverflowError:  # |R| past the largest float; log R itself is finite
        return math.inf


def _row_dict(ev) -> dict:
    return {
        "sigma_re": ev.sigma.real,
        "sigma_im": ev.sigma.imag,
        "logR_re": ev.log_R.real,
        "logR_im": ev.log_R.imag,
        "R_modulus": None if _modulus(ev) == math.inf else _modulus(ev),
        "method": ev.method,
        "est_error": ev.est_error,
        "terms": ev.terms,
    }


def _row_csv(ev) -> str:
    return ",".join(
        [
            repr(ev.sigma.real),
            repr(ev.sigma.imag),
            repr(ev.log_R.real),
            repr(ev.log_R.imag),
            ev.method,
            repr(ev.est_error),
            str(ev.terms),
        ]
    )


def cmd_eval(args) -> int:
    tol = _tol_from(args)
    model, g = build_model(args.model, parse_params(args.params, args.config))
    sigma = parse_complex(args.sigma)
    ev = _evaluate(model, g, sigma, args.method, tol)
    if args.format == "json":
        _emit(_json(_row_dict(ev)), args.output)
    elif args.format == "csv":
        _emit(CSV_HEADER + "\n" + _row_csv(ev), args.output)
    else:
        _emit(
            "sigma={} logR={}{}{}i |R|={} method={} est_error={} terms={}".format(
                repr(ev.sigma.real) if ev.sigma.imag == 0 else repr(ev.sigma),
                repr(ev.log_R.real),
                "+" if ev.log_R.imag >= 0 else "-",
                repr(abs(ev.log_R.imag)),
                repr(_modulus(ev)),
                ev.method,
                repr(ev.est_error),
                ev.terms,
            ),
            args.output,
        )
    return EXIT_OK


def cmd_sweep(args) -> int:
    tol = _tol_from(args)
    model, g = build_model(args.model, parse_params(args.params, args.config))
    start = parse_complex(args.sigma_start)
    end = parse_complex(args.sigma_end)
    if args.steps < 2:
        raise ConfigError("sweep needs steps >= 2")
    if args.steps > MAX_SWEEP_STEPS:
        raise ConfigError(f"sweep needs steps <= {MAX_SWEEP_STEPS}")
    if start == end:
        raise ConfigError("sweep needs sigma start != end")
    lines = [CSV_HEADER]
    for k in range(args.steps):
        sigma = start + (end - start) * (k / (args.steps - 1))
        try:
            ev = _evaluate(model, g, sigma, args.method, tol)
        except EquizetaError as exc:
            _emit("\n".join(lines), args.output)
            _report_error(exc)
            return _code_for(exc)
        lines.append(_row_csv(ev))
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_fried(args) -> int:
    tol = _tol_from(args)
    model, g = build_model(args.model, parse_params(args.params, args.config))
    report = fried_residual(model, g, tol)
    payload = {
        "applicable": report.applicable,
        "reason": report.reason,
        "log_R_at_0_re": None if report.log_R_at_0 is None else report.log_R_at_0.real,
        "log_R_at_0_im": None if report.log_R_at_0 is None else report.log_R_at_0.imag,
        "log_T_re": None if report.log_T is None else report.log_T.real,
        "log_T_im": None if report.log_T is None else report.log_T.imag,
        "residual_re": None if report.residual is None else report.residual.real,
        "residual_im": None if report.residual is None else report.residual.imag,
        "residual_abs": None if report.residual is None else abs(report.residual),
        "est_error": report.est_error,
        "tol": tol,
    }
    _emit(_json(payload), args.output)
    if not report.applicable:
        return EXIT_NOT_APPLICABLE
    if not report.holds:
        return EXIT_FRIED_VIOLATION
    return EXIT_OK


def cmd_trace(args) -> int:
    model, g = build_model(args.model, parse_params(args.params, args.config))
    if not math.isfinite(args.window):
        raise ConfigError("window must be finite")
    measure = flat_trace_measure(model, g, args.window)
    payload = {
        "atoms": [
            {"l": l, "coeff_re": c.real, "coeff_im": c.imag} for l, c in measure.atoms
        ],
        "window": measure.window,
    }
    _emit(_json(payload), args.output)
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sys.stdout.write(f"[{status}] {res.name} ({res.seconds:.3f}s): {res.detail}\n")
        failed += 0 if res.passed else 1
    sys.stdout.write(
        f"{len(results) - failed}/{len(results)} suites passed (seed {args.seed})\n"
    )
    return EXIT_OK if failed == 0 else EXIT_NONCONVERGENT


def _code_for(exc: Exception) -> int:
    if isinstance(exc, (NotApplicableError, SingularPointError)):
        return EXIT_NOT_APPLICABLE
    if isinstance(exc, NonConvergentError):
        return EXIT_NONCONVERGENT
    return EXIT_CONFIG


def _report_error(exc: Exception) -> None:
    payload = {
        "error": type(exc).__name__,
        "code": _code_for(exc),
        "message": str(exc),
    }
    sys.stdout.write(_json(payload) + "\n")


def make_parser() -> _Parser:
    parser = _Parser(prog="equizeta", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        p.add_argument("--model", required=True)
        p.add_argument("--params", default=None, help="comma-separated key=value pairs")
        p.add_argument("--config", default=None, help="file of key=value lines")
        if tol:  # trace atoms need no tolerance
            p.add_argument("--tol", default=None, help="tolerance in (0, 1e-2]")
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate log R at one sigma")
    common(p_eval)
    p_eval.add_argument("--sigma", required=True)
    p_eval.add_argument("--method", choices=("direct", "closed", "auto"), default="auto")
    p_eval.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="CSV sweep over a sigma range")
    common(p_sweep)
    p_sweep.add_argument("--sigma-start", required=True)
    p_sweep.add_argument("--sigma-end", required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--method", choices=("direct", "closed", "auto"), default="auto")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fried = sub.add_parser("fried", help="log R(0) vs log T report")
    common(p_fried)
    p_fried.set_defaults(func=cmd_fried)

    p_trace = sub.add_parser("trace", help="dump flat-trace atoms in a window")
    common(p_trace, tol=False)
    p_trace.add_argument("--window", type=float, required=True)
    p_trace.set_defaults(func=cmd_trace)

    p_self = sub.add_parser("selftest", help="run the invariant suites")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def _bind_sigma_values(argv: list[str]) -> list[str]:
    """Join each sigma flag to a following negative value (--sigma=-1+2i):
    argparse takes a token like -1+2i or -1e-3 for an option string."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _SIGMA_FLAGS and token.startswith("-"):
            try:
                parse_complex(token)
            except ConfigError:  # not a value: argparse reports it missing
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


@functools.cache
def _parser() -> _Parser:
    """The parser ``main`` reuses: it keeps no state between parses."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(_bind_sigma_values(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except (ConfigError, EquizetaError) as exc:
        _report_error(exc)
        return _code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
