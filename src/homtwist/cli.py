"""Command-line front end.

Subcommands:
  verify  -- run axiom suites for a scenario at chosen degree bounds
  act     -- apply an element of U(sl(2)) to a polynomial
  twist   -- print twisted product/coproduct tables on the enumerated basis

Exit codes: 0 all checks pass, 1 axiom failure, 2 input error.  Output is
byte-deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import os
import re
import signal
import stat
import sys
from fractions import Fraction

from . import actions, finalg, homcore
from .polyalg import Poly
from .report import CheckReport, Counterexample, write_json
from .scalars import QLaurent
from .uea import UElem

EXIT_PASS = 0
EXIT_AXIOM_FAILURE = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


# -- suite registry ----------------------------------------------------
# Each suite takes the scenario record (homcore.Scenario) and the parsed
# arguments and returns one CheckReport, labelled here: the checkers' reports
# carry no name, so every label that a run prints is set in this table.
# Checkers are looked up in homcore at call time.


def _label(report, name, equation):
    report.name, report.equation = name, equation
    return report


# The suites in which --negative-control replaces alpha_H^2 by alpha_H.  It
# applies to sl2-q only: alpha_H on k[G] is the identity, equal to its square,
# so there the control could not fail.
NEGATIVE_CONTROL_SUITES = ("module-hom-algebra", "mu-module-morphism")


def _alpha_power(args):
    return 1 if args.negative_control else 2


def _hom_associativity(r, args):
    A = homcore.deform_scenario(r).A
    report = homcore.check_hom_associativity(A).merge(homcore.check_multiplicativity(A))
    return _label(report, "hom-associativity(A_alpha)", "Eq. (1.2)")


def _hom_bialgebra(r, args):
    H = homcore.deform_scenario(r).H
    report = homcore.check_hom_bialgebra(H)
    return _label(report, f"hom-bialgebra({H.name})", "Eqs. (2.3)-(2.5)")


def _hom_lie(r, args):
    lie = r.lie(homcore.deform_scenario(r))
    return _label(homcore.check_hom_jacobi(lie), f"hom-lie({lie.name})", "Hom-Jacobi")


@functools.lru_cache(maxsize=1)
def _module_hom_sweep(r, alpha_power):
    # one sweep for both module Hom-algebra suites of a run
    return homcore.check_module_hom_algebra(homcore.deform_scenario(r), alpha_power)


def _swapped(report):
    # Theorem 1.1(3): mu_A is a morphism of H-modules (A x A, rho^2) ->
    # (A, rho-tilde) exactly when the module Hom-algebra axiom holds, so its
    # report is that sweep's with the sides swapped; the shared one stays
    swapped = [Counterexample(ce.rendered_inputs, ce.rhs, ce.lhs) for ce in report.counterexamples]
    return CheckReport(checked=report.checked, counterexamples=swapped)


SUITES = {
    "hom-associativity": _hom_associativity,
    "hom-bialgebra": _hom_bialgebra,
    "module-axiom": lambda r, args: _label(
        homcore.check_module_axiom(homcore.deform_scenario(r)), "module-axiom", "Eqs. (2.1)/(2.1')"
    ),
    "module-hom-algebra": lambda r, args: _label(
        _module_hom_sweep(r, _alpha_power(args)), "module-hom-algebra", "Eqs. (2.9)/(2.10)"
    ),
    "mu-module-morphism": lambda r, args: _label(
        _swapped(_module_hom_sweep(r, _alpha_power(args))),
        "mu-module-morphism",
        "Theorem 1.1(3)",
    ),
    "compatibility": lambda r, args: _label(
        homcore.check_compatibility(r), "compatibility", "Eqs. (1.5)/(1.7)/(4.2)"
    ),
    "classical": lambda r, args: _label(
        homcore.check_module_hom_algebra(r.module), "classical-module-algebra", "Eq. (1.1)"
    ),
    "hom-lie": _hom_lie,
}

# Each scenario builds its homcore.Scenario record from the parsed arguments.
SCENARIOS = {
    "sl2-q": lambda args: actions.sl2_scenario(args.bound_h, args.bound_a),
    "finalg": lambda args: _finalg_scenario(args.file),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="homtwist",
        description="Construct and verify Hom-algebra structures exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run axiom suites for a scenario")
    verify.add_argument("scenario", choices=list(SCENARIOS))
    verify.add_argument(
        "--bound-h",
        type=int,
        help="degree bound for bialgebra-side basis elements",
    )
    verify.add_argument(
        "--bound-a",
        type=int,
        help="degree bound for algebra-side basis elements",
    )
    verify.add_argument(
        "--suite",
        action="append",
        help="axiom suite identifier (repeatable; default: all)",
    )
    verify.add_argument(
        "--negative-control",
        action="store_true",
        help="replace alpha_H^2 by alpha_H in the module-hom-algebra and "
        "mu-module-morphism suites of sl2-q (the control must fail)",
    )
    verify.add_argument("--file", help="scenario file for the finalg scenario")
    verify.add_argument("--report", help="write a machine-readable JSON report here")

    act = sub.add_parser(
        "act",
        help="apply a U(sl(2)) element to a polynomial",
        epilog='an argument that starts with "-" reads as an option: put the arguments '
        'after "--" (act -- "-X" y) and join a negative q value with "=" (--q-value=-3/2)',
    )
    act.add_argument("element", help='e.g. "X" or "q^2*X Y + Z^2"')
    act.add_argument("poly", help='e.g. "y" or "x^2*y + 3*x"')
    act.add_argument("--deformed", action="store_true", help="use rho_alpha")
    act.add_argument("--q-value", help="specialize q at this rational, e.g. 1 or 1/2")

    twist = sub.add_parser("twist", help="print twisted structure tables")
    twist.add_argument("scenario", choices=["sl2", "finalg"])
    twist.add_argument(
        "--bound",
        type=int,
        help="degree bound for the enumerated basis (sl2)",
    )
    twist.add_argument("--file", help="scenario file for the finalg scenario")
    return parser


# -- verify ------------------------------------------------------------


def _finalg_scenario(path):
    try:
        algebra, G, a = finalg.load_scenario(path) if path else finalg.m2_example()
        return finalg.example31_scenario(algebra, G, a)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def cmd_verify(args):
    _scenario_options(args, bound_h=3, bound_a=3)
    suites = args.suite if args.suite else list(SUITES)
    for suite in suites:
        if suite not in SUITES:
            raise InputError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    if args.bound_h < 1 or args.bound_a < 1:
        raise InputError("bounds must be >= 1")
    if args.negative_control and (
        args.scenario != "sl2-q" or not set(suites) & set(NEGATIVE_CONTROL_SUITES)
    ):
        raise InputError(
            "--negative-control applies only to the "
            f"{' and '.join(NEGATIVE_CONTROL_SUITES)} suites of sl2-q"
        )
    scenario = SCENARIOS[args.scenario](args)
    if args.report is None:
        reports = _run_suites(scenario, suites, args)
    else:
        head = {"scenario": args.scenario}
        if args.scenario == "sl2-q":
            head.update(bound_h=args.bound_h, bound_a=args.bound_a)
        head["negative_control"] = args.negative_control
        if args.file and os.path.exists(args.report) and os.path.samefile(args.file, args.report):
            raise InputError(f"--report {args.report} would overwrite the scenario file")
        # opened before the sweeps, so that an unwritable path costs none of them
        try:
            with open(args.report, "w") as fh:
                try:
                    reports = _run_suites(scenario, suites, args)
                    write_json(fh, head, reports)
                except BaseException:
                    # a partial report would read as the report of a finished run
                    _discard(fh, args.report)
                    raise
        except OSError as exc:
            raise InputError(f"cannot write report: {exc}") from exc

    for report in reports:
        print(report.summary())
        for ce in report.counterexamples[:5]:
            print(f"  at ({', '.join(ce.rendered_inputs)}):")
            print(f"    lhs = {ce.lhs}")
            print(f"    rhs = {ce.rhs}")
        if len(report.counterexamples) > 5:
            print(f"  ... {len(report.counterexamples) - 5} more")

    return EXIT_PASS if all(r.passed for r in reports) else EXIT_AXIOM_FAILURE


def _run_suites(scenario, suites, args):
    try:
        return [SUITES[suite](scenario, args) for suite in suites]
    finally:
        _module_hom_sweep.cache_clear()  # its record's filled tables go with the run


def _discard(fh, path):
    """Remove the partial report of a run that an error ends.

    Only the regular file that path itself names goes: a link such as
    /dev/stdout, or a device, is left in place.
    """
    try:
        opened = os.fstat(fh.fileno())
        if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(path)):
            os.remove(path)
    except OSError:
        pass


def _scenario_options(args, **bounds):
    """Refuse an option that the scenario of args does not read: --file
    outside finalg, a bound option of bounds (dest=sl2 default) in finalg.
    Then each bound left out takes its default.
    """
    if args.scenario == "finalg":
        for dest in bounds:
            if getattr(args, dest) is not None:
                option = "--" + dest.replace("_", "-")
                raise InputError(f"{option} does not apply to the finalg scenario")
    elif args.file is not None:
        raise InputError("--file applies only to the finalg scenario")
    for dest, default in bounds.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)


# -- act ---------------------------------------------------------------

# Fraction("1e999999999") computes 10**999999999 before it returns, so the
# decimal exponent of a q value is read from its text and capped first
_MAX_Q_EXPONENT = 10000
_Q_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def cmd_act(args):
    # argparse hands a positional that follows a second "--" an empty list
    if not (isinstance(args.element, str) and isinstance(args.poly, str)):
        raise InputError("act takes an element and a polynomial")
    try:
        z = UElem.parse(args.element)
        p = Poly.parse(args.poly)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.q_value is not None:
        exponent = _Q_EXPONENT.search(args.q_value)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        # the length first: int() refuses a string of more than 4300 digits
        if len(digits) > len(str(_MAX_Q_EXPONENT)) or int(digits or 0) > _MAX_Q_EXPONENT:
            raise InputError(f"the exponent of q value {args.q_value!r} is above {_MAX_Q_EXPONENT}")
        try:
            q0 = Fraction(args.q_value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad q value {args.q_value!r}") from exc
        if q0 == 0:
            raise InputError("q must be nonzero")
    # the tables the suites sweep; they are defined on every key, whatever
    # the bounds of the bases
    r = actions.sl2_scenario(0, 0)
    rho = homcore.deform_scenario(r).rho if args.deformed else r.module.rho
    flat = homcore.bilinear(rho, homcore.flatten(z.terms), homcore.flatten(p.terms))
    result = homcore.unflatten(flat.items())
    if args.q_value is not None:
        # the validated constructor drops a coefficient that specializes to 0
        result = Poly({key: QLaurent.of(c.specialize(q0)) for key, c in result.items()}).terms
    try:
        text = r.module.A.render_elem(result)
    except ValueError as exc:
        # str refuses an int of more digits than sys.get_int_max_str_digits()
        raise InputError("a coefficient of the result is too large to print") from exc
    print(text)
    return EXIT_PASS


# -- twist -------------------------------------------------------------


def cmd_twist(args):
    _scenario_options(args, bound=2)
    if args.scenario == "sl2":
        if args.bound < 0:
            raise InputError("bound must be >= 0")
        # only H is printed, so the plane carrier is the unit alone
        C, word, parens = actions.deformed_scenario(args.bound, 0).H, "PBW", True
    else:
        C = homcore.deform_scenario(_finalg_scenario(args.file)).A
        word, parens = "algebra", False
    basis, render_key = homcore.axis(C)
    factor = (lambda k: f"({render_key(k)})") if parens else render_key
    print(f"# twisted product mu_alpha on {word} basis")
    for k1 in basis:
        for k2 in basis:
            product = C.render_elem(homcore.unflatten(C.mul(k1, k2)))
            print(f"{factor(k1)} * {factor(k2)} = {product}")
    if C.comul is not None:
        print(f"# twisted coproduct Delta_alpha on {word} basis")
        for k in basis:
            tensor = homcore.render_tensor(homcore.unflatten(C.comul(k)), C, C)
            print(f"Delta({render_key(k)}) = {tensor}")
    return EXIT_PASS


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad input already; normalize anything else
        return EXIT_INPUT_ERROR if exc.code else EXIT_PASS
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "act":
            return cmd_act(args)
        # argparse admits no other command
        return cmd_twist(args)
    except (InputError, OverflowError) as exc:
        # OverflowError: homcore's key registry is full, the bounds or the
        # arguments name more keys than it holds; or act meets a coefficient,
        # or under --q-value a power of q, too large to compute
        _error(f"error: {exc}")
        return EXIT_INPUT_ERROR


def _error(line):
    # a stderr that is closed (None: print would write to stdout) or cannot be
    # written drops the line, as argparse drops its own: the exit code stays
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def run(argv=None):
    """The process entry point: main with the cyclic collector off, then the
    end of the process at the verdict.

    SIGPIPE takes its default action first, so a closed stdout (homtwist ...
    | head -1) ends the process as it ends cat, with no traceback.  The tables
    of a run hold almost no cycles, so the collector stays off.  Once main
    returns, stdout and stderr are flushed and os._exit ends the process: no
    module teardown or deallocation runs after the verdict.  A --report file
    is closed before main returns.  A stdout that cannot be written, such as
    a full device, is an input error; an error line that stderr cannot take
    is dropped, and the exit code stays.  Only a process about to exit calls
    this; main neither resets a signal nor touches the collector.
    """
    if hasattr(signal, "SIGPIPE"):  # POSIX only
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    gc.disable()
    try:
        code = main(argv)
        # a stream is None when its descriptor was closed at start; print
        # then drops the text
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        # raised by a print, or by the flush of what print buffered
        _error(f"error: cannot write output: {exc}")
        code = EXIT_INPUT_ERROR
    if sys.stderr is not None:
        with contextlib.suppress(OSError):  # a line that could not be written
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
