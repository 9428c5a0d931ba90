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
import functools
import gc
import json
import re
import sys

from . import actions, finalg, homcore
from .polyalg import Poly
from .scalars import QLaurent, Rational
from .uea import UElem

EXIT_PASS = 0
EXIT_AXIOM_FAILURE = 1
EXIT_INPUT_ERROR = 2


class InputError(Exception):
    pass


# -- suite registry ----------------------------------------------------
# Each suite takes the scenario record (homcore.Scenario) and the parsed
# arguments and returns one CheckReport.  Checkers are looked up in homcore at
# call time.


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


@functools.lru_cache(maxsize=1)
def _module_hom_sweep(r, alpha_power):
    # one sweep for both module Hom-algebra suites of a run: by Theorem 1.1
    # mu-module-morphism is a view of the same identity
    return homcore.check_module_hom_algebra(homcore.deform_scenario(r), alpha_power)


def _classical(r, args):
    report = homcore.check_module_hom_algebra(r.module)
    return _label(report, "classical-module-algebra", "Eq. (1.1)")


def _hom_lie(r, args):
    report = homcore.check_hom_jacobi(r.lie)
    return _label(report, f"hom-lie({r.lie.name})", "Hom-Jacobi")


SUITES = {
    "hom-associativity": _hom_associativity,
    "hom-bialgebra": _hom_bialgebra,
    "module-axiom": lambda r, args: homcore.check_module_axiom(homcore.deform_scenario(r)),
    "module-hom-algebra": lambda r, args: _module_hom_sweep(r, _alpha_power(args)),
    "mu-module-morphism": lambda r, args: homcore.mu_module_morphism(
        _module_hom_sweep(r, _alpha_power(args))
    ),
    "compatibility": lambda r, args: homcore.check_compatibility(r),
    "classical": _classical,
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
        default=3,
        help="degree bound for bialgebra-side basis elements",
    )
    verify.add_argument(
        "--bound-a",
        type=int,
        default=3,
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
        default=2,
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
    try:
        reports = [SUITES[suite](scenario, args) for suite in suites]
    finally:
        _module_hom_sweep.cache_clear()  # its record's filled tables go with the run

    for report in reports:
        print(report.summary())
        for ce in report.counterexamples[:5]:
            print(f"  at ({', '.join(ce.rendered_inputs)}):")
            print(f"    lhs = {ce.lhs}")
            print(f"    rhs = {ce.rhs}")
        if len(report.counterexamples) > 5:
            print(f"  ... {len(report.counterexamples) - 5} more")

    if args.report:
        document = {"scenario": args.scenario}
        if args.scenario == "sl2-q":
            document.update(bound_h=args.bound_h, bound_a=args.bound_a)
        document.update(
            negative_control=args.negative_control,
            reports=[r.to_dict() for r in reports],
        )
        try:
            with open(args.report, "w") as fh:
                json.dump(document, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write report: {exc}") from exc

    return EXIT_PASS if all(r.passed for r in reports) else EXIT_AXIOM_FAILURE


# -- act ---------------------------------------------------------------

# Fraction("1e999999999") computes 10**999999999 before it returns, so the
# decimal exponent of a q value is read from its text and capped first
_MAX_Q_EXPONENT = 10000
_Q_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def cmd_act(args):
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
            q0 = Rational(args.q_value)
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
    if args.scenario == "sl2":
        if args.bound < 0:
            raise InputError("bound must be >= 0")
        C = actions.deformed_scenario(args.bound).H
        basis, render_key = homcore.axis(C)
        print("# twisted product mu_alpha on PBW basis")
        for m1 in basis:
            for m2 in basis:
                product = C.render_elem(homcore.unflatten(C.mul(m1, m2)))
                print(f"({render_key(m1)}) * ({render_key(m2)}) = {product}")
        print("# twisted coproduct Delta_alpha on PBW basis")
        for mono in basis:
            tensor = homcore.render_tensor(homcore.unflatten(C.comul(mono)), C, C)
            print(f"Delta({render_key(mono)}) = {tensor}")
    else:
        C = homcore.deform_scenario(_finalg_scenario(args.file)).A
        basis, render_key = homcore.axis(C)
        print("# twisted product mu_alpha on algebra basis")
        for i in basis:
            for j in basis:
                product = C.render_elem(homcore.unflatten(C.mul(i, j)))
                print(f"{render_key(i)} * {render_key(j)} = {product}")
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
        if args.command == "twist":
            return cmd_twist(args)
        raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OverflowError as exc:
        # homcore's key registry is full: the bounds or the arguments name
        # more keys than it holds; or act --q-value meets a power of q too
        # large to evaluate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run(argv=None):
    """The process entry point: main, then gc.freeze().

    Freezing moves every object into the permanent generation, so the
    interpreter's collection at exit has nothing left to traverse.  Only a
    process about to exit calls this; main never freezes.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
