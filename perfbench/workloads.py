"""Workload definitions and the expected-verdict table.

Every expected number here is derived from basis sizes and from a plain
integer model of the sl(2) action, never from the program under test, so a
wrong verdict from homtwist cannot agree with its own expectation.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import comb

BOUND_H = 3
BOUND_A = 3
FINALG_N = 3  # 3x3 matrix algebra: dim n^2
FINALG_GROUP = 4  # sign conjugations diag(1, +-1, +-1)

FINALG_SUITES = (
    "hom-associativity",
    "hom-bialgebra",
    "module-axiom",
    "module-hom-algebra",
    "mu-module-morphism",
)


def pbw_count(bound):
    """Number of PBW monomials X^a Y^b Z^c with a + b + c <= bound."""
    return comb(bound + 3, 3)


def plane_count(bound):
    """Number of monomials x^i y^j with i + j <= bound."""
    return comb(bound + 2, 2)


def _act_monomial(mono, i, j):
    """Integer coefficient of X^a Y^b Z^c acting on x^i y^j (Z first, X last).

    X = x d/dy, Y = y d/dx, Z = x d/dx - y d/dy send a monomial to an integer
    multiple of one monomial, so the action is nonzero iff this is nonzero.
    """
    a, b, c = mono
    coeff = (i - j) ** c
    for _ in range(b):
        coeff, i, j = coeff * i, i - 1, j + 1
    for _ in range(a):
        coeff, i, j = coeff * j, i + 1, j - 1
    return coeff


def negative_control_failures(bound_h, bound_a):
    """Counterexamples expected from --negative-control, per suite.

    alpha_H(X^a Y^b Z^c) = q^(a-b) X^a Y^b Z^c, so replacing alpha_H^2 by
    alpha_H scales the left side by q^(b-a).  A triple fails exactly when
    a != b and the classical action of the monomial on the product is
    nonzero (alpha_A is an invertible diagonal map and cannot cancel it).
    """
    monos = [
        (a, b, d - a - b)
        for d in range(bound_h + 1)
        for a in range(d + 1)
        for b in range(d - a + 1)
    ]
    plane = [(i, d - i) for d in range(bound_a + 1) for i in range(d + 1)]
    count = 0
    for mono in monos:
        if mono[0] == mono[1]:
            continue
        for i1, j1 in plane:
            for i2, j2 in plane:
                if _act_monomial(mono, i1 + i2, j1 + j2):
                    count += 1
    return count


@dataclass(frozen=True)
class SuiteVerdict:
    stem: str  # the report name starts with this
    checked: int
    counterexamples: int = 0

    @property
    def passed(self):
        return self.counterexamples == 0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # "sl2" or "finalg"
    suites: tuple
    exit_code: int
    expected: tuple  # SuiteVerdict per suite, in --suite order
    negative_control: bool = False
    witness: tuple = ()  # rendered inputs that must be among the counterexamples

    def verify_argv(self, scenario_file=None, report_file=None):
        if self.scenario == "finalg":
            argv = ["verify", "finalg", "--file", scenario_file]
        else:
            argv = ["verify", "sl2-q", "--bound-h", str(BOUND_H), "--bound-a", str(BOUND_A)]
        for suite in self.suites:
            argv += ["--suite", suite]
        if self.negative_control:
            argv += ["--negative-control", "--report", report_file]
        return argv

    def total_cases(self):
        return sum(v.checked for v in self.expected)


def _workloads():
    h, a = pbw_count(BOUND_H), plane_count(BOUND_A)
    module_cases = h * a * a
    negctl = negative_control_failures(BOUND_H, BOUND_A)
    d, g = FINALG_N * FINALG_N, FINALG_GROUP
    module_suites = ("module-hom-algebra", "mu-module-morphism")
    return (
        Workload(
            name="hopf-h3",
            scenario="sl2",
            suites=("hom-bialgebra",),
            exit_code=0,
            # multiplicativity pairs, Hom-associativity triples,
            # Hom-coassociativity, Delta o alpha, Delta o mu pairs
            expected=(SuiteVerdict("hom-bialgebra", h * h + h**3 + h + h + h * h),),
        ),
        Workload(
            name="module-q33",
            scenario="sl2",
            suites=module_suites,
            exit_code=0,
            expected=tuple(SuiteVerdict(s, module_cases) for s in module_suites),
        ),
        Workload(
            name="negctl-q33",
            scenario="sl2",
            suites=module_suites,
            exit_code=1,
            expected=tuple(SuiteVerdict(s, module_cases, negctl) for s in module_suites),
            negative_control=True,
            witness=("X", "x", "y"),
        ),
        Workload(
            name="finalg-m3",
            scenario="finalg",
            suites=FINALG_SUITES,
            exit_code=0,
            expected=(
                SuiteVerdict("hom-associativity", d**3 + d * d),
                SuiteVerdict("hom-bialgebra", g * g + g**3 + g + g + g * g),
                SuiteVerdict("module-axiom", g * d + g * g * d),
                SuiteVerdict("module-hom-algebra", g * d * d),
                SuiteVerdict("mu-module-morphism", g * d * d),
            ),
        ),
    )


WORKLOADS = {w.name: w for w in _workloads()}

_SUMMARY = re.compile(
    r"^(PASS|FAIL) (.+?): (?:(\d+) counterexamples out of )?(\d+) cases$"
)


def check_verdict(workload, exit_code, stdout, report_path=None):
    """Compare one verify run with the expected table; return a list of problems."""
    problems = []
    if exit_code != workload.exit_code:
        problems.append(f"exit code {exit_code}, expected {workload.exit_code}")
    summaries = [m for m in map(_SUMMARY.match, stdout.splitlines()) if m]
    if len(summaries) != len(workload.expected):
        problems.append(
            f"{len(summaries)} suite summaries, expected {len(workload.expected)}"
        )
    for match, want in zip(summaries, workload.expected):
        status, label, failures, checked = match.groups()
        got_failures = int(failures) if failures else 0
        if not label.startswith(want.stem):
            problems.append(f"suite {label!r}, expected {want.stem}")
        if (status == "PASS") != want.passed:
            problems.append(f"{want.stem}: {status}")
        if int(checked) != want.checked:
            problems.append(f"{want.stem}: {checked} cases, expected {want.checked}")
        if got_failures != want.counterexamples:
            problems.append(
                f"{want.stem}: {got_failures} counterexamples, "
                f"expected {want.counterexamples}"
            )
    if report_path is not None:
        problems += _check_report(workload, report_path)
    return problems


def _check_report(workload, path):
    try:
        with open(path) as fh:
            reports = json.load(fh)["reports"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"report file unreadable: {exc}"]
    problems = []
    if len(reports) != len(workload.expected):
        problems.append(f"report has {len(reports)} suites")
    for rep, want in zip(reports, workload.expected):
        ces = rep.get("counterexamples", [])
        if rep.get("checked") != want.checked or len(ces) != want.counterexamples:
            problems.append(
                f"report {want.stem}: {rep.get('checked')} cases, {len(ces)} "
                f"counterexamples, expected {want.checked}/{want.counterexamples}"
            )
        if workload.witness and list(workload.witness) not in [
            ce.get("inputs") for ce in ces
        ]:
            problems.append(f"report {want.stem}: witness {workload.witness} missing")
    return problems
