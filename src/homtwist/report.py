"""Axiom sweeps and their outcomes.

Checkers never raise on a failed identity; failure is data.  A report is a
pass verdict or a list of counterexamples, each recording the raw input
tuple together with rendered left and right sides.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import product


class Counterexample(namedtuple("Counterexample", "inputs rendered_inputs lhs rhs")):
    __slots__ = ()

    def to_dict(self):
        return {
            "inputs": list(self.rendered_inputs),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class CheckReport:
    __slots__ = ("name", "equation", "checked", "counterexamples")

    def __init__(self, name: str, equation: str = "", checked: int = 0, counterexamples=None):
        self.name, self.equation, self.checked = name, equation, checked
        self.counterexamples = [] if counterexamples is None else counterexamples

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def record(self, inputs, rendered_inputs, lhs, rhs):
        self.counterexamples.append(
            Counterexample(tuple(inputs), tuple(rendered_inputs), str(lhs), str(rhs))
        )

    def merge(self, other: "CheckReport") -> "CheckReport":
        return CheckReport(
            _distinct(" & ", self.name, other.name),
            _distinct("; ", self.equation, other.equation),
            self.checked + other.checked,
            self.counterexamples + other.counterexamples,
        )

    def summary(self) -> str:
        tag = f" [{self.equation}]" if self.equation else ""
        if self.passed:
            return f"PASS {self.name}{tag}: {self.checked} cases"
        return (
            f"FAIL {self.name}{tag}: {len(self.counterexamples)} counterexamples "
            f"out of {self.checked} cases"
        )

    def to_dict(self):
        return {
            "name": self.name,
            "equation": self.equation,
            "status": "pass" if self.passed else "fail",
            "checked": self.checked,
            "counterexamples": [ce.to_dict() for ce in self.counterexamples],
        }


def _distinct(sep, *labels):
    """Join the distinct non-empty parts of sep-joined labels, in order."""
    parts = [part for label in labels for part in label.split(sep) if part]
    return sep.join(dict.fromkeys(parts))


def sweep(name, equation, axes, lhs, rhs, render=str) -> CheckReport:
    """Check lhs == rhs on every tuple of basis keys.

    axes holds one (keys, render_key) pair per argument of lhs and rhs; the
    cases are the cartesian product of the keys, last axis fastest.  A failing
    case is recorded with its keys, the rendered keys and both sides rendered
    by render; each axis renders a key once per sweep.  Every identity checked
    is multilinear, so a pass on the basis tuples is a pass on their span.
    """
    report = CheckReport(name, equation)
    renders = [cache(render_key) for _, render_key in axes]
    for case in product(*(keys for keys, _ in axes)):
        left, right = lhs(*case), rhs(*case)
        report.checked += 1
        if left != right:
            report.record(
                case,
                [render_key(key) for render_key, key in zip(renders, case)],
                render(left),
                render(right),
            )
    return report
