"""Axiom sweeps and their outcomes.

Checkers never raise on a failed identity; failure is data.  A report is a
pass verdict or a list of counterexamples, each recording the raw input
tuple together with rendered left and right sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product


@dataclass
class Counterexample:
    inputs: tuple
    rendered_inputs: tuple
    lhs: str
    rhs: str

    def to_dict(self):
        return {
            "inputs": list(self.rendered_inputs),
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass
class CheckReport:
    name: str
    equation: str = ""
    checked: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def record(self, inputs, rendered_inputs, lhs, rhs):
        self.counterexamples.append(
            Counterexample(tuple(inputs), tuple(rendered_inputs), str(lhs), str(rhs))
        )

    def merge(self, other: "CheckReport") -> "CheckReport":
        merged = CheckReport(
            name=_distinct(" & ", self.name, other.name),
            equation=_distinct("; ", self.equation, other.equation),
            checked=self.checked + other.checked,
        )
        merged.counterexamples = self.counterexamples + other.counterexamples
        return merged

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
