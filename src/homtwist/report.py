"""Axiom sweeps, their outcomes and the --report JSON document.

Checkers never raise on a failed identity; failure is data.  A report is a
pass verdict or a list of counterexamples, each recording the rendered input
tuple and both rendered sides.  A sweep's report is unlabelled: the command
line names each report it prints.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import cache
from itertools import product
from json.encoder import encode_basestring_ascii as _string
from math import prod

Counterexample = namedtuple("Counterexample", "rendered_inputs lhs rhs")


class CheckReport:
    __slots__ = ("name", "equation", "checked", "counterexamples")

    def __init__(self, checked: int = 0, counterexamples=None):
        self.name = self.equation = ""
        self.checked = checked
        self.counterexamples = [] if counterexamples is None else counterexamples

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def record(self, rendered_inputs, lhs, rhs):
        self.counterexamples.append(Counterexample(tuple(rendered_inputs), str(lhs), str(rhs)))

    def merge(self, other: "CheckReport") -> "CheckReport":
        """The unlabelled report of both sweeps: their cases and counterexamples."""
        return CheckReport(
            checked=self.checked + other.checked,
            counterexamples=self.counterexamples + other.counterexamples,
        )

    def summary(self) -> str:
        tag = f" [{self.equation}]" if self.equation else ""
        if self.passed:
            return f"PASS {self.name}{tag}: {self.checked} cases"
        return (
            f"FAIL {self.name}{tag}: {len(self.counterexamples)} counterexamples "
            f"out of {self.checked} cases"
        )


def sweep(axes, lhs, rhs, render) -> CheckReport:
    """Check lhs == rhs on every tuple of basis keys.

    axes holds one (keys, render_key) pair per argument of lhs and rhs; the
    cases are the cartesian product of the keys, last axis fastest.  A failing
    case is recorded with its rendered keys and both sides rendered by render;
    each axis renders a key once per sweep.  The case count is the product of
    the axes' lengths.  Every identity checked is multilinear, so a pass on
    the basis tuples is a pass on their span.
    """
    report = CheckReport(prod(len(keys) for keys, _ in axes))
    renders = [cache(render_key) for _, render_key in axes]
    for case in product(*(keys for keys, _ in axes)):
        left, right = lhs(*case), rhs(*case)
        if left != right:
            report.record(
                [render_id(k) for render_id, k in zip(renders, case)],
                render(left),
                render(right),
            )
    return report


def write_json(fh, head, reports):
    """Write the document {**head, "reports": [...]} to fh, then a newline.

    The bytes are those of json.dump(document, fh, indent=2): strings go
    through json's C encoder, ints are written by repr, and each value of
    head (a string, an int or a bool) by json.dumps.  Each report is written
    as its name, equation, status, case count and counterexamples, each
    counterexample as its rendered inputs and both sides.  There is one
    write per counterexample, so the text of a long report is never held
    whole.
    """
    fh.write("{\n")
    for name, value in head.items():
        fh.write(f"  {_string(name)}: {json.dumps(value)},\n")
    fh.write('  "reports": [')
    sep = "\n"
    for report in reports:
        fh.write(
            f'{sep}    {{\n      "name": {_string(report.name)},\n'
            f'      "equation": {_string(report.equation)},\n'
            f'      "status": "{"pass" if report.passed else "fail"}",\n'
            f'      "checked": {report.checked!r},\n      "counterexamples": ['
        )
        ce_sep = "\n"
        for ce in report.counterexamples:
            inputs = ",\n            ".join(map(_string, ce.rendered_inputs))
            if inputs:
                inputs = f"[\n            {inputs}\n          ]"
            fh.write(
                f'{ce_sep}        {{\n          "inputs": {inputs or "[]"},\n'
                f'          "lhs": {_string(ce.lhs)},\n'
                f'          "rhs": {_string(ce.rhs)}\n        }}'
            )
            ce_sep = ",\n"
        fh.write("\n      ]\n    }" if report.counterexamples else "]\n    }")
        sep = ",\n"
    fh.write("\n  ]\n}\n" if reports else "]\n}\n")
