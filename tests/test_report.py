"""The --report writer against json: report.write_json writes the bytes of
json.dump(document, fh, indent=2) and a newline, for any strings, case counts
and counterexample lists, under both document heads.
"""

import io
import json

from hypothesis import given, strategies as st

from homtwist.cli import _label
from homtwist.report import CheckReport, Counterexample, write_json

# every code point: non-ASCII text, quotes, backslashes, control characters
# and lone surrogates, which json escapes as \ud800
texts = st.text(st.characters(exclude_categories=()))

counterexamples = st.builds(Counterexample, st.lists(texts).map(tuple), texts, texts)

# a report labelled as the command line labels it
reports = st.builds(
    _label, st.builds(CheckReport, st.integers(min_value=0), st.lists(counterexamples)), texts, texts
)

heads = st.one_of(
    st.fixed_dictionaries(
        {
            "scenario": st.just("sl2-q"),
            "bound_h": st.integers(min_value=1),
            "bound_a": st.integers(min_value=1),
            "negative_control": st.booleans(),
        }
    ),
    st.fixed_dictionaries({"scenario": st.just("finalg"), "negative_control": st.booleans()}),
)


def document(head, checks):
    """The report document as json objects."""
    return {
        **head,
        "reports": [
            {
                "name": r.name,
                "equation": r.equation,
                "status": "pass" if r.passed else "fail",
                "checked": r.checked,
                "counterexamples": [
                    {"inputs": list(ce.rendered_inputs), "lhs": ce.lhs, "rhs": ce.rhs}
                    for ce in r.counterexamples
                ],
            }
            for r in checks
        ],
    }


@given(heads, st.lists(reports, max_size=3))
def test_writer_writes_the_bytes_of_json_dumps(head, checks):
    fh = io.StringIO()
    write_json(fh, head, checks)
    assert fh.getvalue() == json.dumps(document(head, checks), indent=2) + "\n"


def test_one_write_per_counterexample():
    class Writes(io.StringIO):
        count = 0

        def write(self, text):
            self.count += 1
            return super().write(text)

    def writes(n):
        fh = Writes()
        ce = Counterexample(("x", "y"), "1", "2")
        write_json(fh, {"scenario": "finalg"}, [CheckReport(9, [ce] * n)])
        return fh.count

    assert writes(5) - writes(4) == writes(4) - writes(3) == 1
