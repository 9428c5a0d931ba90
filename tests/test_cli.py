import argparse
import contextlib
import copy
import errno
import gc
import io
import json
import os
import resource
import signal
import subprocess
import sys
from math import comb

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from homtwist import actions, cli, finalg, homcore
from homtwist.polyalg import Poly
from homtwist.report import CheckReport, Counterexample
from homtwist.scalars import QLaurent
from homtwist.uea import UElem

import plane_oracle
from test_golden import finalg_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAct:
    def test_generator_rule(self, capsys):
        code, out, _ = run(capsys, "act", "X", "y")
        assert code == 0 and out.strip() == "x"

    def test_deformed(self, capsys):
        code, out, _ = run(capsys, "act", "X", "y", "--deformed")
        assert code == 0 and out.strip() == "q^2*x"

    def test_unit(self, capsys):
        code, out, _ = run(capsys, "act", "1", "x^2")
        assert code == 0 and out.strip() == "x^2"

    def test_specialization(self, capsys):
        code, out, _ = run(capsys, "act", "X", "y", "--deformed", "--q-value", "1/2")
        assert code == 0 and out.strip() == "1/4*x"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "act", "W", "y")
        assert code == cli.EXIT_INPUT_ERROR
        assert "error" in err

    def test_specialization_drops_vanishing_coefficients(self, capsys):
        code, out, _ = run(capsys, "act", "q*X - X", "y", "--q-value", "1")
        assert code == 0 and out == "0\n"
        # exact at large exponents: the powers cancel, or q0 = +-1
        huge = "q^99999999999999999999*X"
        for argv, expected in [
            (["q^100001*X - 2*q^100000*X", "y", "--q-value", "2"], "0"),
            (["q^10000000001*X - 2*q^10000000000*X", "y", "--q-value", "2"], "0"),
            ([huge, "y", "--q-value", "1"], "x"),
            ([huge, "y", "--q-value=-1"], "-x"),
            (["q^-99999999999999999998*X", "y", "--q-value=-1"], "x"),
        ]:
            assert run(capsys, "act", *argv)[:2] == (0, f"{expected}\n"), argv

    def test_overlong_powers_act_by_zero(self, capsys):
        # Y^30000000 derives x more often than x^3 y^2 has it
        code, out, _ = run(capsys, "act", "X^30000000 Y^30000000", "x^3*y^2")
        assert code == 0 and out == "0\n"

    def test_huge_deformed_power(self, capsys):
        # alpha_A(x^n) = (q^2 x)^n by repeated squaring, not n products
        code, out, _ = run(capsys, "act", "1", "x^30000000", "--deformed")
        assert code == 0 and out == "q^60000000*x^30000000\n"

    def test_arguments_that_start_with_a_dash(self, capsys):
        # argparse reads "-X" and "-3/2" as options; the help documents the
        # working forms
        assert run(capsys, "act", "-X", "y")[0] == cli.EXIT_INPUT_ERROR
        assert run(capsys, "act", "X", "y", "--q-value", "-3/2")[0] == cli.EXIT_INPUT_ERROR
        assert run(capsys, "act", "--", "-X", "y")[:2] == (0, "-x\n")
        code, out, _ = run(capsys, "act", "X", "y", "--deformed", "--q-value=-3/2")
        assert (code, out) == (0, "9/4*x\n")
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["act", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert '(act -- "-X" y)' in help_text and "(--q-value=-3/2)" in help_text


# act argument lists are drawn from these tokens: "--", terms with a leading
# "-", powers of q, --q-value with "=" and negative values, and --deformed
ACT_TOKENS = [
    "--", "--deformed", "--q-value", "--q-value=-3/2", "--q-value=2", "-1", "1/2", "-3/2",
    "X", "-X", "Y Z", "q^2*X", "q^-1*X Y", "-q*Z", "X - X", "2 2", "X 2 Y",
    "y", "-y", "x^2*y", "q^-2*x", "x + y - x", "1",
]


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(ACT_TOKENS), max_size=6))
def test_act_argument_lists_exit_0_or_2(tokens):
    # no exception escapes main, and a refusal says why
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["act", *tokens])
    assert code in (cli.EXIT_PASS, cli.EXIT_INPUT_ERROR)
    assert code == cli.EXIT_PASS or "error:" in err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.text("0123456789", min_size=1, max_size=4),
    st.text(" \t", min_size=1, max_size=3),
    st.text("0123456789", min_size=1, max_size=4),
)
def test_every_grammar_and_act_refuse_a_drawn_digit_gap(a, w, b):
    # a whitespace run between two digit strings is a mistyped number, also
    # after a name and where a space between factors is a product
    for text in (f"{a}{w}{b}", f"X {a}{w}{b}"):
        for ring in (QLaurent, Poly, UElem):
            with pytest.raises(ValueError, match="^space inside a number in "):
                ring.parse(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["act", f"{a}{w}{b}", "x"])
    assert code == cli.EXIT_INPUT_ERROR and err.getvalue().startswith("error:")


def _random_coeff(rng):
    c = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return QLaurent.q_power(rng.randint(-2, 2), c)


def _random_elem(rng, keys):
    return {rng.choice(keys): _random_coeff(rng) for _ in range(rng.randint(1, 3))}


PBW_KEYS = [(a, b, c) for a in range(4) for b in range(4) for c in range(4) if a + b + c <= 3]
PLANE_KEYS = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]


def test_act_matches_native_oracle(capsys):
    rng = random.Random(20081227)
    for _ in range(800):
        z = _random_elem(rng, PBW_KEYS)
        p = _random_elem(rng, PLANE_KEYS)
        plain, deformed = plane_oracle.act(z, p), plane_oracle.deformed_act(z, p)
        q0 = rng.choice(["1", "-1", "2", "1/2", "-3/2"])
        for flags, expected in [
            ([], plain),
            (["--deformed"], deformed),
            ([f"--q-value={q0}"], plane_oracle.specialize(plain, Fraction(q0))),
            (["--deformed", f"--q-value={q0}"], plane_oracle.specialize(deformed, Fraction(q0))),
        ]:
            # "--" ends the options: a rendered element may start with "-"
            z_text, p_text = UElem.render(z), Poly.render(p)
            code, out, _ = run(capsys, "act", *flags, "--", z_text, p_text)
            assert (code, out) == (0, f"{Poly.render(expected)}\n"), (z_text, p_text, flags)


class TestVerify:
    def test_unknown_suite_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "sl2-q", "--suite", "bogus")
        assert code == cli.EXIT_INPUT_ERROR
        assert "unknown suite" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "verify", "finalg", "--file", "/nonexistent.json")
        assert code == cli.EXIT_INPUT_ERROR

    def test_sl2_bounds_default_to_3(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        argv = ["verify", "sl2-q", "--suite", "compatibility", "--report", str(path)]
        code, out, _ = run(capsys, *argv)
        document = json.loads(path.read_text())
        assert (code, document["bound_h"], document["bound_a"]) == (0, 3, 3)
        # 20 PBW monomials of degree <= 3 against 10 plane monomials of degree <= 3
        assert "compatibility [Eqs. (1.5)/(1.7)/(4.2)]: 200 cases" in out


# k e with e e = e, and k x k with the idempotents a and b, each with the
# group of the identity
K1 = {
    "labels": ["e"],
    "constants": [[0, 0, 0, "1"]],
    "unit": ["1"],
    "group": [[["1"]]],
    "element": ["1"],
}
IDENTITY2, SWAP = [["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]
K2 = {
    "labels": ["a", "b"],
    "constants": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
    "unit": ["1", "1"],
    "group": [IDENTITY2],
    "element": ["1", "1"],
}

BAD_SCENARIOS = {
    "top-level-array": [1, 2],
    "matrix-size": {
        "labels": ["e"],
        "constants": [[0, 0, 0, "1"]],
        "unit": ["1"],
        "group": [[["1", "0"], ["0", "1"]]],
        "element": ["1"],
    },
    "zero-denominator": {
        "labels": ["e"],
        "constants": [[0, 0, 0, "1/0"]],
        "group": [[["1"]]],
        "element": ["1"],
    },
    "bool-index": {
        "labels": ["e"],
        "constants": [[False, False, False, "1"]],
        "unit": ["1"],
        "group": [[["1"]]],
        "element": ["1"],
    },
    "repeated-constant": {
        "labels": ["e"],
        "constants": [[0, 0, 0, "5"], [0, 0, 0, "1"]],
        "unit": ["1"],
        "group": [[["1"]]],
        "element": ["1"],
    },
    "repeated-operator": {
        "labels": ["e"],
        "constants": [[0, 0, 0, "1"]],
        "unit": ["1"],
        "group": [[["1"]], [["1"]]],
        "element": ["1"],
    },
    "repeated-label": {
        "labels": ["e", "e"],
        "constants": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
        "unit": ["1", "1"],
        "group": [[["1", "0"], ["0", "1"]]],
        "element": ["1", "1"],
    },
    # closed under composition, but no group: it lacks the identity
    "empty-group": {
        "labels": ["e"],
        "constants": [[0, 0, 0, "1"]],
        "unit": ["1"],
        "group": [],
        "element": ["1"],
    },
    # JSON allows a lone surrogate, which stdout cannot encode
    "surrogate-label": {
        "labels": ["e\ud800"],
        "constants": [[0, 0, 0, "1"]],
        "unit": ["1"],
        "group": [[["1"]]],
        "element": ["1"],
    },
    # the bad scenarios below change one or two fields of K1 or K2
    "number-label": {**K1, "labels": [1]},
    "index-out-of-range": {**K1, "constants": [[0, 0, 1, "1"]]},
    # (a a) a = b a = a, but a (a a) = a b = 0
    "not-associative": {**K2, "constants": [[0, 0, 1, "1"], [1, 0, 0, "1"]]},
    # a x = x for both basis elements, but b a = 0
    "left-unit-only": {**K2, "constants": [[0, 0, 0, "1"], [0, 1, 1, "1"]], "unit": ["1", "0"]},
    # every finalg command inverts an element, so a file declares its unit
    "no-unit": {key: value for key, value in K1.items() if key != "unit"},
    "zero-element": {**K1, "element": ["0"]},
    # inversion solves over the rationals, not over Laurent polynomials
    "q-element": {**K1, "element": ["q"]},
    "ragged-operator": {**K2, "group": [[["1", "0"], ["0"]]]},
    # {1, 0} is closed, but no composite of the zero map is the identity
    "zero-operator": {**K1, "group": [[["1"]], [["0"]]]},
    # the projection onto a is multiplicative and idempotent, but singular
    "singular-operator": {**K2, "group": [IDENTITY2, [["1", "0"], ["0", "0"]]]},
    # b -> 2b sends b b = b to 2b, not to 4b
    "non-multiplicative-operator": {**K2, "group": [IDENTITY2, [["1", "0"], ["0", "2"]]]},
    # the swap squares to the identity, which the group lacks
    "swap-only": {**K2, "group": [SWAP]},
    "unfixed-element": {**K2, "group": [IDENTITY2, SWAP], "element": ["1", "2"]},
    "long-element": {**K1, "element": ["1", "1"]},
    "text-labels": {**K1, "labels": "e"},
}

# Scenario files that verify passes.  m2-order-two is M_2 with the group of
# conjugation by g = [[0, 1], [2, 0]], which sends e12 to 2*e21 and e21 to
# 1/2*e12, so g^2 = 2 conjugates by a scalar: the factors 2 and 1/2 multiply to
# an integral Fraction.  Its element 1 + g commutes with g, and is neither
# diagonal nor a scaled permutation, so its inverse eliminates rows.
GOOD_SCENARIOS = {
    "m2-order-two": {
        **finalg.M2,
        "group": [
            [["1", "0", "0", "0"], ["0", "1", "0", "0"],
             ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
            [["0", "0", "0", "1"], ["0", "0", "1/2", "0"],
             ["0", "2", "0", "0"], ["1", "0", "0", "0"]],
        ],
        "element": ["1", "1", "2", "1"],
    },
}


# The argv of each case; a {name} in an argument is a path of scenario_paths.
BAD_INPUTS = [
    ["verify", "finalg", "--bound-h", "abc"],
    ["verify", "sl2-q", "--bound-a", "3.5"],
    ["verify", "finalg", "--file", "{top-level-array}"],
    ["verify", "finalg", "--file", "{matrix-size}"],
    ["twist", "finalg", "--file", "{zero-denominator}"],
    ["verify", "finalg", "--report", "{missing-dir}/report.json"],
    ["twist", "sl2", "--bound", "-1"],
    ["act", "1/0*X", "y"],
    ["verify", "finalg", "--negative-control"],
    ["verify", "sl2-q", "--bound-h", "1", "--bound-a", "1",
     "--suite", "hom-bialgebra", "--negative-control"],
    ["verify", "finalg", "--file", "{bool-index}"],
    ["verify", "finalg", "--file", "{repeated-constant}"],
    ["act", "Z", "3 4*x"],
    ["verify", "finalg", "--file", "{repeated-operator}"],
    ["verify", "finalg", "--file", "{repeated-label}"],
    ["verify", "finalg", "--file", "{deep-nesting}"],
    ["act", "Z^20000", "x^2"],
    # Fraction would compute 10**e for these before returning
    ["act", "X", "y", "--q-value", "1e999999999"],
    ["act", "X", "y", "--q-value", "1e-99999999"],
    # q0 = 10^10000 has more digits than str renders
    ["act", "q*X", "y", "--q-value", "1e10000"],
    # only finalg reads a scenario file
    ["verify", "sl2-q", "--file", "/nonexistent"],
    ["twist", "sl2", "--file", "x"],
    ["verify", "finalg", "--file", "{empty-group}"],
    # Python 3.11's argparse hands poly an empty list after a second "--"
    ["act", "--", "X", "--"],
    ["act", "X", "--", "--"],
    ["twist", "finalg", "--file", "{surrogate-label}"],
    ["verify", "finalg", "--file", "{number-label}"],
    ["verify", "finalg", "--file", "{index-out-of-range}"],
    ["verify", "finalg", "--file", "{not-associative}"],
    ["verify", "finalg", "--file", "{left-unit-only}"],
    ["verify", "finalg", "--file", "{no-unit}"],
    ["verify", "finalg", "--file", "{zero-element}"],
    ["verify", "finalg", "--file", "{q-element}"],
    ["verify", "finalg", "--file", "{ragged-operator}"],
    ["verify", "finalg", "--file", "{zero-operator}"],
    ["verify", "finalg", "--file", "{singular-operator}"],
    ["verify", "finalg", "--file", "{swap-only}"],
    ["verify", "finalg", "--file", "{unfixed-element}"],
    ["verify", "finalg", "--file", "{long-element}"],
    ["verify", "finalg", "--file", "{text-labels}"],
    ["act", "X +", "y"],
    ["act", "(q", "y"],
    ["act", "q)", "y"],
    ["act", "", "y"],
    ["act", "*", "y"],
    ["act", "X^", "y"],
    ["act", "Y X", "y"],
    ["act", "X", "y", "--q-value", "abc"],
    ["act", "X", "y", "--q-value", "0"],
    # 2^(10^11), and powers of q0 = 2 of 10^10 bits, alone and spread over a sum
    ["act", "Z^100000000000", "x^2"],
    ["act", "q^10000000000*X", "y", "--q-value", "2"],
    ["act", "q^10000000000*X + X", "y", "--q-value", "2"],
    ["verify", "sl2-q", "--suite", "nope"],
    ["verify", "sl2-q", "--bound-h", "0"],
    ["verify", "sl2-q", "--bound-h", "1000"],
    # a report that would overwrite the scenario file, by its name or by a link
    ["verify", "finalg", "--file", "{m2-order-two}", "--suite", "compatibility",
     "--report", "{m2-order-two}"],
    ["verify", "finalg", "--file", "{m2-order-two}", "--suite", "compatibility",
     "--report", "{link-to-m2-order-two}"],
    # only sl2 reads a bound
    ["verify", "finalg", "--bound-h", "7", "--suite", "compatibility"],
    ["verify", "finalg", "--bound-a", "1"],
    ["verify", "finalg", "--bound-h", "0"],
    ["twist", "finalg", "--bound", "9"],
    # U(sl(2)) text reads a space as a product, but not inside a number
    ["act", "2 2", "x"],
    ["verify", "finalg", "--file", "{non-multiplicative-operator}"],
]


def scenario_paths(folder) -> dict:
    """Write the BAD_SCENARIOS and GOOD_SCENARIOS files into folder; the
    paths BAD_INPUTS name.
    """
    paths = {"missing-dir": str(folder / "missing")}
    for name, document in {**BAD_SCENARIOS, **GOOD_SCENARIOS}.items():
        paths[name] = str(folder / f"{name}.json")
        (folder / f"{name}.json").write_text(json.dumps(document))
    # raw text: json.dumps itself recurses on a document this deep
    paths["deep-nesting"] = str(folder / "deep-nesting.json")
    (folder / "deep-nesting.json").write_text("[" * 100000 + "]" * 100000)
    paths["link-to-m2-order-two"] = str(folder / "link.json")
    (folder / "link.json").symlink_to(folder / "m2-order-two.json")
    return paths


# the ids are the names these cases are reported under, kept stable
@pytest.mark.parametrize(
    "argv", BAD_INPUTS, ids=[f"env{i}-argv{i}" for i in range(len(BAD_INPUTS))]
)
def test_bad_input_exits_2(capsys, tmp_path, argv):
    paths = scenario_paths(tmp_path)
    files = {path: path.read_bytes() for path in tmp_path.iterdir()}
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == cli.EXIT_INPUT_ERROR
    assert "error" in err and "Traceback" not in err
    # a refused run writes no file it reads
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files


@pytest.mark.parametrize("name", GOOD_SCENARIOS)
def test_good_scenario_passes(capsys, tmp_path, name):
    code, out, _ = run(capsys, "verify", "finalg", "--file", scenario_paths(tmp_path)[name])
    assert code == cli.EXIT_PASS
    assert all(line.startswith("PASS") for line in out.splitlines())


@pytest.mark.parametrize(
    "argv, option",
    [
        (["verify", "finalg", "--bound-h", "0"], "--bound-h"),
        (["verify", "finalg", "--bound-a", "3"], "--bound-a"),
        (["twist", "finalg", "--bound", "2"], "--bound"),
    ],
)
def test_finalg_refuses_a_bound_by_its_option(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert err == f"error: {option} does not apply to the finalg scenario\n"


# scenario files for the fuzz are mutated from these documents, with these
# atoms replacing a node
FUZZ_DOCUMENTS = (
    st.sampled_from([json.loads(finalg_text(1, 2)), json.loads(finalg_text(2, 2))])
    | st.just(finalg.M2)
    | st.sampled_from(list(BAD_SCENARIOS.values()))
)
FUZZ_ATOMS = [None, True, False, 0.5, "1/0", "q^-1", [], "é", "\ud800"]


def node_paths(node, at=()):
    """The path, keys and indices from the root, of node and of each node below it."""
    yield at
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, at + (key,))


@st.composite
def mutated_documents(draw):
    """A FUZZ_DOCUMENTS entry with one node of one field replaced by an atom,
    dropped, or duplicated in its list.  Drawing the field first gives the
    few labels as much weight as the many structure constants.
    """
    document = copy.deepcopy(draw(FUZZ_DOCUMENTS))
    field = draw(st.sampled_from(list(document) if isinstance(document, dict) else [0]))
    *path, key = draw(st.sampled_from(list(node_paths(document[field], (field,)))))
    parent = document
    for step in path:
        parent = parent[step]
    how = draw(st.sampled_from(["replace", "drop", "duplicate"][: 2 + isinstance(parent, list)]))
    if how == "replace":
        parent[key] = draw(st.sampled_from(FUZZ_ATOMS))
    elif how == "drop":
        del parent[key]
    else:
        parent.insert(key, parent[key])
    return document


# the deadline caps the wall time of each case
@settings(
    max_examples=300, derandomize=True, deadline=1000,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(mutated_documents())
def test_mutated_scenario_files_exit_0_1_or_2(capsys, tmp_path, document):
    # no exception escapes main, a refusal says why, and stdout, capsys's
    # strict UTF-8 stream, takes every text printed
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    for command, codes in [("verify", (0, 1, 2)), ("twist", (0, 2))]:
        code, _, err = run(capsys, command, "finalg", "--file", str(path))
        assert code in codes
        assert code != cli.EXIT_INPUT_ERROR or "error:" in err


def test_positional_after_a_second_dash_dash_exits_2():
    # the process prints error:, not the traceback of the empty list argparse hands on
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "homtwist", "act", "--", "X", "--"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == cli.EXIT_INPUT_ERROR
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_verify_prints_five_counterexamples_and_counts_the_rest(capsys, monkeypatch):
    cases = [Counterexample((f"e{i}",), "a", "b") for i in range(6)]
    report = cli._label(CheckReport(checked=9, counterexamples=cases), "planted", "")
    monkeypatch.setitem(cli.SUITES, "compatibility", lambda r: report)
    code, out, _ = run(capsys, "verify", "finalg", "--suite", "compatibility")
    lines = out.splitlines()
    assert code == cli.EXIT_AXIOM_FAILURE
    assert lines[0] == "FAIL planted: 6 counterexamples out of 9 cases"
    printed = [line for line in lines if line.startswith("  at")]
    assert printed == [f"  at (e{i}):" for i in range(5)]
    assert lines[-1] == "  ... 1 more"


@pytest.mark.parametrize(
    "scenario, report", [("sl2-q", "{tmp}"), ("finalg", "{tmp}/missing/x.json"), ("finalg", "")]
)
def test_unwritable_report_exits_2_before_any_sweep(
    capsys, monkeypatch, tmp_path, scenario, report
):
    # a directory, a path in a missing one, or no path: refused before the suite runs
    calls = []
    monkeypatch.setitem(cli.SUITES, "compatibility", lambda r: calls.append(r))
    path = report.format(tmp=tmp_path)
    code, out, err = run(capsys, "verify", scenario, "--suite", "compatibility", "--report", path)
    assert (code, out, calls) == (cli.EXIT_INPUT_ERROR, "", [])
    assert err.startswith("error: cannot write report") and "Traceback" not in err


def test_full_key_registry_exits_2(capsys, monkeypatch):
    # a registry with room for no new key: the new plane key cannot get an id
    monkeypatch.setattr(homcore.REGISTRY, "capacity", len(homcore.REGISTRY.keys))
    code, out, err = run(capsys, "act", "1", "x^987654321")
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert "error: key registry is full" in err and "Traceback" not in err


@pytest.mark.parametrize("through_link", [False, True])
def test_full_key_registry_removes_the_partial_report(capsys, monkeypatch, tmp_path, through_link):
    # the record's keys get ids first; the sweep's products reach degree 40,
    # above every plane key another test makes, so a new key ends the run
    # after the report was opened
    actions.sl2_scenario(1, 20)
    monkeypatch.setattr(homcore.REGISTRY, "capacity", len(homcore.REGISTRY.keys))
    path = target = tmp_path / "report.json"
    if through_link:
        # as --report /dev/stdout: the link and the file it names stay
        path = tmp_path / "link.json"
        path.symlink_to(target)
    code, out, err = run(
        capsys, "verify", "sl2-q", "--bound-h", "1", "--bound-a", "20",
        "--suite", "module-hom-algebra", "--report", str(path),
    )
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert "error: key registry is full" in err and "Traceback" not in err
    assert (path.is_symlink(), target.exists()) == (through_link, through_link)


# Case counts at --bound-h 1 --bound-a 2 from basis sizes: H PBW monomials of
# degree <= 1, A plane monomials of degree <= 2, and for finalg the default
# 2x2 matrix algebra (d = 4) with a group of order 2.  Every suite runs on
# both scenarios; hom-lie checks a Lie carrier that does not depend on the
# bounds (U(sl2) on PBW degree <= 1, or A_alpha).
H, A = comb(4, 3), comb(4, 2)
D, G = 4, 2
SUITE_CASES = {
    "sl2-q": {
        "hom-associativity": A**3 + A**2,
        "hom-bialgebra": H**2 + H**3 + H + H + H**2,
        "module-axiom": H * A + H * H * A,
        "module-hom-algebra": H * A * A,
        "mu-module-morphism": H * A * A,
        "compatibility": H * A,
        "classical": H * A * A,
        "hom-lie": 4**2 + 4**3,
    },
    "finalg": {
        "hom-associativity": D**3 + D**2,
        "hom-bialgebra": G**2 + G**3 + G + G + G**2,
        "module-axiom": G * D + G * G * D,
        "module-hom-algebra": G * D * D,
        "mu-module-morphism": G * D * D,
        "compatibility": G * D,
        "classical": G * D * D,
        "hom-lie": D**2 + D**3,
    },
}


@pytest.mark.parametrize("scenario", sorted(cli.SCENARIOS))
def test_suite_registry_case_counts(capsys, tmp_path, scenario):
    expected = SUITE_CASES[scenario]
    assert tuple(cli.SUITES) == tuple(expected)
    path = tmp_path / "report.json"
    # finalg reads no bound
    bounds = ["--bound-h", "1", "--bound-a", "2"] if scenario == "sl2-q" else []
    code, _, _ = run(capsys, "verify", scenario, *bounds, "--report", str(path))
    assert code == 0
    reports = json.loads(path.read_text())["reports"]
    assert [r["checked"] for r in reports] == list(expected.values())


class TestTwist:
    def test_sl2_tables(self, capsys):
        code, out, _ = run(capsys, "twist", "sl2", "--bound", "1")
        assert code == 0
        assert "(X) * (Y) = X Y" in out
        assert "Delta(X) = (q)*(1 x X) + (q)*(X x 1)" in out

    def test_sl2_builds_the_plane_of_the_unit_alone(self, capsys, monkeypatch):
        # only H is printed, so the triple's plane carrier is read at bound 0
        bounds, plane_carrier = [], actions.plane_carrier
        monkeypatch.setattr(
            actions, "plane_carrier", lambda bound: bounds.append(bound) or plane_carrier(bound)
        )
        assert run(capsys, "twist", "sl2", "--bound", "1")[0] == 0
        assert bounds == [0]

    def test_sl2_bound_0_is_the_unit(self, capsys):
        assert run(capsys, "twist", "sl2", "--bound", "0")[:2] == (0, (
            "# twisted product mu_alpha on PBW basis\n(1) * (1) = 1\n"
            "# twisted coproduct Delta_alpha on PBW basis\nDelta(1) = (1)*(1 x 1)\n"
        ))

    def test_sl2_bound_defaults_to_2(self, capsys):
        assert run(capsys, "twist", "sl2") == run(capsys, "twist", "sl2", "--bound", "2")

    def test_finalg_table(self, capsys):
        code, out, _ = run(capsys, "twist", "finalg")
        assert code == 0
        assert "e12 * e21 = " in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "twist", "sl2", "--bound", "2")
        _, out2, _ = run(capsys, "twist", "sl2", "--bound", "2")
        assert out1 == out2


# (scenario, suite) -> (counterexamples, cases) of its control at bounds (1,1)
CONTROL_FAILURES = {
    ("sl2-q", "module-hom-algebra"): (10, 36),
    ("sl2-q", "mu-module-morphism"): (10, 36),
}


@pytest.mark.parametrize(
    "scenario, suite", [(s, suite) for s, controls in cli.CONTROLS.items() for suite in controls]
)
def test_each_control_fails_where_its_suite_passes(scenario, suite):
    assert scenario in cli.SCENARIOS and suite in cli.SUITES
    r = cli.SCENARIOS[scenario](argparse.Namespace(bound_h=1, bound_a=1, file=None))
    [plain] = cli._run_suites(r, [suite], cli.SUITES)
    [control] = cli._run_suites(r, [suite], cli.CONTROLS[scenario])
    assert plain.passed and plain.checked == control.checked
    assert (len(control.counterexamples), control.checked) == CONTROL_FAILURES[scenario, suite]


def test_module_hom_suites_share_one_sweep(capsys, monkeypatch):
    # both suites read one module Hom-algebra sweep
    calls = []
    check = homcore.check_module_hom_algebra
    monkeypatch.setattr(
        homcore, "check_module_hom_algebra", lambda *a: calls.append(a) or check(*a)
    )
    code, _, _ = run(
        capsys,
        "verify", "sl2-q", "--bound-h", "1", "--bound-a", "1",
        "--suite", "module-hom-algebra", "--suite", "mu-module-morphism",
    )
    assert code == cli.EXIT_PASS
    assert len(calls) == 1


def test_module_hom_sweep_is_cleared_after_the_run(capsys):
    code, _, _ = run(
        capsys,
        "verify", "sl2-q", "--bound-h", "1", "--bound-a", "1", "--suite", "module-hom-algebra",
    )
    assert code == cli.EXIT_PASS
    assert cli._module_hom_sweep.cache_info().currsize == 0


# a pass, an axiom failure and a bad input, each with its exit code and a
# line of its output; REPORT stands for the report path
ENTRY_POINT_RUNS = [
    (["verify", "finalg", "--report", "REPORT"], cli.EXIT_PASS, "PASS hom-lie(A_alpha)"),
    (
        [
            "verify", "sl2-q", "--bound-h", "2", "--bound-a", "2",
            "--suite", "module-hom-algebra", "--suite", "mu-module-morphism",
            "--negative-control", "--report", "REPORT",
        ],
        cli.EXIT_AXIOM_FAILURE,
        "124 counterexamples out of 360 cases",
    ),
    (["verify", "sl2-q", "--bound-h", "0"], cli.EXIT_INPUT_ERROR, "error: bounds must be >= 1"),
]


def test_package_runs_as_module(capsys, tmp_path):
    # both process entry points go through cli.run, which prints, writes and
    # exits as the in-process cli.main does.  Only run turns the collector
    # off and ends the process; os._exit flushes no file left open, so the
    # report must be whole when main returns.  Stdout is block-buffered, so
    # what run does not flush is lost
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    for argv, expected_code, line in ENTRY_POINT_RUNS:
        names = ("main", "homtwist", "homtwist.cli")
        reports = {name: tmp_path / f"{name}.json" for name in names}
        argvs = {
            name: [str(path) if arg == "REPORT" else arg for arg in argv]
            for name, path in reports.items()
        }
        code, out, err = run(capsys, *argvs["main"])
        assert code == expected_code and line in out + err
        assert gc.isenabled()
        for module in ("homtwist", "homtwist.cli"):
            done = subprocess.run(
                [sys.executable, "-m", module, *argvs[module]],
                env=env, capture_output=True, timeout=120,
            )
            assert done.returncode == code
            assert (done.stdout, done.stderr) == (out.encode(), err.encode())
            if "REPORT" in argv:
                assert reports[module].read_bytes() == reports["main"].read_bytes()


def test_run_calls_main_without_the_collector_then_flushes_and_exits(monkeypatch):
    # in process: SIGPIPE keeps pytest's action, and the exit raises here
    events = []

    class Stream(io.StringIO):
        def flush(self):
            events.append(("flush", self))

    out, err = Stream(), Stream()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    monkeypatch.setattr(signal, "signal", lambda *args: None)
    monkeypatch.setattr(cli, "main", lambda argv: events.append((argv, gc.isenabled())) or 1)

    def exit_now(code):
        events.append(("exit", code))
        raise SystemExit(code)

    monkeypatch.setattr(os, "_exit", exit_now)
    try:
        with pytest.raises(SystemExit):
            cli.run(["act", "X", "y"])
    finally:
        gc.enable()
    assert events == [(["act", "X", "y"], False), ("flush", out), ("flush", err), ("exit", 1)]


def _entry_point(argv, unbuffered, **streams):
    """Run python -m homtwist argv in a fresh interpreter with these streams."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "homtwist", *argv], env=env, timeout=120, **streams
    )


PASSING = ["verify", "sl2-q", "--bound-h", "1", "--bound-a", "1", "--suite", "hom-bialgebra"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_unwritable_stdout_is_an_input_error(unbuffered):
    # a full device refuses every write: print raises at once when stdout is
    # unbuffered, the flush in cli.run raises when it is buffered
    with open("/dev/full", "w") as full:
        done = _entry_point(PASSING, unbuffered, stdout=full, stderr=subprocess.PIPE)
    assert done.returncode == cli.EXIT_INPUT_ERROR
    message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert done.stderr.decode() == f"error: cannot write output: {message}\n"


# Runs whose error line cannot be written, as (argv, stdout, stderr).  A full
# device refuses every write (ENOSPC).  A closed stderr (2>&-) reaches the
# interpreter read-only when a launcher script opens a file on the free
# descriptor, and then every write fails (EBADF).  The last run is argparse's
# own message, which argparse drops but leaves in stderr's buffer.
UNWRITABLE_ERROR_LINE = [
    (["verify", "sl2-q", "--bound-h", "0"], "pipe", "full"),
    (["verify", "sl2-q", "--bound-h", "0"], "pipe", "read-only"),
    (["verify", "sl2-q", "--bound-h", "1", "--bound-a", "1", "--suite", "nope"], "pipe", "full"),
    (PASSING, "full", "full"),
    (PASSING, "full", "read-only"),
    (["verify", "sl2-q", "--bogus"], "pipe", "full"),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, stdout, stderr",
    UNWRITABLE_ERROR_LINE,
    ids=["bound-full", "bound-closed", "suite-full", "pass-full-full", "pass-full-closed",
         "option-full"],
)
def test_unwritable_error_line_is_an_input_error(argv, stdout, stderr, unbuffered):
    # the error line is dropped, and the run ends at os._exit(2) as any input
    # error does: no exit 1 from an uncaught exception, no exit 120 from a
    # flush at interpreter teardown
    with contextlib.ExitStack() as stack:
        streams = {
            "pipe": subprocess.PIPE,
            "full": stack.enter_context(open("/dev/full", "w")),
            "read-only": stack.enter_context(open(os.devnull)),
        }
        done = _entry_point(argv, unbuffered, stdout=streams[stdout], stderr=streams[stderr])
    assert done.returncode == cli.EXIT_INPUT_ERROR
    assert not done.stdout


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stderr_keeps_the_error_line_off_stdout(unbuffered):
    # a descriptor 2 closed when the interpreter starts leaves sys.stderr None,
    # and print(file=None) would write the error line to stdout
    done = _entry_point(
        ["verify", "sl2-q", "--bound-h", "0"], unbuffered,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, preexec_fn=lambda: os.close(2),
    )
    assert (done.returncode, done.stdout) == (cli.EXIT_INPUT_ERROR, b"")


def test_closed_stdout_ends_the_process_as_cat_ends():
    # twist sl2 --bound 5 prints about 250 KB, more than a pipe holds, so the
    # process writes again after the reader has closed its end
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "homtwist", "twist", "sl2", "--bound", "5"],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"# twisted product mu_alpha on PBW basis\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert b"Traceback" not in stderr, stderr
    # killed by the signal, so no exit code of the contract (0, 1 or 2)
    assert code == -signal.SIGPIPE


def _limit_address_space():
    limit = 1536 * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "sl2-q", "--bound-h", "1000"],
        ["verify", "sl2-q", "--bound-a", "5000"],
        ["twist", "sl2", "--bound", "1000"],
        # q0^e is refused before it is computed
        ["act", "q^99999999999999999999*X", "y", "--q-value", "2"],
        ["act", "q^10000000000*X", "y", "--q-value", "2"],
        ["act", "q^-99999999999999999999*X", "y", "--q-value", "1/3"],
        # so is a coefficient of the action: 2^(10^11), and perm(10^6, 10^6),
        # which takes seconds
        ["act", "Z^100000000000", "x^2"],
        ["act", "Y^1000000", "x^1000000"],
    ],
)
def test_oversized_bound_exits_2_before_enumerating(argv):
    # the basis, or the power of q, alone would exhaust a 1.5 GB address space
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "homtwist", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == cli.EXIT_INPUT_ERROR, done.stderr
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
