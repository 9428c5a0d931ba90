import gc
import json
import os
import resource
import subprocess
import sys
from math import comb

import random
from fractions import Fraction

import pytest

from homtwist import cli, homcore
from homtwist.polyalg import Poly
from homtwist.scalars import QLaurent
from homtwist.uea import UElem

import plane_oracle


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


def _random_coeff(rng):
    c = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
    return QLaurent.q_power(rng.randint(-2, 2), c)


def _random_elem(rng, cls, keys):
    return cls({rng.choice(keys): _random_coeff(rng) for _ in range(rng.randint(1, 3))})


PBW_KEYS = [(a, b, c) for a in range(4) for b in range(4) for c in range(4) if a + b + c <= 3]
PLANE_KEYS = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]


def test_act_matches_native_oracle(capsys):
    rng = random.Random(20081227)
    for _ in range(800):
        z = _random_elem(rng, UElem, PBW_KEYS)
        p = _random_elem(rng, Poly, PLANE_KEYS)
        plain, deformed = plane_oracle.act(z, p), plane_oracle.deformed_act(z, p)
        q0 = rng.choice(["1", "-1", "2", "1/2", "-3/2"])
        for flags, expected in [
            ([], plain),
            (["--deformed"], deformed),
            ([f"--q-value={q0}"], plane_oracle.specialize(plain, Fraction(q0))),
            (["--deformed", f"--q-value={q0}"], plane_oracle.specialize(deformed, Fraction(q0))),
        ]:
            # "--" ends the options: a rendered element may start with "-"
            code, out, _ = run(capsys, "act", *flags, "--", str(z), str(p))
            assert (code, out) == (0, f"{expected}\n"), (str(z), str(p), flags)


class TestVerify:
    def test_finalg_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "finalg")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.strip().splitlines())
        assert "PASS hom-bialgebra(k[G]) [Eqs. (2.3)-(2.5)]: 20 cases" in out

    def test_sl2_small_bounds_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "sl2-q", "--bound-h", "1", "--bound-a", "1",
            "--suite", "module-hom-algebra", "--suite", "module-axiom",
        )
        assert code == 0
        assert "module-hom-algebra" in out

    def test_negative_control_fails_with_counterexample(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "sl2-q", "--bound-h", "2", "--bound-a", "2",
            "--suite", "module-hom-algebra", "--negative-control",
        )
        assert code == cli.EXIT_AXIOM_FAILURE
        assert "FAIL" in out
        assert "(X, x, y)" in out

    def test_unknown_suite_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "sl2-q", "--suite", "bogus")
        assert code == cli.EXIT_INPUT_ERROR
        assert "unknown suite" in err

    def test_bad_bound_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "sl2-q", "--bound-h", "0")
        assert code == cli.EXIT_INPUT_ERROR

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "verify", "finalg", "--file", "/nonexistent.json")
        assert code == cli.EXIT_INPUT_ERROR

    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "verify", "finalg", "--suite", "module-hom-algebra",
            "--report", str(path),
        )
        assert code == 0
        document = json.loads(path.read_text())
        assert document["scenario"] == "finalg"
        assert "bound_h" not in document and "bound_a" not in document
        assert document["reports"][0]["status"] == "pass"
        assert document["reports"][0]["equation"]


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
}


# env holds variables to set for a case.  The bound variables are gone, so no
# case sets one; a bad bound is a bad flag value.
@pytest.mark.parametrize(
    "env, argv",
    [
        ({}, ["verify", "finalg", "--bound-h", "abc"]),
        ({}, ["verify", "sl2-q", "--bound-a", "3.5"]),
        ({}, ["verify", "finalg", "--file", "{top-level-array}"]),
        ({}, ["verify", "finalg", "--file", "{matrix-size}"]),
        ({}, ["twist", "finalg", "--file", "{zero-denominator}"]),
        ({}, ["verify", "finalg", "--report", "{missing-dir}/report.json"]),
        ({}, ["twist", "sl2", "--bound", "-1"]),
        ({}, ["act", "1/0*X", "y"]),
        ({}, ["verify", "finalg", "--negative-control"]),
        ({}, ["verify", "sl2-q", "--bound-h", "1", "--bound-a", "1",
              "--suite", "hom-bialgebra", "--negative-control"]),
        ({}, ["verify", "finalg", "--file", "{bool-index}"]),
        ({}, ["verify", "finalg", "--file", "{repeated-constant}"]),
        ({}, ["act", "Z", "3 4*x"]),
        ({}, ["verify", "finalg", "--file", "{repeated-operator}"]),
        ({}, ["verify", "finalg", "--file", "{repeated-label}"]),
        ({}, ["verify", "finalg", "--file", "{deep-nesting}"]),
        ({}, ["act", "Z^20000", "x^2"]),
        # Fraction would compute 10**e for these before returning
        ({}, ["act", "X", "y", "--q-value", "1e999999999"]),
        ({}, ["act", "X", "y", "--q-value", "1e-99999999"]),
        # q0 = 10^10000 has more digits than str renders
        ({}, ["act", "q*X", "y", "--q-value", "1e10000"]),
    ],
)
def test_bad_input_exits_2(capsys, monkeypatch, tmp_path, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    paths = {"missing-dir": str(tmp_path / "missing")}
    for name, document in BAD_SCENARIOS.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(document))
    # raw text: json.dumps itself recurses on a document this deep
    paths["deep-nesting"] = str(tmp_path / "deep-nesting.json")
    (tmp_path / "deep-nesting.json").write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == cli.EXIT_INPUT_ERROR
    assert "error" in err and "Traceback" not in err


def test_full_key_registry_exits_2(capsys, monkeypatch):
    # a registry with room for no new key: the new plane key cannot get an id
    monkeypatch.setattr(homcore.REGISTRY, "capacity", len(homcore.REGISTRY.keys))
    code, out, err = run(capsys, "act", "1", "x^987654321")
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert "error: key registry is full" in err and "Traceback" not in err


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
    code, _, _ = run(
        capsys, "verify", scenario, "--bound-h", "1", "--bound-a", "2",
        "--report", str(path),
    )
    assert code == 0
    reports = json.loads(path.read_text())["reports"]
    assert [r["checked"] for r in reports] == list(expected.values())


class TestTwist:
    def test_sl2_tables(self, capsys):
        code, out, _ = run(capsys, "twist", "sl2", "--bound", "1")
        assert code == 0
        assert "(X) * (Y) = X Y" in out
        assert "Delta(X) = (q)*(1 x X) + (q)*(X x 1)" in out

    def test_finalg_table(self, capsys):
        code, out, _ = run(capsys, "twist", "finalg")
        assert code == 0
        assert "e12 * e21 = " in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "twist", "sl2", "--bound", "2")
        _, out2, _ = run(capsys, "twist", "sl2", "--bound", "2")
        assert out1 == out2


class TestNegativeControlEquivalence:
    def test_both_characterizations_fail_together(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "sl2-q", "--bound-h", "1", "--bound-a", "1",
            "--suite", "module-hom-algebra", "--suite", "mu-module-morphism",
            "--negative-control",
        )
        assert code == cli.EXIT_AXIOM_FAILURE
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 2
        assert all(line.startswith("FAIL") for line in lines)


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


def test_package_runs_as_module(capsys):
    # both process entry points go through cli.run, which prints what the
    # in-process cli.main prints; only run freezes the heap
    code, expected, _ = run(capsys, "verify", "finalg")
    assert code == cli.EXIT_PASS and "PASS" in expected
    assert gc.get_freeze_count() == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src}
    for module in ("homtwist", "homtwist.cli"):
        done = subprocess.run(
            [sys.executable, "-m", module, "verify", "finalg"],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == expected.encode()


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
