"""The scenario record (module, beta_H, beta_A, lie).

r.module is a module Hom-algebra with its own structure maps, and a twist
composes with them: twisting the deformed triple a second time by a compatible
pair (beta_H, beta_A) gives structure maps beta o alpha and again a module
Hom-algebra.  Edits of the record are negative controls for the suites that
have no control on the command line.
"""

import itertools
import pathlib
import subprocess
import sys
from argparse import Namespace

import pytest

from homtwist import actions, cli, finalg, homcore
from homtwist.homcore import basis_terms
from homtwist.scalars import ONE, QLaurent

q = QLaurent.q_power


def counts(report):
    return len(report.counterexamples), report.checked


def sl2(bound_h=2, bound_a=2):
    return cli.SCENARIOS["sl2-q"](Namespace(bound_h=bound_h, bound_a=bound_a))


def m2():
    return cli.SCENARIOS["finalg"](Namespace(file=None))


@pytest.mark.parametrize("scenario", [sl2, m2])
def test_module_is_a_hom_structure(scenario):
    # identity structure maps: the module Hom-algebra axiom is Eq. (1.1)
    s = scenario().module
    assert homcore.check_module_axiom(s).passed
    assert homcore.check_module_hom_algebra(s).passed


# -- the general twist ---------------------------------------------------


def sl2_pair():
    """beta_H: X -> q^4 X, Y -> q^-4 Y, Z -> Z and beta_A = (q^3 x, q^-1 y)."""
    return actions.read_pair({"beta_H": ["q^4*X", "q^-4*Y", "Z"], "beta_A": ["q^3*x", "q^-1*y"]})


def m2_pair():
    """beta_H = Id and beta_A = i_b for b = diag(5, 7), fixed by the group."""
    b = {0: QLaurent.of(5), 3: QLaurent.of(7)}
    module, unit, _ = finalg.m2_example()
    return basis_terms, finalg.inner_automorphism(module.A, unit, b)


def twice_deformed(scenario, pair):
    """The record whose module is the deformed triple and whose twist is pair."""
    r = scenario()
    beta_H, beta_A = pair()
    return r._replace(module=homcore.deform_scenario(r), beta_H=beta_H, beta_A=beta_A)


def uncomposed(r):
    """The twist of r with alpha' = beta in place of beta o alpha: the control."""
    s = homcore.deform_scenario(r)
    return s._replace(H=s.H._replace(alpha=r.beta_H), A=s.A._replace(alpha=r.beta_A))


def sweeps(s):
    return {
        "hom-associativity": homcore.check_hom_associativity(s.A),
        "hom-bialgebra": homcore.check_hom_bialgebra(s.H),
        "module-axiom": homcore.check_module_axiom(s),
        "module-hom-algebra": homcore.check_module_hom_algebra(s),
    }


@pytest.mark.parametrize(
    "scenario, pair, composed, control",
    [
        (
            sl2,
            sl2_pair,
            {"hom-associativity": 216, "hom-bialgebra": 1220, "module-axiom": 660,
             "module-hom-algebra": 360},
            {"hom-associativity": (168, 216), "hom-bialgebra": (747, 1220),
             "module-axiom": (148, 660), "module-hom-algebra": (124, 360)},
        ),
        (
            m2,
            m2_pair,
            {"hom-associativity": 64, "hom-bialgebra": 20, "module-axiom": 24,
             "module-hom-algebra": 32},
            # k[G] keeps alpha = Id either way, and i_b is multiplicative and
            # commutes with G, so only the sweeps that read alpha_A fail
            {"hom-associativity": (10, 64), "hom-bialgebra": (0, 20),
             "module-axiom": (8, 24), "module-hom-algebra": (0, 32)},
        ),
    ],
    ids=["sl2-q", "finalg"],
)
def test_twist_composes_with_the_structure_map(scenario, pair, composed, control):
    r = twice_deformed(scenario, pair)
    assert homcore.check_compatibility(r).passed
    s = homcore.deform_scenario(r)
    for k in s.A.basis:
        once = homcore.terms(homcore.linear(r.beta_A, r.module.A.alpha(k)))
        assert s.A.alpha(k) == once
    assert {name: counts(report) for name, report in sweeps(s).items()} == {
        name: (0, checked) for name, checked in composed.items()
    }
    assert {name: counts(report) for name, report in sweeps(uncomposed(r)).items()} == control


# -- Theorem 1.1 beyond the diagonal pair ---------------------------------
# Twisting pairs of sl2-q written as documents, as actions.SL2_Q is.  The
# shear fixes X and x and sends y to y + q x; the swap exchanges X and Y, x
# and y, and negates Z.  Each is a compatible pair, beta_A(h a) =
# beta_H(h) beta_A(a), so Theorem 1.1 deforms the classical triple by it.
# The perturbed shear keeps beta_H but sends y to y + 2q x, still an algebra
# map but no longer compatible: beta_A(Y x) = y + 2q x, while
# beta_H(Y) beta_A(x) = (Y + qZ - q^2 X) x = y + q x.

SHEAR = {"beta_H": ["X", "Y + q*Z - q^2*X", "Z - 2*q*X"], "beta_A": ["x", "y + q*x"]}
SWAP = {"beta_H": ["Y", "X", "-Z"], "beta_A": ["y", "x"]}
PERTURBED_SHEAR = {**SHEAR, "beta_A": ["x", "y + 2*q*x"]}

SL2_CASES = {
    "hom-associativity": 252, "hom-bialgebra": 1220, "module-axiom": 660,
    "module-hom-algebra": 360, "mu-module-morphism": 360, "compatibility": 60,
    "classical": 360, "hom-lie": 80,
}


def twisted_by(doc, bound_h=2, bound_a=2):
    """The sl2-q record with the twisting pair that actions.read_pair reads from doc."""
    beta_H, beta_A = actions.read_pair(doc)
    return sl2(bound_h, bound_a)._replace(beta_H=beta_H, beta_A=beta_A)


@pytest.mark.parametrize(
    "doc, failing",
    [(SHEAR, {}), (SWAP, {}),
     (PERTURBED_SHEAR, {"compatibility": 21, "module-axiom": 153, "module-hom-algebra": 191,
                        "mu-module-morphism": 191})],
    ids=["shear", "swap", "perturbed-shear"],
)
def test_every_suite_on_a_pair_with_multi_term_images(doc, failing):
    r = twisted_by(doc)
    assert {suite: counts(SUITE(r)) for suite, SUITE in cli.SUITES.items()} == {
        suite: (failing.get(suite, 0), checked) for suite, checked in SL2_CASES.items()
    }


# -- negative controls as record edits ----------------------------------

D = finalg.operator([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
NOT_G_LINEAR = finalg.operator([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


@pytest.mark.parametrize(
    "suite, expected",
    [("module-hom-algebra", (4, 32)), ("mu-module-morphism", (4, 32)),
     ("hom-associativity", (6, 80))],
)
def test_finalg_non_multiplicative_beta(suite, expected):
    # D commutes with G but is not an algebra map of M2
    r = m2()._replace(beta_A=D)
    assert counts(cli.SUITES[suite](r)) == expected


def test_finalg_lie_twist_by_a_non_multiplicative_beta():
    # hom-lie twists A by the record's beta_A, and the commutator of A
    # twisted by D is not multiplicative on the two off-diagonal units
    report = cli.SUITES["hom-lie"](m2()._replace(beta_A=D))
    assert counts(report) == (2, 80)
    assert [ce.rendered_inputs for ce in report.counterexamples] == [
        ("e12", "e21"), ("e21", "e12")
    ]


def test_finalg_beta_that_is_not_g_linear():
    r = m2()._replace(beta_A=NOT_G_LINEAR)
    report = cli.SUITES["compatibility"](r)
    # one sweep of the group: each failing case is reported once
    assert counts(report) == (1, 8)
    assert [ce.rendered_inputs for ce in report.counterexamples] == [("g1", "e12")]


def test_sl2_non_multiplicative_beta():
    # x^i y^j -> q^(i^2) x^i y^j
    r = sl2(3, 3)._replace(beta_A=homcore.key_map(lambda k: {k: q(k[0] ** 2)}))
    assert counts(cli.SUITES["hom-associativity"](r)) == (456, 1100)


def test_sl2_lie_twist_by_a_map_that_is_no_lie_endomorphism():
    # X -> qX, Y -> Y, Z -> Z; actions.extend_lie_endo rejects it, so it is a raw key map
    raw = homcore.key_map(lambda k: {k: q(1) if k == (1, 0, 0) else q(0)})
    r = sl2()._replace(beta_H=raw)
    assert counts(cli.SUITES["hom-lie"](r)) == (2, 80)


def test_twisting_maps_as_structure_maps_fail_the_module_axiom():
    # the triple with untwisted products and alpha := beta on both carriers
    r = sl2(3, 3)
    s = r.module
    s = s._replace(H=s.H._replace(alpha=r.beta_H), A=s.A._replace(alpha=r.beta_A))
    r = r._replace(module=s, beta_H=basis_terms, beta_A=basis_terms)
    assert counts(cli.SUITES["module-axiom"](r)) == (1084, 4200)


# -- Sweedler's H4: the one bialgebra here that is not cocommutative ------
# H4 = <g, x | g^2 = 1, x^2 = 0, xg = -gx> on the basis g^i x^j, key (i, j),
# with Delta(g) = g x g and Delta(x) = x x 1 + g x x.  The generators of
# U(sl2) are primitive and k[G] is grouplike, so only H4 tells x'y' x x''y''
# from its flip.  It acts on k[e]/(e^2), key n for e^n, by g e = -e, x 1 = 0
# and x e = 1, and twists by beta_H: x -> q x, g -> g and beta_A: e -> q^-1 e.

H4_NAMES = {(0, 0): "1", (1, 0): "g", (0, 1): "x", (1, 1): "g x"}
H4_COMUL = {
    (0, 0): [(((0, 0), (0, 0)), 1)],
    (1, 0): [(((1, 0), (1, 0)), 1)],
    (0, 1): [(((0, 1), (0, 0)), 1), (((1, 0), (0, 1)), 1)],
    (1, 1): [(((1, 1), (1, 0)), 1), (((0, 0), (1, 1)), 1)],
}
DUAL_NUMBER_NAMES = {0: "1", 1: "e"}


def h4_mul(a, b):
    # g^i x^j g^k x^l = (-1)^(jk) g^(i+k) x^(j+l)
    (i, j), (k, l) = a, b
    return [] if j + l > 1 else [(((i + k) % 2, j + l), (-1) ** (j * k))]


def h4_act(h, n):
    # x^j first, then g^i
    i, j = h
    if j:
        if not n:
            return []
        n = 0
    return [(n, (-1) ** (i * n))]


def carrier(name, names, mul, comul=None):
    def render_elem(coords):
        return " + ".join(f"({c})*{names[k]}" for k, c in sorted(coords.items())) or "0"

    return homcore.Carrier(
        name=name, basis=homcore.key_ids(names), mul=homcore.on_ids(mul),
        comul=comul and homcore.on_ids(comul), render_key=names.__getitem__,
        render_elem=render_elem,
    )


def h4(e_power=-1):
    """The H4 record; beta_A scales e by q^e_power (the control takes 1)."""
    H = carrier("H4", H4_NAMES, h4_mul, H4_COMUL.__getitem__)
    A = carrier(
        "k[e]/(e^2)", DUAL_NUMBER_NAMES, lambda m, n: [(m + n, 1)] if m + n < 2 else []
    )
    return homcore.Scenario(
        module=homcore.ModuleAlgebraScenario(H, A, homcore.on_ids(h4_act)),
        beta_H=homcore.key_map(lambda k: {k: q(k[1])}),
        beta_A=homcore.key_map(lambda n: {n: q(e_power * n)}),
        lie=lambda d: d.H,
    )


H4_CASES = {
    "hom-associativity": 12, "hom-bialgebra": 104, "module-axiom": 40,
    "module-hom-algebra": 16, "mu-module-morphism": 16, "compatibility": 8,
    "classical": 16, "hom-lie": 80,
}


def test_h4_passes_every_suite():
    # H4 is finite, so each pass is a proof
    assert {suite: counts(SUITE(h4())) for suite, SUITE in cli.SUITES.items()} == {
        suite: (0, checked) for suite, checked in H4_CASES.items()
    }


def test_h4_control_fails_the_suites_that_read_beta_a_on_the_action():
    # e -> q e is an algebra map, but x e = 1 while (q x)(q e) = q^2
    failing = {"compatibility": 2, "module-axiom": 6, "module-hom-algebra": 4,
               "mu-module-morphism": 4}
    assert {suite: counts(SUITE(h4(1))) for suite, SUITE in cli.SUITES.items()} == {
        suite: (failing.get(suite, 0), checked) for suite, checked in H4_CASES.items()
    }


# -- every single-entry edit of a record fails a suite ---------------------
# The record-side twin of tools/mutate.py: each edit adds e_j, for one basis
# key j, to one basis entry of beta_H, beta_A, rho or mu_A, or multiplies one
# nonzero entry of beta_H, beta_A, rho, mu_A, mu_H or Delta by q.  Every edit
# must fail some suite, and every suite must fail some edit, hom-lie
# included: a suite that no edit reaches does not read the record it is given.

def m2_unipotent():
    """M2 with the trivial group and a = e11 + e12 + e22: the images of i_a
    have 2, 1, 4 and 2 terms, where each twist of the other records is diagonal.
    """
    m2, unit, _ = finalg.m2_example()
    module = finalg.automorphism_action(m2.A, [basis_terms])
    return finalg.example31_scenario(module, unit, {0: ONE, 1: ONE, 3: ONE})


EDITED_RECORDS = {
    "finalg": (m2, 116 + 28), "H4": (h4, 44 + 31), "sl2-q(1,1)": (lambda: sl2(1, 1), 88 + 43),
    "finalg(a=e11+e12+e22)": (m2_unipotent, 97 + 19),
    "shear(1,1)": (lambda: twisted_by(SHEAR, 1, 1), 88 + 43),
}

# (record, edit) -> why no suite can see it; a stale entry fails
UNSEEN = {}


def plus(table, at, j):
    """table with e_j added to its entry at the ids at."""
    entry = homcore.terms(homcore.linear(basis_terms, [*table(*at), (j, 1)]))
    return lambda *ids: entry if ids == at else table(*ids)


def times_q(table, at):
    """table with its entry at the ids at multiplied by q."""
    entry = homcore.terms({p + homcore.STRIDE: c for p, c in table(*at)})
    return lambda *ids: entry if ids == at else table(*ids)


def record_edits(r):
    """(name, edited record) for each single-entry edit of r."""
    s = r.module
    H, A = s.H, s.A

    def module(**fields):
        return r._replace(module=s._replace(**fields))

    # table name -> (table, its inputs, the carrier that e_j is added from
    # or None for q-scaling only, the record with the table replaced)
    sites = {
        "beta_H": (r.beta_H, (H,), H, lambda t: r._replace(beta_H=t)),
        "beta_A": (r.beta_A, (A,), A, lambda t: r._replace(beta_A=t)),
        "rho": (s.rho, (H, A), A, lambda t: module(rho=t)),
        "mu_A": (A.mul, (A, A), A, lambda t: module(A=A._replace(mul=t))),
        "mu_H": (H.mul, (H, H), None, lambda t: module(H=H._replace(mul=t))),
        "Delta": (H.comul, (H,), None, lambda t: module(H=H._replace(comul=t))),
    }
    for table_name, (table, inputs, out, edited) in sites.items():
        renders = [homcore.axis(C)[1] for C in inputs]
        added = [(j, homcore.axis(out)[1](j)) for j in out.basis] if out else []
        for at in itertools.product(*(C.basis for C in inputs)):
            args = ", ".join(render(k) for render, k in zip(renders, at))
            if table(*at):
                yield f"{table_name}({args}) *= q", edited(times_q(table, at))
            for j, e_j in added:
                yield f"{table_name}({args}) += {e_j}", edited(plus(table, at, j))


def failing_suites(r) -> dict:
    """edit name -> the suites of cli.SUITES that fail on r with that edit."""
    return {
        name: {suite for suite, SUITE in cli.SUITES.items() if not SUITE(edited).passed}
        for name, edited in record_edits(r)
    }


@pytest.mark.parametrize("record", EDITED_RECORDS)
def test_every_record_edit_fails_a_suite_and_every_suite_an_edit(record):
    scenario, edit_count = EDITED_RECORDS[record]
    failing = failing_suites(scenario())
    assert len(failing) == edit_count
    assert {rec for rec, _ in UNSEEN} <= set(EDITED_RECORDS)
    assert {name for name, suites in failing.items() if not suites} == {
        name for rec, name in UNSEEN if rec == record
    }
    assert set().union(*failing.values()) == set(cli.SUITES)


def test_the_record_edit_tool_sees_every_edit_of_sl2_q_1_1():
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "record_edits.py"
    done = subprocess.run([sys.executable, str(tool), "1", "1"], capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    edits = EDITED_RECORDS["sl2-q(1,1)"][1]
    assert done.stdout.startswith(f"sl2-q(1,1): {edits} edits, {len(cli.SUITES)} suites, ")
    assert "UNSEEN" not in done.stdout and "UNREAD" not in done.stdout
