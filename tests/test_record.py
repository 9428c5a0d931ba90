"""The scenario record (module, beta_H, beta_A, lie).

r.module is a module Hom-algebra with its own structure maps, and a twist
composes with them: twisting the deformed triple a second time by a compatible
pair (beta_H, beta_A) gives structure maps beta o alpha and again a module
Hom-algebra.  Edits of the record are negative controls for the suites that
have no control on the command line.
"""

from argparse import Namespace

import pytest

from homtwist import actions, cli, finalg, homcore
from homtwist.homcore import basis_terms
from homtwist.polyalg import PolyEndo
from homtwist.scalars import QLaurent
from homtwist.uea import UElem, UEndo

ARGS = Namespace(negative_control=False)
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
    gen = UElem.generator
    beta_H = UEndo(gen("X").scaled(q(4)), gen("Y").scaled(q(-4)), gen("Z")).extend()
    return actions.endo_map(beta_H), actions.endo_map(PolyEndo.diagonal(q(3), q(-1)))


def m2_pair():
    """beta_H = Id and beta_A = i_b for b = diag(5, 7), fixed by the group."""
    b = {0: QLaurent.of(5), 3: QLaurent.of(7)}
    return basis_terms, finalg.linop_map(finalg.inner_automorphism(finalg.m2_algebra(), b))


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


# -- negative controls as record edits ----------------------------------

D = finalg.LinOp([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
NOT_G_LINEAR = finalg.LinOp([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


@pytest.mark.parametrize(
    "suite, expected",
    [("module-hom-algebra", (4, 32)), ("mu-module-morphism", (4, 32)),
     ("hom-associativity", (6, 80))],
)
def test_finalg_non_multiplicative_beta(suite, expected):
    # D commutes with G but is not an algebra map of M2
    r = m2()._replace(beta_A=finalg.linop_map(D))
    assert counts(cli.SUITES[suite](r, ARGS)) == expected


def test_finalg_beta_that_is_not_g_linear():
    r = m2()._replace(beta_A=finalg.linop_map(NOT_G_LINEAR))
    report = cli.SUITES["compatibility"](r, ARGS)
    # one sweep of the group: each failing case is reported once
    assert counts(report) == (1, 8)
    assert [ce.rendered_inputs for ce in report.counterexamples] == [("g1", "e12")]


def test_sl2_non_multiplicative_beta():
    # x^i y^j -> q^(i^2) x^i y^j
    r = sl2(3, 3)._replace(beta_A=homcore.key_map(lambda k: {k: q(k[0] ** 2)}))
    assert counts(cli.SUITES["hom-associativity"](r, ARGS)) == (456, 1100)


def test_sl2_lie_twist_by_a_map_that_is_no_lie_endomorphism():
    # X -> qX, Y -> Y, Z -> Z; UEndo.extend rejects it, so it is a raw key map
    raw = homcore.key_map(lambda k: {k: q(1) if k == (1, 0, 0) else q(0)})
    r = sl2()._replace(lie=homcore.yau_twist_algebra(actions.u_carrier(1), raw))
    assert counts(cli.SUITES["hom-lie"](r, ARGS)) == (2, 80)


def test_twisting_maps_as_structure_maps_fail_the_module_axiom():
    # the triple with untwisted products and alpha := beta on both carriers
    r = sl2(3, 3)
    s = r.module
    s = s._replace(H=s.H._replace(alpha=r.beta_H), A=s.A._replace(alpha=r.beta_A))
    r = r._replace(module=s, beta_H=basis_terms, beta_A=basis_terms)
    assert counts(cli.SUITES["module-axiom"](r, ARGS)) == (1084, 4200)
