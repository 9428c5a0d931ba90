"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every comparison is exact equality over the Laurent ring in q; there are no
numeric tolerances anywhere.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion lines.
"""

import pytest

from homtwist import actions, cli, finalg, homcore
from homtwist.polyalg import Poly
from homtwist.scalars import QLaurent, add_term
from homtwist.uea import UElem

import plane_oracle
from free_oracle import all_words, comul, pbw_word, reduce_to_pbw
from test_actions import weight_spectrum


def mul(u: UElem, v: UElem) -> UElem:
    """u v through the PBW product table actions.pbw_mul."""
    flat = homcore.bilinear(actions.pbw_mul, homcore.flatten(u.terms), homcore.flatten(v.terms))
    return UElem(homcore.unflatten(flat.items()))


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def deformed_33():
    return actions.deformed_scenario(3, 3)


def test_criterion_1_hom_associativity():
    # A_alpha on all monomial triples of total degree <= 4 each, both sides
    # also equal alpha^2(abc)
    carrier = actions.plane_carrier(4)
    twisted = homcore.yau_twist(carrier, actions.alpha_plane())
    mul = twisted.mul
    count = 0
    ok = True
    key = homcore.REGISTRY.keys.__getitem__
    alpha = plane_oracle.alpha
    for k1 in carrier.basis:
        for k2 in carrier.basis:
            for k3 in carrier.basis:
                a, b, c = (Poly.monomial(*key(k)) for k in (k1, k2, k3))
                expected = alpha(alpha(plane_oracle.mul(plane_oracle.mul(a, b), c))).terms
                lhs = homcore.bilinear(mul, twisted.alpha(k1), mul(k2, k3))
                rhs = homcore.bilinear(mul, mul(k1, k2), twisted.alpha(k3))
                ok = ok and homcore.unflatten(lhs.items()) == expected
                ok = ok and homcore.unflatten(rhs.items()) == expected
                count += 1
    assert count >= 3375
    report_line(1, ok, f"Hom-associativity of A_alpha, {count} triples, exact")


def test_criterion_2_hom_bialgebra_suite(deformed_33):
    coassoc = homcore.check_hom_coassociativity(deformed_33.H)
    morphism = homcore.check_comul_morphism(deformed_33.H)
    assert len(deformed_33.H.basis) == 20
    report_line(
        2,
        coassoc.passed and morphism.passed,
        "Hom-bialgebra suite for U(sl2)_alpha on PBW degree <= 3 "
        f"({coassoc.checked} + {morphism.checked} cases), exact",
    )


def test_criterion_3_module_hom_algebra(deformed_33):
    sweep = homcore.check_module_hom_algebra(deformed_33)
    # spot value: triple (X, x, y) gives q^9 x^2 on both sides
    s = deformed_33
    X, x, y = homcore.key_ids([(1, 0, 0), (1, 0), (0, 1)])
    alpha2_X = homcore.linear(s.H.alpha, s.H.alpha(X))
    lhs = homcore.bilinear(s.rho, homcore.terms(alpha2_X), s.A.mul(x, y))
    # sum over Delta(X) of (X'x)(X''y)
    rhs = homcore.t_contract(
        lambda h1, h2: homcore.terms(homcore.bilinear(s.A.mul, s.rho(h1, x), s.rho(h2, y))),
        s.H.comul(X),
    )
    spot = {(2, 0): QLaurent.q_power(9)}
    report_line(
        3,
        sweep.passed
        and homcore.unflatten(lhs.items()) == spot
        and homcore.unflatten(rhs.items()) == spot,
        f"module Hom-algebra axiom, {sweep.checked} triples, "
        "spot value (X, x, y) -> q^9 x^2 on both sides",
    )


def test_criterion_4_characterization_equivalence(deformed_33):
    direct = homcore.check_module_hom_algebra(deformed_33)
    morphism = cli._swapped(homcore.check_module_hom_algebra(deformed_33))
    agree_pass = direct.passed and morphism.passed

    control = actions.deformed_scenario(2, 2)
    direct_bad = homcore.check_module_hom_algebra(control, alpha_power=1)
    morphism_bad = cli._swapped(homcore.check_module_hom_algebra(control, alpha_power=1))
    target = ("X", "x", "y")
    agree_fail = (
        not direct_bad.passed
        and not morphism_bad.passed
        and target in [ce.rendered_inputs for ce in direct_bad.counterexamples]
        and target in [ce.rendered_inputs for ce in morphism_bad.counterexamples]
    )
    report_line(
        4,
        agree_pass and agree_fail,
        "characterization: both checkers agree on the passing scenario and "
        "both fail the negative control with (X, x, y) reported",
    )


def test_criterion_5_endomorphism_extension():
    table = actions.alpha_u()

    def handle(mono) -> dict:
        return homcore.unflatten(table(homcore.REGISTRY.ids[mono]))

    bialg_ok = True
    for mono in UElem.basis_keys(3):
        # Delta of the shuffle oracle on both sides
        lhs = {}
        for m, c in handle(mono).items():
            for key, c2 in comul(pbw_word(m)).items():
                add_term(lhs, key, c * c2)
        rhs = {}
        for (m1, m2), c in comul(pbw_word(mono)).items():
            left, right = handle(m1), handle(m2)
            for k1, c1 in left.items():
                for k2, c2 in right.items():
                    add_term(rhs, (k1, k2), c * c1 * c2)
        bialg_ok = bialg_ok and lhs == rhs
    r = actions.sl2_scenario(3, 4)
    compat = homcore.check_compatibility(r)
    report_line(
        5,
        bialg_ok and compat.passed,
        "alpha_U is a bialgebra endomorphism on PBW degree <= 3 and "
        f"alpha_A(za) = alpha_U(z) alpha_A(a) holds ({compat.checked} cases)",
    )


def test_criterion_6_classical_limit():
    classical = actions.sl2_scenario(3, 3).module
    axiom = homcore.check_module_hom_algebra(classical)
    module = homcore.check_module_axiom(classical)
    bialg = homcore.check_hom_bialgebra(classical.H)
    assoc = homcore.check_hom_associativity(classical.A)
    rho_alpha = actions.deformed_scenario(2, 3).rho
    collapse = True
    key = homcore.REGISTRY.keys.__getitem__
    for mono in homcore.key_ids(UElem.basis_keys(2)):
        for a in classical.A.basis:
            # q = 1: the coefficients of each monomial summed over q exponents
            coords = homcore.unflatten(rho_alpha(mono, a))
            at_one = {k: c.specialize(1) for k, c in coords.items() if c.specialize(1)}
            expected = dict(actions.act_key(key(mono), key(a)))
            collapse = collapse and at_one == expected
    report_line(
        6,
        axiom.passed and module.passed and bialg.passed and assoc.passed and collapse,
        "alpha = Id recovers the classical module algebra axiom and "
        "rho_alpha at q = 1 equals act_key on every tested pair",
    )


def test_criterion_7_pbw_engine_and_weights():
    words = all_words(4)
    oracle_ok = True
    for word in words:
        product = UElem.monomial((0, 0, 0))
        for letter in word:
            product = mul(product, UElem.generator(letter))
        oracle_ok = oracle_ok and product.terms == reduce_to_pbw(word)
    assert len(words) == 1 + 3 + 9 + 27 + 81

    assoc_ok = True
    monos = UElem.basis_keys(3)
    for m1 in monos:
        for m2 in monos:
            for m3 in monos:
                u, v, w = (UElem.monomial(m) for m in (m1, m2, m3))
                assoc_ok = assoc_ok and mul(mul(u, v), w).terms == mul(u, mul(v, w)).terms

    weights_ok = all(
        weight_spectrum(n) == [n - 2 * k for k in range(n + 1)] for n in range(6)
    )
    report_line(
        7,
        oracle_ok and assoc_ok and weights_ok,
        f"PBW engine agrees with the free-algebra oracle on {len(words)} words, "
        "associativity sweep passes, weight ladders correct for n <= 5",
    )


def test_criterion_8_example_31_instance():
    algebra, G, a = finalg.m2_example()
    s = finalg.build_example31(algebra, G, a)
    reports = [
        homcore.check_hom_associativity(s.A),
        homcore.check_multiplicativity(s.A),
        homcore.check_hom_bialgebra(s.H),
        homcore.check_module_axiom(s),
        homcore.check_module_hom_algebra(s),
        cli._swapped(homcore.check_module_hom_algebra(s)),
    ]
    total = sum(r.checked for r in reports)
    report_line(
        8,
        all(r.passed for r in reports),
        "finite scenario (2x2 matrices, conjugation group, a = diag(2,3)) "
        f"passes the full suite exhaustively ({total} cases)",
    )
