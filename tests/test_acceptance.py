"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every comparison is exact equality over the Laurent ring in q; there are no
numeric tolerances anywhere.  A sweep asserts each case, with its inputs in
the message.  Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion lines.
"""

import contextlib
import itertools

import pytest

from homtwist import actions, cli, finalg, homcore
from homtwist.polyalg import Poly
from homtwist.scalars import ONE, QLaurent, add_term
from homtwist.uea import UElem

import plane_oracle
from free_oracle import all_words, comul, pbw_word, reduce_to_pbw
from rho2_reference import t_contract
from test_actions import weight_spectrum
from test_uea import UNIT, X, Y, Z, mul


@contextlib.contextmanager
def criterion(number, detail):
    """Print ACCEPTANCE <number> PASS or FAIL as the asserts of the block pass or fail."""
    try:
        yield
    except AssertionError:
        print(f"ACCEPTANCE {number} FAIL: {detail}")
        raise
    print(f"ACCEPTANCE {number} PASS: {detail}")


@pytest.fixture(scope="module")
def deformed_33():
    return actions.deformed_scenario(3, 3)


def test_criterion_1_hom_associativity():
    # A_alpha on all monomial triples of total degree <= 4 each, both sides
    # also equal alpha^2(abc)
    carrier = actions.plane_carrier(4)
    twisted = homcore.yau_twist(carrier, actions.read_pair(actions.SL2_Q)[1])
    product = twisted.mul
    key = homcore.REGISTRY.keys.__getitem__
    alpha = plane_oracle.alpha
    triples = list(itertools.product(carrier.basis, repeat=3))
    assert len(triples) >= 3375
    with criterion(1, f"Hom-associativity of A_alpha, {len(triples)} triples, exact"):
        for k1, k2, k3 in triples:
            a, b, c = ({key(k): ONE} for k in (k1, k2, k3))
            expected = alpha(alpha(plane_oracle.mul(plane_oracle.mul(a, b), c)))
            lhs = homcore.bilinear(product, twisted.alpha(k1), product(k2, k3))
            rhs = homcore.bilinear(product, product(k1, k2), twisted.alpha(k3))
            assert homcore.unflatten(lhs.items()) == expected, f"lhs at {key(k1), key(k2), key(k3)}"
            assert homcore.unflatten(rhs.items()) == expected, f"rhs at {key(k1), key(k2), key(k3)}"


def test_criterion_2_hom_bialgebra_suite(deformed_33):
    coassoc = homcore.check_hom_coassociativity(deformed_33.H)
    morphism = homcore.check_comul_morphism(deformed_33.H)
    assert len(deformed_33.H.basis) == 20
    detail = (
        "Hom-bialgebra suite for U(sl2)_alpha on PBW degree <= 3 "
        f"({coassoc.checked} + {morphism.checked} cases), exact"
    )
    with criterion(2, detail):
        assert coassoc.passed and morphism.passed


def test_criterion_3_module_hom_algebra(deformed_33):
    sweep = homcore.check_module_hom_algebra(deformed_33)
    # spot value: triple (X, x, y) gives q^9 x^2 on both sides
    s = deformed_33
    X, x, y = homcore.key_ids([(1, 0, 0), (1, 0), (0, 1)])
    alpha2_X = homcore.linear(s.H.alpha, s.H.alpha(X))
    lhs = homcore.bilinear(s.rho, homcore.terms(alpha2_X), s.A.mul(x, y))
    # sum over Delta(X) of (X'x)(X''y)
    rhs = t_contract(
        lambda h1, h2: homcore.terms(homcore.bilinear(s.A.mul, s.rho(h1, x), s.rho(h2, y))),
        s.H.comul(X),
    )
    spot = {(2, 0): QLaurent.q_power(9)}
    detail = (
        f"module Hom-algebra axiom, {sweep.checked} triples, "
        "spot value (X, x, y) -> q^9 x^2 on both sides"
    )
    with criterion(3, detail):
        assert sweep.passed
        assert homcore.unflatten(lhs.items()) == spot
        assert homcore.unflatten(rhs.items()) == spot


def test_criterion_4_characterization_equivalence(deformed_33):
    direct = homcore.check_module_hom_algebra(deformed_33)
    morphism = cli._swapped(homcore.check_module_hom_algebra(deformed_33))
    control = actions.deformed_scenario(2, 2)
    direct_bad = homcore.check_module_hom_algebra(control, alpha_power=1)
    morphism_bad = cli._swapped(homcore.check_module_hom_algebra(control, alpha_power=1))
    target = ("X", "x", "y")
    detail = (
        "characterization: both checkers agree on the passing scenario and "
        "both fail the negative control with (X, x, y) reported"
    )
    with criterion(4, detail):
        assert direct.passed and morphism.passed
        assert not direct_bad.passed and not morphism_bad.passed
        assert target in [ce.rendered_inputs for ce in direct_bad.counterexamples]
        assert target in [ce.rendered_inputs for ce in morphism_bad.counterexamples]


def test_criterion_5_endomorphism_extension():
    table = actions.read_pair(actions.SL2_Q)[0]

    def handle(mono) -> dict:
        return homcore.unflatten(table(homcore.REGISTRY.ids(mono)))

    compat = homcore.check_compatibility(actions.sl2_scenario(3, 4))
    detail = (
        "alpha_U is a bialgebra endomorphism on PBW degree <= 3 and "
        f"alpha_A(za) = alpha_U(z) alpha_A(a) holds ({compat.checked} cases)"
    )
    with criterion(5, detail):
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
            assert lhs == rhs, f"at {UElem.render_key(mono)}"
        assert compat.passed


def test_criterion_6_classical_limit():
    classical = actions.sl2_scenario(3, 3).module
    reports = [
        homcore.check_module_hom_algebra(classical),
        homcore.check_module_axiom(classical),
        homcore.check_hom_bialgebra(classical.H),
        homcore.check_hom_associativity(classical.A),
    ]
    rho_alpha = actions.deformed_scenario(2, 3).rho
    key = homcore.REGISTRY.keys.__getitem__
    detail = (
        "alpha = Id recovers the classical module algebra axiom and "
        "rho_alpha at q = 1 equals act_key on every tested pair"
    )
    with criterion(6, detail):
        assert all(r.passed for r in reports)
        for mono in homcore.key_ids(UElem.basis_keys(2)):
            for a in classical.A.basis:
                # q = 1: the coefficients of each monomial summed over q exponents
                coords = homcore.unflatten(rho_alpha(mono, a))
                at_one = {k: c.specialize(1) for k, c in coords.items() if c.specialize(1)}
                z, p = UElem.render_key(key(mono)), Poly.render_key(key(a))
                assert at_one == dict(actions.act_key(key(mono), key(a))), f"at ({z}, {p})"


def test_criterion_7_pbw_engine_and_weights():
    words = all_words(4)
    assert len(words) == 1 + 3 + 9 + 27 + 81
    monos = UElem.basis_keys(3)
    detail = (
        f"PBW engine agrees with the free-algebra oracle on {len(words)} words, "
        "associativity sweep passes, weight ladders correct for n <= 5"
    )
    with criterion(7, detail):
        generators = {"X": X, "Y": Y, "Z": Z}
        for word in words:
            product = UNIT
            for letter in word:
                product = mul(product, generators[letter])
            assert product == reduce_to_pbw(word), f"word {word!r}"
        for m1, m2, m3 in itertools.product(monos, repeat=3):
            u, v, w = ({m: ONE} for m in (m1, m2, m3))
            assert mul(mul(u, v), w) == mul(u, mul(v, w)), f"at PBW keys {m1}, {m2}, {m3}"
        for n in range(6):
            assert weight_spectrum(n) == [n - 2 * k for k in range(n + 1)], f"n = {n}"


def test_criterion_8_example_31_instance():
    s = finalg.build_example31(*finalg.m2_example())
    reports = [
        homcore.check_hom_associativity(s.A),
        homcore.check_multiplicativity(s.A),
        homcore.check_hom_bialgebra(s.H),
        homcore.check_module_axiom(s),
        homcore.check_module_hom_algebra(s),
        cli._swapped(homcore.check_module_hom_algebra(s)),
    ]
    detail = (
        "finite scenario (2x2 matrices, conjugation group, a = diag(2,3)) "
        f"passes the full suite exhaustively ({sum(r.checked for r in reports)} cases)"
    )
    with criterion(8, detail):
        assert all(r.passed for r in reports)
