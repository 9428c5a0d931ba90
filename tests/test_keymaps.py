"""Differential test of the key-level carrier maps against independent models.

Every table entry of a base carrier, a Yau twist, a deformed action,
rho-tilde and rho^2 must equal the same map computed in a model that shares
no code with the tables: U(sl(2)) products and coproducts in the free
algebra of free_oracle, the plane and its action in plane_oracle, and the
finite example in the dense arrays of dense_oracle.  Building a scenario
fills none of the tables but those of the Lie check of alpha_U.
"""

import os
import subprocess
import sys

import pytest

from homtwist import actions, finalg, homcore
from homtwist.scalars import ONE, Q, ZERO, QLaurent
from homtwist.uea import UElem

import dense_oracle
import free_oracle
import plane_oracle
from free_oracle import pbw_word, reduce_to_pbw
from rho2_reference import build_rho2
from test_uea import X, Y


key_of = homcore.REGISTRY.keys.__getitem__  # the key of an id


def flat(xs) -> dict:
    """The coordinate map {key: QLaurent} of table terms."""
    return homcore.unflatten(xs)


def native(coords) -> dict:
    """A native coordinate map {key: QLaurent}, through flatten and unflatten."""
    return homcore.unflatten(homcore.flatten(coords))


def tensor(left: dict, right: dict) -> dict:
    """left x right of two coordinate maps, as a coordinate map on key pairs."""
    return {(k1, k2): c1 * c2 for k1, c1 in left.items() for k2, c2 in right.items()}


def add(out: dict, coords: dict, scale):
    for key, c in coords.items():
        out[key] = out[key] + scale * c if key in out else scale * c


def cleaned(coords: dict) -> dict:
    return {key: c for key, c in coords.items() if c}


# -- U(sl2) and the plane -----------------------------------------------


def alpha_u(coords: dict) -> dict:
    """alpha_U on a coordinate map: X^a Y^b Z^c is scaled by q^(a-b)."""
    return {(a, b, c): coeff * QLaurent.q_power(a - b) for (a, b, c), coeff in coords.items()}


def comul(coords: dict) -> dict:
    """Delta of a coordinate map, by the shuffles of free_oracle."""
    out = {}
    for mono, coeff in coords.items():
        add(out, free_oracle.comul(pbw_word(mono)), coeff)
    return cleaned(out)


def U(k) -> dict:
    """The PBW monomial of the id k, as a coordinate map."""
    return {key_of(k): ONE}


def P(k) -> dict:
    """The plane monomial of the id k, as a coordinate map."""
    return {key_of(k): ONE}


def twisted_u():
    return homcore.yau_twist(actions.u_carrier(2), actions.read_pair(actions.SL2_Q)[0])


def test_twisted_u_mul():
    C = twisted_u()
    for k1 in C.basis:
        for k2 in C.basis:
            assert flat(C.mul(k1, k2)) == alpha_u(free_oracle.mul(U(k1), U(k2)))


def test_twisted_u_alpha():
    C = twisted_u()
    for k in C.basis:
        assert flat(C.alpha(k)) == alpha_u(U(k))


def test_twisted_u_comul():
    C = twisted_u()
    for k in C.basis:
        assert flat(C.comul(k)) == comul(alpha_u(U(k)))


def test_pbw_product_matches_free_oracle():
    # products up to degree 6, as the (3,3) Hom-associativity sweep reads them
    C = actions.u_carrier(3)
    for k1 in C.basis:
        for k2 in C.basis:
            expected = reduce_to_pbw(pbw_word(key_of(k1)) + pbw_word(key_of(k2)))
            assert flat(C.mul(k1, k2)) == expected, (key_of(k1), key_of(k2))


def chevalley_image(mono) -> dict:
    """X^a Y^b Z^c -> Y^a X^b (-Z)^c, reduced in the free algebra."""
    a, b, c = mono
    word = "Y" * a + "X" * b + "Z" * c
    return {key: coeff * (-1) ** c for key, coeff in reduce_to_pbw(word).items()}


def shear_image(key) -> dict:
    """x^i y^j -> (x + q y)^i y^j, multiplied out in plane_oracle."""
    i, j = key
    out = {(0, 0): ONE}
    for factor in [X_PLUS_QY] * i + [{(0, 1): ONE}] * j:
        out = plane_oracle.mul(out, factor)
    return out


# alpha_U and alpha_A are diagonal: these two maps also test factor order and
# powers of images with several terms
CHEVALLEY = actions.extend_lie_endo((Y, X, {(0, 0, 1): QLaurent.of(-1)}))
X_PLUS_QY = {(1, 0): ONE, (0, 1): Q}
SHEAR = actions.endo_map((X_PLUS_QY, {(0, 1): ONE}), actions.plane_mul)
PLANE_KEYS = [(i, d - i) for d in range(5) for i in range(d + 1)]


@pytest.mark.parametrize(
    "table, keys, image",
    [(CHEVALLEY, UElem.basis_keys(4), chevalley_image), (SHEAR, PLANE_KEYS, shear_image)],
    ids=["chevalley", "shear"],
)
def test_endo_map_matches_native_images(table, keys, image):
    for k in homcore.key_ids(keys):
        assert flat(table(k)) == image(key_of(k)), key_of(k)


LAZY_TABLES = """
import sys
sys.path.insert(0, sys.argv[1])
from homtwist import actions
r = actions.sl2_scenario(3, 3)
s = actions.deformed_scenario(3, 3)
tables = {
    "pbw_mul": actions.pbw_mul,
    "plane_mul": actions.plane_mul,
    **{f"left {gen}": table for gen, table in actions._LEFT.items()},
    "beta_H": r.beta_H,
    "beta_A": r.beta_A,
    "rho": r.module.rho,
    "comul": r.module.H.comul,
    "H_alpha mul": s.H.mul,
    "H_alpha alpha": s.H.alpha,
    "H_alpha comul": s.H.comul,
    "A_alpha mul": s.A.mul,
    "A_alpha alpha": s.A.alpha,
    "rho_alpha": s.rho,
}
sizes = {name: table.cache_info().currsize for name, table in tables.items()}
print(sorted((name, size) for name, size in sizes.items() if size))
"""


def test_building_a_scenario_fills_no_table():
    # the benchmark times this build as setup_s.  Only the Lie check of
    # alpha_U fills tables: the nine brackets of the generators, which take
    # the 9 products of two generators and the 3 of the unit by a generator
    # from pbw_mul, and those take one left multiplication each; the images
    # of the 3 generators fill beta_H, the table the check is run on
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", LAZY_TABLES, src], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    filled = [("beta_H", 3), ("left X", 3), ("left Y", 3), ("left Z", 3), ("pbw_mul", 12)]
    assert done.stdout == f"{filled}\n"


def test_plane_carrier():
    C, beta_A = actions.plane_carrier(2), actions.sl2_scenario(1, 2).beta_A
    for k1 in C.basis:
        assert flat(C.alpha(k1)) == native({key_of(k1): ONE})
        assert flat(beta_A(k1)) == native(plane_oracle.alpha(P(k1)))
        for k2 in C.basis:
            assert flat(C.mul(k1, k2)) == native(plane_oracle.mul(P(k1), P(k2)))


def deformed_native(u: dict, a) -> dict:
    return plane_oracle.deformed_act(u, P(a))


def test_deformed_rho():
    s = actions.deformed_scenario(2, 2)
    for h in s.H.basis:
        for a in s.A.basis:
            assert flat(s.rho(h, a)) == native(deformed_native(U(h), a))


@pytest.mark.parametrize("power", [0, 1, 2])
def test_rho_tilde(power):
    s = actions.deformed_scenario(2, 2)
    tilde = homcore.build_rho_tilde(s, alpha_power=power)
    for h in s.H.basis:
        u = U(h)
        for _ in range(power):
            u = alpha_u(u)
        for a in s.A.basis:
            assert flat(tilde.rho(h, a)) == native(deformed_native(u, a))


def test_rho2():
    s = actions.deformed_scenario(1, 1)
    square = build_rho2(s)
    twisted_comul = homcore.yau_twist(actions.u_carrier(1), actions.read_pair(actions.SL2_Q)[0])
    pair = homcore.REGISTRY.pair
    for h in s.H.basis:
        # Delta_alpha(h) = Delta(alpha_U(h)), by shuffles
        sweedler = comul(alpha_u(U(h)))
        assert flat(twisted_comul.comul(h)) == native(sweedler)
        for a in s.A.basis:
            for b in s.A.basis:
                expected = {}
                for (h1, h2), c in sweedler.items():
                    left = deformed_native({h1: ONE}, a)
                    add(expected, tensor(left, deformed_native({h2: ONE}, b)), c)
                assert flat(square.rho(h, pair(a, b))) == native(cleaned(expected))


# -- the finite example -------------------------------------------------


@pytest.fixture(scope="module")
def m2():
    return dense_oracle.m2(), finalg.build_example31(*finalg.m2_example())


def dense(coords: dict, n) -> list:
    """The dense vector of a coordinate map."""
    return [coords.get(i, ZERO) for i in range(n)]


def test_group_bialgebra(m2):
    model, s = m2
    for i in s.H.basis:
        gi = key_of(i)
        assert flat(s.H.comul(i)) == native({(gi, gi): ONE})
        assert flat(s.H.alpha(i)) == native({gi: ONE})
        for j in s.H.basis:
            product = dense_oracle.compose(model.group[gi], model.group[key_of(j)])
            assert flat(s.H.mul(i, j)) == native({model.group.index(product): ONE})


def test_a_alpha(m2):
    model, s = m2
    alpha = model.conjugation(model.element)
    e = lambda k: model.basis(key_of(k))
    for i in s.A.basis:
        assert dense(flat(s.A.alpha(i)), model.n) == dense_oracle.apply(alpha, e(i))
        for j in s.A.basis:
            expected = dense_oracle.apply(alpha, model.mul(e(i), e(j)))
            assert dense(flat(s.A.mul(i, j)), model.n) == expected
        for g in s.H.basis:
            expected = dense_oracle.apply(alpha, dense_oracle.apply(model.group[key_of(g)], e(i)))
            assert dense(flat(s.rho(g, i)), model.n) == expected
