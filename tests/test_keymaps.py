"""Differential test of the key-level carrier maps against native arithmetic.

Every table entry of a base carrier, a Yau twist, a deformed action,
rho-tilde and rho^2 must equal the flattened result of the same map computed
natively on UElem, Poly, StructAlgebra, LinOp and k[G] elements.  The native
action on the plane is the independent model in plane_oracle, and the PBW
product table is also checked against the free-algebra reduction of
free_oracle.  Building a scenario fills none of the tables.
"""

import os
import subprocess
import sys

import pytest

from homtwist import actions, finalg, homcore, uea
from homtwist.polyalg import Poly, PolyEndo
from homtwist.scalars import ONE, Q
from homtwist.uea import UElem, UEndo, enumerate_pbw

import plane_oracle
from free_oracle import reduce_to_pbw


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

ALPHA_U = actions.alpha_u_handle()
ALPHA_A = actions.alpha_plane()


def U(k):
    """The PBW monomial of the id k."""
    return UElem.monomial(key_of(k))


def P(k):
    """The plane monomial of the id k."""
    return Poly.monomial(*key_of(k))


def twisted_u():
    return homcore.yau_twist_bialgebra(actions.u_carrier(2), actions.endo_map(ALPHA_U))


def test_twisted_u_mul():
    C = twisted_u()
    for k1 in C.basis:
        for k2 in C.basis:
            assert flat(C.mul(k1, k2)) == native(ALPHA_U(U(k1) * U(k2)).terms)


def test_twisted_u_alpha():
    C = twisted_u()
    for k in C.basis:
        assert flat(C.alpha(k)) == native(ALPHA_U(U(k)).terms)


def test_twisted_u_comul():
    C = twisted_u()
    for k in C.basis:
        assert flat(C.comul(k)) == native(uea.comul(ALPHA_U(U(k))))


def word(mono) -> str:
    """The PBW monomial X^a Y^b Z^c as the word of its letters."""
    a, b, c = mono
    return "X" * a + "Y" * b + "Z" * c


def test_pbw_product_matches_free_oracle():
    # products up to degree 6, as the (3,3) Hom-associativity sweep reads them
    C = actions.u_carrier(3)
    for k1 in C.basis:
        for k2 in C.basis:
            expected = reduce_to_pbw(word(key_of(k1)) + word(key_of(k2)))
            assert flat(C.mul(k1, k2)) == expected, (key_of(k1), key_of(k2))


# alpha_U and alpha_A are diagonal: these two maps also test factor order and
# powers of images with several terms
CHEVALLEY = UEndo(UElem.generator("Y"), UElem.generator("X"), -UElem.generator("Z")).extend()
SHEAR = PolyEndo(Poly.x() + Poly.y().scaled(Q), Poly.y())
PLANE_KEYS = [(i, d - i) for d in range(5) for i in range(d + 1)]


@pytest.mark.parametrize(
    "endo, keys", [(CHEVALLEY, enumerate_pbw(4)), (SHEAR, PLANE_KEYS)], ids=["chevalley", "shear"]
)
def test_endo_map_matches_native_images(endo, keys):
    table = actions.endo_map(endo)
    for k in homcore.key_ids(keys):
        assert flat(table(k)) == endo.image(key_of(k)).terms, key_of(k)


LAZY_TABLES = """
import sys
sys.path.insert(0, sys.argv[1])
from homtwist import actions, uea
native = {"_mono_mul": uea._mono_mul, "_left_gen": uea._left_gen, "_comul_mono": uea._comul_mono}
# the Lie check of alpha_U multiplies the generators natively, once
uea.UEndo.q_example().check_lie_endo()
before = {name: cache.cache_info().currsize for name, cache in native.items()}
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
    "lie mul": r.lie.mul,
    "H_alpha mul": s.H.mul,
    "H_alpha alpha": s.H.alpha,
    "H_alpha comul": s.H.comul,
    "A_alpha mul": s.A.mul,
    "A_alpha alpha": s.A.alpha,
    "rho_alpha": s.rho,
}
print(sorted(name for name, table in tables.items() if table.cache_info().currsize))
print(sorted(name for name, cache in native.items() if cache.cache_info().currsize != before[name]))
print(before["_comul_mono"])
"""


def test_building_a_scenario_fills_no_table():
    # the benchmark times this build as setup_s, and its tracer refuses PBW
    # caches that are not empty at the start of a run
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", LAZY_TABLES, src], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n[]\n0\n"


def test_plane_carrier():
    C, beta_A = actions.plane_carrier(2), actions.sl2_scenario(1, 2).beta_A
    for k1 in C.basis:
        assert flat(C.alpha(k1)) == native({key_of(k1): ONE})
        assert flat(beta_A(k1)) == native(ALPHA_A(P(k1)).terms)
        for k2 in C.basis:
            assert flat(C.mul(k1, k2)) == native((P(k1) * P(k2)).terms)


def deformed_native(u: UElem, a) -> dict:
    return plane_oracle.deformed_act(u, P(a)).terms


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
            u = ALPHA_U(u)
        for a in s.A.basis:
            assert flat(tilde.rho(h, a)) == native(deformed_native(u, a))


def test_rho2():
    s = actions.deformed_scenario(1, 1)
    square = homcore.build_rho2(s)
    twisted_comul = homcore.yau_twist_bialgebra(actions.u_carrier(1), actions.endo_map(ALPHA_U))
    pair = homcore.REGISTRY.pair
    for h in s.H.basis:
        # Delta_alpha(h) = Delta(alpha_U(h)), summed natively
        sweedler = uea.comul(ALPHA_U(U(h)))
        assert flat(twisted_comul.comul(h)) == native(sweedler)
        for a in s.A.basis:
            for b in s.A.basis:
                expected = {}
                for (h1, h2), c in sweedler.items():
                    left = deformed_native(UElem.monomial(h1), a)
                    add(expected, tensor(left, deformed_native(UElem.monomial(h2), b)), c)
                assert flat(square.rho(h, pair(a, b))) == native(cleaned(expected))


# -- the finite example -------------------------------------------------


@pytest.fixture(scope="module")
def m2():
    algebra, G, a = finalg.m2_example()
    return algebra, G, finalg.inner_automorphism(algebra, a), finalg.build_example31(algebra, G, a)


def test_group_bialgebra(m2):
    _, G, _, s = m2
    for i in s.H.basis:
        gi = key_of(i)
        assert flat(s.H.comul(i)) == native({(gi, gi): ONE})
        assert flat(s.H.alpha(i)) == native({gi: ONE})
        for j in s.H.basis:
            composed = G.operators.index(G.operators[gi].compose(G.operators[key_of(j)]))
            assert flat(s.H.mul(i, j)) == native({composed: ONE})


def test_a_alpha(m2):
    algebra, G, alpha, s = m2
    e = lambda k: algebra.basis_vector(key_of(k))
    for i in s.A.basis:
        assert flat(s.A.alpha(i)) == native(alpha(e(i)))
        for j in s.A.basis:
            assert flat(s.A.mul(i, j)) == native(alpha(algebra.mul(e(i), e(j))))
        for g in s.H.basis:
            assert flat(s.rho(g, i)) == native(alpha(G.operators[key_of(g)](e(i))))
