"""The U(sl(2))-module algebra on k[x,y] and its q-deformation.

Generator rules: X acts as x d/dy, Y as y d/dx, Z as x d/dx - y d/dy.  A PBW
monomial X^a Y^b Z^c acts as the composite operator X^a(Y^b(Z^c(-))), which
matches the associative product because the module axiom sweep of the
classical triple verifies (uv)p = u(vp).  The action exists only on keys,
act_key; `homtwist act` and every suite contract the same table.

The record twists the classical triple by beta_A = alpha_A: x -> q^2 x, y -> q y
on the plane and beta_H = alpha_U, extending X -> qX, Y -> q^-1 Y, Z -> Z on
the Lie algebra; rho_alpha = alpha_A o rho.

The carriers give these maps on basis keys, PBW monomials (a, b, c) and
plane exponents (i, j); homcore.on_ids and homcore.key_map make them tables
on key ids.
"""

from __future__ import annotations

from functools import cache
from math import comb, perm

from . import homcore, uea
from .homcore import Carrier, ModuleAlgebraScenario, Scenario, key_ids, key_map, on_ids
from .polyalg import Poly, PolyEndo, enumerate_monomials
from .scalars import QLaurent, trusted
from .uea import UAlgebraEndo, UElem, UEndo, enumerate_pbw, render_mono


def alpha_plane() -> PolyEndo:
    """The diagonal endomorphism P(x, y) -> P(q^2 x, q y)."""
    return PolyEndo.diagonal(QLaurent.q_power(2), QLaurent.q_power(1))


def alpha_u_handle():
    """The bialgebra endomorphism of U(sl(2)) extending the q-example."""
    return UEndo.q_example().extend()


def act_key(mono, key) -> tuple:
    """The terms of X^a Y^b Z^c acting on x^i y^j: one monomial or none.

    Z scales x^i y^j by i - j, Y^b sends it to i!/(i-b)! x^(i-b) y^(j+b) and
    X^a then to (j+b)!/(j+b-a)! x^(i-b+a) y^(j+b-a): the generator rules
    applied one power at a time.  A power that derives a variable more often
    than it occurs gives 0, found before any factorial is computed.
    """
    (a, b, c), (i, j) = mono, key
    if b > i or a > j + b:
        return ()
    coeff = (i - j) ** c * perm(i, b) * perm(j + b, a)
    return (((i - b + a, j + b - a), coeff),) if coeff else ()


def endo_map(endo: PolyEndo | UAlgebraEndo):
    """The memo table id -> terms of an endomorphism, one monomial image each."""
    return key_map(lambda key: endo.image(key).terms)


# -- carriers ----------------------------------------------------------


def plane_carrier(bound: int) -> Carrier:
    """k[x,y] as a carrier with test basis of monomials up to total degree bound."""
    homcore.REGISTRY.reserve(comb(bound + 2, 2))
    basis = tuple((i, j) for p in enumerate_monomials(bound) for (i, j) in p.terms)
    return Carrier(
        name="k[x,y]",
        basis=key_ids(basis),
        mul=cache(on_ids(lambda k1, k2: (((k1[0] + k2[0], k1[1] + k2[1]), 1),))),
        render_key=lambda key: str(Poly.monomial(key[0], key[1])),
        render_elem=lambda coords: str(trusted(Poly, coords)),
    )


def u_carrier(bound: int) -> Carrier:
    """U(sl(2)) as a bialgebra carrier on PBW monomials up to degree bound."""
    homcore.REGISTRY.reserve(comb(bound + 3, 3))
    return Carrier(
        name="U(sl2)",
        basis=key_ids(enumerate_pbw(bound)),
        # no memo for mul: uea._mono_mul keeps the products, a twist its own table
        mul=on_ids(uea._mono_mul),
        comul=cache(on_ids(uea._comul_mono)),
        render_key=render_mono,
        render_elem=lambda coords: str(trusted(UElem, coords)),
    )


def sl2_scenario(bound_h: int = 3, bound_a: int = 3) -> Scenario:
    """The classical action, twisted by beta_H = alpha_U and beta_A = alpha_A.

    The module is the classical module algebra, whose structure maps are the
    identity.  The Lie carrier is U(sl(2)) on PBW degree <= 1 twisted by
    alpha_U, whatever the bounds.
    """
    beta_H = endo_map(alpha_u_handle())
    lie = homcore.yau_twist_algebra(u_carrier(1), beta_H)
    return Scenario(
        module=ModuleAlgebraScenario(
            H=u_carrier(bound_h), A=plane_carrier(bound_a), rho=cache(on_ids(act_key))
        ),
        beta_H=beta_H,
        beta_A=endo_map(alpha_plane()),
        lie=lie._replace(name="sl2 twisted"),
    )


def deformed_scenario(bound_h: int = 3, bound_a: int = 3) -> ModuleAlgebraScenario:
    """The q-deformed scenario (U(sl2)_alpha, A_alpha, rho_alpha)."""
    return homcore.deform_scenario(sl2_scenario(bound_h, bound_a))
