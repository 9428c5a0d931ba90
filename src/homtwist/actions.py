"""The U(sl(2))-module algebra on k[x,y] and its q-deformation.

Generator rules: X acts as x d/dy, Y as y d/dx, Z as x d/dx - y d/dy.  A PBW
monomial X^a Y^b Z^c acts as the composite operator X^a(Y^b(Z^c(-))), which
matches the associative product because the module axiom sweep of the
classical triple verifies (uv)p = u(vp).  The action exists only on keys,
act_key; `homtwist act` and every suite contract the same table.

The record twists the classical triple by the pair SL2_Q, a document of
generator images as the paper writes them: beta_H = alpha_U, extending
X -> qX, Y -> q^-1 Y, Z -> Z on the Lie algebra, and beta_A = alpha_A:
x -> q^2 x, y -> q y on the plane; rho_alpha = alpha_A o rho.  read_pair is
the one reader of such a document.

The keys are PBW monomials (a, b, c) and plane exponents (i, j), and every
table is a memo table on their ids.  The action and the coproduct are key
kernels that homcore.on_ids reads.  The products, plane_mul and pbw_mul, and
the coproduct pbw_comul are shared by every carrier: pbw_mul writes
m1 = g rest (uea.split_first) and multiplies the memoized product rest m2 by
g through the id table of uea.left_gen.  endo_map contracts an
endomorphism's generator images on one of those products, and
extend_lie_endo checks, on the table it returns, that a map of the
generators of U(sl(2)) is a Lie endomorphism; both take the images as
coordinate maps, the one form of an element here.  Both carriers take their
basis and their text form from the ring, UElem or Poly, a
scalars.MonomialElem, which only parses and renders.
"""

from __future__ import annotations

from functools import cache, partial
from math import comb, perm

from . import homcore, uea
from .homcore import (
    REGISTRY,
    Carrier,
    ModuleAlgebraScenario,
    Scenario,
    basis_terms,
    bilinear,
    check_multiplicativity,
    flatten,
    key_ids,
    linear,
    on_ids,
    terms,
)
from .polyalg import Poly
from .report import CheckReport
from .scalars import _MAX_POWER_BITS
from .uea import GENERATORS, UElem


# the record's twisting pair: the images of X, Y, Z under beta_H and of x, y
# under beta_A
SL2_Q = {"beta_H": ["q*X", "q^-1*Y", "Z"], "beta_A": ["q^2*x", "q*y"]}


def act_key(mono, key) -> tuple:
    """The terms of X^a Y^b Z^c acting on x^i y^j: one monomial or none.

    Z scales x^i y^j by i - j, Y^b sends it to i!/(i-b)! x^(i-b) y^(j+b) and
    X^a then to (j+b)!/(j+b-a)! x^(i-b+a) y^(j+b-a): the generator rules
    applied one power at a time.  A power that derives a variable more often
    than it occurs, or a power of Z on x^i y^i, gives 0, found before any
    factorial is computed.  A coefficient that may have more bits than
    specialize allows a power of q raises OverflowError before it is computed.
    """
    (a, b, c), (i, j) = mono, key
    if b > i or a > j + b or (c and i == j):
        return ()
    if c * (i - j).bit_length() + b * i.bit_length() + a * (j + b).bit_length() > _MAX_POWER_BITS:
        raise OverflowError("a coefficient of the action is too large to compute")
    coeff = (i - j) ** c * perm(i, b) * perm(j + b, a)
    return (((i - b + a, j + b - a), coeff),)


# -- products and endomorphisms on ids ---------------------------------

plane_mul = on_ids(lambda k1, k2: (((k1[0] + k2[0], k1[1] + k2[1]), 1),))

# the coproduct of U(sl(2)) on ids, read by every U(sl(2)) carrier
pbw_comul = on_ids(uea.comul_mono)

# left multiplication by each generator, a table on ids
_LEFT = {gen: on_ids(partial(uea.left_gen, gen)) for gen in GENERATORS}


@cache
def pbw_mul(k1, k2) -> tuple:
    """The PBW product on ids: m1 = g rest gives m1 m2 = g (rest m2)."""
    split = uea.split_first(REGISTRY.keys[k1])
    if split is None:
        return basis_terms(k2)
    gen, rest = split
    return terms(linear(_LEFT[gen], pbw_mul(REGISTRY.ids(rest), k2)))


def endo_map(images, mul):
    """The memo table id -> terms of an algebra endomorphism.

    images are the generator images, coordinate maps of the ring whose
    product table on ids is mul (pbw_mul or plane_mul).  The key (k0, k1,
    ...) maps to the ordered product of the powers images[i]^ki, contracted
    by bilinear on mul.  A power is square-and-multiply, memoized per
    (generator, exponent), so x^n takes about 2 log2(n) products.
    """
    images = [flatten(image) for image in images]

    def times(xs, ys):
        return terms(bilinear(mul, xs, ys))

    @cache
    def generator_power(i, n):
        if n == 1:
            return images[i]
        half = generator_power(i, n >> 1)
        square = times(half, half)
        return times(square, images[i]) if n & 1 else square

    def image(k):
        factors = [generator_power(i, n) for i, n in enumerate(REGISTRY.keys[k]) if n]
        if not factors:
            return basis_terms(k)  # the unit
        out = factors[0]
        for factor in factors[1:]:
            out = times(out, factor)
        return out

    return cache(image)


def _check_bracket(phi) -> CheckReport:
    """check_multiplicativity of the commutator carrier of U(sl(2)) on the
    generator keys, with the endomorphism table phi as its structure map:
    phi([g, h]) = [phi(g), phi(h)] on all nine pairs.
    """
    C = u_carrier(1)
    return check_multiplicativity(homcore.commutator(C)._replace(basis=C.basis[1:], alpha=phi))


def extend_lie_endo(images):
    """The table of the algebra endomorphism of U(sl(2)) extending a Lie
    endomorphism given by the images of X, Y and Z in span{X, Y, Z}, as
    coordinate maps.

    The extension is only well defined on the commutator ideal when the
    generator map is a Lie endomorphism, so that is a hard precondition.
    """
    for gen, image in zip(GENERATORS, images):
        if any(sum(mono) != 1 for mono in image):
            raise ValueError(f"image of {gen} must lie in span{{X, Y, Z}}: {UElem.render(image)}")
    phi = endo_map(images, pbw_mul)
    report = _check_bracket(phi)
    if not report.passed:
        bad = ", ".join(f"({', '.join(ce.rendered_inputs)})" for ce in report.counterexamples)
        raise ValueError(f"not a Lie algebra endomorphism; fails on pairs {bad}")
    return phi


def read_pair(doc) -> tuple:
    """The tables (beta_H, beta_A) of a twisting pair written as a document,
    such as SL2_Q: beta_H extends the images of X, Y and Z, a Lie
    endomorphism (extend_lie_endo), and beta_A the images of x and y.
    """
    beta_H = extend_lie_endo([UElem.parse(text) for text in doc["beta_H"]])
    return beta_H, endo_map([Poly.parse(text) for text in doc["beta_A"]], plane_mul)


# -- carriers ----------------------------------------------------------


def _monomial_carrier(ring, name: str, bound: int, **tables) -> Carrier:
    """The monomials of ring (Poly or UElem) up to total degree bound as a
    carrier with the given tables, rendered by ring.  A basis of more keys
    than the registry holds is refused before any key is enumerated.
    """
    width = len(ring.NAMES)
    REGISTRY.reserve(comb(bound + width, width))
    return Carrier(
        name=name,
        basis=key_ids(ring.basis_keys(bound)),
        render_key=ring.render_key,
        render_elem=ring.render,
        **tables,
    )


def plane_carrier(bound: int) -> Carrier:
    """k[x,y] as a carrier with test basis of monomials up to total degree bound."""
    return _monomial_carrier(Poly, "k[x,y]", bound, mul=plane_mul)


def u_carrier(bound: int) -> Carrier:
    """U(sl(2)) as a bialgebra carrier on PBW monomials up to degree bound."""
    # the shared product and coproduct tables on ids; a twist keeps its own
    return _monomial_carrier(UElem, "U(sl2)", bound, mul=pbw_mul, comul=pbw_comul)


def sl2_scenario(bound_h: int, bound_a: int) -> Scenario:
    """The classical action, twisted by the pair read from SL2_Q.

    The module is the classical module algebra, whose structure maps are the
    identity.  The Lie carrier of a deformed triple is its H on PBW degree
    <= 1, whatever the bounds: U(sl(2)) twisted by the record's beta_H.
    """
    return Scenario(
        ModuleAlgebraScenario(H=u_carrier(bound_h), A=plane_carrier(bound_a), rho=on_ids(act_key)),
        *read_pair(SL2_Q),
        lambda d: d.H._replace(name="sl2 twisted", basis=key_ids(UElem.basis_keys(1))),
    )


def deformed_scenario(bound_h: int, bound_a: int) -> ModuleAlgebraScenario:
    """The q-deformed scenario (U(sl2)_alpha, A_alpha, rho_alpha)."""
    return homcore.deform_scenario(sl2_scenario(bound_h, bound_a))
