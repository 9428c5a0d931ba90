"""Independent native model of the sl(2) action on the plane k[x, y].

Acts on whole Poly elements by the generator rules

    X = x d/dy,    Y = y d/dx,    Z = x d/dx - y d/dy,

one generator power at a time (Z first, X last), with the formal partial
derivatives and the product of polynomials written out here, and deforms it by alpha_A(x^i y^j) =
q^(2i+j) x^i y^j.  It never reads the package's key tables (actions.act_key,
the carriers' products and endomorphism maps), so agreement between the two is genuine
evidence.
"""

from homtwist.polyalg import Poly
from homtwist.scalars import QLaurent, add_term, sparse_add

VARIABLES = ("x", "y")


def partial(p: Poly, var: str) -> Poly:
    """Formal partial derivative in 'x' or 'y'."""
    idx = VARIABLES.index(var)
    out = {}
    for key, coeff in p.terms.items():
        power = key[idx]
        if power:
            lowered = tuple(e - (n == idx) for n, e in enumerate(key))
            add_term(out, lowered, coeff * power)
    return Poly(out)


def mul(p: Poly, r: Poly) -> Poly:
    """The product of two polynomials: exponents add."""
    out = {}
    for (i, j), c1 in p.terms.items():
        for (k, m), c2 in r.terms.items():
            add_term(out, (i + k, j + m), c1 * c2)
    return Poly(out)


def total_degree(p: Poly):
    """Max total degree of the support; None for the zero polynomial."""
    return max((i + j for i, j in p.terms), default=None)


def graded_component(p: Poly, n: int) -> Poly:
    """Sum of the terms of total degree n."""
    return Poly({(i, j): c for (i, j), c in p.terms.items() if i + j == n})


def act_generator(gen: str, p: Poly) -> Poly:
    x, y = Poly.monomial(1, 0), Poly.monomial(0, 1)
    if gen == "X":
        return mul(x, partial(p, "y"))
    if gen == "Y":
        return mul(y, partial(p, "x"))
    if gen == "Z":
        minus = mul(y, partial(p, "y")).scaled(-1)
        return Poly(sparse_add(mul(x, partial(p, "x")).terms, minus.terms))
    raise ValueError(f"unknown generator {gen!r}")


def act(z, p: Poly) -> Poly:
    """A U(sl(2)) element z acting on p, linear in both slots."""
    out = {}
    for (a, b, c), coeff in z.terms.items():
        image = p
        for gen, power in (("Z", c), ("Y", b), ("X", a)):
            for _ in range(power):
                image = act_generator(gen, image)
        out = sparse_add(out, image.scaled(coeff).terms)
    return Poly(out)


def alpha(p: Poly) -> Poly:
    """alpha_A: P(x, y) -> P(q^2 x, q y)."""
    return Poly({(i, j): c * QLaurent.q_power(2 * i + j) for (i, j), c in p.terms.items()})


def deformed_act(z, p: Poly) -> Poly:
    """rho_alpha(z x p) = alpha_A(z p)."""
    return alpha(act(z, p))


def specialize(p: Poly, q0) -> Poly:
    """p with q set to the nonzero rational q0; vanishing coefficients drop."""
    return Poly({key: QLaurent.of(c.specialize(q0)) for key, c in p.terms.items()})
