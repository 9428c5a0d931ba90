"""Independent native model of the sl(2) action on the plane k[x, y].

Acts on coordinate maps {(i, j): QLaurent} by the generator rules

    X = x d/dy,    Y = y d/dx,    Z = x d/dx - y d/dy,

one generator power at a time (Z first, X last), with the formal partial
derivatives and the product of polynomials written out here, and deforms it by alpha_A(x^i y^j) =
q^(2i+j) x^i y^j.  It never reads the package's key tables (actions.act_key,
the carriers' products and endomorphism maps), so agreement between the two is genuine
evidence.
"""

from homtwist.scalars import ONE, QLaurent, add_term, sparse_add

VARIABLES = ("x", "y")


def partial(p: dict, var: str) -> dict:
    """Formal partial derivative in 'x' or 'y'."""
    idx = VARIABLES.index(var)
    out = {}
    for key, coeff in p.items():
        power = key[idx]
        if power:
            lowered = tuple(e - (n == idx) for n, e in enumerate(key))
            add_term(out, lowered, coeff * power)
    return out


def mul(p: dict, r: dict) -> dict:
    """The product of two polynomials: exponents add."""
    out = {}
    for (i, j), c1 in p.items():
        for (k, m), c2 in r.items():
            add_term(out, (i + k, j + m), c1 * c2)
    return out


def total_degree(p: dict):
    """Max total degree of the support; None for the zero polynomial."""
    return max((i + j for i, j in p), default=None)


def graded_component(p: dict, n: int) -> dict:
    """Sum of the terms of total degree n."""
    return {(i, j): c for (i, j), c in p.items() if i + j == n}


def act_generator(gen: str, p: dict) -> dict:
    x, y = {(1, 0): ONE}, {(0, 1): ONE}
    if gen == "X":
        return mul(x, partial(p, "y"))
    if gen == "Y":
        return mul(y, partial(p, "x"))
    if gen == "Z":
        return sparse_add(mul(x, partial(p, "x")), mul({(0, 1): QLaurent.of(-1)}, partial(p, "y")))
    raise ValueError(f"unknown generator {gen!r}")


def act(z: dict, p: dict) -> dict:
    """A U(sl(2)) element z acting on p, linear in both slots."""
    out = {}
    for (a, b, c), coeff in z.items():
        image = p
        for gen, power in (("Z", c), ("Y", b), ("X", a)):
            for _ in range(power):
                image = act_generator(gen, image)
        for key, c2 in image.items():
            add_term(out, key, coeff * c2)
    return out


def alpha(p: dict) -> dict:
    """alpha_A: P(x, y) -> P(q^2 x, q y)."""
    return {(i, j): c * QLaurent.q_power(2 * i + j) for (i, j), c in p.items()}


def deformed_act(z: dict, p: dict) -> dict:
    """rho_alpha(z x p) = alpha_A(z p)."""
    return alpha(act(z, p))


def specialize(p: dict, q0) -> dict:
    """p with q set to the nonzero rational q0; vanishing coefficients drop."""
    return {key: v for key, c in p.items() if (v := QLaurent.of(c.specialize(q0)))}
