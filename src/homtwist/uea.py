"""U(sl(2)): PBW keys, the rewriting kernels of its product and coproduct,
and its ring UElem.

The generators satisfy [X,Y] = Z, [X,Z] = -2X, [Y,Z] = 2Y.  Products are kept
in the fixed normal order X^a Y^b Z^c.  The relations

    YX = XY - Z,    ZX = XZ + 2X,    ZY = YZ - 2Y

give left multiplication of a normal monomial by a generator in closed form
(left_gen), and the coproduct of a monomial in closed form (comul_mono).
These are key kernels: actions builds the product and coproduct tables of
the carriers from them, and the test suite compares those tables against an
independent free-algebra reduction oracle.  UElem is the ring, the
MonomialElem on the generators, which a term gives in PBW order and may
separate by a space; its basis, order, text form (X^2 Y) and term grammar
are MonomialElem's.  An element is its coordinate map {PBW monomial:
nonzero QLaurent}, with no product of its own.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .scalars import MonomialElem

# A PBW monomial is a key (a, b, c) standing for X^a Y^b Z^c.
GENERATORS = ("X", "Y", "Z")

UElem = MonomialElem(GENERATORS, " ", True)


# -- PBW normalization ------------------------------------------------
# U(sl(2)) has a Z-form: every rewrite coefficient is an integer, so the
# normal forms below are tuples of (PBW monomial, int) pairs.


def left_gen(gen: str, mono) -> tuple:
    """Left-multiply m = X^a Y^b Z^c by one generator, in normal form.

    Induction on a and b from the relations gives

        Y X^a = X^a Y - a X^(a-1) (Z + a - 1),
        Z X^a = X^a (Z + 2a),    Z Y^b = Y^b (Z - 2b),

    so that, as ZY^b = Y^b(Z - 2b) moves Z + a - 1 past Y^b,

        X m = X^(a+1) Y^b Z^c,
        Y m = X^a Y^(b+1) Z^c - a X^(a-1) Y^b Z^(c+1) - a(a-1-2b) X^(a-1) Y^b Z^c,
        Z m = X^a Y^b Z^(c+1) + 2(a-b) X^a Y^b Z^c,

    with the zero terms left out.
    """
    a, b, c = mono
    if gen == "X":
        return (((a + 1, b, c), 1),)
    if gen == "Y":
        out = (((a, b + 1, c), 1), ((a - 1, b, c + 1), -a), ((a - 1, b, c), -a * (a - 1 - 2 * b)))
    elif gen == "Z":
        out = (((a, b, c + 1), 1), ((a, b, c), 2 * (a - b)))
    else:
        raise ValueError(f"unknown generator {gen!r}")
    return tuple(term for term in out if term[1])


def split_first(mono):
    """(g, rest) with mono = g rest and g its first generator in PBW order;
    None for the unit.
    """
    a, b, c = mono
    if a:
        return "X", (a - 1, b, c)
    if b:
        return "Y", (0, b - 1, c)
    if c:
        return "Z", (0, 0, c - 1)
    return None


# -- comultiplication -------------------------------------------------


def comul_mono(mono) -> tuple:
    """Delta(X^a Y^b Z^c) as ((left mono, right mono), int) pairs.

    The generators are primitive, Delta(W) = W x 1 + 1 x W, and their tensors
    W x 1 and 1 x W commute, so Delta(X)^a Delta(Y)^b Delta(Z)^c is already
    in PBW order in each slot: the sum of
    C(a,i) C(b,j) C(c,k) X^i Y^j Z^k x X^(a-i) Y^(b-j) Z^(c-k).
    """
    a, b, c = mono
    return tuple(
        (((i, j, k), (a - i, b - j, c - k)), comb(a, i) * comb(b, j) * comb(c, k))
        for i, j, k in product(range(a + 1), range(b + 1), range(c + 1))
    )
