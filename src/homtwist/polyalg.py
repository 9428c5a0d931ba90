"""The affine plane k[x,y] over QLaurent coefficients.

An element is its coordinate map {(i, j): nonzero QLaurent}; its basis,
order, text form (x^2*y) and term grammar are MonomialElem's, and its
product and endomorphisms are the key tables of actions.  Poly names the
variables.  The variable list is fixed to (x, y); extending to n variables
only requires widening the exponent tuples and NAMES.
"""

from __future__ import annotations

from .scalars import MonomialElem


class Poly(MonomialElem):
    """The ring k[x,y]: an element is a coordinate map (i, j) -> nonzero QLaurent."""

    NAMES = ("x", "y")
