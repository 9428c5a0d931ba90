"""The affine plane k[x,y] over QLaurent coefficients.

Sparse polynomials keyed by exponent vectors (i, j); their basis, order,
text form (x^2*y) and term grammar are MonomialElem's, and their product and
endomorphisms are the key tables of actions.  Poly names the variables.  The
variable list is fixed to (x, y); extending to n variables only requires
widening the exponent tuples and NAMES.
"""

from __future__ import annotations

from .scalars import ONE, MonomialElem


class Poly(MonomialElem):
    """Element of k[x,y]: sparse map (i, j) -> nonzero QLaurent."""

    __slots__ = ()
    NAMES = ("x", "y")

    @classmethod
    def monomial(cls, i, j, coeff=ONE):
        return cls({(i, j): coeff})
