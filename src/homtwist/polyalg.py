"""The affine plane k[x,y] over QLaurent coefficients.

Poly is the ring, the MonomialElem on the variables (x, y).  An element is
its coordinate map {(i, j): nonzero QLaurent}; its basis, order, text form
(x^2*y) and term grammar are MonomialElem's, and its product and
endomorphisms are the key tables of actions.  Extending to n variables only
requires widening the exponent tuples and the names.
"""

from __future__ import annotations

from .scalars import MonomialElem

Poly = MonomialElem(("x", "y"))
