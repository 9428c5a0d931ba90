"""The affine plane k[x,y] over QLaurent coefficients.

Sparse polynomials keyed by exponent vectors (i, j); their basis, order and
text form (x^2*y) are MonomialElem's, and their product and endomorphisms
are the key tables of actions.  Poly names the variables and parses a term.
The variable list is fixed to (x, y); extending to n variables only requires
widening the exponent tuples and NAMES.
"""

from __future__ import annotations

import re

from .scalars import MonomialElem, QLaurent, split_factors


class Poly(MonomialElem):
    """Element of k[x,y]: sparse map (i, j) -> nonzero QLaurent."""

    __slots__ = ()
    NAMES = ("x", "y")

    @classmethod
    def monomial(cls, i, j, coeff=None):
        return cls({(i, j): coeff if coeff is not None else QLaurent.one()})

    @staticmethod
    def _parse_term(term: str):
        """One product term: scalar factors and x^i / y^j factors joined by '*'."""
        coeff = QLaurent.one()
        exps = [0, 0]
        for factor in split_factors(term):
            match = _VAR_FACTOR.match(factor)
            if match:
                idx = Poly.NAMES.index(match.group(1))
                exps[idx] += int(match.group(2)) if match.group(2) else 1
            else:
                if factor.startswith("(") and factor.endswith(")"):
                    factor = factor[1:-1]
                coeff = coeff * QLaurent.parse(factor)
        return (exps[0], exps[1]), coeff


_VAR_FACTOR = re.compile(r"^([xy])(?:\^(\d+))?$")
