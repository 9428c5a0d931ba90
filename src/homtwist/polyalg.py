"""The affine plane k[x,y] over QLaurent coefficients.

Sparse polynomials keyed by exponent vectors, with construction, sums,
scaling, parsing and rendering; their product and endomorphisms are the key
tables of actions.  The variable list is fixed to (x, y); extending to n
variables only requires widening the exponent tuples and the VARIABLES list.
"""

from __future__ import annotations

import re

from .scalars import (
    MonomialElem,
    QLaurent,
    join_terms,
    render_term,
    split_factors,
)

VARIABLES = ("x", "y")


class Poly(MonomialElem):
    """Element of k[x,y]: sparse map (i, j) -> nonzero QLaurent."""

    __slots__ = ()
    WIDTH = 2

    @classmethod
    def monomial(cls, i, j, coeff=None):
        return cls({(i, j): coeff if coeff is not None else QLaurent.one()})

    @classmethod
    def x(cls):
        return cls.monomial(1, 0)

    @classmethod
    def y(cls):
        return cls.monomial(0, 1)

    # -- text form ----------------------------------------------------

    def __str__(self):
        parts = []
        for key in sorted(self.terms, key=_grlex_key):
            parts.append(render_term(self.terms[key], _render_expv(key)))
        return join_terms(parts)

    @staticmethod
    def _parse_term(term: str):
        """One product term: scalar factors and x^i / y^j factors joined by '*'."""
        coeff = QLaurent.one()
        exps = [0, 0]
        for factor in split_factors(term):
            match = _VAR_FACTOR.match(factor)
            if match:
                idx = VARIABLES.index(match.group(1))
                exps[idx] += int(match.group(2)) if match.group(2) else 1
            else:
                if factor.startswith("(") and factor.endswith(")"):
                    factor = factor[1:-1]
                coeff = coeff * QLaurent.parse(factor)
        return (exps[0], exps[1]), coeff


def enumerate_monomials(max_total_degree: int):
    """The keys (i, j) of all monomials x^i y^j with i + j <= bound,
    graded-lex with x first.
    """
    if max_total_degree < 0:
        raise ValueError("degree bound must be non-negative")
    out = []
    for degree in range(max_total_degree + 1):
        for i in range(degree, -1, -1):
            out.append((i, degree - i))
    return out


def _grlex_key(expv):
    i, j = expv
    return (i + j, -i)


def _render_expv(expv) -> str:
    i, j = expv
    factors = []
    if i:
        factors.append("x" if i == 1 else f"x^{i}")
    if j:
        factors.append("y" if j == 1 else f"y^{j}")
    return "*".join(factors)


_VAR_FACTOR = re.compile(r"^([xy])(?:\^(\d+))?$")
