"""The affine plane k[x,y] over QLaurent coefficients.

Sparse polynomials keyed by exponent vectors, formal partial derivatives,
graded slices, and algebra endomorphisms given by generator images.  The
variable list is fixed to (x, y); extending to n variables only requires
widening the exponent tuples and the VARIABLES list.
"""

from __future__ import annotations

import re

from .scalars import (
    SCALARS,
    QLaurent,
    add_term,
    check_exponent,
    exponent_terms,
    join_terms,
    parse_terms,
    render_term,
    sparse_add,
    sparse_scale,
    split_factors,
    trusted,
)

VARIABLES = ("x", "y")


class Poly:
    """Element of k[x,y]: sparse map (i, j) -> nonzero QLaurent."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", exponent_terms(terms or {}, 2))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0, 0): QLaurent.one()})

    @classmethod
    def monomial(cls, i, j, coeff=None):
        return cls({(i, j): coeff if coeff is not None else QLaurent.one()})

    @classmethod
    def x(cls):
        return cls.monomial(1, 0)

    @classmethod
    def y(cls):
        return cls.monomial(0, 1)

    # -- ring structure -----------------------------------------------

    def __add__(self, other):
        return trusted(Poly, sparse_add(self.terms, other.terms))

    def __neg__(self):
        return trusted(Poly, {key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.__rmul__(other)
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                add_term(out, (i1 + i2, j1 + j2), c1 * c2)
        return trusted(Poly, out)

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, coeff):
        if not isinstance(coeff, QLaurent):
            coeff = QLaurent.of(coeff)
        return trusted(Poly, sparse_scale(coeff, self.terms))

    def __pow__(self, n):
        check_exponent(n)
        result = Poly.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- calculus and grading -----------------------------------------

    def partial(self, var: str) -> "Poly":
        """Formal partial derivative in 'x' or 'y'."""
        idx = VARIABLES.index(var)
        out = {}
        for (i, j), coeff in self.terms.items():
            exps = [i, j]
            power = exps[idx]
            if power == 0:
                continue
            exps[idx] -= 1
            add_term(out, (exps[0], exps[1]), coeff * power)
        return trusted(Poly, out)

    def graded_component(self, n: int) -> "Poly":
        """Sum of terms of total degree n."""
        if n < 0:
            raise ValueError("degree must be non-negative")
        return Poly({(i, j): c for (i, j), c in self.terms.items() if i + j == n})

    def total_degree(self):
        """Max total degree of the support; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(i + j for (i, j) in self.terms)

    # -- text form ----------------------------------------------------

    def __str__(self):
        parts = []
        for key in sorted(self.terms, key=_grlex_key):
            parts.append(render_term(self.terms[key], _render_expv(key)))
        return join_terms(parts)

    def __repr__(self):
        return f"Poly({self})"

    @classmethod
    def parse(cls, text: str) -> "Poly":
        return cls(parse_terms(text, _parse_poly_term))


class PolyEndo:
    """Unital algebra endomorphism of k[x,y], given by generator images."""

    __slots__ = ("image_of_x", "image_of_y", "_cache")

    def __init__(self, image_of_x: Poly, image_of_y: Poly):
        object.__setattr__(self, "image_of_x", image_of_x)
        object.__setattr__(self, "image_of_y", image_of_y)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("PolyEndo is immutable")

    @classmethod
    def identity(cls):
        return cls(Poly.x(), Poly.y())

    @classmethod
    def diagonal(cls, cx: QLaurent, cy: QLaurent):
        """x -> cx*x, y -> cy*y."""
        return cls(Poly.x().scaled(cx), Poly.y().scaled(cy))

    def __call__(self, p: Poly) -> Poly:
        out = {}
        for key, coeff in p.terms.items():
            for key2, c in self.image(key).terms.items():
                add_term(out, key2, coeff * c)
        return trusted(Poly, out)

    def image(self, key) -> Poly:
        """The image of the monomial x^i y^j, computed once per key."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        i, j = key
        result = self.image_of_x**i * self.image_of_y**j
        self._cache[key] = result
        return result

    def compose(self, other: "PolyEndo") -> "PolyEndo":
        return PolyEndo(self(other.image_of_x), self(other.image_of_y))


def enumerate_monomials(max_total_degree: int):
    """All monomials x^i y^j with i + j <= bound, graded-lex with x first."""
    if max_total_degree < 0:
        raise ValueError("degree bound must be non-negative")
    out = []
    for degree in range(max_total_degree + 1):
        for i in range(degree, -1, -1):
            out.append(Poly.monomial(i, degree - i))
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


def _parse_poly_term(term: str):
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

