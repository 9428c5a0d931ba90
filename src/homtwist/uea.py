"""U(sl(2)) with PBW normal-form arithmetic and primitive comultiplication.

The generators satisfy [X,Y] = Z, [X,Z] = -2X, [Y,Z] = 2Y.  Products are kept
in the fixed normal order X^a Y^b Z^c.  The relations

    YX = XY - Z,    ZX = XZ + 2X,    ZY = YZ - 2Y

give left multiplication of a normal monomial by a generator in closed form
(_left_gen), and a product of monomials is a chain of such multiplications;
the test suite compares against an independent free-algebra reduction
oracle.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product
from math import comb

from .report import CheckReport, sweep
from .scalars import (
    MonomialElem,
    MonomialEndo,
    QLaurent,
    extend_bilinear,
    extend_linear,
    join_terms,
    render_term,
    split_factors,
    trusted,
)

GENERATORS = ("X", "Y", "Z")

# PBWMonomial is a tuple (a, b, c) standing for X^a Y^b Z^c.
UNIT = (0, 0, 0)


class UElem(MonomialElem):
    """Element of U(sl(2)): sparse map PBW monomial -> nonzero QLaurent."""

    __slots__ = ()
    WIDTH = 3

    @classmethod
    def monomial(cls, mono, coeff=None):
        return cls({tuple(mono): coeff if coeff is not None else QLaurent.one()})

    @classmethod
    def generator(cls, name: str):
        idx = GENERATORS.index(name)
        mono = [0, 0, 0]
        mono[idx] = 1
        return cls.monomial(tuple(mono))

    def __mul__(self, other):
        if not isinstance(other, UElem):
            return self.__rmul__(other)
        out = extend_bilinear(_mono_mul, self.terms.items(), other.terms.items())
        return trusted(UElem, out)

    def commutator(self, other):
        return self * other - other * self

    def lie_components(self):
        """Coefficients on (X, Y, Z); None if not in the Lie span."""
        coords = []
        for gen in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            coords.append(self.terms.get(gen, QLaurent.zero()))
        span_keys = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        if any(mono not in span_keys for mono in self.terms):
            return None
        return tuple(coords)

    # -- text form ----------------------------------------------------

    def __str__(self):
        parts = []
        for mono in sorted(self.terms, key=_grlex_key):
            text = "" if mono == UNIT else render_mono(mono)
            parts.append(render_term(self.terms[mono], text))
        return join_terms(parts)

    @staticmethod
    def _parse_term(term: str):
        coeff = QLaurent.one()
        exps = [0, 0, 0]
        last_gen = -1
        for factor in split_factors(term, on_space=True):
            match = _GEN_FACTOR.match(factor)
            if match:
                idx = GENERATORS.index(match.group(1))
                if idx < last_gen:
                    raise ValueError(f"generators out of PBW order in {term!r}")
                last_gen = idx
                exps[idx] += int(match.group(2)) if match.group(2) else 1
            else:
                if factor.startswith("(") and factor.endswith(")"):
                    factor = factor[1:-1]
                if factor == "1":
                    continue
                coeff = coeff * QLaurent.parse(factor)
        return tuple(exps), coeff


# -- PBW normalization ------------------------------------------------
# U(sl(2)) has a Z-form: every rewrite coefficient is an integer, so the
# normal forms below are tuples of (PBW monomial, int) pairs.


@lru_cache(maxsize=None)
def _left_gen(gen: str, mono) -> tuple:
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


@lru_cache(maxsize=None)
def _mono_mul(m1, m2) -> tuple:
    """Product of two PBW monomials in normal form: (monomial, int) pairs.

    m1 = g rest (split_first), so m1 m2 is g times the cached product rest m2.
    """
    split = split_first(m1)
    if split is None:
        return ((m2, 1),)
    gen, rest = split
    return tuple(extend_linear(lambda m: _left_gen(gen, m), _mono_mul(rest, m2)).items())


# -- comultiplication -------------------------------------------------


# One tuple per PBW monomial for the coproduct keys, so that the tables built
# on them do not hold a copy of a monomial per coproduct term.
_MONOS = {}


@lru_cache(maxsize=None)
def _comul_mono(mono) -> tuple:
    """Delta(X^a Y^b Z^c) as ((left mono, right mono), int) pairs.

    The primitive generators' tensors W x 1 and 1 x W commute, so
    Delta(X)^a Delta(Y)^b Delta(Z)^c is already in PBW order in each slot:
    the sum of C(a,i) C(b,j) C(c,k) X^i Y^j Z^k x X^(a-i) Y^(b-j) Z^(c-k).
    """
    a, b, c = mono
    out = []
    for i, j, k in product(range(a + 1), range(b + 1), range(c + 1)):
        left, right = (i, j, k), (a - i, b - j, c - k)
        pair = (_MONOS.setdefault(left, left), _MONOS.setdefault(right, right))
        out.append((pair, comb(a, i) * comb(b, j) * comb(c, k)))
    return tuple(out)


def comul(u: UElem) -> dict:
    """Comultiplication with primitive generators: Delta(W) = W x 1 + 1 x W.

    Returns a sparse tensor {(mono, mono): QLaurent} in componentwise PBW
    normal form; Delta(1) = 1 x 1 and Delta extends as an algebra morphism.
    """
    return extend_linear(_comul_mono, u.terms.items())


# -- endomorphisms ----------------------------------------------------


class UEndo:
    """Candidate endomorphism given by generator images in span{X, Y, Z}."""

    __slots__ = ("images",)

    def __init__(self, image_of_X: UElem, image_of_Y: UElem, image_of_Z: UElem):
        images = {"X": image_of_X, "Y": image_of_Y, "Z": image_of_Z}
        for gen, img in images.items():
            if img.lie_components() is None:
                raise ValueError(
                    f"image of {gen} must lie in span{{X, Y, Z}}, got {img}"
                )
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("UEndo is immutable")

    @classmethod
    def q_example(cls):
        """X -> qX, Y -> q^-1 Y, Z -> Z."""
        return cls(
            UElem.generator("X").scaled(QLaurent.q_power(1)),
            UElem.generator("Y").scaled(QLaurent.q_power(-1)),
            UElem.generator("Z"),
        )

    def check_lie_endo(self) -> CheckReport:
        """Verify compatibility with the bracket on all generator pairs."""
        gens = {g: UElem.generator(g) for g in GENERATORS}
        # the multiplicative extension is linear on the Lie span
        endo = UAlgebraEndo(self)
        return sweep(
            "lie-endomorphism",
            "bracket multiplicativity",
            [(GENERATORS, str)] * 2,
            lambda g1, g2: endo(gens[g1].commutator(gens[g2])),
            lambda g1, g2: self.images[g1].commutator(self.images[g2]),
        )

    def extend(self) -> "UAlgebraEndo":
        """Multiplicative extension to all of U(sl(2)).

        Only well defined on the commutator ideal when the generator map is a
        Lie endomorphism, so that is a hard precondition.
        """
        verdict = self.check_lie_endo()
        if not verdict.passed:
            bad = ", ".join(
                f"({ce.inputs[0]}, {ce.inputs[1]})" for ce in verdict.counterexamples
            )
            raise ValueError(f"not a Lie algebra endomorphism; fails on pairs {bad}")
        return UAlgebraEndo(self)


class UAlgebraEndo(MonomialEndo):
    """The unique algebra endomorphism extending a validated UEndo."""

    __slots__ = ()

    def __init__(self, base: UEndo):
        super().__init__(base.images[gen] for gen in GENERATORS)


def enumerate_pbw(max_total_degree: int):
    """All PBW monomials of total degree <= bound, graded-lex order."""
    if max_total_degree < 0:
        raise ValueError("degree bound must be non-negative")
    out = []
    for degree in range(max_total_degree + 1):
        for a in range(degree, -1, -1):
            for b in range(degree - a, -1, -1):
                out.append((a, b, degree - a - b))
    return out


def _grlex_key(mono):
    a, b, c = mono
    return (a + b + c, -a, -b)


def render_mono(mono) -> str:
    a, b, c = mono
    if mono == UNIT:
        return "1"
    factors = []
    for gen, power in zip(GENERATORS, (a, b, c)):
        if power == 1:
            factors.append(gen)
        elif power > 1:
            factors.append(f"{gen}^{power}")
    return " ".join(factors)


_GEN_FACTOR = re.compile(r"^([XYZ])(?:\^(\d+))?$")
