"""Exact coefficient arithmetic: rationals and Laurent polynomials in q.

All identity checking runs over QLaurent, Laurent polynomials in one formal
parameter q with arbitrary-precision rational coefficients.  Keeping q formal
means a passing sweep proves the identity for every nonzero specialization of
q at once.  Division by general Laurent polynomials is deliberately absent;
only monomial inverses q^(-k) ever arise.

A coefficient is an int or a Fraction, never a float: the constructors and
the parser store every integral value as an int, so the integer arithmetic
that dominates the sweeps never touches Fraction.  fractions is imported
only where a non-integral coefficient can arise: a coefficient text with
"/", a constructor value or * operand that is not an int, and specialize.
Every sum and product is accumulated by add_term, the one canonical-form
rule: it stores an integral Fraction as its int and drops a zero.
Arithmetic results are wrapped with trusted(), which skips QLaurent's
validation because they are canonical already.

The text of all three rings is split by one scanner, _split_top: a sum at
its top-level signs (split_sum) and a term at its top-level factors
(split_factors).  The sparse-map section below also holds MonomialElem,
whose instances are rings, Poly and UElem among them: the monomial basis of
both (its graded-lex order, its bounded enumeration, the text of a key and
of an element, and the grammar of a term).  A ring is its variable names
and how a term writes them.  An element of either ring is its coordinate
map {exponent vector: nonzero QLaurent}, which parse returns and render
reads: its products and endomorphisms are key tables contracted by homcore,
and two elements are equal when their maps are.
"""

from __future__ import annotations

import re
from itertools import accumulate, product

# QLaurent.specialize refuses a power q0^e of more bits than this (1 MiB)
# unless the sum it scales is 0, and actions.act_key a coefficient that may
# have more: a power near it takes about a second, q0^(10^20) exhausts memory
_MAX_POWER_BITS = 1 << 23


def _as_rational(value):
    """A coefficient given to a constructor, an int or Fraction, as an int when integral."""
    if isinstance(value, int):
        return int(value)
    if _is_fraction(value):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _is_fraction(value) -> bool:
    """Whether value is a Fraction; the first call imports fractions."""
    from fractions import Fraction

    return isinstance(value, Fraction)


def trusted(terms: dict):
    """Wrap a canonical terms dict in a QLaurent without validating it.

    Only for results built from canonical operands: keys taken from them and
    coefficients from add_term/sparse_add, which drop zeros.
    """
    obj = object.__new__(QLaurent)
    object.__setattr__(obj, "terms", terms)
    return obj


class QLaurent:
    """A Laurent polynomial in q: a sparse map exponent -> nonzero int/Fraction.

    Instances are immutable after construction and compare structurally;
    canonical form (no zero coefficients) makes structural equality the same
    as ring equality.  The operands of + and == are QLaurents, and * also
    takes an int or Fraction; rationals appear otherwise only in constructors.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exp, coeff in terms.items():
                add_term(clean, int(exp), _as_rational(coeff))
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("QLaurent is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def of(cls, value) -> "QLaurent":
        """Constant Laurent polynomial from an int or a Fraction; a QLaurent
        is returned unchanged.
        """
        return value if isinstance(value, QLaurent) else cls({0: value})

    @classmethod
    def q_power(cls, exponent: int, coeff=1) -> "QLaurent":
        return cls({exponent: coeff})

    # -- ring structure -----------------------------------------------

    def __add__(self, other) -> "QLaurent":
        if not isinstance(other, QLaurent):
            return NotImplemented
        return trusted(sparse_add(self.terms, other.terms))

    def __mul__(self, other) -> "QLaurent":
        if isinstance(other, QLaurent):
            factors = other.terms
        elif isinstance(other, int) or _is_fraction(other):
            # An instance is immutable, so the product by 1 is the instance.
            if other == 1:
                return self
            factors = {0: other}
        else:
            return NotImplemented  # Python refuses any other operand with TypeError
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in factors.items():
                add_term(out, e1 + e2, c1 * c2)
        return trusted(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- evaluation ---------------------------------------------------

    def specialize(self, q0):
        """Evaluate at a concrete nonzero rational q = q0, as an exact Fraction."""
        from fractions import Fraction

        # A Fraction even for an int q0: int ** -k would be a float.
        q0 = Fraction(q0)
        if q0 == 0:
            raise ValueError("cannot specialize at q = 0: negative exponents undefined")
        # ceil(log2 max(|num|, den)) bits per unit of exponent; 0 at q0 = +-1
        bits = (max(abs(q0.numerator), q0.denominator) - 1).bit_length()
        # the text leaves q0 out: str refuses an int of too many digits
        too_large = "a power of q is too large to evaluate at this q value"
        # q0^low factors out, so powers that cancel are exact at any exponent
        low, high = min(self.terms, default=0), max(self.terms, default=0)
        if bits * (high - low) > _MAX_POWER_BITS:
            raise OverflowError(too_large)
        total = sum((c * q0 ** (e - low) for e, c in self.terms.items()), Fraction(0))
        if total and bits * abs(low) > _MAX_POWER_BITS:
            raise OverflowError(too_large)
        return total and total * q0**low

    # -- text form ----------------------------------------------------

    def __str__(self):
        return join_terms(
            [render_term(c, "" if e == 0 else "q" if e == 1 else f"q^{e}")
             for e, c in sorted(self.terms.items())]
        )

    def __repr__(self):
        return f"QLaurent({self})"

    @classmethod
    def parse(cls, text: str) -> "QLaurent":
        """Parse the rendered sparse-sum grammar, e.g. "3*q^-1 + 1/2*q^2"."""
        return cls(parse_terms(text, _parse_scalar_term))


_TERM_FACTOR = re.compile(r"^(?:(?P<coeff>-?\d+(?:/\d+)?)\*?)?(?:q(?:\^(?P<exp>-?\d+))?)?$")
_DIGIT_GAP = re.compile(r"\d\s+\d")


def _parse_scalar_term(term: str):
    term = term.strip()
    if _DIGIT_GAP.search(term):
        raise ValueError(f"space inside a number in {term!r}")
    match = _TERM_FACTOR.match(term.replace(" ", ""))
    if not match or (match.group("coeff") is None and "q" not in term):
        raise ValueError(f"cannot parse scalar term {term!r}")
    text = match.group("coeff") or "1"
    if "/" in text:
        from fractions import Fraction

        try:
            coeff = Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {term!r}") from None
    else:
        coeff = int(text)  # the int that Fraction(text) would fold to
    if "q" in term:
        exp = int(match.group("exp")) if match.group("exp") else 1
    else:
        exp = 0
    return exp, coeff


def _split_top(text: str, seps: str, on_space: bool = False):
    """The stripped pieces of text between its top-level separators, each as
    (piece, the separator that ends it), the last with "".

    A separator is a character of seps (or whitespace when on_space) outside
    parentheses, but not a '-' that directly follows '^' or '*'.  The text is
    walked once and sliced at the separators.
    """
    pieces = []
    depth = start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        elif depth == 0 and (ch in seps or on_space and ch.isspace()):
            piece = text[start:i].strip()
            if ch != "-" or not piece.endswith(("^", "*")):
                pieces.append((piece, ch))
                start = i + 1
    if depth:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    pieces.append((text[start:].strip(), ""))
    return pieces


def split_sum(text: str):
    """Split a sum into (sign, term) pairs at top-level + and - signs.

    A '-' that directly follows '^', '*' or '(' belongs to the term (negative
    exponent, coefficient or parenthesized sum), not to the sum structure.
    Parentheses are respected so "(q + 1)*x" stays one term.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty expression")
    pieces = []
    sign = 1
    for term, sep in _split_top(text, "+-"):
        if term:
            pieces.append((sign, term))
            sign = 1
        elif not sep:
            raise ValueError(f"dangling operator in {text!r}")
        if sep == "-":
            sign = -sign
    return pieces


def parse_terms(text: str, parse_term) -> dict:
    """Sparse terms of a rendered sum; parse_term maps a term to (key, coeff)."""
    out = {}
    for sign, term in split_sum(text):
        key, coeff = parse_term(term)
        add_term(out, key, coeff * sign)
    return out


def split_factors(term: str, on_space: bool = False):
    """Split a product term at top-level '*' (and whitespace when on_space)."""
    factors = [factor for factor, _ in _split_top(term, "*", on_space) if factor]
    if not factors:
        raise ValueError(f"empty term in {term!r}")
    return factors


# -- sparse maps key -> nonzero coefficient -----------------------------
# The elements of Poly and UElem, finalg vectors and homcore's packed elements are one.


def add_term(terms: dict, key, coeff) -> None:
    """terms[key] += coeff in place, dropping the key when the sum is zero.

    An integral Fraction is stored as its int, so rational coefficients keep
    the int-or-non-integral-Fraction form through arithmetic.  A coefficient
    is an int, a Fraction or a QLaurent, so a Fraction is the one that is
    neither of the others, and add_term never imports fractions.
    """
    if key in terms:
        coeff = terms[key] + coeff
    if coeff.__class__ is not int and coeff.__class__ is not QLaurent and coeff.denominator == 1:
        coeff = coeff.numerator
    if coeff:
        terms[key] = coeff
    else:
        terms.pop(key, None)


def sparse_add(t1: dict, t2: dict) -> dict:
    out = dict(t1)
    for key, coeff in t2.items():
        add_term(out, key, coeff)
    return out


class MonomialElem:
    """A ring whose basis is the monomials of its variables, keyed by
    exponent vectors; an element is a coordinate map key -> nonzero QLaurent.

    An instance is a ring: NAMES, the variable of each key slot; SEP, the
    text between the factors of a monomial (a space there is also read as a
    product); and ORDERED, whether a term must give its variables in NAMES
    order, as a ring that does not commute must.  The monomial basis is
    shared: one graded-lex order (degree first, then the first variable's
    exponent descending, ...), one enumeration of a bounded basis, one text
    form and one term grammar.
    """

    def __init__(self, names, sep="*", ordered=False):
        self.NAMES, self.SEP, self.ORDERED = names, sep, ordered

    # -- the monomial basis and the text form -------------------------

    def basis_keys(self, bound: int) -> list:
        """The keys of degree <= bound, in graded-lex order."""
        if bound < 0:
            raise ValueError("degree bound must be non-negative")
        keys = product(range(bound + 1), repeat=len(self.NAMES))
        return sorted((key for key in keys if sum(key) <= bound), key=_grlex)

    def render_key(self, key) -> str:
        """The monomial of key, as x^2*y or X^2 Y; "1" for the unit."""
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(self.NAMES, key) if e]
        return self.SEP.join(factors) or "1"

    def render(self, coords) -> str:
        """The text of the element with coordinate map coords, terms in graded-lex order."""
        return join_terms(
            [render_term(coords[key], self.render_key(key) if any(key) else "")
             for key in sorted(coords, key=_grlex)]
        )

    def parse(self, text: str) -> dict:
        """The coordinate map of a rendered element, e.g. "q*x^2*y - 3"."""
        return parse_terms(text, self._parse_term)

    def _parse_term(self, term: str):
        """One product term as (key, coeff): powers of the NAMES, as x or x^2,
        and scalar factors, parenthesized or not.
        """
        if self.SEP.isspace() and _DIGIT_GAP.search(term):  # splitting would hide it
            raise ValueError(f"space inside a number in {term!r}")
        coeff = ONE
        exps = [0] * len(self.NAMES)
        last = 0
        for factor in split_factors(term, on_space=self.SEP.isspace()):
            name, caret, power = factor.partition("^")
            if name in self.NAMES and (not caret or power.isdecimal()):
                idx = self.NAMES.index(name)
                if self.ORDERED and idx < last:
                    raise ValueError(f"generators out of PBW order in {term!r}")
                last = idx
                exps[idx] += int(power or 1)
            else:
                depths = list(accumulate((ch == "(") - (ch == ")") for ch in factor))
                if factor.startswith("(") and 0 not in depths[:-1]:  # one group
                    factor = factor[1:-1]
                coeff = coeff * QLaurent.parse(factor)
        return tuple(exps), coeff


def _grlex(key):
    """The graded-lex sort key (degree, -e1, -e2, ...) of an exponent vector."""
    return (sum(key), *(-e for e in key))


def factor_text(coeff) -> str:
    """The text of coeff, a QLaurent or a rational, as a factor of a product:
    a sum goes in parentheses.
    """
    ctext = str(coeff)
    return f"({ctext})" if " + " in ctext or " - " in ctext else ctext


def render_term(coeff, basis_text: str) -> str:
    """coeff, a QLaurent or a rational, times a rendered basis element; an
    empty basis_text is the unit.
    """
    ctext = factor_text(coeff)
    if not basis_text:
        return ctext
    if ctext == "1":
        return basis_text
    if ctext == "-1":
        return "-" + basis_text
    return ctext + "*" + basis_text


def join_terms(parts) -> str:
    """Join rendered terms into a sum, writing "a - b" for a negative term."""
    if not parts:
        return "0"
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


ZERO = QLaurent()
ONE = QLaurent.of(1)
Q = QLaurent.q_power(1)
Q_INV = QLaurent.q_power(-1)
