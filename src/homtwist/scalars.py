"""Exact coefficient arithmetic: rationals and Laurent polynomials in q.

All identity checking runs over QLaurent, Laurent polynomials in one formal
parameter q with arbitrary-precision rational coefficients.  Keeping q formal
means a passing sweep proves the identity for every nonzero specialization of
q at once.  Division by general Laurent polynomials is deliberately absent;
only monomial inverses q^(-k) ever arise.

A coefficient is an int or a Fraction, never a float: the constructors store
every integral value as an int, so the integer arithmetic that dominates the
sweeps never touches Fraction.  Arithmetic results are wrapped with trusted(),
which skips the constructors' validation because they are canonical already.

The sparse-map section below also holds the ring structure that Poly and UElem
share, MonomialElem, and their generator-image endomorphisms, MonomialEndo.
"""

from __future__ import annotations

import re
from fractions import Fraction

# Arbitrary-precision rational; Fraction already keeps gcd-reduced canonical
# form with positive denominator.
Rational = Fraction

# QLaurent.specialize refuses a power q0^e of more bits than this (1 MiB),
# unless the sum it scales is 0: a power near it takes about a second, and
# q0^(10^20) would exhaust memory
_MAX_POWER_BITS = 1 << 23


def _as_rational(value):
    """An exact rational as an int when integral, else a reduced Fraction."""
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def trusted(cls, terms: dict):
    """Wrap a canonical terms dict in an instance of cls without validating it.

    Only for results built from canonical operands: keys taken from them and
    coefficients from add_term/sparse_add, which drop zeros.
    """
    obj = object.__new__(cls)
    object.__setattr__(obj, "terms", terms)
    return obj


class QLaurent:
    """A Laurent polynomial in q: a sparse map exponent -> nonzero int/Fraction.

    Instances are immutable after construction and compare structurally;
    canonical form (no zero coefficients) makes structural equality the same
    as ring equality.
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
    def zero(cls) -> "QLaurent":
        return cls()

    @classmethod
    def one(cls) -> "QLaurent":
        return cls({0: 1})

    @classmethod
    def of(cls, value) -> "QLaurent":
        """Constant Laurent polynomial from an int/Fraction/str rational."""
        return cls({0: value})

    @classmethod
    def q_power(cls, exponent: int, coeff=1) -> "QLaurent":
        return cls({exponent: coeff})

    # -- ring structure -----------------------------------------------

    def __add__(self, other) -> "QLaurent":
        return trusted(QLaurent, sparse_add(self.terms, _coerce(other).terms))

    __radd__ = __add__

    def __neg__(self) -> "QLaurent":
        return trusted(QLaurent, {exp: -coeff for exp, coeff in self.terms.items()})

    def __sub__(self, other) -> "QLaurent":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "QLaurent":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "QLaurent":
        if isinstance(other, QLaurent):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    add_term(out, e1 + e2, c1 * c2)
            return trusted(QLaurent, out)
        if isinstance(other, (int, Fraction)):
            # A rational factor scales each coefficient; no product can vanish.
            # An instance is immutable, so the product by 1 is the instance.
            if other == 1:
                return self
            if not other:
                return trusted(QLaurent, {})
            return trusted(
                QLaurent,
                {exp: _canonical(coeff * other) for exp, coeff in self.terms.items()},
            )
        return NotImplemented  # lets Poly/UElem.__rmul__ scale by self

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QLaurent":
        return power(self, n, QLaurent.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QLaurent.of(other)
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # A constant must hash like the int/Fraction it equals.
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- evaluation ---------------------------------------------------

    def specialize(self, q0) -> Fraction:
        """Evaluate at a concrete nonzero rational q = q0, as an exact Fraction."""
        # A Fraction even for an int q0: int ** -k would be a float.
        q0 = Fraction(_as_rational(q0))
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
        parts = []
        for exp in sorted(self.terms):
            coeff = self.terms[exp]
            if exp == 0:
                body = str(coeff)
            else:
                qpart = "q" if exp == 1 else f"q^{exp}"
                if coeff == 1:
                    body = qpart
                elif coeff == -1:
                    body = f"-{qpart}"
                else:
                    body = f"{coeff}*{qpart}"
            parts.append(body)
        return join_terms(parts)

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
    if not term:
        raise ValueError("empty term in scalar expression")
    if _DIGIT_GAP.search(term):
        raise ValueError(f"space inside a number in {term!r}")
    match = _TERM_FACTOR.match(term.replace(" ", ""))
    if not match or (match.group("coeff") is None and "q" not in term):
        raise ValueError(f"cannot parse scalar term {term!r}")
    try:
        coeff = Fraction(match.group("coeff")) if match.group("coeff") else Fraction(1)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {term!r}") from None
    if "q" in term:
        exp = int(match.group("exp")) if match.group("exp") else 1
    else:
        exp = 0
    return exp, coeff


def split_sum(text: str):
    """Split a sum into (sign, term) pairs at top-level + and - signs.

    A '-' that directly follows '^' or '*' belongs to the term (negative
    exponent or coefficient), not to the sum structure.  Parentheses are
    respected so "(q + 1)*x" stays one term.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty expression")
    pieces = []
    sign = 1
    depth = 0
    current = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if depth == 0 and ch in "+-":
            prev = "".join(current).rstrip()
            if ch == "-" and prev and prev.endswith(("^", "*", "(")):
                current.append(ch)
            elif not prev:
                if ch == "-":
                    sign = -sign
            else:
                pieces.append((sign, prev))
                sign = 1 if ch == "+" else -1
                current = []
        else:
            current.append(ch)
        i += 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    last = "".join(current).strip()
    if not last:
        raise ValueError(f"dangling operator in {text!r}")
    pieces.append((sign, last))
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
    factors = []
    depth = 0
    current = []
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and (ch == "*" or (on_space and ch.isspace())):
            factors.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    factors.append("".join(current).strip())
    factors = [factor for factor in factors if factor]
    if not factors:
        raise ValueError(f"empty term in {term!r}")
    return factors


# -- sparse maps key -> nonzero coefficient -----------------------------
# MonomialElem (Poly, UElem), finalg vectors and homcore's packed elements store one.
# The native maps on them are linear or bilinear extensions of maps on keys.


def add_term(terms: dict, key, coeff) -> None:
    """terms[key] += coeff in place, dropping the key when the sum is zero.

    An integral Fraction is stored as its int, so rational coefficients keep
    the int-or-non-integral-Fraction form through arithmetic.
    """
    if key in terms:
        coeff = terms[key] + coeff
    if coeff.__class__ is Fraction and coeff.denominator == 1:
        coeff = coeff.numerator
    if coeff:
        terms[key] = coeff
    else:
        terms.pop(key, None)


def _canonical(coeff):
    """An integral Fraction as its int; any other coefficient unchanged."""
    if coeff.__class__ is Fraction and coeff.denominator == 1:
        return coeff.numerator
    return coeff


def sparse_add(t1: dict, t2: dict) -> dict:
    out = dict(t1)
    for key, coeff in t2.items():
        add_term(out, key, coeff)
    return out


def extend_linear(f, pairs) -> dict:
    """The linear extension of f, a map key -> (key, coeff) pairs, on pairs."""
    out = {}
    for key, coeff in pairs:
        for key2, c in f(key):
            add_term(out, key2, coeff * c)
    return out


def extend_bilinear(f, xs, ys) -> dict:
    """The bilinear extension of f, a map (key, key) -> (key, coeff) pairs."""
    out = {}
    for k1, c1 in xs:
        for k2, c2 in ys:
            c12 = c1 * c2
            for key, c in f(k1, k2):
                add_term(out, key, c12 * c)
    return out


class MonomialElem:
    """An element keyed by exponent vectors: sparse map key -> nonzero QLaurent.

    A subclass sets WIDTH, the length of every key, and defines its product
    (__mul__), its text form (__str__) and _parse_term, which maps one rendered
    term to (key, coeff).  Instances are immutable and compare structurally.
    """

    __slots__ = ("terms",)
    WIDTH = 0

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            key = tuple(map(int, key))
            if len(key) != self.WIDTH or min(key) < 0:
                raise ValueError(f"bad exponent vector {key}")
            if not isinstance(coeff, QLaurent):
                coeff = QLaurent.of(coeff)
            add_term(clean, key, coeff)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({(0,) * cls.WIDTH: QLaurent.one()})

    def __add__(self, other):
        return trusted(type(self), sparse_add(self.terms, other.terms))

    def __neg__(self):
        return trusted(type(self), {key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, other):
        if isinstance(other, SCALARS):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, coeff):
        if not isinstance(coeff, QLaurent):
            coeff = QLaurent.of(coeff)
        if not coeff:
            return trusted(type(self), {})
        return trusted(type(self), {key: coeff * c for key, c in self.terms.items()})

    def __pow__(self, n):
        return power(self, n, self.one())

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    @classmethod
    def parse(cls, text: str):
        return cls(parse_terms(text, cls._parse_term))


class MonomialEndo:
    """Algebra endomorphism of a MonomialElem ring, given by generator images.

    The monomial with key (k0, k1, ...) maps to the ordered product
    images[0]**k0 * images[1]**k1 * ... (the order matters in a noncommutative
    ring), computed once per key; elements map by linear extension.
    """

    __slots__ = ("images", "_cache")

    def __init__(self, images):
        object.__setattr__(self, "images", tuple(images))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __call__(self, elem):
        image = lambda key: self.image(key).terms.items()
        return trusted(type(elem), extend_linear(image, elem.terms.items()))

    def image(self, key):
        """The image of the monomial with exponent vector key."""
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self.images[0] ** key[0]
        for image, power in zip(self.images[1:], key[1:]):
            result = result * image**power
        self._cache[key] = result
        return result


def render_term(coeff: QLaurent, basis_text: str) -> str:
    """coeff times a rendered basis element; an empty basis_text is the unit."""
    ctext = str(coeff)
    if " + " in ctext or " - " in ctext:
        ctext = f"({ctext})"
    if not basis_text:
        return ctext
    if coeff == ONE:
        return basis_text
    if coeff == -ONE:
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


def power(x, n, one):
    """x**n in an associative ring with unit one, by square-and-multiply.

    About 2 log2(n) products.  Powers are defined for non-negative int n only.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("only non-negative integer powers are defined")
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _coerce(value) -> QLaurent:
    if isinstance(value, QLaurent):
        return value
    if isinstance(value, (int, Fraction)):
        return QLaurent.of(value)
    raise TypeError(f"cannot coerce {value!r} to QLaurent")


# Operand types that scale a Poly or UElem from either side.
SCALARS = (QLaurent, int, Fraction)

ZERO = QLaurent.zero()
ONE = QLaurent.one()
Q = QLaurent.q_power(1)
Q_INV = QLaurent.q_power(-1)
