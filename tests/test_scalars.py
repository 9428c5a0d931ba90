import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from homtwist import actions, homcore
from homtwist.polyalg import Poly
from homtwist.scalars import _MAX_POWER_BITS, ONE, Q, Q_INV, ZERO, QLaurent
from homtwist.uea import UElem


def ql(text):
    return QLaurent.parse(text)


def ring_id(value):
    """The test id of a ring argument: Poly and UElem by their names."""
    return "Poly" if value is Poly else "UElem" if value is UElem else None


class TestArithmetic:
    def test_distributivity_example(self):
        assert (Q + Q_INV) * Q == ql("q^2 + 1")

    def test_exponent_addition(self):
        assert QLaurent.q_power(2) * QLaurent.q_power(3) * QLaurent.q_power(4) == ql("q^9")

    def test_additive_inverse(self):
        a = ql("3*q^-1 + 1/2*q^2 - 7")
        assert not a + a * -1

    def test_zero_annihilates(self):
        assert ql("q^5 - 2") * ZERO == ZERO

    def test_integral_fraction_is_stored_as_int(self):
        coeff = QLaurent.of(Fraction(4, 2)).terms[0]
        assert type(coeff) is int and coeff == 2

    def test_integral_result_of_fractions_is_stored_as_int(self):
        half = QLaurent.of(Fraction(1, 2))
        for value in (half * 2, half + half, half * QLaurent.of(4)):
            coeff = value.terms[0]
            assert type(coeff) is int and coeff == value.specialize(1)

    def test_product_by_int_one_is_the_instance(self):
        # instances are immutable, so 1 * a needs no copy
        a = ql("3*q^-1 + 1/2*q^2")
        assert a * 1 is a and 1 * a is a
        assert a * 2 == ql("6*q^-1 + q^2") and a * 0 == ZERO

    def test_of_returns_a_qlaurent_unchanged(self):
        # one call reads a coefficient given as a number or as a QLaurent
        a = ql("3*q^-1 + 1/2*q^2")
        assert QLaurent.of(a) is a
        with pytest.raises(TypeError, match="cannot interpret 1.5 as a rational"):
            QLaurent.of(1.5)


class TestSpecialize:
    def test_at_one(self):
        assert QLaurent.q_power(9).specialize(1) == 1

    def test_direct_evaluation(self):
        assert ql("q^2 + 1").specialize(2) == 5

    def test_reciprocal(self):
        assert Q_INV.specialize(Fraction(1, 2)) == 2

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Q.specialize(0)

    @pytest.mark.parametrize(
        "value, q0, expected",
        [(Q_INV, 2, Fraction(1, 2)), (QLaurent.parse("3*q^-2"), 2, Fraction(3, 4))],
    )
    def test_negative_exponent_at_int_is_exact(self, value, q0, expected):
        result = value.specialize(q0)
        assert type(result) is Fraction and result == expected

    def test_the_power_bound_is_bits_per_unit_times_the_span(self):
        # q0 = 3 takes 2 bits per unit of exponent, so a span of 2^22 + 1
        # units is 2 bits more than the bound
        span = (_MAX_POWER_BITS >> 1) + 1
        with pytest.raises(OverflowError, match="too large to evaluate"):
            QLaurent({0: 1, span: 1}).specialize(3)

    def test_zero_is_zero_at_any_q(self):
        # no power of q0 is taken, however many bits q0 has
        huge = 1 << (_MAX_POWER_BITS + 1)
        for q0 in (huge, Fraction(1, huge)):
            assert ZERO.specialize(q0) == 0


class TestCoefficientContract:
    """A coefficient is an int or a non-integral Fraction, never a float,
    whether a text without "/" is read by int() or a value by Fraction.
    """

    @pytest.mark.parametrize(
        "text, terms",
        [
            ("4/2", {0: 2}),
            ("1/2", {0: Fraction(1, 2)}),
            ("007", {0: 7}),
            ("-0", {}),
            ("q^-1", {-1: 1}),
            ("-4/2*q + 3", {0: 3, 1: -2}),
        ],
    )
    def test_parse_gives_the_values_and_types(self, text, terms):
        got = ql(text).terms
        assert got == terms
        assert {e: type(c) for e, c in got.items()} == {e: type(c) for e, c in terms.items()}

    @pytest.mark.parametrize("digits", ["9" * 5000, "1/" + "9" * 5000])
    def test_an_overlong_coefficient_gives_the_error_of_fraction(self, digits):
        # int(text), which reads a text without "/", refuses it with the
        # message of Fraction(text)
        with pytest.raises(ValueError) as expected:
            Fraction(digits)
        with pytest.raises(ValueError) as got:
            ql(f"{digits}*q")
        assert str(got.value) == str(expected.value)

    def test_fraction_operands_keep_the_contract(self):
        # QLaurent.of(Fraction(4, 2)) is TestArithmetic's
        half = ql("q + 2") * Fraction(1, 2)
        assert half.terms == {0: 1, 1: Fraction(1, 2)} and type(half.terms[0]) is int
        assert Fraction(1, 2) * ql("q + 2") == half
        value = ql("q^-1 + 2*q").specialize(Fraction(1, 2))
        assert type(value) is Fraction and value == 3

    def test_a_float_operand_raises_type_error(self):
        # a float constructor value is test_of_returns_a_qlaurent_unchanged's
        with pytest.raises(TypeError, match="unsupported operand"):
            Q * 1.5
        with pytest.raises(TypeError, match="unsupported operand"):
            1.5 * Q


scalars = st.builds(
    QLaurent,
    st.dictionaries(
        st.integers(min_value=-5, max_value=5),
        st.fractions(min_value=-50, max_value=50, max_denominator=10),
        max_size=4,
    ),
)


class TestRingLaws:
    @given(scalars, scalars, scalars)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(scalars, scalars)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(scalars, scalars)
    def test_specialize_is_ring_morphism(self, a, b):
        q0 = Fraction(3, 2)
        assert (a * b).specialize(q0) == a.specialize(q0) * b.specialize(q0)
        assert (a + b).specialize(q0) == a.specialize(q0) + b.specialize(q0)

    @given(scalars, scalars)
    def test_canonical_equality(self, a, b):
        assert (a == b) == (not a + b * -1)

    @given(
        scalars,
        scalars,
        st.integers(min_value=-6, max_value=6),
        st.fractions(min_value=-6, max_value=6, max_denominator=6),
    )
    def test_coefficients_stay_int_or_fraction(self, a, b, n, f):
        for value in (a + b, a * b, a * -1, a + b * -1, a + a, a * n, n * a, a * f, f * a):
            assert all(
                type(c) is int or (type(c) is Fraction and c.denominator != 1)
                for c in value.terms.values()
            )
        # the scalar fast path agrees with the Laurent product
        assert a * n == n * a == a * QLaurent.of(n)
        assert a * f == f * a == a * QLaurent.of(f)


class TestTextForm:
    @pytest.mark.parametrize(
        "text",
        ["0", "1", "-1", "3*q^-1 + 1/2*q^2", "q", "-q^3", "2 - q", "q^-2 + q^2"],
    )
    def test_roundtrip(self, text):
        value = ql(text)
        assert QLaurent.parse(str(value)) == value

    def test_render_is_exponent_ascending(self):
        assert str(ql("q^2 + 3*q^-1")) == "3*q^-1 + q^2"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            ql("q^^2")
        with pytest.raises(ValueError):
            ql("")
        with pytest.raises(ValueError):
            ql("1/0*q")

    @pytest.mark.parametrize("text", ["1 2", "1/2 3", "q^1 0", "1 0", "3 4*q"])
    def test_rejects_space_inside_a_number(self, text):
        with pytest.raises(ValueError, match="space inside a number"):
            ql(text)

    @pytest.mark.parametrize(
        "text, expected", [("1 / 2", "1/2"), ("3 q", "3*q"), ("q ^ -2", "q^-2")]
    )
    def test_spaces_between_tokens_still_parse(self, text, expected):
        assert ql(text) == ql(expected)


@pytest.mark.parametrize("ring, text", [(Poly, "1 + x"), (UElem, "1 + X")], ids=ring_id)
def test_element_types_share_the_sparse_ring_contract(ring, text):
    assert ring.render(ring.parse(text)) == text


# The two rings share one term grammar and differ only where their text does:
# U(sl(2)) writes a space between factors and does not commute.
@pytest.mark.parametrize(
    "ring, text, key",
    [
        (Poly, "x*y", (1, 1)),
        (Poly, "y*x", (1, 1)),
        (UElem, "X*Y", (1, 1, 0)),
        (UElem, "X Y", (1, 1, 0)),
        (UElem, "X\tY", (1, 1, 0)),
        (UElem, "X X", (2, 0, 0)),
    ],
    ids=ring_id,
)
def test_a_term_reads_the_factors_its_ring_allows(ring, text, key):
    assert ring.parse(text) == {key: ONE}


@pytest.mark.parametrize(
    "ring, text, message",
    [
        (Poly, "x y", "cannot parse scalar term 'x y'"),
        (UElem, "Y X", "generators out of PBW order in 'Y X'"),
        # parentheses are stripped only from one group, so the message
        # names the text of the input
        (Poly, "(2) (2)", "cannot parse scalar term '(2) (2)'"),
        (Poly, "(2)3", "cannot parse scalar term '(2)3'"),
        # Poly has no space product, so a parenthesized number beside
        # another is no term; UElem reads the same texts as 4
        (Poly, "(2) 2", "cannot parse scalar term '(2) 2'"),
        (Poly, "2 (2)", "cannot parse scalar term '2 (2)'"),
        # a middle term is quoted stripped, as the first and the last are
        (UElem, "Z + Y X - Z", "generators out of PBW order in 'Y X'"),
        (UElem, "Z + 2 2 X - Z", "space inside a number in '2 2 X'"),
    ],
    ids=ring_id,
)
def test_a_term_refuses_the_factors_its_ring_does_not_allow(ring, text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ring.parse(text)


# One scanner splits a sum at its top-level signs and a term at its
# top-level factors; a '-' after '^' or '*' or inside parentheses is no sign.
@pytest.mark.parametrize(
    "ring, text, expected",
    [
        (QLaurent, "- - q", "q"),
        (QLaurent, "q + - 1 -\t+ q^-1", "q - 1 - q^-1"),
        (UElem, "X*-2 - (q - 1)*Y", "-2*X + (1 - q)*Y"),
        (UElem, "(-q) X", "-q*X"),
    ],
    ids=ring_id,
)
def test_a_sum_folds_its_signs(ring, text, expected):
    assert ring.parse(text) == ring.parse(expected)


@pytest.mark.parametrize(
    "ring, text, message",
    [
        (QLaurent, " \t", "empty expression"),
        (QLaurent, "q - ", "dangling operator in 'q -'"),
        (UElem, "(X", "unbalanced parentheses in '(X'"),
        (UElem, " X) + (Y", "unbalanced parentheses in 'X) + (Y'"),
        (UElem, "X + *", "empty term in '*'"),
    ],
    ids=ring_id,
)
def test_a_sum_refuses_what_does_not_split(ring, text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ring.parse(text)


# A space between two numbers is a mistyped number in every grammar, also
# where a space between factors is a product.
@pytest.mark.parametrize("ring", [QLaurent, Poly, UElem], ids=ring_id)
@pytest.mark.parametrize("text", ["2 2", "2\t2", "1/2 3", "X 2 2", "X^2 2"])
def test_every_grammar_refuses_a_space_inside_a_number(ring, text):
    with pytest.raises(ValueError, match="^space inside a number in "):
        ring.parse(text)


@pytest.mark.parametrize(
    "ring, text, key, coeff",
    [
        (UElem, "X 2 Y", (1, 1, 0), "2"),
        (UElem, "2 q", (0, 0, 0), "2*q"),
        (UElem, "q 2", (0, 0, 0), "2*q"),
        (UElem, "(q + 1)*X", (1, 0, 0), "1 + q"),
        (Poly, "(q + 1)*x", (1, 0), "1 + q"),
        (Poly, "(2)*y", (0, 1), "2"),
        # a space between factors is a product, also beside a parenthesized
        # number: the digit-gap rule covers only digits that whitespace separates
        (UElem, "(2) 2", (0, 0, 0), "4"),
        (UElem, "2 (2)", (0, 0, 0), "4"),
        (UElem, "(2) (2)", (0, 0, 0), "4"),
        (UElem, "2 (q + 1) X", (1, 0, 0), "2 + 2*q"),
    ],
    ids=ring_id,
)
def test_a_number_beside_a_name_keeps_its_value(ring, text, key, coeff):
    assert ring.parse(text) == {key: ql(coeff)}


# a coefficient that is no int or Fraction would otherwise be dropped
@pytest.mark.parametrize(
    "cls, terms, error, message",
    [
        (QLaurent, {0: 1.5}, TypeError, "cannot interpret 1.5 as a rational"),
        (QLaurent, {0: "2"}, TypeError, "cannot interpret '2' as a rational"),
    ],
)
def test_constructors_refuse_what_is_no_element(cls, terms, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        cls(terms)


def nested_loop_keys(width, bound):
    """The keys of degree <= bound by the nested loops each ring used to
    write out: degree ascending, then each exponent descending in turn.
    """
    out = []
    for degree in range(bound + 1):
        if width == 2:
            for i in range(degree, -1, -1):
                out.append((i, degree - i))
        else:
            for a in range(degree, -1, -1):
                for b in range(degree - a, -1, -1):
                    out.append((a, b, degree - a - b))
    return out


@pytest.mark.parametrize("ring", [Poly, UElem], ids=ring_id)
@pytest.mark.parametrize("bound", range(7))
def test_basis_keys_match_the_nested_loops(ring, bound):
    assert ring.basis_keys(bound) == nested_loop_keys(len(ring.NAMES), bound)


def test_basis_keys_refuse_a_negative_bound():
    for ring in (Poly, UElem):
        with pytest.raises(ValueError, match="non-negative"):
            ring.basis_keys(-1)


def test_render_key_is_the_text_of_the_monomial():
    for key in Poly.basis_keys(4):
        assert Poly.render_key(key) == Poly.render({key: ONE})
    for mono in UElem.basis_keys(4):
        assert UElem.render_key(mono) == UElem.render({mono: ONE})
    assert Poly.render_key((0, 0)) == UElem.render_key((0, 0, 0)) == "1"
    assert (Poly.render_key((2, 1)), UElem.render_key((2, 0, 1))) == ("x^2*y", "X^2 Z")


@pytest.mark.parametrize("value, name", [(Q, "terms")])
def test_scalars_and_endomorphisms_are_immutable(value, name):
    with pytest.raises(AttributeError, match="is immutable$"):
        setattr(value, name, None)


# the product table of each ring
PRODUCTS = {Poly: actions.plane_mul, UElem: actions.pbw_mul}


def plain_power(ring, e, n) -> dict:
    """The terms of e**n in ring by n products, the definition that
    square-and-multiply must match.
    """
    mul, xs = PRODUCTS[ring], homcore.flatten(e)
    result = homcore.flatten({(0,) * len(ring.NAMES): ONE})
    for _ in range(n):
        result = homcore.terms(homcore.bilinear(mul, result, xs))
    return homcore.unflatten(result)


def power_table(ring, e):
    """The table of the endomorphism of ring that sends the first generator to
    e and fixes the others: it sends the key (n, 0, ...) to e**n.
    """
    keys = [tuple(int(i == j) for j in range(len(ring.NAMES))) for i in range(len(ring.NAMES))]
    return actions.endo_map([e] + [{key: ONE} for key in keys[1:]], PRODUCTS[ring])


@pytest.mark.parametrize(
    "ring, text",
    [
        (Poly, "x"),
        (Poly, "q*x - 2*y + 1/2"),
        (UElem, "X + q*Y"),
        (UElem, "X Y - q^-1*Z + 3"),
        (UElem, "Z^2 - q*X Y + Y"),
    ],
    ids=ring_id,
)
def test_power_equals_repeated_products(ring, text):
    # the powers of endomorphism tables: UElem does not commute, so this also
    # fixes the order of the factors
    e = ring.parse(text)
    table = power_table(ring, e)
    for n in range(10):
        key = (n,) + (0,) * (len(ring.NAMES) - 1)
        assert homcore.unflatten(table(homcore.REGISTRY.ids(key))) == plain_power(ring, e, n)


def test_power_takes_logarithmically_many_products(monkeypatch):
    calls = []
    product = actions.bilinear

    def counted(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(actions, "bilinear", counted)
    table = actions.endo_map(({(1, 0): ONE}, {(0, 1): ONE}), actions.plane_mul)
    assert homcore.unflatten(table(homcore.REGISTRY.ids((1000, 0)))) == {(1000, 0): ONE}
    assert len(calls) <= 20
