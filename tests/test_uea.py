from fractions import Fraction

import pytest

from homtwist import actions, homcore
from homtwist.scalars import Q, QLaurent
from homtwist.uea import (
    UElem,
    UEndo,
    comul,
    enumerate_pbw,
    render_mono,
)

from free_oracle import all_words, reduce_to_pbw

X = UElem.generator("X")
Y = UElem.generator("Y")
Z = UElem.generator("Z")
ONE = UElem.one()


class TestPBWProduct:
    def test_yx(self):
        assert Y * X == X * Y - Z

    def test_already_ordered(self):
        assert X * X == UElem.monomial((2, 0, 0))

    def test_zx(self):
        assert Z * X == X * Z + X.scaled(QLaurent.of(2))

    def test_zy(self):
        assert Z * Y == Y * Z - Y.scaled(QLaurent.of(2))

    def test_defining_brackets(self):
        assert X.commutator(Y) == Z
        assert X.commutator(Z) == X.scaled(QLaurent.of(-2))
        assert Y.commutator(Z) == Y.scaled(QLaurent.of(2))

    def test_agrees_with_free_algebra_oracle(self):
        for word in all_words(4):
            expected = reduce_to_pbw(word)
            product = ONE
            for letter in word:
                product = product * UElem.generator(letter)
            assert product.terms == expected, word

    def test_associativity_on_monomial_triples(self):
        monos = enumerate_pbw(2)
        for m1 in monos:
            for m2 in monos:
                for m3 in monos:
                    u, v, w = (UElem.monomial(m) for m in (m1, m2, m3))
                    assert (u * v) * w == u * (v * w)


class TestScalars:
    @pytest.mark.parametrize("c", [2, Fraction(1, 2), Q])
    def test_scalar_on_either_side(self, c):
        assert X * c == c * X == X.scaled(c) != X

    @pytest.mark.parametrize("n", [-1, -2, 1.0])
    def test_power_rejects_negative_or_non_int(self, n):
        with pytest.raises(ValueError):
            X**n


class TestComultiplication:
    def test_unit_is_grouplike(self):
        assert comul(ONE) == {((0, 0, 0), (0, 0, 0)): QLaurent.one()}

    def test_xy(self):
        expected = {
            ((1, 1, 0), (0, 0, 0)): QLaurent.one(),
            ((0, 0, 0), (1, 1, 0)): QLaurent.one(),
            ((1, 0, 0), (0, 1, 0)): QLaurent.one(),
            ((0, 1, 0), (1, 0, 0)): QLaurent.one(),
        }
        assert comul(X * Y) == expected

    def test_x_squared(self):
        expected = {
            ((2, 0, 0), (0, 0, 0)): QLaurent.one(),
            ((1, 0, 0), (1, 0, 0)): QLaurent.of(2),
            ((0, 0, 0), (2, 0, 0)): QLaurent.one(),
        }
        assert comul(X * X) == expected

    def test_algebra_morphism(self):
        # Delta(uv) = Delta(u) Delta(v): the product on U x U runs through the
        # PBW product table actions.pbw_mul, independent of the closed-form
        # coproduct
        assert homcore.check_comul_morphism(actions.u_carrier(2)).passed

    def test_coassociativity(self):
        # (Delta x Id) Delta = (Id x Delta) Delta, flattened to triples
        for mono in enumerate_pbw(3):
            t = comul(UElem.monomial(mono))
            left = {}
            right = {}
            for (m1, m2), c in t.items():
                for (a, b), c2 in comul(UElem.monomial(m1)).items():
                    key = (a, b, m2)
                    left[key] = left.get(key, QLaurent.zero()) + c * c2
                for (a, b), c2 in comul(UElem.monomial(m2)).items():
                    key = (m1, a, b)
                    right[key] = right.get(key, QLaurent.zero()) + c * c2
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            assert left == right, mono


class TestEndomorphisms:
    def test_q_example_is_lie_endo(self):
        assert UEndo.q_example().check_lie_endo().passed

    def test_identity_is_lie_endo(self):
        assert UEndo(X, Y, Z).check_lie_endo().passed

    def test_swap_fails_on_xy_pair(self):
        swap = UEndo(Y, X, Z)
        report = swap.check_lie_endo()
        assert report.checked == 9
        assert [ce.inputs for ce in report.counterexamples] == [
            ("X", "Y"), ("X", "Z"), ("Y", "X"), ("Y", "Z"), ("Z", "X"), ("Z", "Y"),
        ]
        first = report.counterexamples[0]
        assert (first.lhs, first.rhs) == ("Z", "-Z")

    def test_extend_rejects_non_lie_endo(self):
        with pytest.raises(ValueError):
            UEndo(Y, X, Z).extend()

    def test_images_must_be_in_lie_span(self):
        with pytest.raises(ValueError):
            UEndo(X * X, Y, Z)

    def test_q_example_acts_by_weight(self):
        handle = UEndo.q_example().extend()
        for a, b, c in enumerate_pbw(3):
            u = UElem.monomial((a, b, c))
            assert handle(u) == u.scaled(QLaurent.q_power(a - b))

    def test_unit_fixed(self):
        assert UEndo.q_example().extend()(ONE) == ONE

    def test_xy_invariant(self):
        assert UEndo.q_example().extend()(X * Y) == X * Y

    def test_q_example_commutes_with_comul(self):
        handle = UEndo.q_example().extend()
        for mono in enumerate_pbw(3):
            u = UElem.monomial(mono)
            lhs = comul(handle(u))
            rhs = {}
            for (m1, m2), c in comul(u).items():
                left = handle(UElem.monomial(m1))
                right = handle(UElem.monomial(m2))
                for k1, c1 in left.terms.items():
                    for k2, c2 in right.terms.items():
                        key = (k1, k2)
                        rhs[key] = rhs.get(key, QLaurent.zero()) + c * c1 * c2
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs, mono


class TestEnumeration:
    def test_bound_zero(self):
        assert enumerate_pbw(0) == [(0, 0, 0)]

    def test_bound_one(self):
        assert enumerate_pbw(1) == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("bound,count", [(2, 10), (3, 20), (4, 35)])
    def test_counts(self, bound, count):
        assert len(enumerate_pbw(bound)) == count


class TestTextForm:
    def test_render_mono(self):
        assert render_mono((0, 0, 0)) == "1"
        assert render_mono((2, 1, 0)) == "X^2 Y"

    @pytest.mark.parametrize(
        "text",
        ["0", "1", "X", "X^2 Y Z", "q^2*X Y + Z^2", "X - Y", "2*Z"],
    )
    def test_roundtrip(self, text):
        u = UElem.parse(text)
        assert UElem.parse(str(u)) == u

    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            UElem.parse("Y X")
