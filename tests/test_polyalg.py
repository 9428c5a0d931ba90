from fractions import Fraction

import pytest

from homtwist import actions, homcore
from homtwist.polyalg import Poly
from homtwist.scalars import Q, QLaurent

# The derivatives, graded slices and native product are those of the action
# model in plane_oracle, which the tables are tested against.
from plane_oracle import graded_component, partial
from plane_oracle import mul as native_mul

X = Poly.monomial(1, 0)
Y = Poly.monomial(0, 1)


def mul(p: Poly, r: Poly) -> Poly:
    """p r through the product table actions.plane_mul."""
    flat = homcore.bilinear(actions.plane_mul, homcore.flatten(p.terms), homcore.flatten(r.terms))
    return Poly(homcore.unflatten(flat.items()))


def endo(image_of_x: Poly, image_of_y: Poly):
    """The table of the endomorphism x -> image_of_x, y -> image_of_y."""
    table = actions.endo_map((image_of_x, image_of_y), actions.plane_mul)

    def apply(p: Poly) -> Poly:
        return Poly(homcore.unflatten(homcore.linear(table, homcore.flatten(p.terms)).items()))

    apply.table = table
    return apply


def alpha_q():
    return endo(X.scaled(QLaurent.q_power(2)), Y.scaled(QLaurent.q_power(1)))


class TestArithmetic:
    def test_product(self):
        assert mul(X, Y) == Poly.monomial(1, 1)

    def test_binomial(self):
        assert mul(X + Y, X + Y) == Poly.parse("x^2 + 2*x*y + y^2")

    def test_mul_zero(self):
        assert mul(Poly.parse("x^2 + y"), Poly.zero()) == Poly.zero()

    @pytest.mark.parametrize("c", [2, Fraction(1, 2), Q])
    def test_scalar_on_either_side(self, c):
        assert X * c == c * X == X.scaled(c) != X


class TestDerivatives:
    def test_power_rule_y(self):
        assert partial(Poly.parse("x^2*y"), "y") == Poly.parse("x^2")

    def test_power_rule_x(self):
        assert partial(Poly.parse("x^2*y"), "x") == Poly.parse("2*x*y")

    def test_constant(self):
        assert partial(Poly.parse("5"), "x") == Poly.zero()

    def test_leibniz_rule_on_monomials(self):
        monos = [Poly.monomial(*key) for key in Poly.basis_keys(3)]
        for p in monos:
            for r in monos:
                for var in ("x", "y"):
                    lhs = partial(native_mul(p, r), var)
                    rhs = native_mul(partial(p, var), r) + native_mul(p, partial(r, var))
                    assert lhs == rhs


class TestEndomorphisms:
    def test_monomial_weight(self):
        # x^i y^j picks up q^(2i+j)
        alpha = alpha_q()
        for i in range(4):
            for j in range(4):
                p = Poly.monomial(i, j)
                assert alpha(p) == p.scaled(QLaurent.q_power(2 * i + j))

    def test_identity(self):
        p = Poly.parse("x^3 + 2*x*y - y^2")
        assert endo(X, Y)(p) == p

    def test_substitution(self):
        assert alpha_q()(Poly.monomial(1, 1)) == Poly.monomial(1, 1, QLaurent.q_power(3))

    def test_multiplicativity(self):
        alpha = alpha_q()
        monos = [Poly.monomial(*key) for key in Poly.basis_keys(3)]
        for p in monos:
            for r in monos:
                assert alpha(mul(p, r)) == mul(alpha(p), alpha(r))

    def test_cached_images_match_fresh_products(self):
        # fresh products of the images in the native model
        shear = endo(X + Y, Y.scaled(Q))
        keys = [(i, j) for i in range(5) for j in range(5 - i)]
        for _ in range(2):  # the first call fills the table, the second reads it
            for i, j in keys:
                fresh = Poly.one()
                for factor in [X + Y] * i + [Y.scaled(Q)] * j:
                    fresh = native_mul(fresh, factor)
                assert shear(Poly.monomial(i, j, Q)) == fresh.scaled(Q)
        assert shear.table.cache_info().currsize == len(keys)

    def test_commutes_with_grading_for_diagonal_endo(self):
        alpha = alpha_q()
        p = Poly.parse("x^2 + x*y + y + 1")
        for n in range(4):
            assert graded_component(alpha(p), n) == alpha(graded_component(p, n))


class TestGrading:
    def test_graded_component(self):
        p = Poly.parse("x^2 + x*y + y")
        assert graded_component(p, 2) == Poly.parse("x^2 + x*y")
        assert graded_component(p, 1) == Poly.parse("y")

    def test_zero_cases(self):
        assert graded_component(Poly.zero(), 3) == Poly.zero()
        assert graded_component(Poly.parse("x^3"), 2) == Poly.zero()

    def test_components_sum_to_whole(self):
        p = Poly.parse("x^3 + 2*x*y - 5 + y^2")
        total = Poly.zero()
        for n in range(4):
            total = total + graded_component(p, n)
        assert total == p


class TestEnumeration:
    def test_degree_zero(self):
        assert Poly.basis_keys(0) == [(0, 0)]

    def test_degree_one_order(self):
        assert Poly.basis_keys(1) == [(0, 0), (1, 0), (0, 1)]

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5])
    def test_count(self, d):
        assert len(Poly.basis_keys(d)) == (d + 1) * (d + 2) // 2


class TestTextForm:
    @pytest.mark.parametrize(
        "text",
        ["0", "1", "x", "q^2*x^2*y + 3*x", "x^2 - y^2", "(q + 1)*x*y", "-x + 2"],
    )
    def test_roundtrip(self, text):
        p = Poly.parse(text)
        assert Poly.parse(str(p)) == p

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Poly({(-1, 0): QLaurent.one()})
