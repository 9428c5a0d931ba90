import pytest

from homtwist import actions
from homtwist.polyalg import Poly
from homtwist.scalars import ONE, Q, QLaurent, sparse_add

# The derivatives, graded slices and native product are those of the action
# model in plane_oracle, which the tables are tested against.
from plane_oracle import graded_component, partial
from plane_oracle import mul as native_mul
from test_uea import apply, contract

X = Poly.monomial(1, 0)
Y = Poly.monomial(0, 1)


def mul(p: Poly, r: Poly) -> Poly:
    """p r through the product table actions.plane_mul."""
    return contract(actions.plane_mul, p, r)


def endo(image_of_x: Poly, image_of_y: Poly):
    """The table of the endomorphism x -> image_of_x, y -> image_of_y."""
    return actions.endo_map((image_of_x, image_of_y), actions.plane_mul)


def alpha_q():
    return endo(X.scaled(QLaurent.q_power(2)), Y.scaled(QLaurent.q_power(1)))


class TestArithmetic:
    def test_product(self):
        assert mul(X, Y).terms == Poly.monomial(1, 1).terms

    def test_binomial(self):
        x_plus_y = Poly.parse("x + y")
        assert mul(x_plus_y, x_plus_y).terms == Poly.parse("x^2 + 2*x*y + y^2").terms

    def test_mul_zero(self):
        assert mul(Poly.parse("x^2 + y"), Poly()).terms == {}


class TestDerivatives:
    def test_power_rule_y(self):
        assert partial(Poly.parse("x^2*y"), "y").terms == Poly.parse("x^2").terms

    def test_power_rule_x(self):
        assert partial(Poly.parse("x^2*y"), "x").terms == Poly.parse("2*x*y").terms

    def test_constant(self):
        assert partial(Poly.parse("5"), "x").terms == {}

    def test_leibniz_rule_on_monomials(self):
        monos = [Poly.monomial(*key) for key in Poly.basis_keys(3)]
        for p in monos:
            for r in monos:
                for var in ("x", "y"):
                    lhs = partial(native_mul(p, r), var).terms
                    left, right = native_mul(partial(p, var), r), native_mul(p, partial(r, var))
                    assert lhs == sparse_add(left.terms, right.terms)


class TestEndomorphisms:
    def test_monomial_weight(self):
        # x^i y^j picks up q^(2i+j)
        alpha = alpha_q()
        for i in range(4):
            for j in range(4):
                p = Poly.monomial(i, j)
                assert apply(alpha, p).terms == p.scaled(QLaurent.q_power(2 * i + j)).terms

    def test_identity(self):
        p = Poly.parse("x^3 + 2*x*y - y^2")
        assert apply(endo(X, Y), p).terms == p.terms

    def test_substitution(self):
        assert apply(alpha_q(), Poly.monomial(1, 1)).terms == {(1, 1): QLaurent.q_power(3)}

    def test_multiplicativity(self):
        alpha = alpha_q()
        monos = [Poly.monomial(*key) for key in Poly.basis_keys(3)]
        for p in monos:
            for r in monos:
                assert apply(alpha, mul(p, r)).terms == mul(apply(alpha, p), apply(alpha, r)).terms

    def test_cached_images_match_fresh_products(self):
        # fresh products of the images in the native model
        x_plus_y = Poly.parse("x + y")
        shear = endo(x_plus_y, Y.scaled(Q))
        keys = [(i, j) for i in range(5) for j in range(5 - i)]
        for _ in range(2):  # the first call fills the table, the second reads it
            for i, j in keys:
                fresh = Poly.monomial(0, 0)
                for factor in [x_plus_y] * i + [Y.scaled(Q)] * j:
                    fresh = native_mul(fresh, factor)
                assert apply(shear, Poly.monomial(i, j, Q)).terms == fresh.scaled(Q).terms
        assert shear.cache_info().currsize == len(keys)

    def test_commutes_with_grading_for_diagonal_endo(self):
        alpha = alpha_q()
        p = Poly.parse("x^2 + x*y + y + 1")
        for n in range(4):
            lhs = graded_component(apply(alpha, p), n)
            assert lhs.terms == apply(alpha, graded_component(p, n)).terms


class TestGrading:
    def test_graded_component(self):
        p = Poly.parse("x^2 + x*y + y")
        assert graded_component(p, 2).terms == Poly.parse("x^2 + x*y").terms
        assert graded_component(p, 1).terms == Poly.parse("y").terms

    def test_zero_cases(self):
        assert graded_component(Poly(), 3).terms == {}
        assert graded_component(Poly.parse("x^3"), 2).terms == {}

    def test_components_sum_to_whole(self):
        p = Poly.parse("x^3 + 2*x*y - 5 + y^2")
        total = {}
        for n in range(4):
            total = sparse_add(total, graded_component(p, n).terms)
        assert total == p.terms


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
        assert Poly.parse(str(p)).terms == p.terms

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Poly({(-1, 0): ONE})
