import pytest

from homtwist import actions
from homtwist.polyalg import Poly
from homtwist.scalars import ONE, Q, QLaurent, sparse_add

# The derivatives, graded slices and native product are those of the action
# model in plane_oracle, which the tables are tested against.
from plane_oracle import graded_component, partial
from plane_oracle import mul as native_mul
from test_uea import apply, contract

X, Y = {(1, 0): ONE}, {(0, 1): ONE}
MONOMIALS = [{key: ONE} for key in Poly.basis_keys(3)]


def mul(p: dict, r: dict) -> dict:
    """p r through the product table actions.plane_mul."""
    return contract(actions.plane_mul, p, r)


def endo(image_of_x: dict, image_of_y: dict):
    """The table of the endomorphism x -> image_of_x, y -> image_of_y."""
    return actions.endo_map((image_of_x, image_of_y), actions.plane_mul)


def alpha_q():
    return endo({(1, 0): QLaurent.q_power(2)}, {(0, 1): Q})


class TestArithmetic:
    def test_product(self):
        assert mul(X, Y) == {(1, 1): ONE}

    def test_binomial(self):
        x_plus_y = Poly.parse("x + y")
        assert mul(x_plus_y, x_plus_y) == Poly.parse("x^2 + 2*x*y + y^2")

    def test_mul_zero(self):
        assert mul(Poly.parse("x^2 + y"), {}) == {}


class TestDerivatives:
    def test_power_rule_y(self):
        assert partial(Poly.parse("x^2*y"), "y") == Poly.parse("x^2")

    def test_power_rule_x(self):
        assert partial(Poly.parse("x^2*y"), "x") == Poly.parse("2*x*y")

    def test_constant(self):
        assert partial(Poly.parse("5"), "x") == {}

    def test_leibniz_rule_on_monomials(self):
        for p in MONOMIALS:
            for r in MONOMIALS:
                for var in ("x", "y"):
                    lhs = partial(native_mul(p, r), var)
                    left, right = native_mul(partial(p, var), r), native_mul(p, partial(r, var))
                    assert lhs == sparse_add(left, right)


class TestEndomorphisms:
    def test_monomial_weight(self):
        # x^i y^j picks up q^(2i+j)
        alpha = alpha_q()
        for i in range(4):
            for j in range(4):
                assert apply(alpha, {(i, j): ONE}) == {(i, j): QLaurent.q_power(2 * i + j)}

    def test_identity(self):
        p = Poly.parse("x^3 + 2*x*y - y^2")
        assert apply(endo(X, Y), p) == p

    def test_substitution(self):
        assert apply(alpha_q(), {(1, 1): ONE}) == {(1, 1): QLaurent.q_power(3)}

    def test_multiplicativity(self):
        alpha = alpha_q()
        for p in MONOMIALS:
            for r in MONOMIALS:
                assert apply(alpha, mul(p, r)) == mul(apply(alpha, p), apply(alpha, r))

    def test_cached_images_match_fresh_products(self):
        # fresh products of the images in the native model
        x_plus_y = Poly.parse("x + y")
        q_y = {(0, 1): Q}
        shear = endo(x_plus_y, q_y)
        keys = [(i, j) for i in range(5) for j in range(5 - i)]
        for _ in range(2):  # the first call fills the table, the second reads it
            for i, j in keys:
                fresh = {(0, 0): Q}
                for factor in [x_plus_y] * i + [q_y] * j:
                    fresh = native_mul(fresh, factor)
                assert apply(shear, {(i, j): Q}) == fresh
        assert shear.cache_info().currsize == len(keys)

    def test_commutes_with_grading_for_diagonal_endo(self):
        alpha = alpha_q()
        p = Poly.parse("x^2 + x*y + y + 1")
        for n in range(4):
            lhs = graded_component(apply(alpha, p), n)
            assert lhs == apply(alpha, graded_component(p, n))


class TestGrading:
    def test_graded_component(self):
        p = Poly.parse("x^2 + x*y + y")
        assert graded_component(p, 2) == Poly.parse("x^2 + x*y")
        assert graded_component(p, 1) == Poly.parse("y")

    def test_zero_cases(self):
        assert graded_component({}, 3) == {}
        assert graded_component(Poly.parse("x^3"), 2) == {}

    def test_components_sum_to_whole(self):
        p = Poly.parse("x^3 + 2*x*y - 5 + y^2")
        total = {}
        for n in range(4):
            total = sparse_add(total, graded_component(p, n))
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
        assert Poly.parse(Poly.render(p)) == p

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Poly.parse("x^-1")
