import pytest

from homtwist import actions, homcore
from homtwist.actions import act_key
from homtwist.polyalg import PolyEndo
from homtwist.polyalg import Poly, enumerate_monomials
from homtwist.scalars import QLaurent
from homtwist.uea import UElem, enumerate_pbw

from plane_oracle import alpha, partial, specialize, total_degree

X = UElem.generator("X")
Y = UElem.generator("Y")
Z = UElem.generator("Z")

# The action tables `homtwist act` contracts: act_key on ids, and rho_alpha
# of the deformed triple.
SL2 = actions.sl2_scenario(0, 0)
RHO, RHO_ALPHA = SL2.module.rho, homcore.deform_scenario(SL2).rho


def act(z: UElem, p: Poly, rho=RHO) -> Poly:
    """A table of the action applied to elements, as `homtwist act` applies it."""
    flat = homcore.bilinear(rho, homcore.flatten(z.terms), homcore.flatten(p.terms))
    return Poly(homcore.unflatten(flat.items()))


def deformed_act(z: UElem, p: Poly) -> Poly:
    return act(z, p, RHO_ALPHA)


class TestAction:
    def test_x_on_y(self):
        assert act(X, Poly.y()) == Poly.x()

    def test_y_on_x(self):
        assert act(Y, Poly.x()) == Poly.y()

    def test_z_weight(self):
        for i in range(4):
            for j in range(4):
                p = Poly.monomial(i, j)
                assert act(Z, p) == p.scaled(QLaurent.of(i - j))

    def test_unit_acts_as_identity(self):
        p = Poly.parse("x^2*y + 3*x - 1")
        assert act(UElem.one(), p) == p

    def test_pbw_monomial_acts_as_composite(self):
        p = Poly.parse("x*y^2")
        composite = act(Z, p)
        composite = act(Y, composite)
        composite = act(X, composite)
        assert act(UElem.monomial((1, 1, 1)), p) == composite

    def test_degree_preservation(self):
        for p in enumerate_monomials(4):
            n = total_degree(p)
            for gen in "XYZ":
                image = act(UElem.generator(gen), p)
                assert image.is_zero() or total_degree(image) == n


class TestDeformedAction:
    def test_displayed_formula_x(self):
        # rho_alpha(X x P) = q^2 x (dP/dy)(q^2 x, q y) for every monomial P
        for p in enumerate_monomials(4):
            expected = Poly.x().scaled(QLaurent.q_power(2)) * alpha(partial(p, "y"))
            assert deformed_act(X, p) == expected

    def test_displayed_formula_y(self):
        for p in enumerate_monomials(4):
            expected = Poly.y().scaled(QLaurent.q_power(1)) * alpha(partial(p, "x"))
            assert deformed_act(Y, p) == expected

    def test_displayed_formula_z(self):
        for p in enumerate_monomials(4):
            expected = Poly.x().scaled(QLaurent.q_power(2)) * alpha(
                partial(p, "x")
            ) - Poly.y().scaled(QLaurent.q_power(1)) * alpha(partial(p, "y"))
            assert deformed_act(Z, p) == expected

    def test_x_on_y(self):
        assert deformed_act(X, Poly.y()) == Poly.x().scaled(QLaurent.q_power(2))

    def test_z_on_x(self):
        assert deformed_act(Z, Poly.x()) == Poly.x().scaled(QLaurent.q_power(2))

    def test_q_equal_one_collapses_to_classical(self):
        for mono in enumerate_pbw(2):
            z = UElem.monomial(mono)
            for p in enumerate_monomials(3):
                assert specialize(deformed_act(z, p), 1) == specialize(act(z, p), 1)


class TestCompatibility:
    def test_generator_case(self):
        # at PBW degree <= 1 the H basis is 1, X, Y, Z: the unit and the
        # generators of Eq. (4.2)
        r = actions.sl2_scenario(1, 4)
        report = homcore.check_compatibility(r)
        assert report.passed
        assert report.checked == 4 * 15

    def test_full_compatibility(self):
        r = actions.sl2_scenario(2, 3)
        report = homcore.check_compatibility(r)
        assert report.passed and report.checked == 100

    def test_uniform_scaling_breaks_compatibility(self):
        # beta_A = (x -> q x, y -> q y) does not intertwine alpha_U
        q = QLaurent.q_power(1)
        r = actions.sl2_scenario(3, 3)._replace(
            beta_A=actions.endo_map(PolyEndo.diagonal(q, q))
        )
        report = homcore.check_compatibility(r)
        assert (len(report.counterexamples), report.checked) == (52, 200)
        # 12 of them at X, Y or Z, the generators of Eq. (4.2)
        generators = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert sum(ce.inputs[0] in generators for ce in report.counterexamples) == 12

    def test_classical_module_algebra(self):
        classical = actions.sl2_scenario(2, 2).module
        assert homcore.check_module_hom_algebra(classical).passed


def twisted_action(s, power, x, a, b) -> dict:
    """alpha_H^power(x)(ab) on basis ids, as a coordinate map."""
    xs = homcore.basis_terms(x)
    for _ in range(power):
        xs = homcore.terms(homcore.linear(s.H.alpha, xs))
    return homcore.unflatten(homcore.bilinear(s.rho, xs, s.A.mul(a, b)).items())


class TestModuleHomAlgebraSpotValues:
    # the ids of X, x, y
    X, x, y = homcore.key_ids([(1, 0, 0), (1, 0), (0, 1)])

    def test_triple_x_x_y_gives_q9_x_squared(self):
        s = actions.deformed_scenario(1, 1)
        X, x, y = self.X, self.x, self.y
        # left side of the axiom
        assert twisted_action(s, 2, X, x, y) == {(2, 0): QLaurent.q_power(9)}
        # right side via the Sweedler sum
        rhs = homcore.t_contract(
            lambda h1, h2: homcore.terms(homcore.bilinear(s.A.mul, s.rho(h1, x), s.rho(h2, y))),
            s.H.comul(X),
        )
        assert homcore.unflatten(rhs.items()) == {(2, 0): QLaurent.q_power(9)}

    def test_negative_control_gives_q8_on_left(self):
        s = actions.deformed_scenario(1, 1)
        assert twisted_action(s, 1, self.X, self.x, self.y) == {(2, 0): QLaurent.q_power(8)}

    def test_negative_control_counterexample_includes_x_x_y(self):
        s = actions.deformed_scenario(2, 2)
        report = homcore.check_module_hom_algebra(s, alpha_power=1)
        assert not report.passed
        assert ((1, 0, 0), (1, 0), (0, 1)) in [
            ce.inputs for ce in report.counterexamples
        ]


def weight_spectrum(n: int):
    """Z-eigenvalues of x^n, x^(n-1) y, ..., y^n, read off act_key.

    Asserts that X, Y and Z keep the degree-n slice and that Z scales each
    monomial.
    """
    weights = []
    for i in range(n, -1, -1):
        key = (i, n - i)
        images = [act_key(gen, key) for gen in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        assert all(sum(k) == n for terms in images for k, _ in terms)
        assert all(k == key for k, _ in images[2])
        weights.append(sum(c for _, c in images[2]))
    return weights


class TestWeightSpectrum:
    def test_degree_zero(self):
        assert weight_spectrum(0) == [0]

    def test_degree_one(self):
        assert weight_spectrum(1) == [1, -1]

    def test_degree_three(self):
        assert weight_spectrum(3) == [3, 1, -1, -3]

    @pytest.mark.parametrize("n", range(6))
    def test_full_ladder(self, n):
        assert weight_spectrum(n) == [n - 2 * k for k in range(n + 1)]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_highest_and_lowest_weight_vectors(self, n):
        assert act(X, Poly.monomial(n, 0)).is_zero()
        assert act(Y, Poly.monomial(0, n)).is_zero()

    def test_dimension(self):
        for n in range(6):
            assert len(weight_spectrum(n)) == n + 1


class TestAssembledPackage:
    def test_deformed_scenario_is_module_hom_algebra(self):
        s = actions.deformed_scenario(2, 2)
        assert homcore.check_module_axiom(s).passed
        assert homcore.check_module_hom_algebra(s).passed

    def test_action_associativity(self):
        # (uv)p = u(vp): the module axiom at alpha = Id
        report = homcore.check_module_axiom(actions.sl2_scenario(2, 3).module)
        assert report.passed and report.checked == 10 * 10 + 10 * 10 * 10
