from dataclasses import replace

from homtwist import actions, homcore
from homtwist.homcore import (
    build_rho2,
    build_rho_tilde,
    check_hom_associativity,
    check_hom_jacobi,
    check_module_axiom,
    check_module_hom_algebra,
    check_mu_module_morphism,
    check_multiplicativity,
    commutator_bracket,
    lie_yau_twist,
    yau_twist_algebra,
    yau_twist_bialgebra,
)
from homtwist.polyalg import Poly
from homtwist.scalars import QLaurent
from homtwist.uea import UElem


def plane(bound=2):
    return actions.plane_carrier(bound, actions.alpha_plane())


class TestAlgebraCheckers:
    def test_substitution_endos_are_multiplicative(self):
        assert check_multiplicativity(plane()).passed

    def test_identity_alpha_is_multiplicative(self):
        assert check_multiplicativity(actions.plane_carrier(2)).passed

    def test_merged_report_keeps_every_equation(self):
        report = homcore.check_hom_bialgebra(actions.u_carrier(1))
        assert report.equation == (
            "alpha o mu = mu o (alpha x alpha); Eq. (1.2); Eq. (2.3); Eqs. (2.4)-(2.5)"
        )

    def test_truncation_map_fails_multiplicativity(self):
        # keep monomials of degree <= 1, kill the rest: linear but not
        # multiplicative, detected at (x, y)
        def truncate(p):
            return Poly({k: c for k, c in p.terms.items() if sum(k) <= 1})

        carrier = actions.plane_carrier(1)
        broken = replace(carrier, alpha=truncate, name="broken")
        report = check_multiplicativity(broken)
        assert not report.passed
        assert ((1, 0), (0, 1)) in [ce.inputs for ce in report.counterexamples]

    def test_yau_twist_is_hom_associative(self):
        assert check_hom_associativity(yau_twist_algebra(plane())).passed

    def test_twist_both_sides_equal_alpha_squared(self):
        carrier = plane()
        twisted = yau_twist_algebra(carrier)
        alpha = carrier.alpha
        for k1 in carrier.basis:
            for k2 in carrier.basis:
                for k3 in carrier.basis:
                    a, b, c = (carrier.element(k) for k in (k1, k2, k3))
                    expected = alpha(alpha(a * b * c))
                    assert twisted.mul(twisted.alpha(a), twisted.mul(b, c)) == expected

    def test_classical_associativity_with_identity_alpha(self):
        assert check_hom_associativity(actions.plane_carrier(2)).passed

    def test_twisted_mul_with_identity_alpha_field_fails(self):
        carrier = plane()
        mixed = replace(
            carrier,
            mul=yau_twist_algebra(carrier).mul,
            alpha=lambda p: p,
            name="mismatched",
        )
        assert not check_hom_associativity(mixed).passed


class TestTwistFunctoriality:
    def test_algebra_twist_at_identity_is_input(self):
        carrier = actions.plane_carrier(2)
        twisted = yau_twist_algebra(carrier)
        for k1 in carrier.basis:
            for k2 in carrier.basis:
                a, b = carrier.element(k1), carrier.element(k2)
                assert twisted.mul(a, b) == carrier.mul(a, b)

    def test_bialgebra_twist_at_identity_is_input(self):
        carrier = actions.u_carrier(2)
        twisted = yau_twist_bialgebra(carrier)
        for key in carrier.basis:
            e = carrier.element(key)
            assert twisted.comul(e) == carrier.comul(e)

    def test_deform_at_identity_reproduces_action(self):
        s = actions.classical_scenario(2, 2)
        deformed = homcore.deform_scenario(s, lambda u: u, lambda p: p)
        for kx in s.H.basis:
            for ka in s.A.basis:
                x, a = s.H.element(kx), s.A.element(ka)
                assert deformed.rho(x, a) == s.rho(x, a)

    def test_double_twist_equals_twist_by_square(self):
        carrier = plane(2)
        alpha = carrier.alpha
        twice = yau_twist_algebra(yau_twist_algebra(carrier))
        alpha2 = lambda p: alpha(alpha(p))
        once_squared = yau_twist_algebra(carrier, alpha2)
        for k1 in carrier.basis:
            for k2 in carrier.basis:
                a, b = carrier.element(k1), carrier.element(k2)
                assert twice.mul(a, b) == once_squared.mul(a, b)


class TestModuleStructures:
    def test_rho_tilde_passes_module_axiom(self):
        s = actions.deformed_scenario(2, 2)
        assert check_module_axiom(build_rho_tilde(s)).passed

    def test_rho_tilde_scales_by_q_squared_on_x(self):
        s = actions.deformed_scenario(2, 2)
        tilde = build_rho_tilde(s)
        x = UElem.generator("X")
        y = Poly.y()
        # alpha_U^2(X) = q^2 X
        assert tilde.rho(x, y) == s.rho(x, y).scaled(QLaurent.q_power(2))

    def test_rho_tilde_at_identity_is_rho(self):
        s = actions.classical_scenario(2, 2)
        tilde = build_rho_tilde(s)
        for kx in s.H.basis:
            for ka in s.A.basis:
                x, a = s.H.element(kx), s.A.element(ka)
                assert tilde.rho(x, a) == s.rho(x, a)

    def test_rho2_passes_module_axiom(self):
        s = actions.deformed_scenario(1, 1)
        assert check_module_axiom(build_rho2(s)).passed

    def test_rho2_on_primitive_element(self):
        s = actions.classical_scenario(1, 1)
        square = build_rho2(s)
        x = UElem.generator("X")
        t = square.A.element(((0, 1), (0, 1)))  # y tensor y
        acted = square.rho(x, t)
        # X(y) = x, 1(y) = y: result is x tensor y + y tensor x
        expected = {
            ((1, 0), (0, 1)): QLaurent.one(),
            ((0, 1), (1, 0)): QLaurent.one(),
        }
        assert acted == expected

    def test_rho2_unit_acts_as_identity(self):
        s = actions.classical_scenario(1, 1)
        square = build_rho2(s)
        t = square.A.element(((1, 0), (0, 1)))
        assert square.rho(UElem.one(), t) == t


class TestCharacterizationTheorem:
    def test_verdicts_agree_on_passing_scenario(self):
        s = actions.deformed_scenario(2, 2)
        assert check_module_hom_algebra(s).passed
        assert check_mu_module_morphism(s).passed

    def test_verdicts_agree_on_negative_control(self):
        s = actions.deformed_scenario(2, 2)
        direct = check_module_hom_algebra(s, alpha_power=1)
        morphism = check_mu_module_morphism(s, alpha_power=1)
        assert not direct.passed and not morphism.passed
        assert [ce.inputs for ce in direct.counterexamples] == [
            ce.inputs for ce in morphism.counterexamples
        ]


class TestHomLie:
    def test_sl2_commutator_is_hom_lie_at_identity(self):
        lie = actions.u_carrier(1)
        assert check_hom_jacobi(lie).passed

    def test_twisted_bracket_values(self):
        lie = actions.u_carrier(1)
        bracket = lie_yau_twist(commutator_bracket(lie), actions.alpha_u_handle())
        X, Y, Z = (UElem.generator(g) for g in "XYZ")
        assert bracket(X, Y) == Z
        assert bracket(X, Z) == X.scaled(QLaurent.q_power(1, -2))

    def test_twist_at_identity_is_original(self):
        lie = actions.u_carrier(1)
        base = commutator_bracket(lie)
        twisted = lie_yau_twist(base, lambda u: u)
        X, Y = UElem.generator("X"), UElem.generator("Y")
        assert twisted(X, Y) == base(X, Y)

    def test_twisted_sl2_passes_hom_jacobi(self):
        lie = actions.u_carrier(1)
        handle = actions.alpha_u_handle()
        bracket = lie_yau_twist(commutator_bracket(lie), handle)
        twisted = yau_twist_algebra(lie, handle)
        assert check_hom_jacobi(twisted, bracket).passed
