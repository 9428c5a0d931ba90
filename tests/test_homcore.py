from dataclasses import replace

from hypothesis import given, settings, strategies as st

from homtwist import actions, finalg, homcore
from homtwist.homcore import (
    basis_terms,
    bilinear,
    build_rho2,
    build_rho_tilde,
    check_hom_associativity,
    check_hom_jacobi,
    check_module_axiom,
    check_module_hom_algebra,
    check_mu_module_morphism,
    check_multiplicativity,
    linear,
    terms,
    yau_twist_algebra,
    yau_twist_bialgebra,
)
from homtwist.polyalg import Poly
from homtwist.scalars import add_term

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
x, y = (1, 0), (0, 1)


ALPHA_A = actions.endo_map(actions.alpha_plane())


def plane(bound=2):
    """The plane with the substitution endomorphism alpha_A as structure map."""
    return replace(actions.plane_carrier(bound), alpha=ALPHA_A)


def plane_twisted(bound=2):
    """The Yau twist A_alpha of the plane by alpha_A."""
    return yau_twist_algebra(actions.plane_carrier(bound), ALPHA_A)


def classical(bound_h, bound_a):
    """The sl2 triple on the plane with alpha = Id: the classical module algebra."""
    return actions.sl2_scenario(bound_h, bound_a).module


def flat(xs) -> dict:
    """The flat element {(key, exponent): coefficient} of table terms."""
    return {(k, e): c for k, e, c in xs}


def native_flat(p) -> dict:
    """The flat element of a native Poly or UElem."""
    return flat(homcore.flatten(p.terms))


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
        def truncate(k):
            return basis_terms(k) if sum(k) <= 1 else ()

        carrier = actions.plane_carrier(1)
        broken = replace(carrier, alpha=truncate, name="broken")
        report = check_multiplicativity(broken)
        assert not report.passed
        assert ((1, 0), (0, 1)) in [ce.inputs for ce in report.counterexamples]

    def test_yau_twist_is_hom_associative(self):
        assert check_hom_associativity(plane_twisted()).passed

    def test_twist_both_sides_equal_alpha_squared(self):
        carrier = actions.plane_carrier(2)
        twisted = plane_twisted()
        alpha = actions.alpha_plane()
        for k1 in carrier.basis:
            for k2 in carrier.basis:
                for k3 in carrier.basis:
                    abc = Poly.monomial(*k1) * Poly.monomial(*k2) * Poly.monomial(*k3)
                    expected = native_flat(alpha(alpha(abc)))
                    lhs = bilinear(twisted.mul, twisted.alpha(k1), twisted.mul(k2, k3))
                    assert lhs == expected

    def test_classical_associativity_with_identity_alpha(self):
        assert check_hom_associativity(actions.plane_carrier(2)).passed

    def test_twisted_mul_with_identity_alpha_field_fails(self):
        carrier = actions.plane_carrier(2)
        mixed = replace(carrier, mul=plane_twisted().mul, name="mismatched")
        assert not check_hom_associativity(mixed).passed


class TestHomBialgebraNegativeControl:
    """A Yau twist of U(sl2) by a linear map that is not an algebra map.

    u -> sum q^(a+b+c) c_m X^a Y^b Z^c scales each PBW degree, but YX = XY - Z
    mixes degrees, so the twist must fail every condition that involves mu.
    """

    @staticmethod
    def twisted():
        def scale_degree(m):
            return ((m, sum(m), 1),)

        return yau_twist_bialgebra(actions.u_carrier(2), scale_degree)

    def test_multiplicativity_fails_first_at_y_x(self):
        report = check_multiplicativity(self.twisted())
        assert (len(report.counterexamples), report.checked) == (37, 100)
        first = report.counterexamples[0]
        assert first.rendered_inputs == ("Y", "X")
        assert first.lhs == "-q^2*Z + q^4*X Y"
        assert first.rhs == "-q^3*Z + q^4*X Y"

    def test_hom_associativity_fails_first_at_1_y_x(self):
        report = check_hom_associativity(self.twisted())
        assert (len(report.counterexamples), report.checked) == (619, 1000)
        assert report.counterexamples[0].rendered_inputs == ("1", "Y", "X")

    def test_hom_coassociativity_passes(self):
        report = homcore.check_hom_coassociativity(self.twisted())
        assert report.passed and report.checked == 10

    def test_comul_morphism_fails(self):
        report = homcore.check_comul_morphism(self.twisted())
        assert (len(report.counterexamples), report.checked) == (37, 110)
        first = report.counterexamples[0]
        assert (first.inputs, first.rendered_inputs) == ((Y, X), ("Y", "X"))
        assert first.lhs == (
            "(-q^2)*(1 x Z) + (q^4)*(1 x X Y) + (-q^2)*(Z x 1) + (q^4)*(Y x X)"
            " + (q^4)*(X x Y) + (q^4)*(X Y x 1)"
        )
        assert first.rhs == (
            "(-q^3)*(1 x Z) + (q^4)*(1 x X Y) + (-q^3)*(Z x 1) + (q^4)*(Y x X)"
            " + (q^4)*(X x Y) + (q^4)*(X Y x 1)"
        )


# -- fault injection ---------------------------------------------------
# Each perturbation adds q*e_k0 to one key-level map at one basis key; the
# checker of the identity that map enters must then fail at that key.  The
# unperturbed carrier is checked first, so a table shared between carriers
# with the same basis keys would hide the fault.


def _perturbed(table, at, k0):
    """table with q*e_k0 added to its entry at the key tuple at."""

    def entry(*keys):
        xs = table(*keys)
        if keys != at:
            return xs
        out = flat(xs)
        add_term(out, (k0, 1), 1)
        return terms(out)

    return entry


def _perturb_mul(C, k1, k2, k0):
    return replace(C, mul=_perturbed(C.mul, (k1, k2), k0))


def _perturb_alpha(C, k, k0):
    return replace(C, alpha=_perturbed(C.alpha, (k,), k0))


def _perturb_comul(C, k, pair):
    return replace(C, comul=_perturbed(C.comul, (k,), pair))


def _perturb_rho(s, h, ka, k0):
    return replace(s, rho=_perturbed(s.rho, (h, ka), k0))


_ALGEBRAS = {
    "m2": lambda: finalg.algebra_carrier(finalg.m2_algebra()),
    "sl2": lambda: actions.u_carrier(1),
}
_BIALGEBRAS = {
    "k[G]": lambda: finalg.m2_example()[1].carrier(),
    "sl2": lambda: actions.u_carrier(1),
}
_MODULES = {
    "k[G] on m2": lambda: finalg.automorphism_action(finalg.m2_example()[1]),
    "sl2 on plane": lambda: classical(1, 1),
}


def test_perturbed_comul_fails_coassociativity_at_x():
    # Delta(X) gains q*(Y x 1): the 3-fold sides differ on Y x 1 x 1 only
    broken = _perturb_comul(actions.u_carrier(1), X, (Y, (0, 0, 0)))
    report = homcore.check_hom_coassociativity(broken)
    assert (len(report.counterexamples), report.checked) == (1, 4)
    ce = report.counterexamples[0]
    assert (ce.inputs, ce.rendered_inputs) == ((X,), ("X",))
    assert ce.lhs == (
        "(1)*(1 x 1 x X) + (q)*(1 x Y x 1) + (1)*(1 x X x 1) + (2*q)*(Y x 1 x 1)"
        " + (1)*(X x 1 x 1)"
    )
    assert ce.rhs == (
        "(1)*(1 x 1 x X) + (q)*(1 x Y x 1) + (1)*(1 x X x 1) + (q)*(Y x 1 x 1)"
        " + (1)*(X x 1 x 1)"
    )


@st.composite
def _mul_fault(draw):
    C = _ALGEBRAS[draw(st.sampled_from(sorted(_ALGEBRAS)))]()
    k1, k2, k0 = (draw(st.sampled_from(C.basis)) for _ in range(3))
    return C, _perturb_mul(C, k1, k2, k0), check_hom_associativity, (k1, k2)


@st.composite
def _alpha_fault(draw):
    C = _ALGEBRAS[draw(st.sampled_from(sorted(_ALGEBRAS)))]()
    k, k0 = (draw(st.sampled_from(C.basis)) for _ in range(2))
    return C, _perturb_alpha(C, k, k0), check_multiplicativity, (k,)


@st.composite
def _comul_fault(draw):
    C = _BIALGEBRAS[draw(st.sampled_from(sorted(_BIALGEBRAS)))]()
    k, k1, k2 = (draw(st.sampled_from(C.basis)) for _ in range(3))
    return C, _perturb_comul(C, k, (k1, k2)), homcore.check_hom_bialgebra, (k,)


@st.composite
def _rho_fault(draw):
    s = _MODULES[draw(st.sampled_from(sorted(_MODULES)))]()
    h = draw(st.sampled_from(s.H.basis))
    ka, k0 = (draw(st.sampled_from(s.A.basis)) for _ in range(2))
    return s, _perturb_rho(s, h, ka, k0), check_module_hom_algebra, (h, ka)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_mul_fault(), _alpha_fault(), _comul_fault(), _rho_fault()))
def test_injected_fault_is_caught_at_its_key(fault):
    native, perturbed, checker, keys = fault
    assert checker(native).passed
    report = checker(perturbed)
    assert not report.passed
    assert any(
        all(key in ce.inputs for key in keys) for ce in report.counterexamples
    )


class TestTwistFunctoriality:
    def test_algebra_twist_at_identity_is_input(self):
        carrier = actions.plane_carrier(2)
        twisted = yau_twist_algebra(carrier, basis_terms)
        for k1 in carrier.basis:
            for k2 in carrier.basis:
                assert flat(twisted.mul(k1, k2)) == flat(carrier.mul(k1, k2))

    def test_bialgebra_twist_at_identity_is_input(self):
        carrier = actions.u_carrier(2)
        twisted = yau_twist_bialgebra(carrier, basis_terms)
        for key in carrier.basis:
            assert flat(twisted.comul(key)) == flat(carrier.comul(key))

    def test_deform_at_identity_reproduces_action(self):
        r = replace(actions.sl2_scenario(2, 2), beta_H=basis_terms, beta_A=basis_terms)
        s, deformed = r.module, homcore.deform_scenario(r)
        for kx in s.H.basis:
            for ka in s.A.basis:
                assert flat(deformed.rho(kx, ka)) == flat(s.rho(kx, ka))

    def test_double_twist_equals_twist_by_square(self):
        # the structure maps compose too: alpha_A o alpha_A o Id
        carrier = actions.plane_carrier(2)
        twice = yau_twist_algebra(plane_twisted(), ALPHA_A)
        alpha2 = lambda k: terms(linear(ALPHA_A, ALPHA_A(k)))
        once_squared = yau_twist_algebra(carrier, alpha2)
        for k1 in carrier.basis:
            assert flat(twice.alpha(k1)) == flat(once_squared.alpha(k1)) == flat(alpha2(k1))
            for k2 in carrier.basis:
                assert flat(twice.mul(k1, k2)) == flat(once_squared.mul(k1, k2))


class TestModuleStructures:
    def test_rho_tilde_passes_module_axiom(self):
        s = actions.deformed_scenario(2, 2)
        assert check_module_axiom(build_rho_tilde(s)).passed

    def test_rho_tilde_scales_by_q_squared_on_x(self):
        s = actions.deformed_scenario(2, 2)
        tilde = build_rho_tilde(s)
        # alpha_U^2(X) = q^2 X
        assert tilde.rho(X, y) == tuple((k, e + 2, c) for k, e, c in s.rho(X, y))

    def test_rho_tilde_at_identity_is_rho(self):
        s = classical(2, 2)
        tilde = build_rho_tilde(s)
        for kx in s.H.basis:
            for ka in s.A.basis:
                assert flat(tilde.rho(kx, ka)) == flat(s.rho(kx, ka))

    def test_rho2_passes_module_axiom(self):
        s = actions.deformed_scenario(1, 1)
        assert check_module_axiom(build_rho2(s)).passed

    def test_rho2_on_primitive_element(self):
        s = classical(1, 1)
        square = build_rho2(s)
        acted = square.rho(X, (y, y))
        # X(y) = x, 1(y) = y: result is x tensor y + y tensor x
        assert flat(acted) == {((x, y), 0): 1, ((y, x), 0): 1}

    def test_rho2_unit_acts_as_identity(self):
        s = classical(1, 1)
        square = build_rho2(s)
        assert square.rho((0, 0, 0), (x, y)) == basis_terms((x, y))


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


def commutator(C, a, b) -> dict:
    """[a, b] of basis keys a and b, as a flat element."""
    out = flat(C.mul(a, b))
    for k, e, c in C.mul(b, a):
        add_term(out, (k, e), -c)
    return out


class TestHomLie:
    def test_sl2_commutator_is_hom_lie_at_identity(self):
        lie = actions.u_carrier(1)
        assert check_hom_jacobi(lie).passed

    def test_twisted_bracket_values(self):
        lie = actions.sl2_scenario().lie
        assert commutator(lie, X, Y) == {(Z, 0): 1}
        assert commutator(lie, X, Z) == {(X, 1): -2}

    def test_twist_at_identity_is_original(self):
        lie = actions.u_carrier(1)
        twisted = yau_twist_algebra(lie, basis_terms)
        assert commutator(twisted, X, Y) == commutator(lie, X, Y)

    def test_twisted_sl2_passes_hom_jacobi(self):
        # 4**2 multiplicativity pairs and 4**3 Hom-Jacobi triples
        lie = actions.sl2_scenario().lie
        report = check_hom_jacobi(lie)
        assert report.passed and report.checked == 80
        assert (report.name, report.equation) == ("hom-lie", "Hom-Jacobi")

    def test_twist_by_non_lie_endomorphism_fails(self):
        # diag(1, -2, 1, 1) is not an algebra map of M2, and the commutator of
        # the twist fails bracket multiplicativity at (e12, e21) and (e21, e12)
        alpha = finalg.LinOp(
            [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        A = finalg.algebra_carrier(finalg.m2_algebra())
        report = check_hom_jacobi(yau_twist_algebra(A, finalg.linop_map(alpha)))
        assert (len(report.counterexamples), report.checked) == (2, 80)
        assert [ce.rendered_inputs for ce in report.counterexamples] == [
            ("e12", "e21"),
            ("e21", "e12"),
        ]
        assert (report.counterexamples[0].lhs, report.counterexamples[0].rhs) == (
            "e11 + -1*e22",
            "-2*e11 + 2*e22",
        )
