from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from homtwist import actions, cli, finalg, homcore
from homtwist.homcore import (
    basis_terms,
    bilinear,
    build_rho2,
    build_rho_tilde,
    check_hom_associativity,
    check_hom_jacobi,
    check_module_axiom,
    check_module_hom_algebra,
    check_multiplicativity,
    linear,
    terms,
    yau_twist_algebra,
    yau_twist_bialgebra,
)
from homtwist.polyalg import Poly
from homtwist.report import sweep
from homtwist.scalars import ONE, QLaurent, add_term

import plane_oracle
from test_record import h4

X, Y, Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
x, y = (1, 0), (0, 1)


ALPHA_A = actions.alpha_plane()


def plane(bound=2):
    """The plane with the substitution endomorphism alpha_A as structure map."""
    return actions.plane_carrier(bound)._replace(alpha=ALPHA_A)


def plane_twisted(bound=2):
    """The Yau twist A_alpha of the plane by alpha_A."""
    return yau_twist_algebra(actions.plane_carrier(bound), ALPHA_A)


def classical(bound_h, bound_a):
    """The sl2 triple on the plane with alpha = Id: the classical module algebra."""
    return actions.sl2_scenario(bound_h, bound_a).module


coords = homcore.unflatten  # the coordinate map {key: QLaurent} of table terms
key_of = homcore.REGISTRY.keys.__getitem__  # the key of an id


def keys(C) -> list:
    """The basis keys of a carrier."""
    return [key_of(k) for k in C.basis]


def rendered(C, *keys) -> tuple:
    """The texts of keys of C, as the inputs of a counterexample read them."""
    return tuple(map(C.render_key, keys))


class TestAlgebraCheckers:
    def test_substitution_endos_are_multiplicative(self):
        assert check_multiplicativity(plane()).passed

    def test_identity_alpha_is_multiplicative(self):
        assert check_multiplicativity(actions.plane_carrier(2)).passed

    def test_truncation_map_fails_multiplicativity(self):
        # keep monomials of degree <= 1, kill the rest: linear but not
        # multiplicative, detected at (x, y)
        truncate = homcore.key_map(lambda k: {k: ONE} if sum(k) <= 1 else {})
        carrier = actions.plane_carrier(1)
        broken = carrier._replace(alpha=truncate, name="broken")
        report = check_multiplicativity(broken)
        assert not report.passed
        assert ("x", "y") in [ce.rendered_inputs for ce in report.counterexamples]

    def test_yau_twist_is_hom_associative(self):
        assert check_hom_associativity(plane_twisted()).passed

    def test_twist_both_sides_equal_alpha_squared(self):
        carrier = actions.plane_carrier(2)
        twisted = plane_twisted()
        alpha = plane_oracle.alpha
        for k1 in carrier.basis:
            for k2 in carrier.basis:
                for k3 in carrier.basis:
                    a, b, c = (Poly.monomial(*key_of(k)) for k in (k1, k2, k3))
                    abc = plane_oracle.mul(plane_oracle.mul(a, b), c)
                    lhs = bilinear(twisted.mul, twisted.alpha(k1), twisted.mul(k2, k3))
                    assert coords(lhs.items()) == alpha(alpha(abc)).terms

    def test_classical_associativity_with_identity_alpha(self):
        assert check_hom_associativity(actions.plane_carrier(2)).passed

    def test_twisted_mul_with_identity_alpha_field_fails(self):
        carrier = actions.plane_carrier(2)
        mixed = carrier._replace(mul=plane_twisted().mul, name="mismatched")
        assert not check_hom_associativity(mixed).passed


class TestHomBialgebraNegativeControl:
    """A Yau twist of U(sl2) by a linear map that is not an algebra map.

    u -> sum q^(a+b+c) c_m X^a Y^b Z^c scales each PBW degree, but YX = XY - Z
    mixes degrees, so the twist must fail every condition that involves mu.
    """

    @staticmethod
    def twisted():
        scale_degree = homcore.key_map(lambda m: {m: QLaurent.q_power(sum(m))})
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
        assert first.rendered_inputs == ("Y", "X")
        assert first.lhs == (
            "(-q^2)*(1 x Z) + (q^4)*(1 x X Y) + (-q^2)*(Z x 1) + (q^4)*(Y x X)"
            " + (q^4)*(X x Y) + (q^4)*(X Y x 1)"
        )
        assert first.rhs == (
            "(-q^3)*(1 x Z) + (q^4)*(1 x X Y) + (-q^3)*(Z x 1) + (q^4)*(Y x X)"
            " + (q^4)*(X x Y) + (q^4)*(X Y x 1)"
        )


class TestRegularModule:
    """A Hom-algebra is a Hom-module over itself through mu: the module axiom
    of regular(A) is multiplicativity on pairs merged with Eq. (1.2) on triples.
    """

    @staticmethod
    def both(A):
        module = check_module_axiom(homcore.regular(A))
        algebra = check_multiplicativity(A).merge(check_hom_associativity(A))
        assert (module.checked, module.counterexamples) == (
            algebra.checked,
            algebra.counterexamples,
        )
        return module

    def test_twisted_plane_passes(self):
        report = self.both(plane_twisted())
        assert report.passed and report.checked == 6 * 6 + 6 * 6 * 6

    def test_degree_scaling_twist_fails_the_same_cases(self):
        report = self.both(TestHomBialgebraNegativeControl.twisted())
        assert (len(report.counterexamples), report.checked) == (37 + 619, 100 + 1000)


# -- fault injection ---------------------------------------------------
# Each perturbation adds q*e_k0 to one key-level map at one basis key; the
# checker of the identity that map enters must then fail at that key.  The
# unperturbed carrier is checked first, so a table shared between carriers
# with the same basis keys would hide the fault.


def _perturbed(table, at, k0, power=1):
    """table with q^power*e_k0 added to its entry at the key tuple at."""
    at, fault = homcore.key_ids(at), homcore.flatten({k0: QLaurent.q_power(power)})

    def entry(*ids):
        xs = table(*ids)
        if ids != at:
            return xs
        out = dict(xs)
        for p, c in fault:
            add_term(out, p, c)
        return terms(out)

    return entry


def _perturb_mul(C, k1, k2, k0):
    return C._replace(mul=_perturbed(C.mul, (k1, k2), k0))


def _perturb_alpha(C, k, k0):
    return C._replace(alpha=_perturbed(C.alpha, (k,), k0))


def _perturb_comul(C, k, pair, power=1):
    return C._replace(comul=_perturbed(C.comul, (k,), pair, power))


def _perturb_rho(s, h, ka, k0):
    return s._replace(rho=_perturbed(s.rho, (h, ka), k0))


_ALGEBRAS = {
    "m2": lambda: finalg.m2_algebra().carrier,
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
    assert ce.rendered_inputs == ("X",)
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
    k1, k2, k0 = (draw(st.sampled_from(keys(C))) for _ in range(3))
    return C, _perturb_mul(C, k1, k2, k0), check_hom_associativity, rendered(C, k1, k2)


@st.composite
def _alpha_fault(draw):
    C = _ALGEBRAS[draw(st.sampled_from(sorted(_ALGEBRAS)))]()
    k, k0 = (draw(st.sampled_from(keys(C))) for _ in range(2))
    return C, _perturb_alpha(C, k, k0), check_multiplicativity, rendered(C, k)


@st.composite
def _comul_fault(draw):
    C = _BIALGEBRAS[draw(st.sampled_from(sorted(_BIALGEBRAS)))]()
    k, k1, k2 = (draw(st.sampled_from(keys(C))) for _ in range(3))
    return C, _perturb_comul(C, k, (k1, k2)), homcore.check_hom_bialgebra, rendered(C, k)


@st.composite
def _rho_fault(draw):
    s = _MODULES[draw(st.sampled_from(sorted(_MODULES)))]()
    h = draw(st.sampled_from(keys(s.H)))
    ka, k0 = (draw(st.sampled_from(keys(s.A))) for _ in range(2))
    inputs = rendered(s.H, h) + rendered(s.A, ka)
    return s, _perturb_rho(s, h, ka, k0), check_module_hom_algebra, inputs


@settings(max_examples=60, deadline=None)
@given(st.one_of(_mul_fault(), _alpha_fault(), _comul_fault(), _rho_fault()))
def test_injected_fault_is_caught_at_its_key(fault):
    native, perturbed, checker, inputs = fault
    assert checker(native).passed
    report = checker(perturbed)
    assert not report.passed
    assert any(
        all(text in ce.rendered_inputs for text in inputs) for ce in report.counterexamples
    )


class TestTwistFunctoriality:
    def test_algebra_twist_at_identity_is_input(self):
        carrier = actions.plane_carrier(2)
        twisted = yau_twist_algebra(carrier, basis_terms)
        for k1 in carrier.basis:
            for k2 in carrier.basis:
                assert coords(twisted.mul(k1, k2)) == coords(carrier.mul(k1, k2))

    def test_bialgebra_twist_at_identity_is_input(self):
        carrier = actions.u_carrier(2)
        twisted = yau_twist_bialgebra(carrier, basis_terms)
        for key in carrier.basis:
            assert coords(twisted.comul(key)) == coords(carrier.comul(key))

    def test_deform_at_identity_reproduces_action(self):
        r = actions.sl2_scenario(2, 2)._replace(beta_H=basis_terms, beta_A=basis_terms)
        s, deformed = r.module, homcore.deform_scenario(r)
        for kx in s.H.basis:
            for ka in s.A.basis:
                assert coords(deformed.rho(kx, ka)) == coords(s.rho(kx, ka))

    def test_double_twist_equals_twist_by_square(self):
        # the structure maps compose too: alpha_A o alpha_A o Id
        carrier = actions.plane_carrier(2)
        twice = yau_twist_algebra(plane_twisted(), ALPHA_A)
        alpha2 = lambda k: terms(linear(ALPHA_A, ALPHA_A(k)))
        once_squared = yau_twist_algebra(carrier, alpha2)
        for k1 in carrier.basis:
            assert coords(twice.alpha(k1)) == coords(once_squared.alpha(k1)) == coords(alpha2(k1))
            for k2 in carrier.basis:
                assert coords(twice.mul(k1, k2)) == coords(once_squared.mul(k1, k2))

    def test_twisted_structure_map_is_beta_after_alpha(self):
        # alpha swaps x and y, and alpha_A does not commute with it:
        # alpha_A(alpha(x)) = q y, while alpha(alpha_A(x)) = q^2 y
        swap = actions.endo_map((Poly.monomial(0, 1, ONE), Poly.monomial(1, 0, ONE)),
                                actions.plane_mul)
        twisted = yau_twist_algebra(actions.plane_carrier(1)._replace(alpha=swap), ALPHA_A)
        [kx] = homcore.key_ids([x])
        assert coords(twisted.alpha(kx)) == {y: QLaurent.q_power(1)}


class TestModuleStructures:
    def test_rho_tilde_passes_module_axiom(self):
        s = actions.deformed_scenario(2, 2)
        assert check_module_axiom(build_rho_tilde(s)).passed

    def test_rho_tilde_scales_by_q_squared_on_x(self):
        s = actions.deformed_scenario(2, 2)
        tilde = build_rho_tilde(s)
        # alpha_U^2(X) = q^2 X
        iX, iy = homcore.key_ids([X, y])
        scaled = {k: c * QLaurent.q_power(2) for k, c in coords(s.rho(iX, iy)).items()}
        assert coords(tilde.rho(iX, iy)) == scaled

    def test_rho_tilde_at_identity_is_rho(self):
        s = classical(2, 2)
        tilde = build_rho_tilde(s)
        for kx in s.H.basis:
            for ka in s.A.basis:
                assert coords(tilde.rho(kx, ka)) == coords(s.rho(kx, ka))

    def test_rho2_passes_module_axiom(self):
        s = actions.deformed_scenario(1, 1)
        assert check_module_axiom(build_rho2(s)).passed

    def test_rho2_on_primitive_element(self):
        s = classical(1, 1)
        square = build_rho2(s)
        acted = square.rho(*homcore.key_ids([X, (y, y)]))
        # X(y) = x, 1(y) = y: result is x tensor y + y tensor x
        assert coords(acted) == {(x, y): ONE, (y, x): ONE}

    def test_rho2_unit_acts_as_identity(self):
        s = classical(1, 1)
        square = build_rho2(s)
        assert coords(square.rho(*homcore.key_ids([(0, 0, 0), (x, y)]))) == {(x, y): ONE}

    def test_tensor_square_basis_varies_the_second_slot_fastest(self):
        basis, render = homcore.axis(homcore.tensor(actions.plane_carrier(1)))
        assert len(basis) == 9
        assert [render(t) for t in basis[:4]] == ["1 x 1", "1 x x", "1 x y", "x x 1"]


class TestCharacterizationTheorem:
    def test_verdicts_agree_on_passing_scenario(self):
        s = actions.deformed_scenario(2, 2)
        assert check_module_hom_algebra(s).passed
        assert cli._swapped(check_module_hom_algebra(s)).passed

    def test_verdicts_agree_on_negative_control(self):
        s = actions.deformed_scenario(2, 2)
        direct = check_module_hom_algebra(s, alpha_power=1)
        morphism = cli._swapped(check_module_hom_algebra(s, alpha_power=1))
        assert not direct.passed and not morphism.passed
        assert [ce.rendered_inputs for ce in direct.counterexamples] == [
            ce.rendered_inputs for ce in morphism.counterexamples
        ]

    @staticmethod
    def cases(report):
        return [(ce.rendered_inputs, ce.lhs, ce.rhs) for ce in report.counterexamples]

    @pytest.mark.parametrize("alpha_power", [2, 1])
    @pytest.mark.parametrize(
        "deformed",
        [lambda: actions.deformed_scenario(2, 2),
         lambda: finalg.build_example31(*finalg.m2_example())],
        ids=["sl2-q", "finalg"],
    )
    def test_morphism_reads_the_module_hom_algebra_sweep(self, deformed, alpha_power):
        s = deformed()
        direct = check_module_hom_algebra(s, alpha_power)
        morphism = cli._swapped(check_module_hom_algebra(s, alpha_power))
        assert morphism.checked == direct.checked
        swapped = [(r, rhs, lhs) for r, lhs, rhs in self.cases(morphism)]
        assert swapped == self.cases(direct)

    def test_view_leaves_the_report_as_it_is(self):
        report = check_module_hom_algebra(actions.deformed_scenario(1, 1), alpha_power=1)
        before = self.cases(report)
        view = cli._swapped(report)
        assert before and self.cases(report) == before
        assert not {id(ce) for ce in view.counterexamples} & set(map(id, report.counterexamples))


def finalg_non_multiplicative_beta():
    """The deformed m2 triple with beta_A = diag(1, -2, 1, 1): 4 of 32 cases fail."""
    D = finalg.operator([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    r = finalg.example31_scenario(*finalg.m2_example())
    return homcore.deform_scenario(r._replace(beta_A=D))


def sl2_non_cocommutative(power=1):
    """The deformed sl2-q triple at (2, 2) with Delta(X) gaining q^power*(Y x 1).

    Its x' and x'' differ, so a sweep that swapped them would fail other cases.
    """
    s = actions.deformed_scenario(2, 2)
    return s._replace(H=_perturb_comul(s.H, X, (Y, (0, 0, 0)), power))


class TestFusedRightSide:
    """The right side of Eq. (2.9), summed through Delta(x), is mu_A o rho^2."""

    @staticmethod
    def reference(s, alpha_power):
        # t_contract(mu_A, rho^2(x, a x b)), with rho^2 of build_rho2
        tilde, square = build_rho_tilde(s, alpha_power).rho, build_rho2(s).rho
        mul, pair = s.A.mul, homcore.REGISTRY.pair
        return sweep(
            [homcore.axis(s.H), homcore.axis(s.A), homcore.axis(s.A)],
            lambda kx, ka, kb: bilinear(tilde, basis_terms(kx), mul(ka, kb)),
            lambda kx, ka, kb: homcore.t_contract(mul, square(kx, pair(ka, kb))),
            homcore.renderer(s.A),
        )

    @pytest.mark.parametrize(
        "deformed, alpha_power, failing",
        [(lambda: actions.deformed_scenario(2, 2), 2, 0),
         (lambda: actions.deformed_scenario(2, 2), 1, 124),
         (finalg_non_multiplicative_beta, 2, 4),
         (sl2_non_cocommutative, 2, 18),
         # the negctl-q33 workload: every failing case of the control
         (lambda: actions.deformed_scenario(3, 3), 1, 861),
         # a Delta term's exponent, folded into a row term, beyond one int
         # digit of the packed value and below zero
         (lambda: sl2_non_cocommutative(1 + 2**40), 2, 18),
         (lambda: sl2_non_cocommutative(1 - 2**40), 2, 18)],
        ids=["sl2-q", "sl2-q-control", "finalg-D", "sl2-q-non-cocommutative",
             "sl2-q33-control", "sl2-q-non-cocommutative-q^2^40",
             "sl2-q-non-cocommutative-q^-2^40"],
    )
    def test_same_cases_as_mu_of_rho2(self, deformed, alpha_power, failing):
        s = deformed()
        fused = check_module_hom_algebra(s, alpha_power)
        reference = self.reference(s, alpha_power)
        assert fused.checked == reference.checked
        assert len(fused.counterexamples) == failing
        assert fused.counterexamples == reference.counterexamples

    def test_sides_compare_by_value(self, monkeypatch):
        # the deformed m2 triple's right side meets integral Fraction sums,
        # which the loop stores as they come: each side is the reference's
        # side, and folding them to ints changes neither == nor the text
        s = finalg.build_example31(*finalg.m2_example())
        swept = []
        monkeypatch.setattr(homcore, "sweep", lambda *args: swept.append(args))
        check_module_hom_algebra(s)
        [([(xs, _), (ids, _), _], _, rhs, _)] = swept
        square, pair, mul = build_rho2(s).rho, homcore.REGISTRY.pair, s.A.mul
        integral = 0
        cases = [(kx, ka, kb) for kx in xs for ka in ids for kb in ids]
        for kx, ka, kb in cases:
            side = rhs(kx, ka, kb)
            assert side == homcore.t_contract(mul, square(kx, pair(ka, kb)))
            folded = {p: int(c) if c == int(c) else c for p, c in side.items()}
            integral += any(type(c) is not type(folded[p]) for p, c in side.items())
            # fresh renderers: one memo would key both by the same content
            assert folded == side
            assert homcore.renderer(s.A)(folded) == homcore.renderer(s.A)(side)
        assert integral


class TestFusedComulRightSide:
    """The right side of Eq. (2.5), summed in one loop, is Delta(x)Delta(y)."""

    @staticmethod
    def reference(H):
        # bilinear over the slotwise product (a1 x b1)(a2 x b2) = a1a2 x b1b2
        mul, comul, slots = H.mul, H.comul, homcore.REGISTRY.slots
        T = homcore._slotwise(H, H)

        def slotwise(t1, t2):
            (a1, b1), (a2, b2) = slots[t1], slots[t2]
            return homcore.t_outer(mul(a1, a2), mul(b1, b2))

        render = homcore.renderer(T)
        square = homcore._square(H, comul, H.alpha, T.alpha, comul, render)
        return square.merge(
            sweep(
                [homcore.axis(H)] * 2,
                lambda kx, ky: linear(comul, mul(kx, ky)),
                lambda kx, ky: bilinear(slotwise, comul(kx), comul(ky)),
                render,
            )
        )

    @pytest.mark.parametrize(
        "bialgebra, checked, failing",
        [(lambda: actions.deformed_scenario(2, 2).H, 110, 0),
         (lambda: actions.deformed_scenario(3, 3).H, 420, 0),
         (TestHomBialgebraNegativeControl.twisted, 110, 37),
         (lambda: sl2_non_cocommutative().H, 110, 22),
         # a Delta term's exponent beyond one int digit of the packed value
         # and below zero
         (lambda: sl2_non_cocommutative(1 + 2**40).H, 110, 22),
         (lambda: sl2_non_cocommutative(1 - 2**40).H, 110, 22),
         (lambda: finalg.m2_example()[1].carrier(), 6, 0)],
        ids=["sl2-q22", "sl2-q33", "degree-scaling", "non-cocommutative",
             "non-cocommutative-q^2^40", "non-cocommutative-q^-2^40", "k[G]"],
    )
    def test_same_cases_as_the_slotwise_product(self, bialgebra, checked, failing):
        H = bialgebra()
        fused = homcore.check_comul_morphism(H)
        reference = self.reference(H)
        assert (fused.checked, len(fused.counterexamples)) == (checked, failing)
        assert reference.checked == checked
        assert fused.counterexamples == reference.counterexamples


class TestRenderCaches:
    def test_renderer_reads_the_content_only(self):
        calls = []
        C = actions.plane_carrier(2)
        counted = C._replace(render_elem=lambda coords: calls.append(1) or C.render_elem(coords))
        render = homcore.renderer(counted)
        xs = homcore.flatten({x: QLaurent.q_power(2, 3), y: QLaurent.q_power(-1, Fraction(1, 2))})
        first = render(dict(xs))
        assert render(dict(reversed(xs))) == render(dict(xs)) == first
        assert first == C.render_elem(coords(xs)) and len(calls) == 1
        assert render({}) == "0" and len(calls) == 2

    def test_each_axis_renders_a_key_once(self):
        calls = {}

        def counted(C, tag):
            def render_key(key):
                text = C.render_key(key)
                calls[tag, text] = calls.get((tag, text), 0) + 1
                return text

            return C._replace(render_key=render_key)

        s = actions.deformed_scenario(2, 2)
        report = check_module_hom_algebra(s._replace(H=counted(s.H, "H"), A=counted(s.A, "A")), 1)
        # far more failing cases than keys: without the memo every case renders
        assert len(report.counterexamples) > 2 * len(calls)
        # the tag tells H's "1" from A's "1"; an A key renders once per A axis
        slots = [
            {(tag, ce.rendered_inputs[i]) for ce in report.counterexamples}
            for i, tag in enumerate("HAA")
        ]
        assert calls == {
            key: sum(key in texts for texts in slots) for key in set().union(*slots)
        }


def test_comul_morphism_interns_only_the_pairs_it_meets():
    # the group algebra of Z/3 on keys of its own: Delta(g) = g x g
    g = [("z3", i) for i in range(3)]
    H = homcore.Carrier(
        name="k[Z/3]",
        basis=homcore.key_ids(g),
        mul=homcore.on_ids(lambda a, b: [(("z3", (a[1] + b[1]) % 3), 1)]),
        comul=homcore.on_ids(lambda a: [((a, a), 1)]),
    )
    report = homcore.check_comul_morphism(H)
    assert report.passed and report.checked == 3 + 9
    # the sweeps meet the diagonal pairs g x g only; the tensor basis is not built
    assert [(a, b) in homcore.REGISTRY.ids for a in g for b in g] == [a == b for a in g for b in g]


@pytest.mark.parametrize(
    "bialgebra",
    [lambda: actions.deformed_scenario(3, 3).H,
     lambda: finalg.m2_example()[1].carrier(),
     lambda: h4().module.H,
     # exponents of Delta terms below zero, beyond one int digit
     lambda: sl2_non_cocommutative(1 - 2**40).H],
    ids=["sl2-q33", "k[G]", "H4", "non-cocommutative-q^-2^40"],
)
def test_split_coproduct_reads_comul_through_its_slots(bialgebra):
    H = bialgebra()
    split, slots = homcore.split_coproduct(H.comul), homcore.REGISTRY.slots
    for k in H.basis:
        expected = []
        for p, c in H.comul(k):
            t = p & homcore._MASK
            expected.append((p - t, *slots[t], c))
        # the same terms in the same order, each key split once
        assert split(k) == expected and split(k) is split(k)


@pytest.mark.parametrize("make", ["pair", "t_outer"])
def test_a_new_key_pair_reads_back_its_slots(make):
    registry, keys = homcore.REGISTRY, (("slots", make, 1), ("slots", make, 2))
    k1, k2 = homcore.key_ids(keys)
    if make == "pair":
        t = registry.pair(k1, k2)
    else:
        xs = ((3 * homcore.STRIDE + k1, 1),)
        [(p, c)] = homcore.t_outer(xs, ((-5 * homcore.STRIDE + k2, 2),))
        t = p & homcore._MASK
        assert (p - t, c) == (-2 * homcore.STRIDE, 2)
    # interning the pair writes no slots entry; the first read fills it
    assert t not in registry.slots
    assert registry.slots[t] == (k1, k2) and registry.keys[t] == keys


def commutator(C, a, b) -> dict:
    """[a, b] of basis keys a and b, as a coordinate map."""
    a, b = homcore.key_ids([a, b])
    out = dict(C.mul(a, b))
    for p, c in C.mul(b, a):
        add_term(out, p, -c)
    return coords(out.items())


def sl2_lie():
    """The Lie carrier of the deformed sl2-q record: U(sl(2))_alpha on PBW degree <= 1."""
    r = actions.sl2_scenario(1, 1)
    return r.lie(homcore.deform_scenario(r))


class TestHomLie:
    def test_sl2_commutator_is_hom_lie_at_identity(self):
        lie = actions.u_carrier(1)
        assert check_hom_jacobi(lie).passed

    def test_twisted_bracket_values(self):
        lie = sl2_lie()
        assert commutator(lie, X, Y) == {Z: ONE}
        assert commutator(lie, X, Z) == {X: QLaurent.q_power(1, -2)}

    def test_twist_at_identity_is_original(self):
        lie = actions.u_carrier(1)
        twisted = yau_twist_algebra(lie, basis_terms)
        assert commutator(twisted, X, Y) == commutator(lie, X, Y)

    def test_twisted_sl2_passes_hom_jacobi(self):
        # 4**2 multiplicativity pairs and 4**3 Hom-Jacobi triples
        lie = sl2_lie()
        report = check_hom_jacobi(lie)
        assert report.passed and report.checked == 80

    def test_twist_by_non_lie_endomorphism_fails(self):
        # diag(1, -2, 1, 1) is not an algebra map of M2, and the commutator of
        # the twist fails bracket multiplicativity at (e12, e21) and (e21, e12)
        alpha = finalg.operator(
            [[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        A = finalg.m2_algebra().carrier
        report = check_hom_jacobi(yau_twist_algebra(A, alpha))
        assert (len(report.counterexamples), report.checked) == (2, 80)
        assert [ce.rendered_inputs for ce in report.counterexamples] == [
            ("e12", "e21"),
            ("e21", "e12"),
        ]
        assert (report.counterexamples[0].lhs, report.counterexamples[0].rhs) == (
            "e11 + -1*e22",
            "-2*e11 + 2*e22",
        )

    def test_failing_jacobi_case_shows_the_cyclic_sum(self):
        # swapping e11 and e12 is no algebra map of M2, and the commutator of
        # the twist fails Hom-Jacobi: at (e11, e12, e21) the cyclic sum of
        # [[a, b], alpha(c)] is -e21 + e21 + e11
        alpha = finalg.operator([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        report = check_hom_jacobi(yau_twist_algebra(finalg.m2_algebra().carrier, alpha))
        jacobi = [ce for ce in report.counterexamples if len(ce.rendered_inputs) == 3]
        assert (len(report.counterexamples), len(jacobi), report.checked) == (34, 24, 80)
        assert jacobi[0] == (("e11", "e12", "e21"), "e11", "0")


# -- the packed layout -------------------------------------------------
# A term packs its q exponent and its key id into one int.  Exponents of
# +-2^40 lie far above the id field; every contraction must keep them exact,
# as QLaurent arithmetic on the coordinate maps does.

BIG = 2**40


def native_sum(pairs) -> dict:
    """The coordinate map of a sum of (key, QLaurent) pairs."""
    out = {}
    for k, c in pairs:
        out[k] = out.get(k, QLaurent.zero()) + c
    return {k: c for k, c in out.items() if c}


def plane_sum(k1, k2):
    return (k1[0] + k2[0], k1[1] + k2[1])


@pytest.mark.parametrize("e", [BIG, -BIG])
@pytest.mark.parametrize("kernel", ["linear", "bilinear", "t_contract", "t_outer", "t_map"])
def test_packed_terms_keep_huge_exponents(kernel, e):
    q = QLaurent.q_power
    xs = {(1, 0): q(e, 2) + q(-e, Fraction(1, 3)), (0, 1): q(e, -1)}
    ys = {(0, 1): q(-e, 5), (2, 0): q(e) + q(0, Fraction(3, 2))}
    # k -> 3 q^e k + 1/2 q^-e xk, and the plane product scaled by 2 q^e
    image = lambda k: {k: q(e, 3), plane_sum(k, (1, 0)): q(-e, Fraction(1, 2))}
    product = lambda k1, k2: {plane_sum(k1, k2): q(e, 2)}
    tensor_xy = {(k1, k2): c1 * c2 for k1, c1 in xs.items() for k2, c2 in ys.items()}
    if kernel == "linear":
        got = homcore.linear(homcore.key_map(image), homcore.flatten(xs))
        expected = native_sum(
            (k2, c * c2) for k, c in xs.items() for k2, c2 in image(k).items()
        )
    elif kernel == "bilinear":
        table = homcore.key_map(product)
        got = bilinear(table, homcore.flatten(xs), homcore.flatten(ys))
        expected = native_sum(
            (k, c * c2) for (k1, k2), c in tensor_xy.items() for k, c2 in product(k1, k2).items()
        )
    elif kernel == "t_contract":
        got = homcore.t_contract(homcore.key_map(product), homcore.flatten(tensor_xy))
        expected = native_sum(
            (k, c * c2) for (k1, k2), c in tensor_xy.items() for k, c2 in product(k1, k2).items()
        )
    elif kernel == "t_map":
        # image x image on the pair keys of tensor_xy; linear merges like terms
        table = homcore.key_map(image)
        got = homcore.linear(homcore.t_map(table, table), homcore.flatten(tensor_xy))
        expected = native_sum(
            ((j1, j2), c * c1 * c2)
            for (k1, k2), c in tensor_xy.items()
            for j1, c1 in image(k1).items()
            for j2, c2 in image(k2).items()
        )
    else:
        # the outer product does not merge like terms: the identity map does
        outer = homcore.t_outer(homcore.flatten(xs), homcore.flatten(ys))
        got = homcore.linear(basis_terms, outer)
        expected = tensor_xy
    assert coords(got.items()) == expected
    # the huge exponents reach the result
    assert any(abs(x) >= BIG for c in expected.values() for x in c.terms)


def test_registry_raises_at_capacity():
    registry = homcore.KeyRegistry(3)
    assert [registry.ids[key] for key in "abc"] == [0, 1, 2]
    with pytest.raises(OverflowError, match="full at 3 keys"):
        registry.ids["d"]
    with pytest.raises(OverflowError):
        registry.pair(0, 1)
    # no key was aliased or half-registered
    assert registry.keys == ["a", "b", "c"] and "d" not in registry.ids
    assert registry.ids["a"] == 0
    assert homcore.REGISTRY.capacity == homcore.STRIDE


def test_registry_reserves_a_basis_of_capacity_keys():
    registry = homcore.KeyRegistry(3)
    registry.reserve(3)
    with pytest.raises(OverflowError, match="a basis of 4 keys overflows 3 key ids"):
        registry.reserve(4)
    assert registry.keys == []
