import pytest

from homtwist import actions, homcore
from homtwist.actions import act_key
from homtwist.polyalg import Poly
from homtwist.scalars import _MAX_POWER_BITS, ONE, Q, QLaurent, sparse_add

from plane_oracle import alpha, mul, partial, total_degree
from test_uea import UNIT, X, Y, Z, contract


def monomials(bound):
    """The plane basis up to total degree bound, as coordinate maps."""
    return [{key: ONE} for key in Poly.basis_keys(bound)]


# The action tables `homtwist act` contracts: act_key on ids, and rho_alpha
# of the deformed triple.
SL2 = actions.sl2_scenario(0, 0)
RHO, RHO_ALPHA = SL2.module.rho, homcore.deform_scenario(SL2).rho


def act(z: dict, p: dict) -> dict:
    """The action table applied to elements, as `homtwist act` applies it."""
    return contract(RHO, z, p)


def deformed_act(z: dict, p: dict) -> dict:
    return contract(RHO_ALPHA, z, p)


class TestAction:
    def test_x_on_y(self):
        assert act(X, {(0, 1): ONE}) == {(1, 0): ONE}

    def test_y_on_x(self):
        assert act(Y, {(1, 0): ONE}) == {(0, 1): ONE}

    def test_z_weight(self):
        for i in range(4):
            for j in range(4):
                expected = {(i, j): QLaurent.of(i - j)} if i != j else {}
                assert act(Z, {(i, j): ONE}) == expected

    def test_unit_acts_as_identity(self):
        p = Poly.parse("x^2*y + 3*x - 1")
        assert act(UNIT, p) == p

    def test_pbw_monomial_acts_as_composite(self):
        p = Poly.parse("x*y^2")
        composite = act(Z, p)
        composite = act(Y, composite)
        composite = act(X, composite)
        assert act({(1, 1, 1): ONE}, p) == composite

    def test_degree_preservation(self):
        for p in monomials(4):
            n = total_degree(p)
            for gen in (X, Y, Z):
                image = act(gen, p)
                assert not image or total_degree(image) == n


class TestCoefficientBound:
    def test_huge_coefficient_is_refused_before_it_is_computed(self):
        # 2^(10^8) and perm(10^6, 10^6) have more bits than specialize allows
        for mono, key in [((0, 0, 10**8), (2, 0)), ((0, 10**6, 0), (10**6, 0))]:
            with pytest.raises(OverflowError, match="too large to compute"):
                act_key(mono, key)

    def test_zero_and_moderate_coefficients_are_exact(self):
        # Z on x^i y^i is 0 before the bound is read
        assert act_key((0, 10**6, 1), (10**6, 10**6)) == ()
        assert act_key((0, 0, 20000), (2, 0)) == (((2, 0), 2**20000),)

    # Each term of the estimate, Z's c * bits(i - j), Y's b * bits(i) and X's
    # a * bits(j + b), at exactly _MAX_POWER_BITS is computed, and one bit
    # more is refused.  The inputs keep the coefficients cheap.
    M = _MAX_POWER_BITS

    @pytest.mark.parametrize(
        "mono, key, image",
        [
            ((0, 0, M // 2), (2, 0), ((2, 0), 2 ** (M // 2))),
            ((0, 0, M), (2, 1), ((2, 1), 1)),
            ((0, 1, 0), (2 ** (M - 1), 0), ((2 ** (M - 1) - 1, 1), 2 ** (M - 1))),
            ((1, 0, 0), (0, 2 ** (M - 1)), ((1, 2 ** (M - 1) - 1), 2 ** (M - 1))),
            # Y then X: bits(i) + bits(j + b) with j + b a power of 2
            ((1, 1, 0), (1, 2 ** (M - 2) - 1), ((1, 2 ** (M - 2) - 1), 2 ** (M - 2))),
        ],
        ids=["Z-on-x^2", "Z-on-x^2y", "Y", "X", "XY"],
    )
    def test_estimate_at_the_bound_is_computed(self, mono, key, image):
        assert act_key(mono, key) == (image,)

    @pytest.mark.parametrize(
        "mono, key",
        [
            ((0, 0, M + 1), (2, 1)),
            ((0, 1, 0), (2**M, 0)),
            ((1, 0, 0), (0, 2**M)),
            ((1, 1, 0), (1, 2 ** (M - 1) - 1)),
        ],
        ids=["Z-on-x^2y", "Y", "X", "XY"],
    )
    def test_one_bit_over_the_bound_is_refused(self, mono, key):
        with pytest.raises(OverflowError, match="too large to compute"):
            act_key(mono, key)


class TestDeformedAction:
    def test_displayed_formula_x(self):
        # rho_alpha(X x P) = q^2 x (dP/dy)(q^2 x, q y) for every monomial P
        for p in monomials(4):
            expected = mul({(1, 0): Q * Q}, alpha(partial(p, "y")))
            assert deformed_act(X, p) == expected

    def test_displayed_formula_y(self):
        for p in monomials(4):
            expected = mul({(0, 1): Q}, alpha(partial(p, "x")))
            assert deformed_act(Y, p) == expected

    def test_displayed_formula_z(self):
        for p in monomials(4):
            plus = mul({(1, 0): Q * Q}, alpha(partial(p, "x")))
            minus = mul({(0, 1): QLaurent.q_power(1, -1)}, alpha(partial(p, "y")))
            assert deformed_act(Z, p) == sparse_add(plus, minus)

    def test_x_on_y(self):
        assert deformed_act(X, {(0, 1): ONE}) == {(1, 0): QLaurent.q_power(2)}

    def test_z_on_x(self):
        assert deformed_act(Z, {(1, 0): ONE}) == {(1, 0): QLaurent.q_power(2)}


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
        r = actions.sl2_scenario(3, 3)._replace(
            beta_A=actions.endo_map(({(1, 0): Q}, {(0, 1): Q}), actions.plane_mul)
        )
        report = homcore.check_compatibility(r)
        assert (len(report.counterexamples), report.checked) == (52, 200)
        # 12 of them at X, Y or Z, the generators of Eq. (4.2)
        generators = {"X", "Y", "Z"}
        assert sum(ce.rendered_inputs[0] in generators for ce in report.counterexamples) == 12


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
    # the ladders weight_spectrum(n) == [n, n - 2, ..., -n] for n <= 5 are
    # acceptance criterion 7
    @pytest.mark.parametrize("n", range(1, 6))
    def test_highest_and_lowest_weight_vectors(self, n):
        assert not act(X, {(n, 0): ONE})
        assert not act(Y, {(0, n): ONE})


class TestAssembledPackage:
    def test_action_associativity(self):
        # (uv)p = u(vp): the module axiom at alpha = Id
        report = homcore.check_module_axiom(actions.sl2_scenario(2, 3).module)
        assert report.passed and report.checked == 10 * 10 + 10 * 10 * 10
