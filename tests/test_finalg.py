import json
import re
from fractions import Fraction

import pytest

from homtwist import finalg, homcore
from homtwist.finalg import (
    GroupBialgebra,
    LinOp,
    StructAlgebra,
    algebra_carrier,
    automorphism_action,
    build_example31,
    inner_automorphism,
    load_scenario,
    m2_algebra,
    m2_example,
)
from homtwist.scalars import QLaurent

ZERO = QLaurent.zero()
ONE = QLaurent.one()


def sparse(dense):
    """The sparse coordinate map of a dense coefficient sequence."""
    return {i: c for i, c in enumerate(dense) if c}


class TestStructAlgebra:
    def test_m2_is_associative_and_unital(self):
        algebra = m2_algebra()
        e12, e21 = algebra.basis_vector(1), algebra.basis_vector(2)
        assert algebra.mul(e12, e21) == algebra.basis_vector(0)
        assert algebra.mul(e21, e12) == algebra.basis_vector(3)
        assert algebra.mul(e12, e12) == {}

    def test_rejects_non_associative_constants(self):
        # a*a = b, a*b = a, all else 0: (a*a)*b = 0 but a*(a*b) = b
        constants = {(0, 0, 1): 1, (0, 1, 0): 1}
        message = "structure constants are not associative at (a, a, a)"
        with pytest.raises(ValueError, match=re.escape(message)):
            StructAlgebra(("a", "b"), constants)

    def test_non_associative_error_renders_no_side(self, monkeypatch):
        # the error names the first failing triple's inputs only
        rendered = []
        monkeypatch.setattr(StructAlgebra, "render", lambda self, v: rendered.append(v) or "")
        with pytest.raises(ValueError) as error:
            StructAlgebra(("a", "b"), {(0, 0, 1): 1, (0, 1, 0): 1})
        assert str(error.value) == "structure constants are not associative at (a, a, a)"
        assert rendered == []

    def test_rejects_bad_or_repeated_labels(self):
        constants = {(0, 0, 0): 1, (1, 1, 1): 1}
        for labels, message in [
            (("a", None), "label 1 is not a non-empty string"),
            (("", "b"), "label 0 is not a non-empty string"),
            (("a", "a"), "labels 0 and 1 are both 'a'"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                StructAlgebra(labels, constants)

    def test_rejects_bad_unit(self):
        constants = {(0, 0, 0): 1}
        with pytest.raises(ValueError, match="unit"):
            StructAlgebra(("a",), constants, unit={0: QLaurent.of(2)})
        with pytest.raises(ValueError, match="unit"):
            StructAlgebra(("a",), constants, unit={0: ONE, 1: ONE})


class TestHomAssociativityNegativeControl:
    """A Yau twist by a linear map that is not multiplicative must fail."""

    def twisted(self):
        op = LinOp([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        return homcore.yau_twist_algebra(algebra_carrier(m2_algebra()), finalg.linop_map(op))

    def test_hom_associativity_fails(self):
        report = homcore.check_hom_associativity(self.twisted())
        assert (report.checked, len(report.counterexamples)) == (64, 4)
        first = report.counterexamples[0]
        assert first.rendered_inputs == ("e11", "e12", "e21")
        assert (first.lhs, first.rhs) == ("e11", "-2*e11")

    def test_multiplicativity_fails(self):
        report = homcore.check_multiplicativity(self.twisted())
        assert report.checked == 16
        assert [ce.rendered_inputs for ce in report.counterexamples] == [
            ("e12", "e21"),
            ("e21", "e12"),
        ]

    def test_render_negative_coefficients(self):
        algebra = m2_algebra()
        v = {0: QLaurent.of(-2), 2: QLaurent.of(Fraction(-1, 2)), 3: QLaurent.parse("q - 1")}
        assert algebra.render(v) == "-2*e11 + -1/2*e21 + (-1 + q)*e22"
        assert algebra.render({0: -ONE, 1: ONE}) == "-1*e11 + e12"
        assert algebra.render({}) == "0"


class TestLinOp:
    def test_matches_dense_row_sums(self):
        q = QLaurent.q_power(1)
        rows = [
            [0, 1, Fraction(1, 2), 0],
            [q, 0, -3, q + 1],
            [0, 0, 0, 0],
            [Fraction(-2, 3), q * q, 0, 5],
        ]
        op = LinOp(rows)
        vectors = [
            (QLaurent.of(2), ZERO, q + 1, QLaurent.of(Fraction(1, 3))),
            (ZERO, ZERO, ZERO, ZERO),
            (ONE, q, ZERO, -q),
        ]
        for v in vectors:
            dense = [sum((row[i] * v[i] for i in range(4)), ZERO) for row in rows]
            assert op(sparse(v)) == sparse(dense)

    def test_singular_endomorphism_is_not_an_automorphism(self):
        # without a unit, the zero map is an algebra endomorphism of k*a
        algebra = StructAlgebra(("a",), {(0, 0, 0): 1})
        zero_map = LinOp([[0]])
        assert zero_map.is_algebra_endo(algebra)
        assert not zero_map.is_automorphism(algebra)

    def test_is_algebra_endo_needs_products_and_unit(self):
        algebra = m2_algebra()
        # keeps the unit, but sends e12 e21 = e11 to e11 and e12 to -2*e12
        scale = LinOp([[1, 0, 0, 0], [0, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        # multiplicative, but sends the unit to 0
        zero = LinOp([[0] * 4 for _ in range(4)])
        conjugation = m2_example()[1].operators[1]
        assert not scale.is_algebra_endo(algebra)
        assert not zero.is_algebra_endo(algebra)
        assert conjugation.is_algebra_endo(algebra)

    def test_compose_and_identity(self):
        swap = LinOp([[0, 1], [1, 0]])
        scale = LinOp([[2, 0], [0, QLaurent.q_power(1)]])
        assert swap.compose(swap) == LinOp.identity(2)
        assert scale.compose(swap) == LinOp([[0, 2], [QLaurent.q_power(1), 0]])
        assert scale.compose(swap)({0: ONE}) == scale(swap({0: ONE}))


class TestInnerAutomorphism:
    def test_unit_gives_identity(self):
        algebra = m2_algebra()
        assert inner_automorphism(algebra, algebra.unit) == LinOp.identity(4)

    def test_diag_2_3_scales_off_diagonal(self):
        algebra, _, a = m2_example()
        op = inner_automorphism(algebra, a)
        e12 = algebra.basis_vector(1)
        e21 = algebra.basis_vector(2)
        assert op(e12) == {1: QLaurent.of("2/3")}
        assert op(e21) == {2: QLaurent.of("3/2")}

    def test_inverse_conjugation_composes_to_identity(self):
        algebra, _, a = m2_example()
        a_inv = algebra.inverse(a)
        op = inner_automorphism(algebra, a)
        op_inv = inner_automorphism(algebra, a_inv)
        assert op.compose(op_inv) == LinOp.identity(4)

    def test_non_invertible_rejected(self):
        algebra = m2_algebra()
        e12 = algebra.basis_vector(1)
        with pytest.raises(ValueError, match="invertible"):
            algebra.inverse(e12)


class TestGroupBialgebra:
    def test_m2_group_closure(self):
        _, G, _ = m2_example()
        assert G.size() == 2
        assert G.table[(1, 1)] == 0

    def test_rejects_non_closed_set(self):
        algebra = m2_algebra()
        conj = LinOp(
            [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
        )
        with pytest.raises(ValueError, match="not closed"):
            GroupBialgebra(algebra, [conj])

    def test_rejects_non_automorphism(self):
        algebra = m2_algebra()
        # transposition e12 <-> e21 is an anti-automorphism, not an automorphism
        swap = LinOp([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        with pytest.raises(ValueError, match="automorphism"):
            GroupBialgebra(algebra, [LinOp.identity(4), swap])

    def test_rejects_repeated_operator(self):
        algebra = m2_algebra()
        conj = LinOp([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]])
        # the dense identity equals LinOp.identity, which is built from images
        dense_identity = LinOp([[int(i == j) for j in range(4)] for i in range(4)])
        with pytest.raises(ValueError, match="operators 0 and 2 are equal"):
            GroupBialgebra(algebra, [LinOp.identity(4), conj, dense_identity])

    def test_non_multiplicative_alpha_renders_group_elements(self):
        # g -> the other element is linear but sends g0 g0 = g0 to g1
        _, G, _ = m2_example()
        report = homcore.check_multiplicativity(
            G.carrier()._replace(alpha=homcore.key_map(lambda i: {1 - i: ONE}))
        )
        assert (len(report.counterexamples), report.checked) == (4, 4)
        first = report.counterexamples[0]
        assert first.rendered_inputs == ("g0", "g0")
        assert (first.lhs, first.rhs) == ("1*g1", "1*g0")

    def test_grouplike_sweedler_sum(self):
        _, G, _ = m2_example()
        s = automorphism_action(G)
        square = homcore.build_rho2(s)
        # phi = g1 on e12 tensor e21: phi(e12) = -e12, phi(e21) = -e21, signs cancel
        g1, pair = homcore.key_ids([1, (1, 2)])
        assert homcore.unflatten(square.rho(g1, pair)) == {(1, 2): ONE}

    def test_classical_action_is_module_algebra(self):
        _, G, _ = m2_example()
        s = automorphism_action(G)
        assert homcore.check_module_hom_algebra(s).passed


class TestExample31:
    def test_full_suite_passes(self):
        algebra, G, a = m2_example()
        s = build_example31(algebra, G, a)
        assert homcore.check_hom_associativity(s.A).passed
        assert homcore.check_multiplicativity(s.A).passed
        assert homcore.check_hom_bialgebra(s.H).passed
        assert homcore.check_module_axiom(s).passed
        assert homcore.check_module_hom_algebra(s).passed
        assert homcore.check_mu_module_morphism(s).passed

    def test_unit_element_reduces_to_classical(self):
        algebra, G, _ = m2_example()
        s = build_example31(algebra, G, algebra.unit)
        classical = automorphism_action(G)
        for kh in s.H.basis:
            for ka in s.A.basis:
                assert s.rho(kh, ka) == classical.rho(kh, ka)

    def test_rejects_element_not_fixed_by_group(self):
        algebra, G, _ = m2_example()
        bad = {0: ONE, 1: ONE, 3: ONE}  # e11 + e12 + e22, conjugation negates e12
        with pytest.raises(ValueError, match="not fixed"):
            build_example31(algebra, G, bad)


class TestScenarioFile:
    def test_roundtrip_through_json(self, tmp_path):
        document = {
            "labels": ["e11", "e12", "e21", "e22"],
            "constants": [
                [i, j, k, str(c)]
                for (i, j), row in m2_algebra().constants.items()
                for k, c in row.items()
            ],
            "unit": ["1", "0", "0", "1"],
            "group": [
                [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
                [["1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "1"]],
            ],
            "element": ["2", "0", "0", "3"],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        algebra, G, a = load_scenario(path)
        s = build_example31(algebra, G, a)
        assert homcore.check_module_hom_algebra(s).passed

    def test_bad_element_length_rejected(self, tmp_path):
        document = {
            "labels": ["a"],
            "constants": [[0, 0, 0, "1"]],
            "unit": ["1"],
            "group": [[["1"]]],
            "element": ["1", "2"],
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="wrong length"):
            load_scenario(path)
